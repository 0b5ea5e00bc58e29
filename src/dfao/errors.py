"""Exception types shared across the package."""


class DfaoError(Exception):
    """Base class for every error this package raises on purpose.

    An error about one line of a machine description stores that line as
    `.line` and starts its message with `line N: `; `.line` is None when
    no line is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class BadRadix(DfaoError):
    """The digit radix k must be an integer >= 2."""


class NoStates(DfaoError):
    """A machine needs at least one state."""


class UnknownState(DfaoError):
    """A state name or index was referenced but never declared."""


class DuplicateState(DfaoError):
    """The same state was declared twice."""


class MissingTransition(DfaoError):
    """The transition table must cover every (state, digit) pair."""


class DuplicateTransition(DfaoError):
    """The transition table defines some (state, digit) pair twice."""


class MissingOutput(DfaoError):
    """Outputs must cover every state or be omitted entirely."""


class DigitOutOfRange(DfaoError):
    """An input digit lies outside 0 .. k-1."""


class RadixMismatch(DfaoError):
    """The operation needs two machines over the same digit alphabet."""


class UnknownCorpusName(DfaoError):
    """No bundled machine has that name."""


class NoRecurrence(DfaoError):
    """No independent closed form is bundled for that sequence."""


class InstanceTooLarge(DfaoError):
    """An input or an exhaustive enumeration would exceed its budget: a
    machine file over the CLI's size limit, a `generate` count over its
    term or output limit, or an oracle sweep over its relabeling or table
    budget."""


class AutSyntaxError(DfaoError):
    """Malformed .aut text."""


class BadToken(DfaoError, ValueError):
    """A state name or output token that the text format cannot carry: not
    a string, empty, or holding whitespace or '#'.  Also a ValueError."""
