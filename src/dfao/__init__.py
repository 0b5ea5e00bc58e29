"""Digit machines with output: build, minimize, and measure opacity.

A machine here is a complete deterministic automaton over the digits
0..k-1 together with an output label on every state.  Feeding it the
base-k digits of n, most significant first, yields term n of a
sequence.  The package computes how much of the machine's path through
its states can be recovered from outputs alone (its opacity), finds the
canonical smallest machine generating the same sequence, and checks
everything against a brute-force oracle.
"""

from .automaton import (
    Automaton,
    Dfao,
    RawDfao,
    Word,
    are_equivalent,
    make_dfao,
    validate,
)
from .dyadic import ZERO, DyadicDistance, pow2inv
from .errors import (
    AutSyntaxError,
    BadRadix,
    BadToken,
    DfaoError,
    DigitOutOfRange,
    DuplicateState,
    DuplicateTransition,
    InstanceTooLarge,
    MissingOutput,
    MissingTransition,
    NoRecurrence,
    NoStates,
    RadixMismatch,
    UnknownCorpusName,
    UnknownState,
)
from .minimize import FactorMap, Partition, intrinsic_automaton, minimize, moore_partition
from .opacity import (
    MAX_OPACITY,
    AnalysisReport,
    Classification,
    PathWitness,
    StateHomogeneity,
    analyze_sequence,
    compute_opacity,
    is_homogeneous_automaton,
    is_opaque_quick,
    longest_homogeneous_prefix,
    shortest_inhomogeneous_path,
    state_homogeneity,
)
from .oracle import (
    brute_force_opacity,
    oracle_bound,
    per_word_infs,
)

__version__ = "0.1.0"

__all__ = [
    "Automaton",
    "Dfao",
    "RawDfao",
    "Word",
    "are_equivalent",
    "make_dfao",
    "validate",
    "ZERO",
    "DyadicDistance",
    "pow2inv",
    "AutSyntaxError",
    "BadRadix",
    "BadToken",
    "DfaoError",
    "DigitOutOfRange",
    "DuplicateState",
    "DuplicateTransition",
    "InstanceTooLarge",
    "MissingOutput",
    "MissingTransition",
    "NoRecurrence",
    "NoStates",
    "RadixMismatch",
    "UnknownCorpusName",
    "UnknownState",
    "FactorMap",
    "Partition",
    "intrinsic_automaton",
    "minimize",
    "moore_partition",
    "MAX_OPACITY",
    "AnalysisReport",
    "Classification",
    "PathWitness",
    "StateHomogeneity",
    "analyze_sequence",
    "compute_opacity",
    "is_homogeneous_automaton",
    "is_opaque_quick",
    "longest_homogeneous_prefix",
    "shortest_inhomogeneous_path",
    "state_homogeneity",
    "brute_force_opacity",
    "oracle_bound",
    "per_word_infs",
    "__version__",
]
