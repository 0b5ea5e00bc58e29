"""Exact dyadic distances: zero or a power 2**-e, never a float.

The prefix metric on words takes only these values, so representing them
as an optional integer exponent keeps every comparison exact.  Ordering
follows the numeric value: the zero distance sorts below everything and
larger exponents sort below smaller ones.

Opacity is a value of this metric too, zero or 2**-(n-1) for a shortest
clashing word of length n, so this class holds it as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class DyadicDistance:
    """Value 0 (exponent None) or 2**-exponent with exponent >= 0."""

    exponent: int | None

    def __post_init__(self):
        if self.exponent is not None and self.exponent < 0:
            raise ValueError(f"exponent out of range: {self.exponent}")

    @property
    def is_transparent(self) -> bool:
        """True at zero, the opacity of a machine with no clashing word."""
        return self.exponent is None

    @property
    def is_opaque(self) -> bool:
        """True at 1/2, the largest opacity (a clashing word of length 2)."""
        return self.exponent == 1

    @property
    def witness_length(self) -> int | None:
        """Length of a shortest clashing word at this opacity; None at zero."""
        return None if self.exponent is None else self.exponent + 1

    def as_dyadic(self) -> DyadicDistance:
        """The value itself: opacities and distances share this class."""
        return self

    def as_fraction(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, 2**self.exponent)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, DyadicDistance):
            return NotImplemented
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    def __str__(self) -> str:
        return str(self.as_fraction())


ZERO = DyadicDistance(None)


def pow2inv(exponent: int) -> DyadicDistance:
    """The distance 2**-exponent."""
    return DyadicDistance(exponent)
