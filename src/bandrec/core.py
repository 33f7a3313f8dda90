"""Shared enums, error types, the sizes check and the hypothesis label used across the package."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable


class ValidationError(ValueError):
    """Rejected input: malformed file, inconsistent sizes, out-of-domain argument."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


def sorted_sizes(sizes: Iterable) -> list[int]:
    """The distinct sizes, ascending, as ints; a size that is not an integer (a bool either) is refused."""
    sizes = list(sizes)
    for L in sizes:
        if isinstance(L, bool) or not isinstance(L, numbers.Integral):
            raise ValidationError(f"sizes must be integers, got {L!r}")
    return sorted(set(map(int, sizes)))


class Twist(enum.Enum):
    """Boundary phase of a finite ring: periodic (0) or antiperiodic (pi)."""

    PBC = "pbc"
    ABC = "abc"

    @property
    def theta(self) -> float:
        return 0.0 if self is Twist.PBC else math.pi

    @property
    def q(self) -> int:
        """Boundary phase factor exp(i*theta); real (+1 or -1) for the two twists."""
        return 1 if self is Twist.PBC else -1

    @classmethod
    def parse(cls, text: str) -> "Twist":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValidationError(f"unknown twist {text!r}, expected 'pbc' or 'abc'") from None

    def __str__(self) -> str:
        return self.value


class Statistics(enum.Enum):
    """Quasi-particle exchange statistics; `sign` is the factor in e_L = sign*(nu/2)*S_L."""

    BOSON = "boson"
    FERMION = "fermion"

    @property
    def sign(self) -> int:
        return 1 if self is Statistics.BOSON else -1

    @classmethod
    def parse(cls, text: str) -> "Statistics":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValidationError(
                f"unknown statistics {text!r}, expected 'boson' or 'fermion'"
            ) from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Hypothesis:
    """One of the four quasi-free readings of an energy series."""

    statistics: Statistics
    twist: Twist

    @property
    def label(self) -> str:
        return f"{self.statistics.value}-{self.twist.value}"

    @classmethod
    def parse(cls, text: str) -> "Hypothesis":
        parts = text.strip().lower().split("-")
        if len(parts) != 2:
            raise ValidationError(f"unknown hypothesis {text!r}, expected e.g. 'boson-pbc'")
        return cls(Statistics.parse(parts[0]), Twist.parse(parts[1]))

    def __str__(self) -> str:
        return self.label


ALL_HYPOTHESES: tuple[Hypothesis, ...] = (
    Hypothesis(Statistics.BOSON, Twist.PBC),
    Hypothesis(Statistics.FERMION, Twist.PBC),
    Hypothesis(Statistics.BOSON, Twist.ABC),
    Hypothesis(Statistics.FERMION, Twist.ABC),
)
