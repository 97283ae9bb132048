"""The carriers of the density increment: a set A of density alpha in
[1, N] (DensitySet), a progression, one extraction's result and one
level's arc energies.  A DensitySet holds its elements as an ascending
tuple of Python ints, and this module imports no numpy (see arith):
energy builds DensitySet.array and balanced, holds the increment
operations, and has its public names answered here too.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property

from . import _EXPORTS
from .arith import check_integers
from .errors import DomainError

__all__ = [
    "DensitySet",
    "EnergyStats",
    "IncrementOutcome",
    "Progression",
]


# ---------------------------------------------------------------------------
# carriers


class DensitySet(namedtuple("DensitySet", "n elements")):
    """A nonempty subset of [1, n] with its ambient interval.  elements is
    an ascending tuple of distinct Python ints (the constructor reads any
    sequence of integers, numpy's too, and refuses every other element);
    array is the same elements as one read-only int64 array, built on first
    read, the view each numpy reader of the set takes, cached in the
    instance dict.  _make, so _replace too, goes through the constructor's
    checks."""

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, n: int, elements):
        if n < 1:
            raise DomainError(f"ambient length must be >= 1, got {n}")
        e = check_integers(elements)
        if not e:
            raise DomainError("elements must be nonempty")
        if e[0] < 1 or e[-1] > n:
            raise DomainError(f"elements must lie in [1, {n}]")
        if not all(map(operator.lt, e, e[1:])):
            raise DomainError("elements must be strictly increasing")
        return super().__new__(cls, n, e)

    @classmethod
    def from_iterable(cls, n: int, points) -> "DensitySet":
        return cls(n, sorted(set(check_integers(points))))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def alpha(self) -> float:
        return self.size / self.n

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as a read-only int64 array."""
        from .energy import _frozen_array

        return _frozen_array(self.elements)

    def balanced(self) -> np.ndarray:
        """g = 1_A - alpha 1_[1,N] as an array, g(x) at index x - 1."""
        from .energy import _balanced

        return _balanced(self)


class Progression(namedtuple("Progression", "first step length")):
    """{first + j step : 0 <= j < length}.  _make, so _replace too, goes
    through the constructor's check."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, first: int, step: int, length: int):
        if step < 1 or length < 1:
            raise DomainError(f"need step, length >= 1, got step={step}, length={length}")
        return super().__new__(cls, first, step, length)

    def last(self) -> int:
        return self.first + (self.length - 1) * self.step

    def within(self, n: int) -> bool:
        return self.first >= 1 and self.last() <= n


class IncrementOutcome(
    namedtuple(
        "IncrementOutcome", "progression intersection_count new_alpha met_guarantee detail"
    )
):
    """Result of one extraction attempt.  met_guarantee refers to the
    operation's own inequality, checked on the recounted intersection.
    detail defaults to a new empty dict per outcome."""

    __slots__ = ()

    def __new__(cls, progression, intersection_count, new_alpha, met_guarantee, detail=None):
        detail = {} if detail is None else detail
        return super().__new__(
            cls, progression, intersection_count, new_alpha, met_guarantee, detail
        )


EnergyStats = namedtuple("EnergyStats", "q eta energy star_energy")


def __getattr__(name: str):
    """The public names of energy, bound here on first access (PEP 562)."""
    if name not in _EXPORTS["energy"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import energy

    value = globals()[name] = getattr(energy, name)
    return value
