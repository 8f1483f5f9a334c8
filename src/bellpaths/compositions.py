"""Compositions with nonnegative parts, viewed as special Motzkin paths.

A composition of m into j parts is an ordered tuple of nonnegative integers
summing to m.  Replacing each nonzero part a by the block u^a d^a and each
zero part by a single h embeds it as a Motzkin path; u-segments then
correspond one-to-one with nonzero parts and h-segments with maximal runs of
zero parts.  The closed forms count compositions by sum, parts, zero parts,
and h-segment statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .bell import WeightVector, partial_bell, potential
from .core import EnumerationBoundError, as_integer, binomial, factorial, multinomial
from .motzkin import MotzkinPath
from .polyring import Polynomial, WeightSpec

DEFAULT_SUM_BOUND = 12
DEFAULT_PARTS_BOUND = 12


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of nonnegative parts."""

    parts: tuple

    def __post_init__(self):
        if any(p < 0 for p in self.parts):
            raise ValueError(f"parts must be nonnegative, got {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def zero_parts(self) -> int:
        return sum(1 for p in self.parts if p == 0)


def enumerate_compositions(
    m: int,
    j: int,
    sum_bound: int = DEFAULT_SUM_BOUND,
    parts_bound: int = DEFAULT_PARTS_BOUND,
) -> Iterator[Composition]:
    """All ordered j-tuples of nonnegative integers summing to m, in
    lexicographic order, each exactly once.  Empty stream when j = 0 and
    m > 0; the single empty composition when j = m = 0."""
    if m < 0 or j < 0:
        raise ValueError("sum and parts must be >= 0")
    if m > sum_bound or j > parts_bound:
        raise EnumerationBoundError(
            f"composition enumeration bound is m <= {sum_bound}, j <= {parts_bound}"
        )

    def rec(prefix: list, remaining: int, slots: int):
        if slots == 0:
            if remaining == 0:
                yield Composition(tuple(prefix))
            return
        if slots == 1:
            yield Composition(tuple(prefix) + (remaining,))
            return
        for first in range(remaining + 1):
            prefix.append(first)
            yield from rec(prefix, remaining - first, slots - 1)
            prefix.pop()

    yield from rec([], m, j)


def composition_to_motzkin(comp: Composition) -> MotzkinPath:
    """The path embedding: part a >= 1 becomes u^a d^a, part 0 becomes h."""
    pieces = []
    for part in comp.parts:
        if part == 0:
            pieces.append("h")
        else:
            pieces.append("u" * part + "d" * part)
    return MotzkinPath("".join(pieces))


def weighted_sum_closed(m: int, k: int, j: int, weights: WeightSpec) -> Polynomial:
    """Closed form for the weighted sum over compositions of m into j parts
    with k zero parts:

        potential(k, j-k+1; s) / k!  *  (j-k)! B(m, j-k; t) / m!

    which vanishes when j < k and when m >= 1 with j = k.
    """
    if m < 0 or k < 0 or j < 0:
        raise ValueError("arguments must be >= 0")
    if j < k:
        return Polynomial.zero()
    bt = partial_bell(m, j - k, WeightVector.from_weights(weights, "t"))
    if bt.is_zero():
        return Polynomial.zero()
    pot = potential(k, j - k + 1, WeightVector.from_weights(weights, "s"))
    scale = Fraction(factorial(j - k), factorial(k) * factorial(m))
    return pot * bt * scale


def weighted_sum_by_hsegments(
    m: int, k: int, j: int, l: int, weights: WeightSpec
) -> Polynomial:
    """Weighted sum restricted to compositions whose zero parts form exactly l
    runs:  C(j-k+1, l) (j-k)! l! / (k! m!) * B(m, j-k; t) B(k, l; s).

    At most j-k+1 zero-runs fit between and around the j-k nonzero parts, so
    the binomial factor kills larger l.
    """
    if m < 0 or k < 0 or j < 0 or l < 0:
        raise ValueError("arguments must be >= 0")
    if j < k:
        return Polynomial.zero()
    bt = partial_bell(m, j - k, WeightVector.from_weights(weights, "t"))
    bs = partial_bell(k, l, WeightVector.from_weights(weights, "s"))
    if bt.is_zero() or bs.is_zero():
        return Polynomial.zero()
    scale = Fraction(
        binomial(j - k + 1, l) * factorial(j - k) * factorial(l),
        factorial(k) * factorial(m),
    )
    return bt * bs * scale


def count_by_type(j: int, u_type: dict, h_type: dict) -> int:
    """Number of compositions into j parts whose nonzero parts have the given
    multiset (u_type maps part value to count) and whose zero-runs have the
    given length multiset:  C(j-k+1, l) * multinomials of the two types."""
    u_type = {int(i): int(c) for i, c in u_type.items() if c}
    h_type = {int(i): int(c) for i, c in h_type.items() if c}
    if any(i < 1 or c < 0 for i, c in u_type.items()) or any(
        i < 1 or c < 0 for i, c in h_type.items()
    ):
        raise ValueError("types need lengths >= 1 and counts >= 0")
    k = sum(i * c for i, c in h_type.items())
    r = sum(u_type.values())
    l = sum(h_type.values())
    if r != j - k:
        raise ValueError(
            f"inconsistent types: {r} nonzero parts plus {k} zeros do not fill {j} slots"
        )
    return (
        binomial(j - k + 1, l)
        * multinomial(r, u_type.values())
        * multinomial(l, h_type.values())
    )


def restricted_count(
    m: int,
    j: int,
    allowed: set | None = None,
    forbidden: int | None = None,
) -> int:
    """Number of compositions of m into j strictly positive parts drawn from
    `allowed` (every positive integer when None), optionally excluding the
    single positive value `forbidden`.  Evaluated through the closed form with
    0/1 t-weights; the result is asserted to be integral.
    """
    allowed_set = None if allowed is None else {int(a) for a in allowed}
    if allowed_set is not None and any(a < 1 for a in allowed_set):
        raise ValueError("allowed parts must be positive")
    if forbidden is not None and forbidden < 1:
        raise ValueError("the forbidden part must be positive")

    def t_rule(i):
        if forbidden is not None and i == forbidden:
            return Fraction(0)
        if allowed_set is not None and i not in allowed_set:
            return Fraction(0)
        return Fraction(1)

    weights = WeightSpec(t_rule, lambda i: Fraction(1), name="restricted")
    value = weighted_sum_closed(m, 0, j, weights)
    return as_integer(value.constant_value())
