"""Compositions with nonnegative parts, viewed as special Motzkin paths.

A composition of m into j parts is an ordered tuple of nonnegative integers
summing to m.  Replacing each nonzero part a by the block u^a d^a and each
zero part by a single h embeds it as a Motzkin path; u-segments then
correspond one-to-one with nonzero parts and h-segments with maximal runs of
zero parts.  The closed forms count compositions by sum, parts, zero parts,
and h-segment statistics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .bell import WeightVector, partial_bell, potential
from .core import (
    EnumerationBoundError, as_integer, binomial, factorial, multinomial, part_type,
)
from .motzkin import _SHARED_SPECS
from .polyring import Polynomial, WeightSpec

SUM_BOUND = 12
PARTS_BOUND = 12


def enumerate_compositions(m: int, j: int) -> Iterator[tuple]:
    """All ordered j-tuples of nonnegative integers summing to m, in
    lexicographic order, each exactly once.  Empty stream when j = 0 and
    m > 0; the single empty composition when j = m = 0.

    Stars and bars: each composition is one draw of j - 1 bar positions
    among m + j - 1 slots, the other m slots hold stars, and the parts are
    the runs of stars before, between and after the bars.  `combinations`
    draws the positions in lexicographic order, and a smaller first
    differing bar is a smaller first differing part, so the stream is in
    lexicographic order too (Knuth, TAOCP 4A, section 7.2.1.3).  Each
    composition is yielded as its tuple of parts.
    """
    if m < 0 or j < 0:
        raise ValueError("sum and parts must be >= 0")
    if m > SUM_BOUND or j > PARTS_BOUND:
        raise EnumerationBoundError(
            f"composition enumeration bound is m <= {SUM_BOUND}, j <= {PARTS_BOUND}"
        )
    if j == 0:
        if m == 0:
            yield ()
        return
    slots = m + j - 1
    for bars in combinations(range(slots), j - 1):
        parts = []
        start = 0
        for bar in bars:
            parts.append(bar - start)
            start = bar + 1
        parts.append(slots - start)
        yield tuple(parts)


def composition_to_motzkin(parts: tuple) -> str:
    """The path embedding, as its string of steps: part a >= 1 becomes
    u^a d^a, part 0 becomes h.  Each part is read as an integer (2.0 is 2);
    a non-integral or negative part is refused."""
    pieces = []
    for part in map(as_integer, parts):
        if part > 0:
            pieces.append("u" * part + "d" * part)
        elif part == 0:
            pieces.append("h")
        else:
            raise ValueError(f"parts must be nonnegative, got {parts}")
    return "".join(pieces)


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
    u_type, h_type = part_type(u_type), part_type(h_type)
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
    allowed_set = None if allowed is None else frozenset(map(as_integer, allowed))
    if allowed_set is not None and any(a < 1 for a in allowed_set):
        raise ValueError("allowed parts must be positive")
    forbidden = None if forbidden is None else as_integer(forbidden)
    if forbidden is not None and forbidden < 1:
        raise ValueError("the forbidden part must be positive")
    value = weighted_sum_closed(m, 0, j, _restricted_weights(allowed_set, forbidden))
    return as_integer(value.constant_value())


@lru_cache(maxsize=_SHARED_SPECS)
def _restricted_weights(allowed: frozenset | None, forbidden: int | None) -> WeightSpec:
    """The one spec of a restriction rule: t_i = 1 on the parts it admits and
    0 elsewhere, s_i = 1.  Shared, as motzkin.named_weights shares its specs,
    so every count under the rule reads the same Bell rows."""

    def t_rule(i):
        if forbidden is not None and i == forbidden:
            return 0
        if allowed is not None and i not in allowed:
            return 0
        return 1

    return WeightSpec(t_rule, lambda i: 1, name="restricted")
