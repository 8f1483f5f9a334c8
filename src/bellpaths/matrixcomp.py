"""Bipartite matrix compositions and bounded-outdegree plane trees.

A matrix composition of m is a p x j matrix of nonnegative integers summing
to m.  It is bipartite when every row has the shape (a_1, ..., a_i, 0, ..., 0)
with all a's positive: no nonzero entry follows a zero.  Rows embed as
Motzkin paths exactly like compositions, and the nonzero entries of a row are
its u-segment lengths.  The closed count factors through a coefficient that
is itself the number of ways to spread r nonzero entries over p rows with at
most j per row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .bell import WeightVector, as_polynomial, partial_bell
from .core import EnumerationBoundError, binomial, factorial, multinomial, part_type
from .polyring import Polynomial, WeightSpec

SUM_BOUND = 10
ROWS_BOUND = 4
COLS_BOUND = 5
TREE_BOUND = 10


def _bipartite_rows(total: int, cols: int):
    """All bipartite rows of length cols with the given sum, ascending lex."""
    if total == 0:
        yield (0,) * cols
        return
    seen = []

    def rec(remaining: int, slots: int):
        if remaining == 0:
            yield tuple(seen) + (0,) * slots
            return
        if slots == 0:
            return
        for first in range(1, remaining + 1):
            seen.append(first)
            yield from rec(remaining - first, slots - 1)
            seen.pop()

    yield from rec(total, cols)


def _check_bipartite_args(m: int, p: int, j: int) -> None:
    """The argument and bound check of enumerate_bipartite and
    bipartite_count."""
    if m < 0 or p < 0 or j < 0:
        raise ValueError("arguments must be >= 0")
    if m > SUM_BOUND or p > ROWS_BOUND or j > COLS_BOUND:
        raise EnumerationBoundError(
            f"bipartite enumeration bounds are m <= {SUM_BOUND}, "
            f"p <= {ROWS_BOUND}, j <= {COLS_BOUND}"
        )


def enumerate_bipartite(m: int, p: int, j: int) -> Iterator[tuple]:
    """All p x j bipartite matrix compositions of m, each exactly once, as
    its tuple of rows."""
    _check_bipartite_args(m, p, j)

    # the rows of each sum, listed once per call rather than once per prefix
    rows_of_sum = [tuple(_bipartite_rows(row_sum, j)) for row_sum in range(m + 1)]

    def rec(rows: list, remaining: int, slots: int):
        if slots == 0:
            if remaining == 0:
                yield tuple(rows)
            return
        for row_sum in range(remaining + 1):
            for row in rows_of_sum[row_sum]:
                rows.append(row)
                yield from rec(rows, remaining - row_sum, slots - 1)
                rows.pop()

    yield from rec([], m, p)


def bipartite_count(m: int, p: int, j: int) -> int:
    """The number of matrices enumerate_bipartite(m, p, j) yields, with its
    checks, counted without listing one: the bipartite rows of each sum, by
    the recursion of _bipartite_rows, convolved over the p rows."""
    _check_bipartite_args(m, p, j)
    # rows[s][c]: bipartite rows of sum s over c columns; a row of sum s > 0
    # is a first entry 1..s followed by a row of the rest over c - 1 columns
    rows = [[1] * (j + 1)]
    for total in range(1, m + 1):
        rows.append([0] + [
            sum(rows[total - first][cols - 1] for first in range(1, total + 1))
            for cols in range(1, j + 1)
        ])
    # matrices[r]: the first rows placed so far, with entries summing to r
    matrices = [1] + [0] * m
    for _ in range(p):
        matrices = [
            sum(matrices[r - total] * rows[total][j] for total in range(r + 1))
            for r in range(m + 1)
        ]
    return matrices[m]


def entries_weight(entries, weights: WeightSpec):
    """Product of t-weights over the given nonzero entries, as a weight-ring
    value."""
    result = 1
    for entry in entries:
        result = result * weights.entry("t", entry)
    return result


def bounded_composition_count(p: int, j: int, r: int) -> int:
    """Number of ways to write r as an ordered sum of p parts, each in 0..j:

        sum_{i=0..floor(r/(j+1))} (-1)^i C(p, i) C(p + r - i(j+1) - 1, p - 1).

    This is the coefficient through which every bipartite matrix count
    refined by the number of nonzero entries factors.  The binomial sum form
    presumes p >= 1; the empty matrix case p = 0 contributes 1 at r = 0.
    """
    if p < 0 or j < 0 or r < 0:
        raise ValueError("arguments must be >= 0")
    if p == 0:
        return 1 if r == 0 else 0
    total = 0
    for i in range(r // (j + 1) + 1):
        sign = 1 if i % 2 == 0 else -1
        total += sign * binomial(p, i) * binomial(p + r - i * (j + 1) - 1, p - 1)
    return total


def weighted_sum_closed(m: int, p: int, j: int, weights: WeightSpec) -> Polynomial:
    """Closed form for the weighted sum over p x j bipartite matrix
    compositions of m:

        sum_{r=0..m} r! U(p, j, r) B(m, r; t) / m!

    with U the bounded-composition count above.
    """
    if m < 0 or p < 0 or j < 0:
        raise ValueError("arguments must be >= 0")
    if p * j == 0 < m:
        return Polynomial.zero()  # U(p, j, r) = 0 for every r >= 1, before any row
    bells = WeightVector.from_weights(weights, "t").row(m)
    total = 0
    for r in range(m + 1):
        u = bounded_composition_count(p, j, r)
        if u and bells[r]:
            total = total + bells[r] * (factorial(r) * u)
    return as_polynomial(total * Fraction(1, factorial(m)))


def weighted_sum_by_nonzeros(
    m: int, p: int, j: int, r: int, weights: WeightSpec
) -> Polynomial:
    """Weighted sum restricted to matrices with exactly r nonzero entries:

        r! B(m, r; t) U(p, j, r) / m!.
    """
    if m < 0 or p < 0 or j < 0 or r < 0:
        raise ValueError("arguments must be >= 0")
    bt = partial_bell(m, r, WeightVector.from_weights(weights, "t"))
    if bt.is_zero():
        return Polynomial.zero()
    return bt * Fraction(
        factorial(r) * bounded_composition_count(p, j, r), factorial(m)
    )


def count_by_type(p: int, j: int, entry_type: dict) -> int:
    """Number of p x j bipartite matrix compositions whose nonzero entries
    form the given multiset (entry_type maps value to count):

        multinomial(r; type) * U(p, j, r)   with r the total count.
    """
    entry_type = part_type(entry_type)
    r = sum(entry_type.values())
    return multinomial(r, entry_type.values()) * bounded_composition_count(p, j, r)


def zero_one_count(p: int, j: int, m: int) -> int:
    """Number of p x j bipartite (0,1)-matrices with m ones; equals the
    bounded-composition count directly, and the closed weighted sum
    specialized at t_1 = 1, t_i = 0 for i >= 2."""
    return bounded_composition_count(p, j, m)


def _check_tree_args(v: int) -> None:
    """The argument and bound check of enumerate_plane_trees and
    bounded_outdegree_tree_count."""
    if v < 1:
        raise ValueError("a plane tree has at least one vertex")
    if v > TREE_BOUND:
        raise EnumerationBoundError(f"tree enumeration bound is v <= {TREE_BOUND}")


def enumerate_plane_trees(v: int, max_degree: int) -> Iterator[tuple]:
    """All plane trees on v vertices with every outdegree <= max_degree, each
    yielded as its tuple of preorder vertex outdegrees, in lexicographic
    order: the ballot sequences whose outdegrees sum to v - 1 and whose
    every proper prefix leaves a slot open."""
    _check_tree_args(v)
    sequence: list[int] = []

    def rec(placed: int, open_slots: int):
        if placed == v:
            if open_slots == 0:
                yield tuple(sequence)
            return
        # each vertex still to place needs a slot, and degrees add slots
        for degree in range(0, min(max_degree, v - placed) + 1):
            slots = open_slots + degree - 1
            if slots < 0:
                continue
            if slots == 0 and placed + 1 < v:
                continue
            if slots > v - placed - 1:
                continue
            sequence.append(degree)
            yield from rec(placed + 1, slots)
            sequence.pop()

    yield from rec(0, 1)


def bounded_outdegree_tree_count(v: int, max_degree: int) -> int:
    """Number of plane trees on v vertices with all outdegrees <= max_degree:
    the number enumerate_plane_trees(v, max_degree) yields, with its checks,
    counted over its states without listing a tree.

    trees[slots] counts the outdegree prefixes of the vertices placed so far
    that leave `slots` open, extended by the enumerator's moves and pruning.
    """
    _check_tree_args(v)
    trees = {1: 1}
    for placed in range(v):
        grown: dict = {}
        for open_slots, ways in trees.items():
            for degree in range(min(max_degree, v - placed) + 1):
                slots = open_slots + degree - 1
                if slots < 0 or (slots == 0 and placed + 1 < v) or slots > v - placed - 1:
                    continue
                grown[slots] = grown.get(slots, 0) + ways
        trees = grown
    return trees.get(0, 0)
