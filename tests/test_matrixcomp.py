import pytest

from bellpaths import matrixcomp, verify
from bellpaths.core import EnumerationBoundError
from bellpaths.polyring import Polynomial, WeightSpec

SYM = WeightSpec.symbolic()
T1 = Polynomial.variable("t", 1)
T2 = Polynomial.variable("t", 2)


def test_row_shape_validation():
    with pytest.raises(ValueError):
        matrixcomp.BipartiteMatrixComposition(((0, 2),))
    with pytest.raises(ValueError):
        matrixcomp.BipartiteMatrixComposition(((1, -1),))
    ok = matrixcomp.BipartiteMatrixComposition(((2, 1, 0), (0, 0, 0)))
    assert ok.total == 3
    assert ok.nonzero_entries() == [2, 1]


def test_enumerate_examples():
    got = sorted(m.rows for m in matrixcomp.enumerate_bipartite(2, 2, 1))
    assert got == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]

    assert [m.rows for m in matrixcomp.enumerate_bipartite(0, 2, 3)] == [
        ((0, 0, 0), (0, 0, 0))
    ]

    got = sorted(m.rows for m in matrixcomp.enumerate_bipartite(2, 1, 2))
    assert got == [((1, 1),), ((2, 0),)]


def test_enumerate_bound():
    with pytest.raises(EnumerationBoundError):
        list(matrixcomp.enumerate_bipartite(11, 2, 2))


def test_bounded_composition_count_values():
    for j in range(5):
        for r in range(12):
            assert matrixcomp.bounded_composition_count(1, j, r) == (
                1 if r <= j else 0
            ), (j, r)
    assert matrixcomp.bounded_composition_count(2, 1, 2) == 1
    assert matrixcomp.bounded_composition_count(4, 2, 3) == 16
    # empty matrix shape
    assert matrixcomp.bounded_composition_count(0, 3, 0) == 1
    assert matrixcomp.bounded_composition_count(0, 3, 2) == 0


def test_bounded_composition_count_is_a_count():
    # directly count p-tuples with entries in 0..j summing to r
    from itertools import product

    for p in range(4):
        for j in range(4):
            tallies = {}
            for combo in product(range(j + 1), repeat=p):
                tallies[sum(combo)] = tallies.get(sum(combo), 0) + 1
            for r in range(p * j + 2):
                assert matrixcomp.bounded_composition_count(p, j, r) == tallies.get(
                    r, 0
                ), (p, j, r)


def test_closed_examples():
    assert matrixcomp.weighted_sum_closed(2, 2, 1, SYM) == T2 * 2 + T1**2
    assert matrixcomp.weighted_sum_closed(2, 1, 2, SYM) == T2 + T1**2
    for j in range(4):
        assert matrixcomp.weighted_sum_closed(0, 0, j, SYM) == 1
        for m in range(1, 4):
            assert matrixcomp.weighted_sum_closed(m, 0, j, SYM) == 0


def test_closed_matches_enumeration_and_series():
    assert verify.check("matrixcomp", "closed-vs-enumeration", 5) is None


def test_nonzero_refinement():
    assert matrixcomp.weighted_sum_by_nonzeros(2, 2, 1, 2, SYM) == T1**2
    assert matrixcomp.weighted_sum_by_nonzeros(2, 2, 1, 1, SYM) == T2 * 2

    for p in range(3):
        for j in range(4):
            for m in range(5):
                total = Polynomial.zero()
                by_nonzeros = {}
                for matrix in matrixcomp.enumerate_bipartite(m, p, j):
                    r = len(matrix.nonzero_entries())
                    by_nonzeros[r] = by_nonzeros.get(
                        r, Polynomial.zero()
                    ) + matrixcomp.matrix_weight(matrix, SYM)
                for r in range(m + 1):
                    refined = matrixcomp.weighted_sum_by_nonzeros(m, p, j, r, SYM)
                    assert refined == by_nonzeros.get(r, Polynomial.zero()), (m, p, j, r)
                    total = total + refined
                assert total == matrixcomp.weighted_sum_closed(m, p, j, SYM)


def test_count_by_type_examples():
    assert matrixcomp.count_by_type(2, 1, {1: 2}) == 1
    assert matrixcomp.count_by_type(2, 1, {2: 1}) == 2
    for p in range(4):
        for j in range(4):
            assert matrixcomp.count_by_type(p, j, {}) == (
                matrixcomp.bounded_composition_count(p, j, 0)
            )


def test_count_by_type_partitions_matrix_set():
    for p in range(3):
        for j in range(4):
            for m in range(5):
                by_type = {}
                total = 0
                for matrix in matrixcomp.enumerate_bipartite(m, p, j):
                    entries = matrix.nonzero_entries()
                    key = tuple(sorted((v, entries.count(v)) for v in set(entries)))
                    by_type[key] = by_type.get(key, 0) + 1
                    total += 1
                summed = 0
                for key, expected in by_type.items():
                    got = matrixcomp.count_by_type(p, j, dict(key))
                    assert got == expected, (m, p, j, key)
                    summed += got
                assert summed == total


def test_zero_one_counts():
    assert matrixcomp.zero_one_count(2, 2, 2) == 3
    assert matrixcomp.zero_one_count(4, 2, 3) == 16
    for j in range(4):
        for m in range(8):
            assert matrixcomp.zero_one_count(1, j, m) == (1 if m <= j else 0)

    zero_one = WeightSpec.from_tables({1: 1}, {})
    for p in range(4):
        for j in range(4):
            for m in range(7):
                closed = matrixcomp.weighted_sum_closed(
                    m, p, j, zero_one
                ).constant_value()
                assert matrixcomp.zero_one_count(p, j, m) == closed
                direct = sum(
                    1
                    for matrix in matrixcomp.enumerate_bipartite(m, p, j)
                    if all(e <= 1 for row in matrix.rows for e in row)
                )
                assert closed == direct


def test_plane_tree_validation():
    tree = matrixcomp.PlaneTree((2, 0, 1, 0))
    assert tree.vertex_count == 4
    assert tree.max_outdegree == 2
    with pytest.raises(ValueError):
        matrixcomp.PlaneTree((2, 0))  # dangling slot
    with pytest.raises(ValueError):
        matrixcomp.PlaneTree((0, 1))  # closes early
    with pytest.raises(ValueError):
        matrixcomp.PlaneTree(())


def test_tree_counts():
    assert matrixcomp.bounded_outdegree_tree_count(4, 2) == 4
    assert matrixcomp.bounded_outdegree_tree_count(1, 3) == 1
    # outdegree cap at least v-1 leaves all plane trees: Catalan numbers
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for v in range(1, 9):
        assert matrixcomp.bounded_outdegree_tree_count(v, v - 1 if v > 1 else 1) == (
            catalan[v - 1]
        ), v


def test_unary_binary_trees_are_motzkin_counted():
    motzkin_numbers = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
    for v in range(1, 11):
        assert matrixcomp.bounded_outdegree_tree_count(v, 2) == motzkin_numbers[v - 1]


def test_tree_enumeration_is_valid_and_bounded():
    trees = list(matrixcomp.enumerate_plane_trees(6, 2))
    assert len(trees) == len(set(trees))
    for tree in trees:
        assert tree.vertex_count == 6
        assert tree.max_outdegree <= 2
    with pytest.raises(EnumerationBoundError):
        matrixcomp.bounded_outdegree_tree_count(11, 3)


def test_tree_matrix_correspondence():
    for m in range(9):
        for j in range(5):
            trees = matrixcomp.bounded_outdegree_tree_count(m + 1, j)
            assert (m + 1) * trees == matrixcomp.bounded_composition_count(
                m + 1, j, m
            ), (m, j)


def test_column_stability():
    for p in range(4):
        for r in range(9):
            reference = matrixcomp.bounded_composition_count(p, r, r)
            for j in range(r, r + 5):
                assert matrixcomp.bounded_composition_count(p, j, r) == reference


def test_general_matrix_series_matches_enumeration():
    assert verify.check("matrixcomp", "general-matrix-series", 5) is None
