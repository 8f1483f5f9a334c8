"""The three counters that answer `motzkin count`, `matcomp count` and
`matcomp trees` without listing an object, each against the enumerator
whose recursion it tables: the same numbers over the whole bounded domain,
the same errors, and no enumerator called from the command line."""

import pytest

from bellpaths import cli, matrixcomp, motzkin

PAIRS = (
    (motzkin.count_paths, motzkin.enumerate_paths),
    (matrixcomp.bipartite_count, matrixcomp.enumerate_bipartite),
    (matrixcomp.bounded_outdegree_tree_count, matrixcomp.enumerate_plane_trees),
)


def _is_motzkin(steps, m, k) -> bool:
    """m u's, m d's, k h's and no other step, with no prefix below the axis."""
    if sorted(steps) != sorted("u" * m + "d" * m + "h" * k):
        return False
    height = 0
    for step in steps:
        height += (step == "u") - (step == "d")
        if height < 0:
            return False
    return True


def test_path_count_equals_its_enumerator():
    # one listing of the bounded domain: the count, and every path the
    # enumerator yields valid and listed once
    for m in range(8):
        for k in range(15 - 2 * m):
            paths = list(motzkin.enumerate_paths(m, k))
            for steps in paths:
                assert type(steps) is str and _is_motzkin(steps, m, k), (m, k, steps)
            assert len(set(paths)) == len(paths), (m, k)
            count = motzkin.count_paths(m, k)
            assert type(count) is int
            assert count == len(paths), (m, k)


def _is_bipartite(matrix, m, p, j) -> bool:
    """p rows of j nonnegative entries, no nonzero entry after a zero, and
    entries summing to m."""
    return (
        len(matrix) == p
        and all(
            len(row) == j and min(row, default=0) >= 0 and 0 not in row[: j - row.count(0)]
            for row in matrix
        )
        and sum(map(sum, matrix)) == m
    )


def test_bipartite_count_equals_its_enumerator():
    # one listing of the bounded domain: the count, and the shape of every
    # matrix the enumerator yields
    for m in range(matrixcomp.SUM_BOUND + 1):
        for p in range(matrixcomp.ROWS_BOUND + 1):
            for j in range(matrixcomp.COLS_BOUND + 1):
                listed = 0
                for matrix in matrixcomp.enumerate_bipartite(m, p, j):
                    assert _is_bipartite(matrix, m, p, j), (m, p, j, matrix)
                    listed += 1
                assert matrixcomp.bipartite_count(m, p, j) == listed, (m, p, j)


def _is_plane_tree(outdegrees, v, max_degree) -> bool:
    """The preorder outdegrees of a plane tree on v vertices, each at most
    max_degree: a ballot sequence, whose outdegrees sum to v - 1 and whose
    every proper prefix leaves a slot open."""
    open_slots = 1
    for position, degree in enumerate(outdegrees):
        if not 0 <= degree <= max_degree:
            return False
        open_slots += degree - 1
        if open_slots < 0 or (open_slots == 0 and position + 1 < len(outdegrees)):
            return False
    return len(outdegrees) == v and open_slots == 0


def test_the_validity_rules_refuse_what_they_should():
    assert _is_motzkin("uhd", 1, 1) and _is_motzkin("", 0, 0)
    for steps, m, k in (("du", 1, 0), ("uu", 1, 0), ("uxd", 1, 0), ("uhd", 1, 0)):
        assert not _is_motzkin(steps, m, k), steps
    assert _is_plane_tree((2, 0, 1, 0), 4, 2) and _is_plane_tree((0,), 1, 0)
    for outdegrees, v, max_degree in (
        ((2, 0), 2, 2), ((0, 1), 2, 1), ((), 0, 1), ((2, 0, 1, 0), 4, 1),
        ((1, -1, 2, 0, 0), 5, 2),
    ):
        assert not _is_plane_tree(outdegrees, v, max_degree), outdegrees


def test_tree_count_equals_its_enumerator():
    # max degree -1 admits no vertex, not even a lone leaf, in both; every
    # tree listed is valid and listed once
    for v in range(1, matrixcomp.TREE_BOUND + 1):
        for max_degree in range(-1, 10):
            trees = list(matrixcomp.enumerate_plane_trees(v, max_degree))
            for tree in trees:
                assert type(tree) is tuple, (v, max_degree, tree)
                assert _is_plane_tree(tree, v, max_degree), (v, max_degree, tree)
            assert len(set(trees)) == len(trees), (v, max_degree)
            assert matrixcomp.bounded_outdegree_tree_count(v, max_degree) == len(
                trees
            ), (v, max_degree)


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "pair, args",
    [
        (0, (-1, 0, 16)), (0, (0, -1, 16)), (0, (1, 1, -1)), (0, (8, 1, 16)),
        (0, (0, 17, 16)), (0, (0, 65, 64)), (0, (0, 65, 100)), (0, (40, 0, 100)),
        (0, (600, 0, 2000)), (0, (-1, 0, -1)),
        (1, (-1, 2, 2)), (1, (2, -1, 2)), (1, (2, 2, -1)), (1, (11, -1, 2)),
        (1, (11, 4, 5)), (1, (10, 5, 5)), (1, (10, 4, 6)),
        (2, (0, 2)), (2, (-1, 2)), (2, (11, 2)), (2, (11, -1)),
    ],
)
def test_counters_raise_what_their_enumerators_raise(pair, args):
    counter, enumerator = PAIRS[pair]
    expected = _raised(lambda: list(enumerator(*args)))
    assert expected is not None
    assert _raised(lambda: counter(*args)) == expected


PATH_BOUND = "error: path length {} exceeds enumeration bound {}\n"
MATRIX_BOUND = "error: bipartite enumeration bounds are m <= 10, p <= 4, j <= 5\n"
SIZES = "error: arguments must be >= 0\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ("motzkin count --m -1", 1, "", "error: step counts must be >= 0\n"),
        ("motzkin count --k -1", 1, "", "error: step counts must be >= 0\n"),
        ("motzkin count --m 1 --bound -1", 1, "", SIZES),
        ("motzkin count --m 8", 0, "1430\n", ""),
        ("motzkin count --m 8 --k 1", 3, "", PATH_BOUND.format(17, 16)),
        ("motzkin count --m 2 --k 3 --bound 7", 0, "70\n", ""),
        ("motzkin count --m 2 --k 3 --bound 6", 3, "", PATH_BOUND.format(7, 6)),
        ("motzkin count --m 1 --k 62 --bound 64", 0, "2016\n", ""),
        ("motzkin count --k 65 --bound 64", 3, "", PATH_BOUND.format(65, 64)),
        ("motzkin count --m 32 --k 1 --bound 100", 3, "", PATH_BOUND.format(65, 64)),
        ("motzkin count --m 40 --bound 100", 3, "", PATH_BOUND.format(80, 64)),
        ("matcomp count --m -1 --p 2 --j 2", 1, "", SIZES),
        ("matcomp count --m 2 --p -1 --j 2", 1, "", SIZES),
        ("matcomp count --m 2 --p 2 --j -1", 1, "", SIZES),
        ("matcomp count --m 11 --p -1 --j 2", 1, "", SIZES),
        ("matcomp count --m 10 --p 4 --j 5", 0, "35532\n", ""),
        ("matcomp count --m 11 --p 4 --j 5", 3, "", MATRIX_BOUND),
        ("matcomp count --m 10 --p 5 --j 5", 3, "", MATRIX_BOUND),
        ("matcomp count --m 10 --p 4 --j 6", 3, "", MATRIX_BOUND),
        ("matcomp count --m 0 --p 0 --j 0", 0, "1\n", ""),
        ("matcomp count --m 3 --p 2 --j 0", 0, "0\n", ""),
        ("matcomp count --p 2 --j 2", 1, "",
         "usage: bellpaths matcomp count [-h] --m M --p P --j J\n"
         "bellpaths matcomp count: error: the following arguments are required: --m\n"),
        ("matcomp trees --v 0 --j 2", 1, "", "error: a plane tree has at least one vertex\n"),
        ("matcomp trees --v -1 --j 2", 1, "", "error: a plane tree has at least one vertex\n"),
        ("matcomp trees --v 3 --j -1", 1, "", SIZES),
        ("matcomp trees --v 11 --j -1", 1, "", SIZES),
        ("matcomp trees --v 1 --j 0", 0, "1\n", ""),
        ("matcomp trees --v 10 --j 9", 0, "4862\n", ""),
        ("matcomp trees --v 11 --j 2", 3, "", "error: tree enumeration bound is v <= 10\n"),
        ("matcomp trees --j 2", 1, "",
         "usage: bellpaths matcomp trees [-h] --v V --j J\n"
         "bellpaths matcomp trees: error: the following arguments are required: --v\n"),
    ],
)
def test_count_commands_keep_their_exit_codes_and_messages(argv, code, out, err, capsys):
    assert cli.main(argv.split()) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_counting_lists_nothing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a count command listed its objects")

    for module, name in (
        (motzkin, "enumerate_paths"),
        (matrixcomp, "enumerate_bipartite"),
        (matrixcomp, "enumerate_plane_trees"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for argv, value in (
        ("motzkin count --m 4 --k 4", 6930),
        ("motzkin count --m 5 --k 6 --bound 16", 336336),
        ("motzkin count --m 0 --k 0", 1),
        ("matcomp count --m 2 --p 2 --j 1", 3),
        ("matcomp count --m 10 --p 4 --j 5", 35532),
        ("matcomp trees --v 4 --j 2", 4),
        ("matcomp trees --v 10 --j 9", 4862),
    ):
        assert cli.main(argv.split()) == 0, argv
        assert capsys.readouterr().out == f"{value}\n", argv
