"""The run-scoped store of `verify`: each tally a run shares is built once per
size, nothing it holds outlives the run, and a run never reads another run's
tallies."""

import re
from collections import Counter

import pytest

from bellpaths import cli, compositions, lagrange, matrixcomp, motzkin, verify
from bellpaths.core import EnumerationBoundError
from bellpaths.polyring import Series


def _count_calls(monkeypatch, module, name) -> Counter:
    """Calls of module.name from now on, by their arguments."""
    calls = Counter()
    original = getattr(module, name)

    def counted(*args):
        calls[args] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_run_builds_each_tally_once_per_size(monkeypatch):
    paths = _count_calls(monkeypatch, motzkin, "enumerate_paths")
    matrices = _count_calls(monkeypatch, matrixcomp, "enumerate_bipartite")
    composition_tallies = _count_calls(monkeypatch, verify, "_composition_tally")
    series = _count_calls(monkeypatch, verify, "_composition_series")
    motzkin_series = _count_calls(monkeypatch, lagrange, "motzkin_series")
    bipartite = _count_calls(monkeypatch, lagrange, "bipartite_matrix_series")
    # each matrix shape is weighed once too
    shape_weights = _count_calls(monkeypatch, matrixcomp, "entries_weight")
    verify.run("all", 6)
    # 2m+k <= 6; m, j <= 6; m <= 6, p <= 3, j <= 4; one series at top 5
    assert (len(paths), len(composition_tallies), len(matrices)) == (16, 49, 140)
    # one symbolic Motzkin series per m <= 3 and catalan-slice's Dyck series;
    # one bipartite series per (p, j), read by two matrixcomp identities
    assert (sum(motzkin_series.values()), len(bipartite)) == (5, 20)
    for calls in (
        paths, composition_tallies, matrices, series, motzkin_series, bipartite,
        shape_weights,
    ):
        assert set(calls.values()) == {1}
    assert list(series) == [(5,)]


def test_a_wrong_power_builder_fails_every_identity_that_reads_powers(monkeypatch):
    # a clean run first, which fills the power tables of every series it
    # builds; then the builder of new powers goes wrong for the series
    # truncated at the run's top order, and every identity that reads such
    # powers must fail: no power cached by the clean run may hide the mutant
    top = 6
    assert all(record.passed for record in verify.run("all", top))
    build = Series._build_power

    def wrong_at_the_top(f, exp):
        power = build(f, exp)
        if f.nx != top:
            return power
        return power + Series(power.orders(), {(1, 0, 0): 1})

    monkeypatch.setattr(Series, "_build_power", wrong_at_the_top)
    failed = {
        f"{record.suite}/{record.identity}"
        for record in verify.run("all", top)
        if not record.passed
    }
    assert {
        "bell/potential-vs-series-power",
        "bell/bell-of-power-coefficients",
        "matrixcomp/row-power-law",
    } <= failed, failed


def test_the_store_is_empty_after_every_run_and_check(monkeypatch):
    verify.run("motzkin", 4)
    assert verify._STORE == {}
    assert verify.check("compositions", "series-agreement", 3) is None
    assert verify._STORE == {}

    def fails(*args):
        raise RuntimeError("type count")

    # the tally is built before the first type count is read
    monkeypatch.setattr(motzkin, "count_by_type", fails)
    with pytest.raises(RuntimeError):
        verify.check("motzkin", "type-counts", 4)
    assert verify._STORE == {}
    with pytest.raises(RuntimeError):
        verify.run("motzkin", 4)
    assert verify._STORE == {}


@pytest.mark.parametrize(
    "module, name, size, dropped, expected",
    [
        (
            motzkin, "enumerate_paths", (2, 1), lambda path: path == "ududh",
            {
                f"motzkin/{identity}"
                for identity in (
                    "path-sum-triple-agreement", "segment-refinement", "type-counts",
                    "plane-tree-weights-single", "plane-tree-weights-general",
                    "series-coefficient-weights", "series-pair-double-sum",
                    "labeled-tree-weights", "binomial-sequence-weights",
                    "abel-weights", "bell-number-weights", "two-sequence-double-sum",
                )
            },
        ),
        (
            compositions, "enumerate_compositions", (3, 2),
            lambda comp: comp == (1, 2),
            {
                "compositions/closed-vs-enumeration",
                "compositions/h-segment-refinement",
                "compositions/type-counts",
                "compositions/restricted-counts",
                "matrixcomp/general-matrix-series",
            },
        ),
        (
            matrixcomp, "enumerate_bipartite", (2, 2, 2),
            lambda matrix: matrix == ((0, 0), (1, 1)),
            {
                "matrixcomp/closed-vs-enumeration",
                "matrixcomp/nonzero-refinement",
                "matrixcomp/type-counts",
                "matrixcomp/zero-one-matrices",
            },
        ),
    ],
    ids=["paths", "compositions", "matrices"],
)
def test_a_second_run_sees_an_enumerator_change(
    capsys, monkeypatch, module, name, size, dropped, expected
):
    # a clean run first; then one enumerator loses one object at one size,
    # and every identity that tallies that kind names the size
    assert cli.main(["verify", "--suite", "all", "--max-n", "5"]) == 0
    capsys.readouterr()
    original = getattr(module, name)

    def drops_one(*args):
        for item in original(*args):
            if not (args[: len(size)] == size and dropped(item)):
                yield item

    monkeypatch.setattr(module, name, drops_one)
    assert cli.main(["verify", "--suite", "all", "--max-n", "5"]) == 2
    failed = dict(
        re.fullmatch(r"(\S+) \[.*\]: FAIL \((.*)\)", line).groups()
        for line in capsys.readouterr().out.splitlines()
        if ": FAIL " in line
    )
    assert set(failed) == expected
    for identity, counterexample in failed.items():
        sizes = dict(re.findall(r"\b([mkpj])=(\d+)", counterexample))
        if module is compositions and identity.startswith("matrixcomp/"):
            # the rows of a matrix are compositions; the first matrix to
            # lose one is the one-row matrix of the lost composition
            assert int(sizes["p"]) == 1, counterexample
            assert (int(sizes["m"]), int(sizes["j"])) == size, counterexample
        else:
            names = {motzkin: "mk", compositions: "mj", matrixcomp: "mpj"}[module]
            assert tuple(int(sizes[n]) for n in names) == size, counterexample


@pytest.mark.parametrize(
    "module, name, size, dropped, suite, expected",
    [
        (
            motzkin, "enumerate_paths", (2, 0), lambda path: path == "uudd",
            "motzkin", "m=2, k=0, u-type={2: 1}, h-type={}",
        ),
        (
            compositions, "enumerate_compositions", (1, 1),
            lambda comp: comp == (1,),
            "compositions", "m=1, j=1, u-type={1: 1}, h-type={}",
        ),
        (
            matrixcomp, "enumerate_bipartite", (2, 2, 1),
            lambda matrix: matrix == ((1,), (1,)),
            "matrixcomp", "m=2, p=2, j=1, type={1: 2}",
        ),
    ],
    ids=["paths", "compositions", "matrices"],
)
def test_type_counts_name_a_type_that_enumeration_lost(
    monkeypatch, module, name, size, dropped, suite, expected
):
    # the dropped object is the only one of its type, so the tally has no
    # entry for that type at all; type-counts walks every type of the size
    # and still names it
    original = getattr(module, name)

    def drops_one(*args):
        for item in original(*args):
            if not (args == size and dropped(item)):
                yield item

    monkeypatch.setattr(module, name, drops_one)
    assert verify.check(suite, "type-counts", 5) == expected


def test_the_uncapped_path_identity_refuses_past_the_bound_before_any_case(monkeypatch):
    paths = _count_calls(monkeypatch, motzkin, "enumerate_paths")
    with pytest.raises(EnumerationBoundError, match="path length 17 exceeds enumeration bound 16"):
        verify.check("motzkin", "path-sum-triple-agreement", 17)
    assert not paths
