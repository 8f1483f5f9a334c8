"""Tests of the benchmark itself (not of bellpaths).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from array import array

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_bellpaths(ROOT)

CHEAP = ("matcomp", "zero-one", "--p", "2", "--j", "1", "--m", "2")


def test_same_seed_gives_same_queries():
    for name in workloads.WORKLOADS:
        assert workloads.draw(name, 7) == workloads.draw(name, 7)


def test_other_seed_draws_other_list_from_same_universe():
    for name in workloads.WORKLOADS:
        universe = set(workloads.universe(name))
        first, second = workloads.draw(name, 7), workloads.draw(name, 8)
        assert first != second
        assert set(first) <= universe and set(second) <= universe
        assert len(first) == len(second)


def test_each_pass_has_enough_distinct_queries_for_p90():
    for name in workloads.WORKLOADS:
        queries = workloads.draw(name, 1)
        assert len(set(queries)) == len(queries)
        # the top tenth of 110 samples leaves 11 beyond p90
        assert len(queries) >= 110


def test_golden_covers_every_query_and_every_query_succeeds():
    golden = worker.load_golden()
    for name in workloads.WORKLOADS:
        for query in workloads.universe(name):
            assert golden[workloads.query_key(query)][0] == 0


def test_tampered_golden_hash_counts_as_failure():
    golden = worker.load_golden()
    key = workloads.query_key(CHEAP)
    code, stdout, _ = worker.run_query(cli.main, CHEAP)
    assert worker.check(CHEAP, code, stdout, golden) is None

    tampered = dict(golden)
    tampered[key] = [golden[key][0], "0" * 64]
    assert worker.check(CHEAP, code, stdout, tampered) == "stdout hash mismatch"
    tampered[key] = [3, golden[key][1]]
    assert worker.check(CHEAP, code, stdout, tampered) == "exit 0, expected 3"
    del tampered[key]
    assert worker.check(CHEAP, code, stdout, tampered) == "no golden entry"
    assert worker.check(CHEAP, None, "", golden) == "exception"


def test_self_time_on_nested_span_tree():
    #  root [0, 10]
    #    a [1, 4]       b [2, 3] inside a
    #    c [5, 9]       d [6, 7] and e [7.5, 8] inside c
    start = array("d", [0, 1, 2, 5, 6, 7.5])
    end = array("d", [10, 4, 3, 9, 7, 8])
    parent = array("i", [-1, 0, 1, 0, 3, 3])
    assert layertrace.self_times(start, end, parent) == pytest.approx([3, 2, 1, 2.5, 1, 0.5])


def test_summarize_counts_recursive_spans_once_in_total():
    log = layertrace.SpanLog()
    outer, inner = log.name_id_for("m.f"), log.name_id_for("m.g")
    for nid, lo, hi, parent in ((outer, 0, 8, -1), (outer, 1, 5, 0), (inner, 2, 3, 1)):
        log.name_id.append(nid)
        log.start.append(lo)
        log.end.append(hi)
        log.parent.append(parent)
    out = layertrace.summarize(log)
    assert out["m.f.calls"] == 2
    assert out["m.f.total_s"] == pytest.approx(8)
    assert out["m.f.self_s"] == pytest.approx(7)
    assert out["m.g.self_s"] == pytest.approx(1)


def _all_bindings():
    return {
        target.name: layertrace.bindings_of(layertrace._resolve(target))
        for target in layertrace.TARGETS
    }


def test_traced_run_wraps_by_name_imports_and_restores_every_binding():
    from bellpaths import bell, compositions, motzkin, verify

    before = _all_bindings()
    assert len(before["bell.partial_bell"]) >= 6  # bell, motzkin, ..., cli, verify
    assert any(key == "__rmul__" for _, key, _ in before["polyring.Polynomial.mul"])
    log = layertrace.SpanLog()
    replaced = layertrace.install(log)
    try:
        for module in (bell, motzkin, compositions, verify):
            assert hasattr(module.partial_bell, "__perfbench_wraps__")
        assert hasattr(verify._SUITE_FUNCTIONS["core-identities"], "__perfbench_wraps__")
        for query in (
            ("motzkin", "weighted", "--m", "2", "--k", "2"),
            ("comp", "count", "--m", "3", "--j", "2"),
            ("verify", "--suite", "core-identities", "--max-n", "2"),
        ):
            code, _, _ = worker.run_query(cli.main, query)
            assert code == 0
    finally:
        layertrace.uninstall(replaced)
    assert _all_bindings() == before
    aggregates = layertrace.summarize(log)
    assert aggregates["cli.main.calls"] == 3
    assert aggregates["verify.suite_core.calls"] == 1
    assert aggregates["compositions.enumerate_compositions.items"] == 4
    assert aggregates["polyring.Polynomial.mul.calls"] > 0


def test_bypass_violations_only_on_predicted_workloads():
    metric_map = layertrace.load_metric_map()
    aggregates = {"lagrange.motzkin_series.calls": 2, "motzkin.enumerate_paths.items": 0,
                  "lagrange.motzkin_series.total_s": 0.1}
    assert layertrace.bypass_violations("numeric-tables", aggregates, metric_map) == [
        "lagrange.motzkin_series.calls=2"
    ]
    assert layertrace.bypass_violations("oracles", aggregates, metric_map) == []


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    metric_map = layertrace.load_metric_map()
    names = [name for group in metric_map["layers"] for name in group["metrics"]]
    assert [m["name"] for m in bench["per_layer"]] == names
    for metric in bench["per_layer"]:
        assert metric["unit"] == layertrace.metric_unit(metric["name"])


def test_run_refuses_a_directory_without_the_program(monkeypatch, capsys):
    monkeypatch.chdir(BENCH)
    assert run.main(["--workload", "oracles", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
