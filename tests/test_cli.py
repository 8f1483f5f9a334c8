import json
import subprocess
import sys

from bellpaths import cli, motzkin
from bellpaths.polyring import Polynomial


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "bellpaths", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(*args, capsys=None):
    return cli.main(list(args))


def test_bell_command(capsys):
    assert cli.main(["bell", "--n", "4", "--r", "2", "--weights", "all-ones"]) == 0
    assert capsys.readouterr().out == "7\n"

    assert cli.main(["bell", "--n", "3", "--r", "3", "--weights", "symbolic"]) == 0
    assert capsys.readouterr().out == "1*t1^3\n"

    assert cli.main(["bell", "--n", "3", "--r", "2", "--weights", "symbolic"]) == 0
    assert capsys.readouterr().out == "3*t1*t2\n"


def test_bell_oracle_flag(capsys, monkeypatch):
    assert cli.main(["bell", "--n", "5", "--r", "3", "--oracle"]) == 0
    capsys.readouterr()

    # a broken evaluator must be caught and reported with exit 2
    monkeypatch.setattr(
        cli, "partial_bell_by_partitions", lambda n, r, vec: Polynomial.const(0)
    )
    assert cli.main(["bell", "--n", "5", "--r", "3", "--oracle"]) == 2
    assert "oracle mismatch" in capsys.readouterr().err


def test_bell_oracle_checks_its_bound_first(capsys, monkeypatch):
    def recurrence_not_expected(n, r, vec):
        raise AssertionError("the recurrence ran before the bound check")

    monkeypatch.setattr(cli, "partial_bell", recurrence_not_expected)
    assert cli.main(["bell", "--n", "31", "--r", "3", "--oracle"]) == 3
    assert capsys.readouterr().err == (
        "error: partition summation bound is n <= 30, got 31\n"
    )


def test_motzkin_commands(capsys):
    assert cli.main(["motzkin", "weighted", "--m", "1", "--k", "1"]) == 0
    assert capsys.readouterr().out == "3*t1*s1\n"

    assert cli.main(["motzkin", "count", "--m", "0", "--k", "5"]) == 0
    assert capsys.readouterr().out == "1\n"

    # the four paths huudd, uuhdd, uudhd, uuddh
    assert cli.main(["motzkin", "weighted", "--m", "2", "--k", "1",
                     "--by-segments", "1,1"]) == 0
    assert capsys.readouterr().out == "4*t2*s1\n"

    assert cli.main(["motzkin", "weighted", "--m", "1", "--k", "1",
                     "--weights", "stirling", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"m": 1, "k": 1, "value": "3"}


def test_bad_weight_parameters_exit_1(capsys):
    for spec in (
        "b-ary:b=3/2",
        "b-ary:b=2,d=1/2",
        "r-ary:r=1/3",
        "stirling:q=4",
        "abel:q=1,z=7",
        "all-ones:b=2",
    ):
        assert cli.main(["motzkin", "weighted", "--m", "2", "--k", "1",
                         "--weights", spec]) == 1, spec
        captured = capsys.readouterr()
        assert captured.out == "", spec
        assert captured.err.startswith("error: "), spec


def test_malformed_list_options_exit_1(capsys):
    # an empty piece of a comma list is an error, never a skipped piece
    weighted = ["motzkin", "weighted", "--m", "2", "--k", "1"]
    restricted = ["comp", "restricted", "--m", "3", "--j", "2"]
    for argv, message in (
        ([*restricted, "--allowed", ""], "--allowed has an empty item in ''"),
        ([*restricted, "--allowed", "1,,2"], "--allowed has an empty item in '1,,2'"),
        ([*restricted, "--allowed", ","], "--allowed has an empty item in ','"),
        ([*restricted, "--allowed", "1,x"],
         "--allowed needs comma-separated integers, got '1,x'"),
        ([*weighted, "--weights", "b-ary:b=2,,d=1"],
         "--weights has an empty item in 'b=2,,d=1'"),
        ([*weighted, "--weights", "abel:q=-2,"], "--weights has an empty item in 'q=-2,'"),
        ([*weighted, "--weights", "abel:"], "--weights has an empty item in ''"),
        ([*weighted, "--weights", "abel:q=x"],
         "--weights parameter 'q=x' needs an exact rational value"),
        ([*weighted, "--weights", "abel:q"],
         "--weights parameter 'q' is not of the form key=value"),
        ([*weighted, "--by-segments", "1,1,1"], "--by-segments needs R,L, got '1,1,1'"),
        ([*weighted, "--by-segments", "1"], "--by-segments needs R,L, got '1'"),
        ([*weighted, "--by-segments", ""], "--by-segments has an empty item in ''"),
        ([*weighted, "--by-segments", "1,"], "--by-segments has an empty item in '1,'"),
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {message}\n", argv


def test_motzkin_weighted_rejects_negative_arguments(capsys):
    for args in (
        ("--m", "1", "--k", "-2"),
        ("--m", "-1", "--k", "2"),
        ("--m", "2", "--k", "-1", "--by-segments", "1,1"),
        ("--m", "2", "--k", "1", "--by-segments", "1,-1"),
        ("--m", "2", "--k", "1", "--by-segments=-1,1"),
    ):
        assert cli.main(["motzkin", "weighted", *args]) == 1, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        assert captured.err == "error: arguments must be >= 0\n", args


def test_negative_sizes_and_jobs_exit_1(capsys):
    for argv in (
        ["verify", "--suite", "core-identities", "--max-n", "-1"],
        ["verify", "--suite", "bell", "--max-n", "-1"],
        ["verify", "--suite", "all", "--max-n", "-1", "--jobs", "4"],
        ["verify", "--suite", "core-identities", "--jobs", "0"],
        ["verify", "--suite", "all", "--max-n", "2", "--jobs", "-3"],
        ["motzkin", "table", "--max-n", "-3"],
        ["bell", "--n", "-1", "--r", "0"],
        ["bell", "--n", "3", "--r", "-2"],
        ["matcomp", "trees", "--v", "3", "--j", "-1"],
        ["comp", "count", "--m", "3", "--j", "2", "--k", "-1"],
        ["motzkin", "count", "--m", "1", "--k", "1", "--bound", "-1"],
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: arguments must be >= 0\n", argv


def test_motzkin_count_bound_has_a_ceiling(capsys):
    # the path enumerator recurses once per step, so --bound cannot lift
    # the ceiling up to where that would overflow the interpreter stack
    assert cli.main(["motzkin", "count", "--bound", "2000", "--m", "600"]) == 3
    assert capsys.readouterr().err == (
        f"error: path length 1200 exceeds enumeration bound {motzkin.MAX_PATH_BOUND}\n"
    )
    assert cli.main(["motzkin", "count", "--bound", "24", "--m", "0", "--k", "24"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_motzkin_table_rows_sum_to_motzkin_numbers(capsys):
    assert cli.main(
        ["motzkin", "table", "--max-n", "6", "--weights", "all-ones",
         "--format", "csv"]
    ) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    sums = [sum(int(v) for v in row.split(",")[1:]) for row in rows]
    assert sums == [1, 1, 2, 4, 9, 21, 51]


def test_comp_commands(capsys):
    assert cli.main(["comp", "count", "--m", "2", "--j", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out == "3\n"

    assert cli.main(["comp", "weighted", "--m", "2", "--j", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out == "3*t1^2*s1\n"

    assert cli.main(
        ["comp", "restricted", "--m", "4", "--j", "3", "--allowed", "1,2"]
    ) == 0
    assert capsys.readouterr().out == "3\n"

    assert cli.main(["comp", "restricted", "--m", "3", "--j", "2", "--forbid", "1"]) == 0
    assert capsys.readouterr().out == "0\n"

    # a part below 1 can never occur, so forbidding one is a usage error
    for forbid in ("0", "-1"):
        argv = ["comp", "restricted", "--m", "3", "--j", "2", "--forbid", forbid]
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: the forbidden part must be positive\n", argv


def test_matcomp_commands(capsys):
    assert cli.main(["matcomp", "zero-one", "--p", "4", "--j", "2", "--m", "3"]) == 0
    assert capsys.readouterr().out == "16\n"

    assert cli.main(["matcomp", "trees", "--v", "4", "--j", "2"]) == 0
    assert capsys.readouterr().out == "4\n"

    assert cli.main(["matcomp", "count", "--m", "2", "--p", "2", "--j", "1"]) == 0
    assert capsys.readouterr().out == "3\n"

    assert cli.main(["matcomp", "weighted", "--m", "2", "--p", "2", "--j", "1"]) == 0
    assert capsys.readouterr().out == "1*t1^2 + 2*t2\n"


def test_csv_weights(tmp_path, capsys):
    weight_file = tmp_path / "weights.csv"
    weight_file.write_text("t,1,1,1\nt,2,1,2\ns,1,1,1\n")
    assert cli.main(
        ["motzkin", "weighted", "--m", "2", "--k", "0",
         "--weights", f"csv:{weight_file}"]
    ) == 0
    # t1^2 + t2 at t1=1, t2=1/2
    assert capsys.readouterr().out == "3/2\n"


def test_csv_weights_default_zero(tmp_path, capsys):
    weight_file = tmp_path / "weights.csv"
    weight_file.write_text("t,1,1,1\n")
    assert cli.main(
        ["comp", "weighted", "--m", "3", "--j", "3", "--k", "0",
         "--weights", f"csv:{weight_file}"]
    ) == 0
    assert capsys.readouterr().out == "1\n"  # only (1,1,1) survives


def test_bad_csv_rows_exit_1(tmp_path, capsys):
    # a bad row is never dropped or overwritten: the error names file and line
    weight_file = tmp_path / "weights.csv"
    argv = ["motzkin", "weighted", "--m", "1", "--k", "1",
            "--weights", f"csv:{weight_file}"]
    for text, message in (
        ("t,0,5,1\n", "line 1: weight index must be >= 1, got 0"),
        ("# header\nt,1,1,1\nt,-2,1,1\n", "line 3: weight index must be >= 1, got -2"),
        ("t,1,1,1\nt,1,2,1\n", "line 2: weight t1 is listed twice"),
        ("s,2,1,1\n\ns,2,1,1\n", "line 3: weight s2 is listed twice"),
        ("t,x,1,1\n", "line 1: weight row ['t', 'x', '1', '1'] needs an integer "
                      "index, numerator and nonzero denominator"),
        ("t,1,1,1\ns,1,1,0\n", "line 2: weight row ['s', '1', '1', '0'] needs an "
                               "integer index, numerator and nonzero denominator"),
        ("t,1,1\n", "line 1: weight row ['t', '1', '1'] needs family,index,num,den"),
        ("u,1,1,1\n", "line 1: unknown weight family 'u' in ['u', '1', '1', '1']"),
    ):
        weight_file.write_text(text)
        assert cli.main(argv) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert captured.err == f"error: {weight_file} {message}\n", text

    # the same index in t and s names two different weights: 3 t1 s1 at 1, 2
    weight_file.write_text("t,1,1,1\ns,1,2,1\n")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "6\n"


def test_exit_codes_via_subprocess():
    code, out, err = run_cli("motzkin", "count", "--m", "9", "--k", "9")
    assert code == 3
    assert "bound" in err

    code, out, err = run_cli("bell", "--n", "4")
    assert code == 1

    code, out, err = run_cli("comp", "count", "--m", "-1", "--j", "2")
    assert code == 1

    code, out, err = run_cli("verify", "--suite", "core-identities", "--max-n", "10")
    assert code == 0
    assert "ok: 4 identities" in out


def test_output_is_deterministic():
    first = run_cli("motzkin", "weighted", "--m", "2", "--k", "2")
    second = run_cli("motzkin", "weighted", "--m", "2", "--k", "2")
    assert first == second

    first = run_cli("verify", "--suite", "bell", "--max-n", "5", "--format", "json")
    second = run_cli("verify", "--suite", "bell", "--max-n", "5", "--format", "json")
    assert first == second


def test_verify_json_schema(capsys):
    assert cli.main(["verify", "--suite", "compositions", "--max-n", "4",
                     "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records
    for record in records:
        assert set(record) <= {"suite", "identity", "range", "status", "counterexample"}
        assert record["status"] in {"PASS", "FAIL"}
        assert record["suite"] == "compositions"


def test_verify_reports_failures_with_exit_2(capsys, monkeypatch):
    from bellpaths.verify import IdentityResult

    def fake_run(suite, max_n, jobs=1):
        return [
            IdentityResult("bell", "homogeneity", "m <= 4", "FAIL", "m=2, r=1"),
            IdentityResult("bell", "other", "m <= 4", "PASS", None),
        ]

    monkeypatch.setattr(cli.verify, "run", fake_run)
    assert cli.main(["verify", "--suite", "bell"]) == 2
    out = capsys.readouterr().out
    assert "FAIL (m=2, r=1)" in out
    assert "FAILED: 1 of 2 identities" in out


def test_verify_reports_a_broken_fast_path(capsys, monkeypatch):
    closed = motzkin.weighted_sum_closed

    def broken(m, k, weights):
        value = closed(m, k, weights)
        return value + Polynomial.const(1) if (m, k) == (2, 1) else value

    monkeypatch.setattr(motzkin, "weighted_sum_closed", broken)
    assert cli.main(["verify", "--suite", "all", "--max-n", "5"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failures = {
        line.split(" [")[0]: line.split(": FAIL ", 1)[1]
        for line in lines
        if ": FAIL " in line
    }
    assert failures == {
        "motzkin/path-sum-triple-agreement":
            "(m=2, k=1: closed form differs from enumeration)",
        "motzkin/segment-refinement":
            "(m=2, k=1: refinement does not repartition the total)",
        "motzkin/motzkin-numbers": "(n=5: 22 != 21)",
        "motzkin/set-partition-weights": "(m=2, k=1)",
        "motzkin/coefficient-degree-grading": "(m=2, k=1, monomial 1)",
    }
    # catalan-slice calls the closed form too, but only at k = 0
    assert "motzkin/catalan-slice [m <= 2]: PASS" in lines
    assert sum(line.endswith(": PASS") for line in lines) == 38
    assert lines[-1] == "FAILED: 5 of 43 identities"


def test_help_exits_zero():
    code, out, err = run_cli("--help")
    assert code == 0
    assert "bellpaths" in out
