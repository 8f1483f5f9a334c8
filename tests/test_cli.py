import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bellpaths import cli, compositions, matrixcomp, motzkin, verify
from bellpaths.bell import WeightVector, partial_bell_by_partitions
from bellpaths.polyring import Polynomial, WeightSpec

DATA = os.path.join(os.path.dirname(__file__), "data")


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


@pytest.mark.parametrize("argv, option", [
    (["motzkin", "table", "--max-n", "2", "--by-segments", "1,1"], "--by-segments"),
    (["comp", "restricted", "--m", "3", "--j", "2", "--k", "1"], "--k"),
    (["comp", "count", "--m", "2", "--j", "2", "--allowed", "x"], "--allowed"),
    (["motzkin", "count", "--m", "1", "--k", "1", "--weights", "nonsense"], "--weights"),
    (["matcomp", "trees", "--v", "3", "--j", "1", "--m", "2"], "--m"),
    # at the value another mode reads by default, and in the --opt=value spelling
    (["comp", "count", "--m", "2", "--j", "2", "--weights", "symbolic"], "--weights"),
    (["motzkin", "table", "--m", "0"], "--m"),
    (["matcomp", "trees", "--v", "3", "--j", "1", "--weights", "symbolic"], "--weights"),
    (["motzkin", "count", "--weights=stirling"], "--weights"),
])
def test_an_option_the_mode_does_not_read_exits_1(capsys, argv, option):
    # each printed a plausible answer to another query before
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} {argv[1]} does not read {option}\n"


@pytest.mark.parametrize("argv, message", [
    # no command takes abbreviated options; both ran as --max-n and --weights
    (["verify", "--max", "2", "--suite", "bell"], "verify does not read --max"),
    (["bell", "--n", "3", "--r", "2", "--weigh", "all-ones"], "bell does not read --weigh"),
    # a leftover token is an option only when it is --name or -letter
    (["bell", "--n", "3", "--r", "2", "extra"], "bell got an unexpected argument 'extra'"),
    (["motzkin", "count", "--", "--m"], "motzkin count got an unexpected argument '--'"),
    (["comp", "count", "--m", "2", "--j", "2", "-1"], "comp count got an unexpected argument '-1'"),
    (["matcomp", "trees", "--v", "3", "--j", "1", "-x"], "matcomp trees does not read -x"),
])
def test_abbreviations_and_stray_arguments_exit_1(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# a query of each parser main looks up by its command words
_QUERIES = {
    ("bell",): ["--n", "3", "--r", "2"],
    ("verify",): ["--suite", "bell", "--max-n", "1"],
    ("motzkin", "count"): ["--m", "1", "--k", "1"],
    ("motzkin", "weighted"): ["--m", "1", "--k", "1"],
    ("motzkin", "table"): ["--max-n", "2"],
    ("comp", "count"): ["--m", "2", "--j", "2"],
    ("comp", "weighted"): ["--m", "2", "--j", "2"],
    ("comp", "restricted"): ["--m", "2", "--j", "2"],
    ("matcomp", "count"): ["--m", "2", "--p", "1", "--j", "2"],
    ("matcomp", "weighted"): ["--m", "2", "--p", "1", "--j", "2"],
    ("matcomp", "zero-one"): ["--m", "2", "--p", "1", "--j", "2"],
    ("matcomp", "trees"): ["--v", "3", "--j", "2"],
}


# forms the owner's table reads, and forms it leaves to argparse
_READ_FORMS = [
    ["motzkin", "weighted", "--m", "-1", "--k", "1"],
    ["motzkin", "weighted", "--m", "1", "--k", "1", "--m", "2"],
    ["bell", "--n", "3", "--r", "2", "--weights", "stirling", "--weights", "all-ones"],
    ["motzkin", "table", "--weights=abel:q=-2"],
    ["bell", "--n", "3", "--r", "2", "--oracle"],
]
_REFUSED_FORMS = [
    ["motzkin", "table", "--weights="],
    ["bell", "--n", "3", "--r", "2", "--oracle=1"],
    ["bell", "--n", "3", "--r", "2", "--weights", "-x"],
    ["motzkin", "weighted", "--m", "2", "--k"],
    ["verify", "--suite", "nosuch"],
    ["bell", "-h"],
]


def _parse_corpus():
    for words, query in _QUERIES.items():
        pairs = [f"{option}={value}" for option, value in zip(query[::2], query[1::2])]
        yield from ([*words, *tail] for tail in (
            query, [*query, "--nope", "1"], pairs, query[:-1], [query[0], "x"],
            [*query, "--format", "xml"], [], ["--help"], ["-h"], [*query, "extra"],
            [*query, "--"], ["--", *query], [*query, "-1"],
            [query[0], "-1", *query[2:]], [*query, query[0], "0"],
        ))
    yield from _READ_FORMS
    yield from _REFUSED_FORMS
    # help and errors at the top and command levels: the lookup misses
    yield from ([], ["--help"], ["nosuch"], ["--", "bell", "--n", "3", "--r", "2"],
                ["motzkin"], ["motzkin", "--help"], ["motzkin", "--m", "2", "count"],
                ["comp", "nosuch"], ["matcomp"])


def _record_parses(monkeypatch) -> list:
    """Record each parse, the outermost call last: ("read", namespace or
    None) for each pass of cli._read, and ("argparse", (namespace,
    leftovers) or the SystemExit it raised) for each
    _Parser.parse_known_args."""
    outcomes = []
    read, parse = cli._read, cli._Parser.parse_known_args

    def recorded_read(owner, argv):
        outcome = read(owner, argv)
        outcomes.append(("read", outcome))
        return outcome

    def recorded_parse(self, *args, **kwargs):
        try:
            outcome = parse(self, *args, **kwargs)
        except SystemExit as exc:
            outcomes.append(("argparse", exc))
            raise
        outcomes.append(("argparse", outcome))
        return outcome

    monkeypatch.setattr(cli, "_read", recorded_read)
    monkeypatch.setattr(cli._Parser, "parse_known_args", recorded_parse)
    return outcomes


@pytest.mark.parametrize("argv", _parse_corpus(), ids=lambda argv: " ".join(argv) or "-")
def test_main_parses_each_query_as_the_whole_tree_does(argv, monkeypatch, capsys):
    # the tree is the reference: main's one pass with the owner of the
    # query's words, by its table or by argparse, must give its namespace
    # and leftovers, or its exit
    outcomes = _record_parses(monkeypatch)
    cli.main(argv)
    (kind, by_main), main_output = outcomes[-1], capsys.readouterr()
    if kind == "read":
        by_main = (by_main, [])
    try:
        by_tree = cli._build_parser()[0].parse_known_args(argv)
    except SystemExit as exc:
        by_tree = exc
    if isinstance(by_tree, SystemExit):
        assert isinstance(by_main, SystemExit)
        assert (by_main.code, main_output) == (by_tree.code, capsys.readouterr())
    else:
        namespace, unread = by_main
        assert (vars(namespace), unread) == (vars(by_tree[0]), by_tree[1])


@pytest.mark.parametrize("words", _QUERIES, ids=" ".join)
def test_a_query_is_parsed_once(words, monkeypatch, capsys):
    # through the whole tree a mode's query is parsed three times, bell's
    # twice; its owner's table reads a well-formed one in one pass, and
    # argparse alone parses one the table refuses
    outcomes = _record_parses(monkeypatch)
    assert cli.main([*words, *_QUERIES[words]]) == 0
    assert [(kind, outcome is None) for kind, outcome in outcomes] == [("read", False)]
    outcomes.clear()
    assert cli.main([*words, *_QUERIES[words], "extra"]) == 1
    assert [(kind, outcome is None) for kind, outcome in outcomes] == [
        ("read", True), ("argparse", False)]


@pytest.mark.parametrize("argv", _READ_FORMS + _REFUSED_FORMS, ids=" ".join)
def test_the_table_reads_only_plain_forms(argv, monkeypatch, capsys):
    # negative, joined and repeated values are read by the table; an empty
    # joined value, a flag with a value, a value that starts with "-", a
    # missing or bad value and -h go to argparse, which renders the error
    outcomes = _record_parses(monkeypatch)
    cli.main(argv)
    assert [(kind, outcome is None) for kind, outcome in outcomes] == (
        [("read", True), ("argparse", False)] if argv in _REFUSED_FORMS
        else [("read", False)])


def test_every_owner_has_a_table_and_other_actions_raise():
    # every option an owner declares is in its table, help aside
    for owner in cli._build_parser()[1].values():
        options, defaults, required = cli._option_table(owner)
        declared = {option for action in owner._actions for option in action.option_strings}
        assert set(options) == declared - {"-h", "--help"}
        assert required == {action for action in owner._actions if action.required}
    # an action the table would read otherwise than argparse does
    for args, kwargs in (
        (("--x",), {"nargs": "?"}), (("--x",), {"nargs": 1}), (("--x",), {"action": "append"}),
        (("--x",), {"action": "count"}), (("--x",), {"action": "store_false"}),
        (("--x",), {"action": "store_const", "const": 1}),
        (("--x",), {"type": int, "default": "3"}), (("-x",), {}), (("x",), {}),
    ):
        owner = cli._Parser(prog="p")
        owner.add_argument(*args, **kwargs)
        with pytest.raises(TypeError, match="p: cannot read"):
            cli._option_table(owner)


def test_motzkin_weighted_csv_exits_1(capsys):
    # csv is a table format; weighted printed the text form under it before.
    # The usage above the error wraps with the terminal width, and how the
    # choices are quoted after it depends on the Python version.
    for extra in ([], ["--by-segments", "1,1"]):
        argv = ["motzkin", "weighted", "--m", "3", "--k", "2", "--weights", "stirling",
                "--format", "csv", *extra]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: bellpaths motzkin weighted [-h] ")
        assert captured.err.splitlines()[-1].startswith(
            "bellpaths motzkin weighted: error: argument --format: invalid choice: 'csv' "
        )


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
    sizes = "arguments must be >= 0"
    for argv, message in (
        (["verify", "--suite", "core-identities", "--max-n", "-1"],
         "--max-n must be >= 0"),
        (["verify", "--suite", "bell", "--max-n", "-1"], "--max-n must be >= 0"),
        (["verify", "--suite", "all", "--max-n", "-1", "--jobs", "4"],
         "--max-n must be >= 0"),
        (["verify", "--suite", "core-identities", "--jobs", "0"], "--jobs must be >= 1"),
        (["verify", "--suite", "all", "--max-n", "2", "--jobs", "-3"],
         "--jobs must be >= 1"),
        (["motzkin", "table", "--max-n", "-3"], sizes),
        (["bell", "--n", "-1", "--r", "0"], sizes),
        (["bell", "--n", "3", "--r", "-2"], sizes),
        (["matcomp", "trees", "--v", "3", "--j", "-1"], sizes),
        (["comp", "count", "--m", "3", "--j", "2", "--k", "-1"], sizes),
        # a negative size is a usage error before the term bound is counted
        (["comp", "weighted", "--m", "-1", "--j", "2"], sizes),
        (["matcomp", "weighted", "--m", "-1", "--p", "2", "--j", "1"], sizes),
        (["motzkin", "count", "--m", "1", "--k", "1", "--bound", "-1"], sizes),
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {message}\n", argv


def test_term_bound_counts_the_partitions_the_partition_sum_walks():
    # the rows of _AT_MOST are a recurrence, built at import and past the
    # partition sum's bound; where both reach, p(n, r) is the number of
    # monomials of B(n, r) over the plain symbolic vector
    sym_t = WeightVector.from_weights(WeightSpec.symbolic(), "t", plain=True)
    for n in range(21):
        row = cli._AT_MOST[n]
        for r in range(n + 1):
            exactly = row[r] - (row[r - 1] if r else 0)
            assert exactly == len(partial_bell_by_partitions(n, r, sym_t).terms), (n, r)


def test_symbolic_term_bound_exits_3(capsys):
    # p(24)^2, p(40) and p(37) terms are past the bound; by segments, row 37
    # alone is, and so is the result B(24, 7) B(24, 7) with p(24, 7)^2 terms;
    # comp and matcomp build the whole row 60.  Then one query just past the
    # bound per factor shape: p(2) p(33) = 20286, p(19, 9) p(29, 9) = 20008,
    # row 37 of a table or of matcomp, and a comp result alone,
    # p(19, 13) (p(25, 0) + ... + p(25, 14)) = 20009
    for argv, at in (
        (["motzkin", "weighted", "--m", "24", "--k", "24"], "m=24, k=24"),
        (["motzkin", "weighted", "--m", "37", "--k", "2", "--by-segments", "2,2"],
         "m=37, k=2, r=2, l=2"),
        (["motzkin", "weighted", "--m", "24", "--k", "24", "--by-segments", "7,7"],
         "m=24, k=24, r=7, l=7"),
        (["motzkin", "table", "--max-n", "40", "--weights", "symbolic"], "m=0, k=40"),
        (["bell", "--n", "37", "--r", "2"], "n=37"),
        (["comp", "weighted", "--m", "60", "--j", "30"], "m=60, k=0, j=30"),
        (["matcomp", "weighted", "--m", "60", "--p", "2", "--j", "3"], "m=60, p=2, j=3"),
        (["motzkin", "weighted", "--m", "2", "--k", "33"], "m=2, k=33"),
        (["motzkin", "weighted", "--m", "19", "--k", "29", "--by-segments", "9,9"],
         "m=19, k=29, r=9, l=9"),
        (["motzkin", "table", "--max-n", "37", "--weights", "symbolic"], "m=0, k=37"),
        (["matcomp", "weighted", "--m", "37", "--p", "2", "--j", "3"], "m=37, p=2, j=3"),
        (["comp", "weighted", "--m", "19", "--j", "38", "--k", "25"], "m=19, k=25, j=38"),
    ):
        assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == (
            f"error: symbolic query at {at} exceeds the term bound "
            f"{cli.MAX_SYMBOLIC_TERMS}\n"
        ), argv
    # numeric weights are not held to it, p(14)^2 = 18225 terms still run,
    # and by segments only the rows and the one product are counted
    for argv in (
        ["motzkin", "weighted", "--m", "24", "--k", "24", "--weights", "all-ones"],
        ["motzkin", "weighted", "--m", "14", "--k", "14"],
        ["motzkin", "weighted", "--m", "16", "--k", "14", "--by-segments", "2,2"],
        ["motzkin", "weighted", "--m", "24", "--k", "24", "--by-segments", "1,1"],
        ["comp", "weighted", "--m", "60", "--j", "30", "--weights", "all-ones"],
        ["matcomp", "weighted", "--m", "60", "--p", "2", "--j", "3",
         "--weights", "all-ones"],
    ):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out, argv
    # the potential over row 25 combines B(25, r) for r <= 3 only, so the
    # result has p(22, 2) (p(25, 1) + p(25, 2) + p(25, 3)) = 11 * 65 terms
    assert cli.main(["comp", "weighted", "--m", "22", "--j", "27", "--k", "25"]) == 0
    poly = compositions.weighted_sum_closed(22, 25, 27, motzkin.named_weights("symbolic"))
    assert len(poly.terms) == 715
    assert capsys.readouterr().out == poly.to_text() + "\n"
    # a malformed segment list is a usage error whatever the size
    argv = ["motzkin", "weighted", "--m", "40", "--k", "40", "--by-segments", "1,"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: --by-segments has an empty item in '1,'\n"
    for command in ("bell", "motzkin", "comp", "matcomp"):
        assert cli.main([command, "--help"]) == 0
        assert str(cli.MAX_SYMBOLIC_TERMS) in capsys.readouterr().out, command


ZERO_ANSWERS = (
    ["bell", "--n", "37", "--r", "40"],
    ["bell", "--n", "37", "--r", "0"],
    ["bell", "--n", "37", "--r", "40", "--oracle"],
    ["bell", "--n", "37", "--r", "0", "--oracle"],
    ["comp", "weighted", "--m", "1", "--j", "40", "--k", "40"],
    ["comp", "weighted", "--m", "40", "--j", "0", "--k", "1"],
    ["comp", "weighted", "--m", "40", "--j", "40", "--k", "40"],
    ["motzkin", "weighted", "--m", "40", "--k", "1", "--by-segments", "2,3"],
    ["motzkin", "weighted", "--m", "1", "--k", "40", "--by-segments", "3,2"],
    ["matcomp", "weighted", "--m", "60", "--p", "0", "--j", "3"],
    ["matcomp", "weighted", "--m", "60", "--p", "2", "--j", "0"],
)


def test_zero_answers_are_neither_refused_nor_built(capsys):
    # each answer is 0 because a Bell entry it reads is zero by its indices
    # (r > n, or r = 0 < n), or for matcomp because p * j = 0 leaves only
    # r = 0: the term bound charges no row for it, the engine builds none,
    # and the partition sum answers it before its size bound
    for argv in ZERO_ANSWERS:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr() == ("0\n", ""), argv
    spec = WeightSpec.symbolic()
    vectors = [WeightVector.from_weights(spec, family) for family in ("t", "s")]
    plain = WeightVector.from_weights(spec, "t", plain=True)
    assert plain.bell(37, 40) == plain.bell(37, 0) == 0
    assert compositions.weighted_sum_closed(1, 40, 40, spec).is_zero()
    assert compositions.weighted_sum_closed(40, 1, 0, spec).is_zero()
    assert compositions.weighted_sum_closed(40, 40, 40, spec).is_zero()
    assert motzkin.weighted_sum_by_segments(40, 1, 2, 3, spec).is_zero()
    assert motzkin.weighted_sum_by_segments(1, 40, 3, 2, spec).is_zero()
    assert matrixcomp.weighted_sum_closed(60, 0, 3, spec).is_zero()
    assert matrixcomp.weighted_sum_closed(60, 2, 0, spec).is_zero()
    assert [len(vector._rows) for vector in (*vectors, plain)] == [1, 1, 1]


def test_term_count_bounds_every_symbolic_result(monkeypatch, capsys):
    # the count a symbolic query is held to is never below the terms of the
    # result it prints, and equals them for bell, comp and matcomp weighted
    counted, printed = [], []
    check, to_text = cli._check_symbolic_terms, Polynomial.to_text

    def counting_check(weights, *factors, **sizes):
        counted.append(cli._symbolic_terms(*factors))
        check(weights, *factors, **sizes)

    def counting_to_text(poly):
        printed.append(len(poly.terms))
        return to_text(poly)

    monkeypatch.setattr(cli, "_check_symbolic_terms", counting_check)
    monkeypatch.setattr(Polynomial, "to_text", counting_to_text)
    sizes = [str(n) for n in range(9)]
    queries = [(["bell", "--n", n, "--r", r], True) for n in sizes for r in sizes]
    queries += [(["comp", "weighted", "--m", m, "--j", j, "--k", k], True)
                for m in sizes for j in sizes for k in sizes]
    queries += [(["motzkin", "weighted", "--m", m, "--k", k], False)
                for m in sizes for k in sizes]
    queries += [(["motzkin", "weighted", "--m", m, "--k", k, "--by-segments", f"{r},{l}"],
                 False)
                for m in sizes for k in sizes for r in sizes[:int(m) + 2]
                for l in sizes[:int(k) + 2]]
    queries += [(["matcomp", "weighted", "--m", m, "--p", p, "--j", j], True)
                for m in sizes for p in sizes for j in sizes]
    for argv, exact in queries:
        counted.clear()
        printed.clear()
        assert cli.main(argv) == 0, argv
        assert len(counted) == len(printed) == 1, argv
        if exact:
            assert counted == printed, argv
        else:
            assert counted[0] >= printed[0], argv
    # a table checks the entries of its last row, each as motzkin weighted
    for max_n in range(9):
        counted.clear()
        printed.clear()
        assert cli.main(["motzkin", "table", "--max-n", str(max_n),
                         "--weights", "symbolic"]) == 0
        assert len(counted) == max_n // 2 + 1
        assert all(c >= p for c, p in zip(counted, printed[-len(counted):])), max_n
    capsys.readouterr()


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


@pytest.mark.parametrize("weights, name", [("stirling", "stirling"), ("abel:q=-2", "abel")])
def test_motzkin_table_matches_its_committed_output(weights, name, capsys):
    # tests/data/motzkin_table_40_<name>.txt is the output of the closed form
    # that rebuilt every inner sum per entry; CI diffs a fresh interpreter too
    assert cli.main(["motzkin", "table", "--max-n", "40", "--weights", weights]) == 0
    with open(os.path.join(DATA, f"motzkin_table_40_{name}.txt")) as handle:
        assert capsys.readouterr().out == handle.read()


def test_symbolic_motzkin_weighted_matches_its_committed_output(capsys):
    # tests/data/motzkin_weighted_10_8.txt is the text, json and
    # --by-segments 4,3 output of the renderer that sorted terms on nested
    # monomial keys and scaled ints into integral Fractions; CI diffs a fresh
    # interpreter too
    out = []
    for extra in ([], ["--format", "json"], ["--by-segments", "4,3"]):
        assert cli.main(["motzkin", "weighted", "--m", "10", "--k", "8", *extra]) == 0
        out.append(capsys.readouterr().out)
    with open(os.path.join(DATA, "motzkin_weighted_10_8.txt")) as handle:
        assert "".join(out) == handle.read()


def test_comp_commands(capsys, monkeypatch):
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

    # the order of the allowed parts does not matter: both orders read the
    # one spec of the rule, and with it the same Bell rows
    specs = []
    closed = compositions.weighted_sum_closed

    def recording_closed(m, k, j, weights):
        specs.append(weights)
        return closed(m, k, j, weights)

    monkeypatch.setattr(compositions, "weighted_sum_closed", recording_closed)
    for allowed in ("2,1", "1,2", "1,2,2"):
        argv = ["comp", "restricted", "--m", "5", "--j", "3", "--allowed", allowed]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "3\n"
    assert len(specs) == 3 and specs[0] is specs[1] is specs[2]
    assert cli.main(["comp", "restricted", "--m", "5", "--j", "3", "--forbid", "2"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert specs[3] is not specs[0]

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


def test_csv_weights_are_read_on_every_call(tmp_path, capsys):
    weight_file = tmp_path / "weights.csv"
    argv = ["bell", "--n", "2", "--r", "1", "--weights", f"csv:{weight_file}"]
    weight_file.write_text("t,2,1,1\n")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "1\n"
    weight_file.write_text("t,2,5,1\n")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "5\n"


def test_named_weights_are_shared():
    assert motzkin.named_weights("stirling") is motzkin.named_weights("stirling")
    assert cli.parse_weights("abel:q=-2") is motzkin.named_weights("abel", q=-2)
    assert cli.parse_weights("b-ary:b=2,d=1") is cli.parse_weights("b-ary:b=2,d=1")
    # aliases of one spec: `_` for `-`, defaults left out, parameters reordered
    assert motzkin.named_weights("all_ones") is motzkin.named_weights("all-ones")
    assert cli.parse_weights("b-ary") is cli.parse_weights("b-ary:b=1,d=1")
    assert cli.parse_weights("b-ary:d=1,b=2") is cli.parse_weights("b-ary:b=2,d=1")
    # kinds that name one weight sequence share its spec
    assert cli.parse_weights("r-ary:r=1") is cli.parse_weights("abel:q=-2")
    assert motzkin.named_weights("r-ary", r=0) is motzkin.named_weights("abel", q=-1)
    assert cli.parse_weights("r-ary") is cli.parse_weights("abel:q=-2")
    assert motzkin.named_weights("factorial-psi") is motzkin.named_weights("all-ones")


def test_symbolic_checks_read_the_shared_spec_when_they_run():
    # the symbolic identities look the shared spec up when they run, so after
    # it is dropped from the cache of named specs they grow the Bell rows of
    # the new spec, the one `bell` and `motzkin weighted` read
    def evict_by_use():
        for q in range(motzkin._SHARED_SPECS + 6):
            motzkin.named_weights("abel", q=q)

    for evict in (motzkin._named_spec.cache_clear, evict_by_use):
        old = motzkin.named_weights("symbolic")
        evict()
        spec = motzkin.named_weights("symbolic")
        assert spec is not old
        assert verify._sym() is spec
        plain = WeightVector.from_weights(spec, "t", plain=True)
        graded = WeightVector.from_weights(spec, "t")
        assert len(plain._rows) == len(graded._rows) == 1
        assert verify.check("bell", "recurrence-vs-partition-sum", 5) is None
        assert verify.check("motzkin", "path-sum-triple-agreement", 4) is None
        assert len(plain._rows) == 6
        assert len(graded._rows) >= 3


def test_import_and_sequential_verify_leave_the_process_pool_out():
    code = (
        "import sys, contextlib, io\n"
        "import bellpaths.cli as cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', '--suite', 'all', '--max-n', '2', '--jobs', '1'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nFalse\n", "")


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


def test_verify_pins_the_counterexample_of_every_tally_oracle(capsys, monkeypatch):
    # one fast path off by one at a single case per brute-force tally: each
    # identity that reads the tally names exactly that case
    def off_by_one(module, name, case, one=1):
        original = getattr(module, name)

        def broken(*args):
            value = original(*args)
            return value + one if args == case else value

        monkeypatch.setattr(module, name, broken)

    off_by_one(motzkin, "count_by_type", (2, 1, {1: 2}, {1: 1}))
    off_by_one(compositions, "count_by_type", (2, {1: 1}, {1: 1}))
    off_by_one(matrixcomp, "count_by_type", (2, 1, {1: 2}))
    sym = motzkin.named_weights("symbolic")
    off_by_one(compositions, "weighted_sum_by_hsegments", (2, 1, 3, 1, sym),
               Polynomial.const(1))
    off_by_one(matrixcomp, "weighted_sum_by_nonzeros", (2, 2, 1, 2, sym),
               Polynomial.const(1))
    off_by_one(motzkin, "bary_h_factor_closed", (1, 2, 2))
    assert cli.main(["verify", "--suite", "all", "--max-n", "5"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if ": FAIL " in line] == [
        "motzkin/type-counts [2m+k <= 5]: FAIL "
        "(m=2, k=1, u-type={1: 2}, h-type={1: 1})",
        "motzkin/plane-tree-weights-general [b in 1..2, d in 1..3, 2m+k <= 5]: FAIL "
        "(h-factor at j=1, k=2, d=2)",
        "compositions/h-segment-refinement [m, j <= 5, all k, l]: FAIL "
        "(m=2, k=1, j=3, l=1)",
        "compositions/type-counts [m, j <= 5]: FAIL "
        "(m=1, j=2, u-type={1: 1}, h-type={1: 1})",
        "matrixcomp/nonzero-refinement [m <= 5, p <= 3, j <= 4]: FAIL "
        "(m=2, p=2, j=1, r=2)",
        "matrixcomp/type-counts [m <= 5, p <= 3, j <= 4]: FAIL "
        "(m=2, p=2, j=1, type={1: 2})",
    ]
    assert lines[-1] == "FAILED: 6 of 43 identities"


def test_inprocess_calls_match_fresh_processes(capsys, monkeypatch):
    # one process reuses the parser, the named weight specs and the verify
    # suites' series from call to call; each call must still print what a
    # fresh interpreter prints
    monkeypatch.setenv("COLUMNS", "80")
    sequence = (
        ["--help"],
        ["bell", "--n", "4"],
        ["bell", "--n", "31", "--r", "3", "--oracle"],
        ["motzkin", "weighted", "--m", "8", "--k", "8"],
        ["motzkin", "weighted", "--m", "2", "--k", "1"],
        ["motzkin", "table", "--max-n", "8", "--weights", "stirling"],
        ["verify", "--suite", "bell", "--max-n", "4"],
        ["bell", "--n", "6", "--r", "3", "--oracle"],
        ["verify", "--suite", "compositions", "--max-n", "3"],
    )
    expected = [run_cli(*argv) for argv in sequence]
    assert [code for code, _, _ in expected] == [0, 1, 3, 0, 0, 0, 0, 0, 0]
    assert expected[1][2].startswith("usage: bellpaths bell")
    for _ in range(2):
        for argv, (code, out, err) in zip(sequence, expected):
            assert cli.main(argv) == code, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (out, err), argv


def test_help_exits_zero():
    code, out, err = run_cli("--help")
    assert code == 0
    assert "bellpaths" in out


# argv fuzz over the five commands.  Half the draws use only well-formed
# values and every required option; the other half mix in bad values and
# drop options at random.  Every draw must end in a documented exit code.
_SIZES = st.integers(0, 6).map(str)
_BAD_SIZES = st.one_of(_SIZES, st.sampled_from(["-1", "", "x", "1.5", "40", "--m"]))
_WEIGHTS = st.sampled_from([
    "symbolic", "all-ones", "all_ones", "stirling", "b-ary:b=2,d=1", "abel:q=-2",
    "bell-numbers", "factorial-psi",
])
_BAD_WEIGHTS = st.one_of(_WEIGHTS, st.sampled_from([
    "b-ary:b", "abel:q=1/0", "abel:x=1", "r-ary:r=-1", "nosuch", "",
    "csv:/nonexistent/weights.csv",
]))
_LISTS = st.sampled_from(["1,1", "1,2", "0,2"])
_BAD_LISTS = st.one_of(_LISTS, st.sampled_from(["", "1,,2", "x", "1", "-1,0"]))


@st.composite
def _argvs(draw):
    clean = draw(st.booleans())
    sizes = _SIZES if clean else _BAD_SIZES
    weights = _WEIGHTS if clean else _BAD_WEIGHTS
    lists = _LISTS if clean else _BAD_LISTS
    command = draw(st.sampled_from(["bell", "motzkin", "comp", "matcomp", "verify"]))
    argv = [command]
    # (option, values, required)
    options = []
    if command == "bell":
        options = [("--n", sizes, True), ("--r", sizes, True), ("--weights", weights, False)]
        if draw(st.booleans()):
            argv.append("--oracle")
    elif command == "motzkin":
        argv.append(draw(st.sampled_from(["count", "weighted", "table"])))
        options = [
            ("--m", sizes, False), ("--k", sizes, False), ("--weights", weights, False),
            ("--by-segments", lists, False), ("--max-n", sizes, False),
            ("--bound", st.sampled_from(["16", "20"]) if clean else sizes, False),
            ("--format", st.sampled_from(["text", "json", "csv"]), False),
        ]
    elif command == "comp":
        argv.append(draw(st.sampled_from(["count", "weighted", "restricted"])))
        options = [
            ("--m", sizes, True), ("--j", sizes, True), ("--k", sizes, False),
            ("--weights", weights, False), ("--allowed", lists, False),
            ("--forbid", st.sampled_from(["1", "2"]) if clean else sizes, False),
            ("--format", st.sampled_from(["text", "json"]), False),
        ]
    elif command == "matcomp":
        argv.append(draw(st.sampled_from(["count", "weighted", "zero-one", "trees"])))
        options = [
            ("--m", st.integers(0, 4).map(str) if clean else sizes, True),
            ("--p", st.integers(0, 3).map(str) if clean else sizes, True),
            ("--j", st.integers(0, 4).map(str) if clean else sizes, True),
            ("--v", st.integers(1, 6).map(str) if clean else sizes, False),
            ("--weights", weights, False),
        ]
    else:
        options = [
            ("--suite", st.sampled_from([*verify.SUITES, "all"]), False),
            # the uncapped identities make large sizes slow, not wrong
            ("--max-n", st.sampled_from(["0", "2", "3"] if clean else ["-1", "3", "x"]), False),
            ("--jobs", st.just("1") if clean else st.sampled_from(["-1", "0", "x"]), False),
            ("--format", st.sampled_from(["text", "json"]), False),
        ]
    if not clean:
        argv.append(draw(st.sampled_from(["", "--nope", "extra", "--format", "-h"])))
    for name, values, required in options:
        if (required and clean) or draw(st.booleans()):
            argv += [name, draw(values)]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    # 2 is an oracle or verify mismatch, which no draw causes on working code
    assert code in (0, 1, 3), argv
