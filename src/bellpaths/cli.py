"""Command-line interface: tables, weighted counts, and the verification suite.

Exit codes: 0 success, 1 usage or input error, 2 verification or oracle
failure, 3 enumeration bound exceeded.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import compositions, matrixcomp, motzkin, verify
from .bell import WeightVector, partial_bell, partial_bell_by_partitions
from .core import EnumerationBoundError
from .polyring import Polynomial, WeightSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BOUND = 3


def _split_list(text: str, option: str) -> list[str]:
    """The comma-separated pieces of an option value; an empty piece is a
    usage error, never silently skipped."""
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(pieces):
        raise ValueError(f"{option} has an empty item in {text!r}")
    return pieces


def _int_list(text: str, option: str) -> list[int]:
    pieces = _split_list(text, option)
    try:
        return [int(piece) for piece in pieces]
    except ValueError:
        raise ValueError(f"{option} needs comma-separated integers, got {text!r}") from None


def _parse_params(text: str) -> dict:
    params = {}
    for piece in _split_list(text, "--weights"):
        key, sep, value = piece.partition("=")
        if not sep:
            raise ValueError(f"--weights parameter {piece!r} is not of the form key=value")
        try:
            params[key.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"--weights parameter {piece!r} needs an exact rational value"
            ) from None
    return params


def _load_csv_weights(path: str) -> WeightSpec:
    """Weight tables from a CSV file with rows family,index,numerator,denominator.

    Each (family, index >= 1) is listed at most once, and indices not listed
    get weight 0.  A bad row is an error that names the file and line.
    """
    tables: dict[str, dict[int, Fraction]] = {"t": {}, "s": {}}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            where = f"{path} line {reader.line_num}"
            if len(row) != 4:
                raise ValueError(f"{where}: weight row {row!r} needs family,index,num,den")
            family, index, num, den = (field.strip() for field in row)
            if family not in tables:
                raise ValueError(f"{where}: unknown weight family {family!r} in {row!r}")
            try:
                index, value = int(index), Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"{where}: weight row {row!r} needs an integer index, "
                    "numerator and nonzero denominator"
                ) from None
            if index < 1:
                raise ValueError(f"{where}: weight index must be >= 1, got {index}")
            if index in tables[family]:
                raise ValueError(f"{where}: weight {family}{index} is listed twice")
            tables[family][index] = value
    return WeightSpec.from_tables(tables["t"], tables["s"], name=f"csv:{path}")


def parse_weights(spec: str) -> WeightSpec:
    """Weight specs on the command line: named kinds like `all-ones`,
    `stirling`, `b-ary:b=2,d=1`, `abel:q=-2`, `r-ary:r=1`, `bell-numbers`,
    `factorial-psi`, `symbolic`, or `csv:<file>`."""
    if spec.startswith("csv:"):
        return _load_csv_weights(spec[4:])
    kind, sep, param_text = spec.partition(":")
    params = _parse_params(param_text) if sep else {}
    return motzkin.named_weights(kind, **params)


def _print_value(poly: Polynomial, fmt: str, extra: dict | None = None) -> None:
    if fmt == "json":
        record = dict(extra or {})
        record["value"] = poly.to_text()
        print(json.dumps(record, sort_keys=True))
    else:
        print(poly.to_text())


def _require_nonnegative(*values) -> None:
    if any(value is not None and value < 0 for value in values):
        raise ValueError("arguments must be >= 0")


def cmd_bell(args) -> int:
    _require_nonnegative(args.n, args.r)
    weights = parse_weights(args.weights)
    # plain entries: x_i is the t-weight itself, symbolic entries stay t_i
    vector = WeightVector(lambda k: weights.entry("t", k))
    # the oracle goes first, so its size bound is checked before any work
    check = partial_bell_by_partitions(args.n, args.r, vector) if args.oracle else None
    value = partial_bell(args.n, args.r, vector)
    if check is not None and check != value:
        print(
            f"oracle mismatch at n={args.n}, r={args.r}: "
            f"recurrence {value.to_text()} vs partition sum {check.to_text()}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(value.to_text())
    return EXIT_OK


def cmd_motzkin(args) -> int:
    if args.mode == "count":
        _require_nonnegative(args.bound)
        print(motzkin.count_paths(args.m, args.k, bound=args.bound))
        return EXIT_OK
    if args.mode == "weighted":
        weights = parse_weights(args.weights)
        if args.by_segments is not None:
            segments = _int_list(args.by_segments, "--by-segments")
            if len(segments) != 2:
                raise ValueError(f"--by-segments needs R,L, got {args.by_segments!r}")
            poly = motzkin.weighted_sum_by_segments(args.m, args.k, *segments, weights)
        else:
            poly = motzkin.weighted_sum_closed(args.m, args.k, weights)
        _print_value(poly, args.format, {"m": args.m, "k": args.k})
        return EXIT_OK
    # triangle over (m, k) for each length n: one row per n, entries by m
    _require_nonnegative(args.max_n)
    weights = parse_weights(args.weights)
    rows = []
    for n in range(args.max_n + 1):
        values = [
            motzkin.weighted_sum_closed(m, n - 2 * m, weights).to_text()
            for m in range(n // 2 + 1)
        ]
        rows.append((n, values))
    if args.format == "json":
        print(json.dumps([{"n": n, "values": values} for n, values in rows]))
    elif args.format == "csv":
        for n, values in rows:
            print(",".join([str(n), *values]))
    else:
        for n, values in rows:
            print(f"n={n}: " + " ".join(values))
    return EXIT_OK


def cmd_comp(args) -> int:
    _require_nonnegative(args.k)
    if args.mode == "count":
        total = 0
        for comp in compositions.enumerate_compositions(args.m, args.j):
            if args.k is None or comp.zero_parts == args.k:
                total += 1
        print(total)
        return EXIT_OK
    if args.mode == "weighted":
        weights = parse_weights(args.weights)
        k = args.k if args.k is not None else 0
        poly = compositions.weighted_sum_closed(args.m, k, args.j, weights)
        _print_value(poly, args.format, {"m": args.m, "k": k, "j": args.j})
        return EXIT_OK
    allowed = None
    if args.allowed is not None:
        allowed = set(_int_list(args.allowed, "--allowed"))
    print(compositions.restricted_count(args.m, args.j, allowed, args.forbid))
    return EXIT_OK


def cmd_matcomp(args) -> int:
    if args.mode == "trees":
        if args.v is None:
            raise ValueError("trees mode needs --v (vertex count)")
        _require_nonnegative(args.j)
        print(matrixcomp.bounded_outdegree_tree_count(args.v, args.j))
        return EXIT_OK
    if args.m is None or args.p is None:
        raise ValueError(f"{args.mode} mode needs --m and --p")
    if args.mode == "count":
        total = sum(1 for _ in matrixcomp.enumerate_bipartite(args.m, args.p, args.j))
        print(total)
        return EXIT_OK
    if args.mode == "zero-one":
        print(matrixcomp.zero_one_count(args.p, args.j, args.m))
        return EXIT_OK
    weights = parse_weights(args.weights)
    poly = matrixcomp.weighted_sum_closed(args.m, args.p, args.j, weights)
    _print_value(poly, args.format, {"m": args.m, "p": args.p, "j": args.j})
    return EXIT_OK


def cmd_verify(args) -> int:
    records = verify.run(args.suite, args.max_n, jobs=args.jobs)
    if args.format == "json":
        payload = []
        for record in records:
            entry = {
                "suite": record.suite,
                "identity": record.identity,
                "range": record.range,
                "status": record.status,
            }
            if record.counterexample is not None:
                entry["counterexample"] = record.counterexample
            payload.append(entry)
        print(json.dumps(payload, indent=2))
    else:
        for record in records:
            line = f"{record.suite}/{record.identity} [{record.range}]: {record.status}"
            if record.counterexample is not None:
                line += f" ({record.counterexample})"
            print(line)
        failed = sum(not record.passed for record in records)
        if failed:
            print(f"FAILED: {failed} of {len(records)} identities")
        else:
            print(f"ok: {len(records)} identities")
    return EXIT_OK if all(record.passed for record in records) else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bellpaths", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bell = sub.add_parser("bell", help="partial Bell polynomial values")
    bell.add_argument("--n", type=int, required=True)
    bell.add_argument("--r", type=int, required=True)
    bell.add_argument(
        "--weights",
        default="symbolic",
        help="symbolic, all-ones, stirling, b-ary:b=2,d=1, r-ary:r=1, "
        "abel:q=-2, bell-numbers, factorial-psi, or csv:<file>",
    )
    bell.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the partition-sum evaluator (exit 2 on mismatch)",
    )
    bell.set_defaults(handler=cmd_bell)

    motz = sub.add_parser("motzkin", help="weighted Motzkin path counts")
    motz.add_argument("mode", choices=["count", "weighted", "table"])
    motz.add_argument("--m", type=int, default=0, help="up-steps")
    motz.add_argument("--k", type=int, default=0, help="horizontal steps")
    motz.add_argument(
        "--weights", default=None, help="default: symbolic, or all-ones for table"
    )
    motz.add_argument(
        "--by-segments",
        metavar="R,L",
        default=None,
        help="restrict to R u-segments and L h-segments",
    )
    motz.add_argument("--max-n", type=int, default=6, help="table size by path length")
    motz.add_argument(
        "--bound",
        type=int,
        default=motzkin.DEFAULT_PATH_BOUND,
        help="enumeration bound on 2m+k for count mode, at most "
        f"{motzkin.MAX_PATH_BOUND}",
    )
    motz.add_argument("--format", choices=["text", "json", "csv"], default="text")
    motz.set_defaults(handler=cmd_motzkin)

    comp = sub.add_parser("comp", help="weighted composition counts")
    comp.add_argument("mode", choices=["count", "weighted", "restricted"])
    comp.add_argument("--m", type=int, required=True, help="sum of the parts")
    comp.add_argument("--j", type=int, required=True, help="number of parts")
    comp.add_argument(
        "--k", type=int, default=None, help="zero parts; all k for count, 0 for weighted"
    )
    comp.add_argument("--weights", default="symbolic")
    comp.add_argument("--allowed", default=None, help="comma-separated part values")
    comp.add_argument("--forbid", type=int, default=None, help="excluded part value")
    comp.add_argument("--format", choices=["text", "json"], default="text")
    comp.set_defaults(handler=cmd_comp)

    mat = sub.add_parser("matcomp", help="bipartite matrix compositions and trees")
    mat.add_argument("mode", choices=["count", "weighted", "zero-one", "trees"])
    mat.add_argument("--m", type=int, default=None)
    mat.add_argument("--p", type=int, default=None)
    mat.add_argument("--j", type=int, required=True)
    mat.add_argument("--v", type=int, default=None, help="vertex count for trees")
    mat.add_argument("--weights", default="symbolic")
    mat.add_argument("--format", choices=["text", "json"], default="text")
    mat.set_defaults(handler=cmd_matcomp)

    ver = sub.add_parser("verify", help="run the identity verification suites")
    ver.add_argument(
        "--suite",
        choices=[*verify.SUITES, "all"],
        default="all",
    )
    ver.add_argument("--max-n", type=int, default=8)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--jobs", type=int, default=1)
    ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    if getattr(args, "command", None) == "motzkin" and args.weights is None:
        args.weights = "all-ones" if args.mode == "table" else "symbolic"
    try:
        return args.handler(args)
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, IndexError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
