"""Command-line interface: tables, weighted counts, and the verification suite.

Exit codes: 0 success, 1 usage or input error, 2 verification or oracle
failure, 3 enumeration or symbolic term bound exceeded.  All output is
deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import compositions, matrixcomp, motzkin, verify
from .bell import WeightVector, partial_bell, partial_bell_by_partitions
from .core import EnumerationBoundError
from .polyring import Polynomial, WeightSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BOUND = 3

# symbolic `bell`, `motzkin weighted`/`table`, `comp weighted` and `matcomp
# weighted` queries are refused, before any work, when a Bell row they build
# or their result would have more terms than this
MAX_SYMBOLIC_TERMS = 20_000


def _partitions_into_at_most(limit: int) -> list:
    """rows[n][r] = p(n, 0) + ... + p(n, r), the partitions of n into at most
    r parts, for every n with p(n) <= `limit`: those with exactly r parts are,
    less one from each part, the partitions of n - r into at most r parts."""
    rows = [[1]]
    while True:
        n = len(rows)
        row = [0]
        for r in range(1, n + 1):
            row.append(row[-1] + rows[n - r][min(r, n - r)])
        if row[-1] > limit:
            return rows
        rows.append(row)


_AT_MOST = _partitions_into_at_most(MAX_SYMBOLIC_TERMS)


def _symbolic_terms(*factors: tuple) -> int:
    """Terms of a symbolic result, the product of its factors, or past the
    bound when a factor's Bell row is.

    A factor (n, lo, hi) combines the entries B(n, r), lo <= r <= hi, of the
    Bell row n, which is built whole: one term per partition of n into r
    parts, p(n, lo) + ... + p(n, hi) in all.  A factor whose entries are all
    zero by their indices (r > n, or r = 0 < n) makes the result 0, no row."""
    if any(max(lo, 1 if n else 0) > min(hi, n) for n, lo, hi in factors):
        return 0
    terms = 1
    for n, lo, hi in factors:
        if n >= len(_AT_MOST):
            return MAX_SYMBOLIC_TERMS + 1
        row = _AT_MOST[n]
        terms *= row[min(hi, n)] - (row[lo - 1] if lo > 0 else 0)
    return terms


def _check_symbolic_terms(weights: WeightSpec, *factors: tuple, **sizes: int) -> None:
    """Refuse a query at `sizes` whose t- and s-factors would be past
    MAX_SYMBOLIC_TERMS terms (see _symbolic_terms); numeric weights pass."""
    if any(
        isinstance(weights.entry(family, 1), Polynomial) for family in ("t", "s")
    ) and _symbolic_terms(*factors) > MAX_SYMBOLIC_TERMS:
        at = ", ".join(f"{name}={size}" for name, size in sizes.items())
        raise EnumerationBoundError(
            f"symbolic query at {at} exceeds the term bound {MAX_SYMBOLIC_TERMS}"
        )


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
        key, sep, value = (part.strip() for part in piece.partition("="))
        if not sep:
            raise ValueError(f"--weights parameter {piece!r} is not of the form key=value")
        if key in params:
            raise ValueError(f"--weights parameter {key!r} is given twice in {text!r}")
        try:
            params[key] = Fraction(value)
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
    `factorial-psi`, `symbolic`, or `csv:<file>`.

    A named kind is the process-wide spec of motzkin.named_weights, so its
    Bell rows outlive one query; a csv file is read again on every call,
    since it may have changed."""
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
    _check_symbolic_terms(weights, (args.n, args.r, args.r), n=args.n)
    # plain entries: x_i is the t-weight itself, symbolic entries stay t_i
    vector = WeightVector.from_weights(weights, "t", plain=True)
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


def cmd_motzkin_count(args) -> int:
    _require_nonnegative(args.bound)
    print(motzkin.count_paths(args.m, args.k, bound=args.bound))
    return EXIT_OK


def cmd_motzkin_weighted(args) -> int:
    _require_nonnegative(args.m, args.k)
    weights = parse_weights(args.weights)
    if args.by_segments is not None:
        segments = _int_list(args.by_segments, "--by-segments")
        if len(segments) != 2:
            raise ValueError(f"--by-segments needs R,L, got {args.by_segments!r}")
        r, l = segments
        _require_nonnegative(r, l)
        _check_symbolic_terms(weights, (args.m, r, r), (args.k, l, l),
                              m=args.m, k=args.k, r=r, l=l)
        poly = motzkin.weighted_sum_by_segments(args.m, args.k, r, l, weights)
    else:
        _check_symbolic_terms(weights, (args.m, 0, args.m), (args.k, 0, args.k),
                              m=args.m, k=args.k)
        poly = motzkin.weighted_sum_closed(args.m, args.k, weights)
    _print_value(poly, args.format, {"m": args.m, "k": args.k})
    return EXIT_OK


def cmd_motzkin_table(args) -> int:
    """The triangle over (m, k) for each length n: one row per n, entries by m."""
    _require_nonnegative(args.max_n)
    weights = parse_weights(args.weights)
    for m in range(args.max_n // 2 + 1):
        k = args.max_n - 2 * m
        _check_symbolic_terms(weights, (m, 0, m), (k, 0, k), m=m, k=k)
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


def cmd_comp_count(args) -> int:
    _require_nonnegative(args.k)
    total = 0
    for parts in compositions.enumerate_compositions(args.m, args.j):
        if args.k is None or parts.count(0) == args.k:
            total += 1
    print(total)
    return EXIT_OK


def cmd_comp_weighted(args) -> int:
    _require_nonnegative(args.k, args.m, args.j)
    weights = parse_weights(args.weights)
    _check_symbolic_terms(weights, (args.m, args.j - args.k, args.j - args.k),
                          (args.k, 0, args.j - args.k + 1), m=args.m, k=args.k, j=args.j)
    poly = compositions.weighted_sum_closed(args.m, args.k, args.j, weights)
    _print_value(poly, args.format, {"m": args.m, "k": args.k, "j": args.j})
    return EXIT_OK


def cmd_comp_restricted(args) -> int:
    allowed = None
    if args.allowed is not None:
        allowed = set(_int_list(args.allowed, "--allowed"))
    print(compositions.restricted_count(args.m, args.j, allowed, args.forbid))
    return EXIT_OK


def cmd_matcomp_count(args) -> int:
    print(matrixcomp.bipartite_count(args.m, args.p, args.j))
    return EXIT_OK


def cmd_matcomp_weighted(args) -> int:
    _require_nonnegative(args.m, args.p, args.j)
    weights = parse_weights(args.weights)
    # U(p, j, r) is nonzero exactly for r <= p * j
    _check_symbolic_terms(weights, (args.m, 0, min(args.m, args.p * args.j)),
                          m=args.m, p=args.p, j=args.j)
    poly = matrixcomp.weighted_sum_closed(args.m, args.p, args.j, weights)
    _print_value(poly, args.format, {"m": args.m, "p": args.p, "j": args.j})
    return EXIT_OK


def cmd_matcomp_zero_one(args) -> int:
    print(matrixcomp.zero_one_count(args.p, args.j, args.m))
    return EXIT_OK


def cmd_matcomp_trees(args) -> int:
    _require_nonnegative(args.j)
    print(matrixcomp.bounded_outdegree_tree_count(args.v, args.j))
    return EXIT_OK


def cmd_verify(args) -> int:
    records = verify.run(args.suite, args.max_n, jobs=args.jobs)
    if args.format == "json":
        payload = [
            {key: value for key, value in vars(record).items() if value is not None}
            for record in records
        ]
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


_HELD = f"a symbolic result is held to {MAX_SYMBOLIC_TERMS} terms"
_COMMANDS = {
    "bell": "partial Bell polynomial values",
    "motzkin": "weighted Motzkin path counts",
    "comp": "weighted composition counts",
    "matcomp": "bipartite matrix compositions and trees",
    "verify": "run the identity verification suites",
}


def _sizes(*sizes, **common) -> dict:
    """Integer options (name, help) of a mode, each with `common` too."""
    return {f"--{name}": {"type": int, "help": help, **common} for name, help in sizes}


def _output(weights: str, *formats) -> dict:
    return {
        "--weights": {"default": weights, "help": f"as for bell, default %(default)s; {_HELD}"},
        "--format": {"choices": ["text", "json", *formats], "default": "text"},
    }


_STEPS = _sizes(("m", "up-steps"), ("k", "horizontal steps"), default=0)
_PARTS = _sizes(("m", "sum of the parts"), ("j", "number of parts"), required=True)
_SHAPE = _sizes(("m", "sum of the entries"), ("p", "rows"), ("j", "columns"), required=True)

# the value of a required option in the namespace _read starts from
_MISSING = object()


def _owner(words: tuple, handler, options: dict) -> tuple:
    """An entry of _OWNERS: the owner's set_defaults, its options, each with
    the dest argparse gives it, and the namespace _read starts from, each
    option at its default or _MISSING."""
    defaults = dict(zip(("command", "mode"), words), handler=handler)
    options = {name: {"dest": name[2:].replace("-", "_"), **option}
               for name, option in options.items()}
    return defaults, options, {**defaults, **{
        option["dest"]: _MISSING if option.get("required") else option.get("default")
        for option in options.values()}}


# The owner of each query's options, keyed on its command words: ("bell",),
# ("verify",) and (command, mode) for each mode of motzkin, comp and matcomp.
# Each is declared once, by its handler and its options in order, each as
# the add_argument keywords _read reads: type, default, required, choices, a
# flag as action="store_true" with default False, and help and metavar.  No
# option is abbreviated: `motzkin table --m` must not read as --max-n.
_OWNERS = {
    words: _owner(words, handler, options)
    for words, handler, options in (
        (("bell",), cmd_bell, {
            "--n": {"type": int, "required": True},
            "--r": {"type": int, "required": True},
            "--weights": {
                "default": "symbolic",
                "help": "symbolic, all-ones, stirling, b-ary:b=2,d=1, r-ary:r=1, "
                "abel:q=-2, bell-numbers, factorial-psi, or csv:<file>; symbolic "
                f"Bell rows are held to {MAX_SYMBOLIC_TERMS} terms",
            },
            "--oracle": {
                "action": "store_true",
                "default": False,
                "help": "cross-check against the partition-sum evaluator (exit 2 on mismatch)",
            },
        }),
        (("motzkin", "count"), cmd_motzkin_count, {**_STEPS, "--bound": {
            "type": int,
            "default": motzkin.DEFAULT_PATH_BOUND,
            "help": f"enumeration bound on 2m+k, at most {motzkin.MAX_PATH_BOUND}",
        }}),
        (("motzkin", "weighted"), cmd_motzkin_weighted, {**_STEPS, "--by-segments": {
            "metavar": "R,L", "help": "restrict to R u-segments and L h-segments",
        }, **_output("symbolic")}),
        (("motzkin", "table"), cmd_motzkin_table, {
            "--max-n": {"type": int, "default": 6, "help": "table size by path length"},
            **_output("all-ones", "csv"),
        }),
        (("comp", "count"), cmd_comp_count, {
            **_PARTS, "--k": {"type": int, "help": "zero parts; default: all k"},
        }),
        (("comp", "weighted"), cmd_comp_weighted, {
            **_PARTS, "--k": {"type": int, "default": 0, "help": "zero parts"},
            **_output("symbolic"),
        }),
        (("comp", "restricted"), cmd_comp_restricted, {
            **_PARTS, "--allowed": {"help": "comma-separated part values"},
            "--forbid": {"type": int, "help": "excluded part value"},
        }),
        (("matcomp", "count"), cmd_matcomp_count, _SHAPE),
        (("matcomp", "weighted"), cmd_matcomp_weighted, {**_SHAPE, **_output("symbolic")}),
        (("matcomp", "zero-one"), cmd_matcomp_zero_one, _SHAPE),
        (("matcomp", "trees"), cmd_matcomp_trees,
         _sizes(("v", "vertex count"), ("j", "largest outdegree"), required=True)),
        (("verify",), cmd_verify, {
            "--suite": {"choices": [*verify.SUITES, "all"], "default": "all"},
            "--max-n": {"type": int, "default": 8},
            "--format": {"choices": ["text", "json"], "default": "text"},
            "--jobs": {"type": int, "default": 1},
        }),
    )
}


@lru_cache(maxsize=None)
def _build_parser() -> tuple[_Parser, dict]:
    """The argparse tree of _OWNERS, and the parser of each owner by its
    command words.  Each owner parses its query to the namespace the tree
    gives.  main builds it only for a query _read refuses or whose words name
    no owner: argparse then parses it and renders every help, usage and
    error text, with the owner, or with the whole tree at the top and
    command levels."""
    parser = _Parser(prog="bellpaths", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    owners, modes = {}, {}
    for words, (defaults, options, _) in _OWNERS.items():
        command, summary = words[0], _COMMANDS[words[0]]
        if len(words) == 1:
            owner = sub.add_parser(command, help=summary, allow_abbrev=False)
        else:
            if command not in modes:
                parent = sub.add_parser(command, help=summary,
                                        description=f"{summary}; {_HELD}")
                modes[command] = parent.add_subparsers(dest="mode", required=True)
            owner = modes[command].add_parser(words[1], allow_abbrev=False)
        owner.set_defaults(**defaults)
        for name, keywords in options.items():
            owner.add_argument(name, **keywords)
        owners[words] = owner
    return parser, owners


# a token argparse takes as a value though it starts with "-": its owners
# declare no option that looks like a negative number
_NEGATIVE_INT = re.compile(r"-[0-9]+")


def _read(owner: tuple, argv: list) -> argparse.Namespace | None:
    """`argv` read in one pass by `owner`, an entry of _OWNERS: the namespace
    its parser's parse_known_args(argv) gives, with nothing left over.

    It reads `--name value` and `--name=value`, the value converted by the
    option's type and checked against its choices, and `--flag`; the last of
    a repeated option wins.  Any other form (-h, an unknown or abbreviated
    option, a missing, empty or bad value, `--`, a stray token, `--flag=x`)
    or a missing required option gives None, and argparse parses the query
    instead."""
    options, values = owner[1], dict(owner[2])
    tokens = iter(argv)
    for token in tokens:
        name, joined, value = token.partition("=")
        option = options.get(name)
        if option is None:
            return None
        if "action" in option:
            if joined:
                return None
            value = True
        else:
            if not joined:
                value = next(tokens, "")
                if value.startswith("-") and not _NEGATIVE_INT.fullmatch(value):
                    return None
            if not value:
                return None
            if "type" in option:
                try:
                    value = option["type"](value)
                except (TypeError, ValueError):
                    return None
            if "choices" in option and value not in option["choices"]:
                return None
        values[option["dest"]] = value
    if _MISSING in values.values():
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run one query.  The owner of the query's options is looked up by its
    first two words, then its first, and _read reads the rest by that
    owner's entry of _OWNERS in one pass.  What _read refuses goes, unchanged,
    to the owner's argparse pass, which renders its help, usage and errors;
    when the lookup misses (`--help`, `motzkin --help`, a missing mode, an
    unknown command) the whole tree parses and renders."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        for words in (tuple(argv[:2]), tuple(argv[:1])):
            if words in _OWNERS:
                rest = argv[len(words):]
                args, unread = _read(_OWNERS[words], rest), []
                if args is None:
                    args, unread = _build_parser()[1][words].parse_known_args(rest)
                break
        else:
            args, unread = _build_parser()[0].parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        if unread:
            # an option of another mode would answer a question not asked
            query = " ".join(filter(None, (args.command, getattr(args, "mode", None))))
            token = unread[0]
            if re.match(r"--?[A-Za-z]", token):
                raise ValueError(f"{query} does not read {token.partition('=')[0]}")
            raise ValueError(f"{query} got an unexpected argument {token!r}")
        return args.handler(args)
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, IndexError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
