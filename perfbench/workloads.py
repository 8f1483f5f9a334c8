"""Query universes of the benchmark workloads and the seeded draw over them.

A workload is a list of groups.  The queries of one group share the
parameters that set their cost (path length, table size, verify range) and
differ only in secondary ones (weight kind, output format, segment split,
allowed parts).  A draw takes a fixed number of queries from every group and
shuffles the result, so each seed gives a different query list with the same
shape, and runs on different seeds do comparable work.

Every query is an argv for `bellpaths.cli.main`.  The union of all groups is
the universe; `golden.json` holds the expected exit code and stdout hash of
every query in it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NUMERIC_KINDS = (
    "all-ones",
    "stirling",
    "b-ary:b=2,d=1",
    "r-ary:r=1",
    "abel:q=-2",
    "bell-numbers",
    "factorial-psi",
)
SUITES = ("core-identities", "bell", "motzkin", "compositions", "matrixcomp")


@dataclass(frozen=True)
class Group:
    """Queries of one cost class; a draw takes `take` of them."""

    queries: tuple
    take: int


def _q(*parts) -> tuple:
    return tuple(str(part) for part in parts)


def _numeric_tables() -> list[Group]:
    groups = []
    # every pass builds every kind at every size; two formats at n = 8, so
    # that p90 falls inside that cluster of latencies, not at its edge
    for n, take in ((6, 1), (8, 2), (10, 1)):
        for kind in NUMERIC_KINDS:
            groups.append(
                Group(
                    tuple(
                        _q("motzkin", "table", "--max-n", n, "--weights", kind, "--format", fmt)
                        for fmt in ("text", "json", "csv")
                    ),
                    take,
                )
            )
    for m, k in (
        (2, 2), (2, 4), (3, 2), (3, 4), (4, 2), (4, 4), (5, 1),
        (5, 3), (5, 5), (6, 2), (6, 4), (7, 1), (7, 3), (8, 2),
    ):
        groups.append(
            Group(
                tuple(
                    _q("motzkin", "weighted", "--m", m, "--k", k, "--weights", kind,
                       "--format", fmt)
                    for kind in NUMERIC_KINDS
                    for fmt in ("text", "json")
                ),
                3,
            )
        )
    part_rules = (
        ("--allowed", "1,2"), ("--allowed", "1,2,3"), ("--allowed", "1,3,5"),
        ("--allowed", "2,3"), ("--allowed", "1,4"), ("--allowed", "2,4,6"),
        ("--forbid", 1), ("--forbid", 2), ("--forbid", 3),
    )
    for m, j in ((6, 3), (7, 2), (8, 4), (9, 3), (10, 5), (11, 5), (12, 4), (12, 6)):
        groups.append(
            Group(
                tuple(_q("comp", "restricted", "--m", m, "--j", j, *rule) for rule in part_rules),
                3,
            )
        )
    for m, p, j in (
        (4, 2, 2), (5, 2, 3), (6, 2, 2), (6, 3, 2), (7, 2, 3), (7, 3, 3),
        (8, 2, 4), (8, 3, 2), (9, 3, 3), (9, 4, 2), (10, 3, 3), (10, 4, 3),
    ):
        groups.append(
            Group(
                tuple(
                    _q("matcomp", "weighted", "--m", m, "--p", p, "--j", j,
                       "--weights", "all-ones", "--format", fmt)
                    for fmt in ("text", "json")
                ),
                1,
            )
        )
    groups.append(
        Group(
            tuple(
                _q("matcomp", "zero-one", "--p", p, "--j", j, "--m", m)
                for p in (2, 3, 4, 5)
                for j in (1, 2, 3, 4)
                for m in range(0, p * j + 1, 2)
            ),
            24,
        )
    )
    return groups


def _symbolic_closed_forms() -> list[Group]:
    groups = []
    for m, k in (
        (3, 3), (4, 2), (4, 4), (5, 3), (5, 5), (6, 2), (6, 4), (6, 6),
        (7, 3), (7, 5), (8, 4), (8, 6), (9, 4), (10, 4), (10, 6), (10, 8),
    ):
        groups.append(
            Group(
                tuple(
                    _q("motzkin", "weighted", "--m", m, "--k", k, "--format", fmt)
                    for fmt in ("text", "json")
                ),
                2,
            )
        )
    for m, k in ((6, 6), (8, 6), (8, 8), (10, 8), (10, 10), (12, 10)):
        groups.append(
            Group(
                tuple(
                    _q("motzkin", "weighted", "--m", m, "--k", k,
                       "--by-segments", f"{r},{l}", "--format", fmt)
                    for r in range(2, m - 1)
                    for l in range(2, k - 1)
                    for fmt in ("text", "json")
                ),
                6,
            )
        )
    for m, j in ((6, 5), (8, 6), (10, 6), (10, 8), (12, 8), (12, 10)):
        groups.append(
            Group(
                tuple(
                    _q("comp", "weighted", "--m", m, "--j", j, "--k", k, "--format", fmt)
                    for k in range(1, j - 1)
                    for fmt in ("text", "json")
                ),
                4,
            )
        )
    for m, p, j in ((6, 2, 2), (6, 3, 2), (7, 2, 3), (8, 2, 3), (8, 3, 2), (9, 3, 3)):
        groups.append(
            Group(
                tuple(
                    _q("matcomp", "weighted", "--m", m, "--p", p, "--j", j, "--format", fmt)
                    for fmt in ("text", "json")
                ),
                2,
            )
        )
    for n in (8, 9, 10, 11, 12, 13, 14):
        groups.append(
            Group(tuple(_q("bell", "--n", n, "--r", r) for r in range(2, n - 1)), 5)
        )
    return groups


def _oracles() -> list[Group]:
    groups = []
    # both formats at max-n 3, so that p90 falls inside that cluster of
    # latencies, not at its edge
    for suite in SUITES:
        for n in (2, 3, 4, 5):
            groups.append(
                Group(
                    tuple(
                        _q("verify", "--suite", suite, "--max-n", n, "--format", fmt,
                           "--jobs", 1)
                        for fmt in ("text", "json")
                    ),
                    2 if n == 3 else 1,
                )
            )
    for n in (6, 7, 8, 9, 10, 11, 12):
        groups.append(
            Group(
                tuple(
                    _q("bell", "--n", n, "--r", r, "--weights", kind, "--oracle")
                    for r in range(2, n - 1)
                    for kind in ("symbolic", "all-ones", "stirling", "abel:q=-2")
                ),
                4,
            )
        )
    for m, k in (
        (0, 4), (0, 6), (0, 8), (1, 2), (1, 4), (1, 6), (2, 2), (2, 4), (2, 6), (3, 0), (3, 2),
        (3, 4), (4, 0), (4, 2), (4, 4), (5, 0), (5, 2), (6, 0),
    ):
        groups.append(
            Group(
                tuple(
                    _q("motzkin", "count", "--m", m, "--k", k, "--bound", bound)
                    for bound in (16, 20, 24)
                ),
                1,
            )
        )
    for m, j in ((4, 4), (5, 3), (5, 5), (6, 4), (7, 3), (7, 5), (8, 4), (9, 3)):
        groups.append(
            Group(
                (_q("comp", "count", "--m", m, "--j", j),)
                + tuple(_q("comp", "count", "--m", m, "--j", j, "--k", k) for k in range(j)),
                3,
            )
        )
    for m in (3, 4, 5, 6, 7):
        groups.append(
            Group(
                tuple(
                    _q("matcomp", "count", "--m", m, "--p", p, "--j", j)
                    for p, j in ((2, 2), (2, 3), (3, 2), (3, 3))
                ),
                3,
            )
        )
    for v in (5, 6, 7, 8, 9):
        groups.append(
            Group(tuple(_q("matcomp", "trees", "--v", v, "--j", j) for j in (1, 2, 3, 4)), 3)
        )
    return groups


WORKLOADS = {
    "numeric-tables": _numeric_tables,
    "symbolic-closed-forms": _symbolic_closed_forms,
    "oracles": _oracles,
}


def groups(workload: str) -> list[Group]:
    try:
        return WORKLOADS[workload]()
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}") from None


def universe(workload: str) -> list[tuple]:
    return [query for group in groups(workload) for query in group.queries]


def draw(workload: str, seed: int) -> list[tuple]:
    """The query list of one workload for one seed: `take` queries from every
    group, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    queries = []
    for group in groups(workload):
        queries.extend(rng.sample(group.queries, group.take))
    rng.shuffle(queries)
    return queries


def query_key(query: tuple) -> str:
    return " ".join(query)
