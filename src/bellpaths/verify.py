"""Machine verification of every counting identity in the package.

Each identity is one registry entry: its suite, its name, a range template,
an optional cap on the size it is checked at, and a `check` generator.  The
check recomputes the closed form (or coefficient formula) over the size
range, compares it against an independent oracle, usually brute-force
enumeration or truncated series algebra, and yields a counterexample string
for every failing case, in case order.  `run` reports the first one.  Suites
are deterministic, so a parallel run produces the same report as a
sequential one.

What the identities of a run share is built once and shared for as long as
this: a brute-force tally, a series and the weight of a matrix shape go
into the run's one store (one per pool worker) and are dropped when the run
ends, while a weighted path sum, seldom read twice, is weighed from its
tally on every read; the powers of a series live in its power table,
as long as the series; the h-run series of motzkin, the values of a
binomial sequence and the Bell rows of a shared weight spec stay for the
life of the process, and none of those holds a symbolic series.  General
matrices are tallied from row tallies.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

from . import compositions, lagrange, matrixcomp, motzkin
from .bell import (
    BinomialSequence,
    WeightVector,
    as_polynomial,
    partial_bell,
    partial_bell_by_partitions,
    potential,
    power_derivative,
    stirling2,
    unit_power,
)
from .core import binomial, factorial
from .polyring import (
    Polynomial,
    Series,
    WeightSpec,
    monomial_items,
    monomial_text,
    specialize,
    weighted_degree,
)

SUITES = ("core-identities", "bell", "motzkin", "compositions", "matrixcomp")

_SERIES_SEED = 20260810

# the binomial-sequence families every family-indexed identity runs over
FAMILIES = (
    BinomialSequence.power(),
    BinomialSequence.factorial(),
    BinomialSequence.abel(Fraction(-2)),
    BinomialSequence.exponential(),
)


def _sym() -> WeightSpec:
    """The process-wide symbolic spec, looked up when a check runs, so the
    Bell rows a check builds are shared with every other caller in the
    process, `bell` and `motzkin weighted` included."""
    return motzkin.named_weights("symbolic")


def _sym_t() -> WeightVector:
    """The plain t-vector of the symbolic spec, the one `bell` reads."""
    return WeightVector.from_weights(_sym(), "t", plain=True)


@dataclass(frozen=True)
class IdentityResult:
    suite: str
    identity: str
    range: str
    status: str
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _one_size(n: int) -> tuple[int, ...]:
    return (n,)


@dataclass(frozen=True)
class Identity:
    """One registered identity.

    `check(*sizes)` yields a counterexample per failing case, in
    case order.  The sizes are `derive(n)`, where n is the requested size
    limited to `cap`; `range` is a `str.format` template over the same
    sizes.
    """

    suite: str
    name: str
    range: str
    check: Callable[..., Iterator[str]]
    cap: int | None = None
    derive: Callable[[int], tuple[int, ...]] = _one_size

    def first_counterexample(self, n: int) -> str | None:
        return next(self.check(*self.derive(n)), None)

    def result(self, requested: int) -> IdentityResult:
        n = requested if self.cap is None else min(requested, self.cap)
        counterexample = self.first_counterexample(n)
        status = "PASS" if counterexample is None else "FAIL"
        return IdentityResult(
            self.suite,
            self.name,
            self.range.format(*self.derive(n)),
            status,
            counterexample,
        )


# (suite, name) -> entry, in report order
REGISTRY: dict[tuple[str, str], Identity] = {}


def _identity(suite, name, range_template, cap=None, derive=_one_size):
    def register(fn):
        REGISTRY[(suite, name)] = Identity(suite, name, range_template, fn, cap, derive)
        return fn

    return register


# (builder, sizes) -> what the identities of one run share, emptied when each
# `run` and `check` ends, so no run reads another run's tallies
_STORE: dict = {}


def _once(build, *sizes):
    """build(*sizes), built once per run however many identities read it;
    stored whole, so a concurrent clear only forces a rebuild."""
    value = _STORE.get((build, sizes))
    if value is None:
        value = _STORE[build, sizes] = build(*sizes)
    return value


def check(suite: str, identity: str, n: int) -> str | None:
    """First counterexample of one registered identity at size n, with no
    cap applied; None when the identity holds over the whole range."""
    try:
        return REGISTRY[(suite, identity)].first_counterexample(n)
    finally:
        _STORE.clear()


def _random_unit_series(rng: random.Random, order: int) -> Series:
    coeffs = [Fraction(1)]
    coeffs += [
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)
    ]
    return Series.from_x_coeffs(coeffs, nx=order)


def pairs_up_to(total: int) -> Iterator[tuple[int, int]]:
    """(m, k) with 2m+k <= total, by path length, then by m."""
    for n in range(total + 1):
        for m in range(n // 2 + 1):
            yield m, n - 2 * m


# ---------------------------------------------------------------------------
# core-identities
# ---------------------------------------------------------------------------


@_identity("core-identities", "upper-negation-convolution", "0 <= l, j <= {}")
def _upper_negation_convolution(n):
    for l in range(n + 1):
        for j in range(n + 1):
            lhs = sum(
                (-1) ** i * binomial(j, i) * binomial(-i, l) for i in range(j + 1)
            )
            rhs = (-1) ** ((l - j) % 2) * binomial(l - 1, l - j)
            if lhs != rhs:
                yield f"l={l}, j={j}: {lhs} != {rhs}"


@_identity("core-identities", "binomial-orthogonality", "0 <= j <= k <= {}")
def _binomial_orthogonality(n):
    for k in range(n + 1):
        for j in range(k + 1):
            lhs = sum(
                (-1) ** (l - j) * binomial(l, j) * binomial(k, l)
                for l in range(j, k + 1)
            )
            if lhs != (1 if k == j else 0):
                yield f"j={j}, k={k}: {lhs}"


@_identity("core-identities", "kronecker-convolution", "0 <= n, r <= {}")
def _kronecker_convolution(top):
    for n in range(top + 1):
        for r in range(top + 1):
            lhs = sum(
                (-1) ** i * binomial(n, i) * binomial(n - i, r) for i in range(n + 1)
            )
            if lhs != (1 if r == n else 0):
                yield f"n={n}, r={r}: {lhs}"


@_identity("core-identities", "pascal-recurrence", "1 <= a, b <= {}")
def _pascal_recurrence(n):
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if binomial(a, b) != binomial(a - 1, b - 1) + binomial(a - 1, b):
                yield f"a={a}, b={b}"


# ---------------------------------------------------------------------------
# bell
# ---------------------------------------------------------------------------


@_identity("bell", "recurrence-vs-partition-sum", "0 <= r <= n <= {}", cap=10)
def _recurrence_vs_partition_sum(top):
    sym_t = _sym_t()
    for n in range(top + 1):
        for r in range(n + 1):
            if partial_bell(n, r, sym_t) != partial_bell_by_partitions(n, r, sym_t):
                yield f"n={n}, r={r}"


@_identity("bell", "homogeneity", "0 <= r <= m <= {}, q=5/3", cap=8)
def _homogeneity(top):
    q = Fraction(5, 3)
    scaled = WeightVector(lambda k: Polynomial.variable("t", k) * q)
    sym_t = _sym_t()
    for m in range(top + 1):
        for r in range(m + 1):
            if partial_bell(m, r, scaled) != partial_bell(m, r, sym_t) * q**r:
                yield f"m={m}, r={r}, q={q}"


@_identity("bell", "potential-shifted-arguments", "n <= {}, 1 <= r <= 6", cap=8)
def _potential_shifted_arguments(top):
    # potential of positive order r from the Bell polynomial with the
    # shifted argument vector (1, 2 f_1, 3 f_2, ...), f_k = entry_k / k!
    shifted = WeightVector(
        lambda k: Polynomial.const(1)
        if k == 1
        else Polynomial.variable("t", k - 1) * k
    )
    sym_t = _sym_t()
    for n in range(top + 1):
        for r in range(1, 7):
            lhs = potential(n, r, sym_t)
            rhs = partial_bell(n + r, r, shifted) * Fraction(1, binomial(n + r, r))
            if lhs != rhs:
                yield f"n={n}, r={r}"


@_identity(
    "bell", "bell-of-power-coefficients", "5 seeded series, 1 <= r <= m <= {}", cap=8
)
def _bell_of_power_coefficients(top):
    # B(m, r) of the vector (1, f_1(2), f_2(3), ...) built from powers of a
    # unit series f, against C(m-1, r-1) f_{m-r}(m)
    rng = random.Random(_SERIES_SEED)
    for trial in range(5):
        f = _random_unit_series(rng, top)
        # entry k is the (k-1)-th derivative of f^k at 0; entry 1 is then 1
        vec = WeightVector(lambda k, f=f: power_derivative(f, k - 1, k))
        for m in range(1, top + 1):
            # power_derivative(f, m - r, m) for every r, from one f^m
            f_power = unit_power(f, m)
            for r in range(1, m + 1):
                lhs = partial_bell(m, r, vec)
                rhs = f_power.coeff(m - r) * (factorial(m - r) * binomial(m - 1, r - 1))
                if lhs != rhs:
                    yield f"trial={trial}, m={m}, r={r}"


@_identity(
    "bell", "bell-of-binomial-sequences", "4 families, 1 <= r <= m <= {}", cap=8
)
def _bell_of_binomial_sequences(top):
    # B(m, r) of (1, 2 phi_1(1), 3 phi_2(1), ...) against C(m, r) phi_{m-r}(r)
    for phi in FAMILIES:
        vec = WeightVector(
            lambda k, phi=phi: Polynomial.const(k * phi.value(k - 1, 1))
        )
        for m in range(1, top + 1):
            for r in range(1, m + 1):
                lhs = partial_bell(m, r, vec).constant_value()
                rhs = binomial(m, r) * phi.value(m - r, r)
                if lhs != rhs:
                    yield f"phi={phi.name()}, m={m}, r={r}"


@_identity("bell", "potential-vs-series-power", "-4 <= power <= 4, n <= {}", cap=8)
def _potential_vs_series_power(top):
    # potential(n, power) against n! [x^n] A(x)^power with A from the same vector
    a_series = Series(
        (top, 0, 0),
        {(0, 0, 0): 1}
        | {
            (k, 0, 0): Polynomial.variable("t", k) * Fraction(1, factorial(k))
            for k in range(1, top + 1)
        },
    )
    sym_t = _sym_t()
    for power in range(-4, 5):
        powered = a_series.pow(power)
        for n in range(top + 1):
            lhs = potential(n, power, sym_t)
            rhs = powered.coeff(n) * factorial(n)
            if lhs != rhs:
                yield f"power={power}, n={n}"


@_identity("bell", "stirling-recurrence-agreement", "0 <= k <= n <= {}", cap=12)
def _stirling_recurrence_agreement(top):
    classic = {(0, 0): 1}
    for n in range(1, top + 1):
        for k in range(n + 1):
            classic[(n, k)] = (
                k * classic.get((n - 1, k), 0) + classic.get((n - 1, k - 1), 0)
            )
    for n in range(top + 1):
        for k in range(n + 1):
            if stirling2(n, k) != classic[(n, k)]:
                yield f"n={n}, k={k}"


@_identity("bell", "binomial-convolution", "4 families, n <= {}", cap=8)
def _binomial_convolution(top):
    points = [
        (Fraction(2), Fraction(3)),
        (Fraction(-1, 2), Fraction(5, 3)),
        (Fraction(0), Fraction(7, 2)),
    ]
    for phi in FAMILIES:
        for x, y in points:
            for n in range(top + 1):
                lhs = phi.value(n, x + y)
                rhs = sum(
                    binomial(n, i) * phi.value(i, x) * phi.value(n - i, y)
                    for i in range(n + 1)
                )
                if lhs != rhs:
                    yield f"phi={phi.name()}, x={x}, y={y}, n={n}"


# ---------------------------------------------------------------------------
# motzkin
# ---------------------------------------------------------------------------


def _bruteforce_mismatches(label, weights, closed_value, top, k_min=0):
    """Cases 2m+k <= top where brute-force enumeration under `weights`
    differs from `closed_value(m, k)`."""
    for m, k in pairs_up_to(top):
        if k < k_min:
            continue
        if _path_sum(m, k, weights).constant_value() != closed_value(m, k):
            yield f"{label}m={m}, k={k}"


def _weigh(shapes: dict, group, weight=lambda shape: 1) -> dict:
    """Regroup a tally {shape: count} by group(shape), summing count *
    weight(shape): each distinct shape is weighed once, however many objects
    share it.  With no weight, the number of objects in each group."""
    table = {}
    for shape, count in shapes.items():
        key = group(shape)
        table[key] = table.get(key, 0) + weight(shape) * count
    return table


def _path_sum(m, k, weights) -> Polynomial:
    """motzkin.weighted_sum_bruteforce, weighed from the run's path tally."""
    tally = _once(motzkin.profile_counts, m, k)
    total = _weigh(tally, lambda key: (), lambda key: motzkin.profile_weight(key, weights))
    return as_polynomial(total[()])


@_identity("motzkin", "path-sum-triple-agreement", "2m+k <= {}")
def _path_sum_triple_agreement(top):
    # uncapped: past the enumeration bound, refuse before the first case
    motzkin._check_path_args(0, top, motzkin.DEFAULT_PATH_BOUND)
    sym = _sym()
    for m, k in pairs_up_to(top):
        brute = _path_sum(m, k, sym)
        if brute != motzkin.weighted_sum_closed(m, k, sym):
            yield f"m={m}, k={k}: closed form differs from enumeration"
        # one series per m: a coefficient inside the box does not depend on it
        if brute != _once(lagrange.motzkin_series, sym, m, top - 2 * m).coeff(m, k):
            yield f"m={m}, k={k}: series fixed point differs from enumeration"


@_identity("motzkin", "segment-refinement", "2m+k <= {}", cap=8)
def _segment_refinement(top):
    sym = _sym()
    for m, k in pairs_up_to(top):
        # (u-segments, h-segments) of a profile are its numbers of runs
        by_split = _weigh(
            _once(motzkin.profile_counts, m, k),
            lambda key: (sum(c for _, c in key[0]), sum(c for _, c in key[1])),
            lambda key: motzkin.profile_weight(key, sym),
        )
        total = Polynomial.zero()
        for r in range(m + 1):
            for l in range(k + 1):
                refined = motzkin.weighted_sum_by_segments(m, k, r, l, sym)
                total = total + refined
                if refined != by_split.get((r, l), 0):
                    yield f"m={m}, k={k}, r={r}, l={l}"
        if total != motzkin.weighted_sum_closed(m, k, sym):
            yield f"m={m}, k={k}: refinement does not repartition the total"


def _partitions(n: int, parts: int | None = None) -> list:
    """The partitions of n, into exactly `parts` parts when given, each as
    its (part, count) pairs in part order, the way a profile lists its runs;
    in sorted order.  Read off the partition sum: over the plain symbolic
    vector, B(n, r) has one monomial prod_p t_p^c_p per partition of n into
    r parts, and its (t_p, c_p) pairs are in part order."""
    sym_t = _sym_t()
    return sorted(
        tuple((part, count) for (_, part), count in monomial_items(monomial))
        for r in (range(n + 1) if parts is None else (parts,))
        for monomial in partial_bell_by_partitions(n, r, sym_t).terms
    )


@_identity("motzkin", "type-counts", "2m+k <= {}", cap=8)
def _motzkin_type_counts(top):
    for m, k in pairs_up_to(top):
        by_type = _once(motzkin.profile_counts, m, k)
        total = 0
        # every type of the size, including those no path has
        for u_items, h_items in product(_once(_partitions, m), _once(_partitions, k)):
            got = motzkin.count_by_type(m, k, dict(u_items), dict(h_items))
            total += got
            if got != by_type.get((u_items, h_items), 0):
                yield f"m={m}, k={k}, u-type={dict(u_items)}, h-type={dict(h_items)}"
        if total != sum(by_type.values()):
            yield f"m={m}, k={k}: type counts do not sum to the path count"


@_identity("motzkin", "motzkin-numbers", "n <= {}")
def _motzkin_numbers(top):
    motzkin_numbers = [1]
    for n in range(1, top + 1):
        value = motzkin_numbers[n - 1]
        value += sum(
            motzkin_numbers[i] * motzkin_numbers[n - 2 - i] for i in range(n - 1)
        )
        motzkin_numbers.append(value)
    ones = motzkin.named_weights("all-ones")
    for n in range(top + 1):
        row = sum(
            motzkin.weighted_sum_closed(m, n - 2 * m, ones).constant_value()
            for m in range(n // 2 + 1)
        )
        if row != motzkin_numbers[n]:
            yield f"n={n}: {row} != {motzkin_numbers[n]}"


@_identity("motzkin", "catalan-slice", "m <= {}", derive=lambda n: (n // 2,))
def _catalan_slice(top):
    catalan = [1]
    for n in range(1, top + 1):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    dyck_weights = WeightSpec(
        lambda i: Fraction(1), lambda i: Fraction(0), name="dyck"
    )
    dyck_series = lagrange.motzkin_series(dyck_weights, top, 0)
    for m in range(top + 1):
        closed = motzkin.weighted_sum_closed(m, 0, dyck_weights).constant_value()
        if closed != catalan[m]:
            yield f"m={m}: closed {closed} != Catalan {catalan[m]}"
        if dyck_series.coeff(m, 0) != Polynomial.const(catalan[m]):
            yield f"m={m}: series slice differs from Catalan"


@_identity("motzkin", "set-partition-weights", "2m+k <= {}", cap=8)
def _set_partition_weights(top):
    stirling_weights = motzkin.named_weights("stirling")
    sym = _sym()
    for m, k in pairs_up_to(top):
        lhs = specialize(motzkin.weighted_sum_closed(m, k, sym), stirling_weights)
        if lhs != motzkin.stirling_closed_value(m, k):
            yield f"m={m}, k={k}"


@_identity(
    "motzkin", "plane-tree-weights-single", "b in 1..3, 2m+k <= {}", cap=8
)
def _plane_tree_weights_single(top):
    for b in (1, 2, 3):
        yield from _bruteforce_mismatches(
            f"b={b}, ",
            motzkin.named_weights("b-ary", b=b, d=1),
            lambda m, k, b=b: motzkin.bary_d1_closed_value(m, k, b),
            top,
        )


@_identity(
    "motzkin",
    "plane-tree-weights-general",
    "b in 1..2, d in 1..3, 2m+k <= {}",
    cap=6,
)
def _plane_tree_weights_general(top):
    for b in (1, 2):
        for d in (1, 2, 3):
            yield from _bruteforce_mismatches(
                f"b={b}, d={d}, ",
                motzkin.named_weights("b-ary", b=b, d=d),
                lambda m, k, b=b, d=d: motzkin.bary_general_closed_value(m, k, b, d),
                top,
            )
    # the closed h-run factor wherever it is defined, each (j, k, d) once
    for d in (1, 2, 3):
        for k in range(1, top + 1):
            for j in range(1, k + 1):
                if d * k != j and (
                    motzkin.bary_h_factor_closed(j, k, d)
                    != motzkin.bary_h_factor_series(j, k, d)
                ):
                    yield f"h-factor at j={j}, k={k}, d={d}"


@_identity("motzkin", "series-coefficient-weights", "2 series, 2m+k <= {}", cap=8)
def _series_coefficient_weights(top):
    rng = random.Random(_SERIES_SEED + 1)
    fs = [Series.from_x_coeffs([1, 1], nx=top), _random_unit_series(rng, top)]
    for idx, f in enumerate(fs):
        yield from _bruteforce_mismatches(
            f"series {idx}, ",
            motzkin.series_coefficient_weights(f),
            lambda m, k, f=f: motzkin.series_family_closed_value(m, k, f),
            top,
        )


@_identity("motzkin", "series-pair-double-sum", "2m+k <= {}, k >= 1", cap=7)
def _series_pair_double_sum(top):
    rng = random.Random(_SERIES_SEED + 2)
    g = _random_unit_series(rng, top)
    f = _random_unit_series(rng, top)
    yield from _bruteforce_mismatches(
        "",
        motzkin.series_coefficient_weights(f, g),
        lambda m, k: motzkin.series_pair_closed_value(m, k, f, g),
        top,
        k_min=1,
    )


@_identity("motzkin", "labeled-tree-weights", "r in 0..2, 2m+k <= {}", cap=8)
def _labeled_tree_weights(top):
    for r in (0, 1, 2):
        yield from _bruteforce_mismatches(
            f"r={r}, ",
            motzkin.named_weights("r-ary", r=r),
            lambda m, k, r=r: motzkin.abel_closed_value(m, k, -(r + 1)),
            top,
        )


@_identity("motzkin", "binomial-sequence-weights", "4 families, 2m+k <= {}", cap=8)
def _binomial_sequence_weights(top):
    for phi in FAMILIES:
        yield from _bruteforce_mismatches(
            f"phi={phi.name()}, ",
            motzkin.binomial_sequence_weights(phi),
            lambda m, k, phi=phi: motzkin.binomial_sequence_closed_value(m, k, phi),
            top,
        )


@_identity("motzkin", "abel-weights", "q in {{0, -1, 1/2}}, 2m+k <= {}", cap=8)
def _abel_weights(top):
    for q in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        yield from _bruteforce_mismatches(
            f"q={q}, ",
            motzkin.named_weights("abel", q=q),
            lambda m, k, q=q: motzkin.abel_closed_value(m, k, q),
            top,
        )


@_identity("motzkin", "bell-number-weights", "2m+k <= {}", cap=8)
def _exponential_family_weights(top):
    yield from _bruteforce_mismatches(
        "",
        motzkin.named_weights("bell-numbers"),
        lambda m, k: motzkin.binomial_sequence_closed_value(
            m, k, BinomialSequence.exponential()
        ),
        top,
    )


@_identity("motzkin", "two-sequence-double-sum", "4 families, 2m+k <= {}", cap=8)
def _two_sequence_double_sum(top):
    psi = BinomialSequence.factorial()
    for phi in FAMILIES:
        yield from _bruteforce_mismatches(
            f"phi={phi.name()}, ",
            motzkin.binomial_sequence_weights(phi, psi),
            lambda m, k, phi=phi: motzkin.two_sequence_closed_value(m, k, phi, psi),
            top,
        )


@_identity("motzkin", "coefficient-degree-grading", "2m+k <= {}", cap=8)
def _coefficient_degree_grading(top):
    sym = _sym()
    for m, k in pairs_up_to(top):
        for mono in motzkin.weighted_sum_closed(m, k, sym).terms:
            if weighted_degree(mono, "t") != m or weighted_degree(mono, "s") != k:
                yield f"m={m}, k={k}, monomial {monomial_text(mono)}"


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def _composition_shapes(top):
    """(m, j, {(zero parts, profile of its path): count}) for m, j <= top."""
    for m in range(top + 1):
        for j in range(top + 1):
            yield m, j, _once(_composition_tally, m, j)


def _composition_tally(m, j) -> dict:
    return Counter(
        (parts.count(0), motzkin.segment_profile(path))
        for parts in compositions.enumerate_compositions(m, j)
        for path in [compositions.composition_to_motzkin(parts)]
    )


def _by_zeros(m, j, weights) -> dict:
    """{zero parts: weight} over the compositions of m into j parts, from the
    run's tally, each shape weighed once."""
    return _weigh(
        _once(_composition_tally, m, j),
        lambda shape: shape[0],
        lambda shape: motzkin.profile_weight(shape[1], weights),
    )


@_identity("compositions", "closed-vs-enumeration", "m, j <= {}, all k", cap=6)
def _composition_closed_vs_enumeration(top):
    sym = _sym()
    for m, j, _ in _composition_shapes(top):
        by_zeros = _once(_by_zeros, m, j, sym)
        for k in range(j + 1):
            closed = compositions.weighted_sum_closed(m, k, j, sym)
            if closed != by_zeros.get(k, 0):
                yield f"m={m}, k={k}, j={j}"


def _composition_series(top: int) -> Series:
    """The symbolic composition series to order `top` in every grade."""
    return lagrange.composition_series(_sym(), top, top, top)


@_identity("compositions", "series-agreement", "m, k, j <= {}", cap=5)
def _composition_series_agreement(top):
    series = _once(_composition_series, top)
    sym = _sym()
    for m in range(top + 1):
        for j in range(top + 1):
            for k in range(j + 1):
                closed = compositions.weighted_sum_closed(m, k, j, sym)
                if series.coeff(m, k, j) != closed:
                    yield f"m={m}, k={k}, j={j}"


@_identity("compositions", "fixed-parts-slice", "m, k, j <= {}", cap=5)
def _composition_fixed_parts_slice(top):
    series = _once(_composition_series, top)
    sym = _sym()
    for j in range(top + 1):
        slice_series = lagrange.composition_series_fixed_parts(sym, j, top, top)
        for m in range(top + 1):
            for k in range(top + 1):
                if slice_series.coeff(m, k) != series.coeff(m, k, j):
                    yield f"m={m}, k={k}, j={j}"


@_identity("compositions", "h-segment-refinement", "m, j <= {}, all k, l", cap=6)
def _composition_h_segment_refinement(top):
    sym = _sym()
    for m, j, shapes in _composition_shapes(top):
        # (zero parts, h-segments), the h-segments being the profile's h-runs
        by_runs = _weigh(
            shapes,
            lambda shape: (shape[0], sum(c for _, c in shape[1][1])),
            lambda shape: motzkin.profile_weight(shape[1], sym),
        )
        for k in range(j + 1):
            total = Polynomial.zero()
            for l in range(k + 1):
                refined = compositions.weighted_sum_by_hsegments(m, k, j, l, sym)
                total = total + refined
                if refined != by_runs.get((k, l), 0):
                    yield f"m={m}, k={k}, j={j}, l={l}"
            if total != compositions.weighted_sum_closed(m, k, j, sym):
                yield f"m={m}, k={k}, j={j}: refinement sum"


@_identity("compositions", "type-counts", "m, j <= {}", cap=6)
def _composition_type_counts(top):
    for m, j, shapes in _composition_shapes(top):
        by_type = _weigh(shapes, lambda shape: shape[1])
        # every type of the size, including those no composition has: j - k
        # nonzero parts summing to m, and the runs of the k zero parts
        types = sorted(
            (u_items, h_items)
            for k in range(j + 1)
            for u_items in _once(_partitions, m, j - k)
            for h_items in _once(_partitions, k)
        )
        total = 0
        for u_items, h_items in types:
            got = compositions.count_by_type(j, dict(u_items), dict(h_items))
            total += got
            if got != by_type.get((u_items, h_items), 0):
                yield f"m={m}, j={j}, u-type={dict(u_items)}, h-type={dict(h_items)}"
        if total != sum(shapes.values()):
            yield f"m={m}, j={j}: type counts do not sum to the composition count"


@_identity("compositions", "embedding-consistency", "m, j <= {}", cap=6)
def _composition_embedding_consistency(top):
    for m in range(top + 1):
        for j in range(top + 1):
            for parts in compositions.enumerate_compositions(m, j):
                path = compositions.composition_to_motzkin(parts)
                u_items, _ = motzkin.segment_profile(path)
                if sum(cnt for _, cnt in u_items) != j - parts.count(0):
                    yield f"{parts}: u-segments != parts - zeros"
                nonzero = sorted(p for p in parts if p)
                runs = [length for length, cnt in u_items for _ in range(cnt)]
                if nonzero != runs:
                    yield f"{parts}: u-run lengths differ from nonzero parts"


@_identity(
    "compositions",
    "restricted-counts",
    "m <= {}, j <= {}",
    cap=10,
    derive=lambda n: (n, min(n, 8)),
)
def _composition_restricted_counts(sum_top, parts_top):
    for m in range(sum_top + 1):
        for j in range(parts_top + 1):
            # both rules in one walk: parts in {1, 2}, and no part 0 or 2
            one_two = no_two = 0
            for comp in compositions.enumerate_compositions(m, j):
                parts = set(comp)
                one_two += parts <= {1, 2}
                no_two += parts.isdisjoint((0, 2))
            if compositions.restricted_count(m, j, allowed={1, 2}) != one_two:
                yield f"allowed {{1,2}}: m={m}, j={j}"
            if compositions.restricted_count(m, j, forbidden=2) != no_two:
                yield f"forbidden 2: m={m}, j={j}"


# ---------------------------------------------------------------------------
# matrixcomp
# ---------------------------------------------------------------------------


def _matrix_shapes(top):
    """(m, p, j) for p <= 3, j <= 4, m <= top."""
    for p in range(4):
        for j in range(5):
            for m in range(top + 1):
                yield m, p, j


def _matrix_shapes_of(m, p, j) -> dict:
    """{sorted nonzero entries: count} over the p x j bipartite matrix
    compositions of m."""
    return Counter(
        tuple(sorted(entry for row in rows for entry in row if entry))
        for rows in matrixcomp.enumerate_bipartite(m, p, j)
    )


def _matrix_sum(m, p, j, weights):
    """matrixcomp.weighted_sum_closed by enumeration, from the run's tally,
    each shape weighed once per run."""
    return sum(
        _once(matrixcomp.entries_weight, shape, weights) * count
        for shape, count in _once(_matrix_shapes_of, m, p, j).items()
    )


@_identity(
    "matrixcomp", "closed-vs-enumeration", "m <= {}, p <= 3, j <= 4", cap=6
)
def _matrix_closed_vs_enumeration(top):
    sym = _sym()
    for p in range(4):
        for j in range(5):
            series = _once(lagrange.bipartite_matrix_series, sym, p, j, top)
            for m in range(top + 1):
                closed = matrixcomp.weighted_sum_closed(m, p, j, sym)
                if closed != _matrix_sum(m, p, j, sym):
                    yield f"m={m}, p={p}, j={j}: closed vs enumeration"
                if series.coeff(m) != closed:
                    yield f"m={m}, p={p}, j={j}: series vs closed"


@_identity(
    "matrixcomp", "row-power-law", "order x^{}, p <= 3, j <= 4", cap=8
)
def _matrix_row_power_law(top):
    sym = _sym()
    # the one-row series of each j from enumerated rows, not from the builder
    rows = [
        Series.from_x_coeffs([_matrix_sum(m, 1, j, sym) for m in range(top + 1)])
        for j in range(5)
    ]
    for p in range(4):
        for j in range(5):
            if _once(lagrange.bipartite_matrix_series, sym, p, j, top) != rows[j].pow(p):
                yield f"p={p}, j={j}"


@_identity(
    "matrixcomp", "nonzero-refinement", "m <= {}, p <= 3, j <= 4", cap=6
)
def _matrix_nonzero_refinement(top):
    sym = _sym()
    for m, p, j in _matrix_shapes(top):
        by_nonzeros = _weigh(
            _once(_matrix_shapes_of, m, p, j),
            len,
            lambda shape: _once(matrixcomp.entries_weight, shape, sym),
        )
        total = Polynomial.zero()
        for r in range(m + 1):
            refined = matrixcomp.weighted_sum_by_nonzeros(m, p, j, r, sym)
            total = total + refined
            if refined != by_nonzeros.get(r, 0):
                yield f"m={m}, p={p}, j={j}, r={r}"
        if total != matrixcomp.weighted_sum_closed(m, p, j, sym):
            yield f"m={m}, p={p}, j={j}: refinement sum"


@_identity("matrixcomp", "type-counts", "m <= {}, p <= 3, j <= 4", cap=6)
def _matrix_type_counts(top):
    for m, p, j in _matrix_shapes(top):
        by_type = _weigh(
            _once(_matrix_shapes_of, m, p, j),
            lambda shape: tuple((v, shape.count(v)) for v in sorted(set(shape))),
        )
        total = 0
        # every type of the size, including those no matrix has
        for key in _once(_partitions, m):
            got = matrixcomp.count_by_type(p, j, dict(key))
            total += got
            if got != by_type.get(key, 0):
                yield f"m={m}, p={p}, j={j}, type={dict(key)}"
        if total != sum(by_type.values()):
            yield f"m={m}, p={p}, j={j}: type counts do not sum"


@_identity(
    "matrixcomp", "zero-one-matrices", "m <= {}, p <= 3, j <= 4", cap=8
)
def _matrix_zero_one(top):
    zero_one_weights = WeightSpec.from_tables({1: 1}, {}, name="zero-one")
    for m, p, j in _matrix_shapes(top):
        value = direct = matrixcomp.zero_one_count(p, j, m)
        closed = matrixcomp.weighted_sum_closed(m, p, j, zero_one_weights).constant_value()
        if m <= matrixcomp.SUM_BOUND:
            # the 0-1 matrices are those whose nonzero entries are all 1
            shapes = _once(_matrix_shapes_of, m, p, j)
            direct = _weigh(shapes, lambda shape: set(shape) <= {1}).get(True, 0)
        if value != closed or value != direct:
            yield f"m={m}, p={p}, j={j}"


@_identity("matrixcomp", "tree-correspondence", "m <= {}, j <= 4", cap=8)
def _matrix_tree_correspondence(top):
    for m in range(top + 1):
        for j in range(5):
            trees = matrixcomp.bounded_outdegree_tree_count(m + 1, j)
            u = matrixcomp.bounded_composition_count(m + 1, j, m)
            if (m + 1) * trees != u:
                yield f"m={m}, j={j}: {(m + 1) * trees} != {u}"
            display = sum(
                (-1) ** i
                * binomial(m + 1, i)
                * binomial(2 * m - i * (j + 1), m)
                for i in range(m // (j + 1) + 1)
            )
            if display != u:
                yield f"m={m}, j={j}: alternate binomial form differs"


@_identity("matrixcomp", "column-stability", "p <= 3, r <= {}, j >= r", cap=8)
def _matrix_column_stability(top):
    for p in range(4):
        for r in range(top + 1):
            reference = matrixcomp.bounded_composition_count(p, r, r)
            for j in range(r, r + 4):
                if matrixcomp.bounded_composition_count(p, j, r) != reference:
                    yield f"p={p}, r={r}, j={j}"


@_identity(
    "matrixcomp",
    "general-matrix-series",
    "m, k <= {}, p <= 2, j <= 3",
    cap=5,
)
def _general_matrix_series(top):
    sym = _sym()
    for p in range(3):
        for j in range(4):
            series = lagrange.matrix_composition_series(sym, p, j, top, top)
            # {(sum, zero entries): weight} of the matrices, one row at a time;
            # a row of sum s is a composition of s into j parts
            table = {(0, 0): 1}
            for _ in range(p):
                grown = Counter()
                for (m, k), weight in table.items():
                    for s in range(top + 1 - m):
                        for zeros, row_weight in _once(_by_zeros, s, j, sym).items():
                            grown[m + s, k + zeros] += weight * row_weight
                table = grown
            for m in range(top + 1):
                for k in range(top + 1):
                    if series.coeff(m, k) != table.get((m, k), 0):
                        yield f"p={p}, j={j}, m={m}, k={k}"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _run_suite(suite: str, max_n: int) -> list[IdentityResult]:
    return [entry.result(max_n) for entry in REGISTRY.values() if entry.suite == suite]


def suite_core(max_n: int) -> list[IdentityResult]:
    return _run_suite("core-identities", max_n)


def suite_bell(max_n: int) -> list[IdentityResult]:
    return _run_suite("bell", max_n)


def suite_motzkin(max_n: int) -> list[IdentityResult]:
    return _run_suite("motzkin", max_n)


def suite_compositions(max_n: int) -> list[IdentityResult]:
    return _run_suite("compositions", max_n)


def suite_matrixcomp(max_n: int) -> list[IdentityResult]:
    return _run_suite("matrixcomp", max_n)


_SUITE_FUNCTIONS = {
    "core-identities": suite_core,
    "bell": suite_bell,
    "motzkin": suite_motzkin,
    "compositions": suite_compositions,
    "matrixcomp": suite_matrixcomp,
}


def _run_one(args) -> list[IdentityResult]:
    name, max_n = args
    return _SUITE_FUNCTIONS[name](max_n)


def run(suite: str, max_n: int, jobs: int = 1) -> list[IdentityResult]:
    """Run one suite, or all of them, and return the records in fixed order.

    With jobs > 1 the suites run in separate processes; the report is
    assembled in suite order regardless of completion order, so it is
    byte-identical to a sequential run.
    """
    if max_n < 0:
        raise ValueError("--max-n must be >= 0")
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    try:
        if jobs > 1 and len(names) > 1:
            # imported here: a sequential run never pays for the pool machinery
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
                chunks = list(pool.map(_run_one, [(name, max_n) for name in names]))
        else:
            chunks = [_run_one((name, max_n)) for name in names]
    finally:
        _STORE.clear()
    return [record for chunk in chunks for record in chunk]
