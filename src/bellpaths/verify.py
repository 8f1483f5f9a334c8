"""Machine verification of every counting identity in the package.

Each identity is one registry entry: its suite, its name, a range template,
an optional cap on the size it is checked at, and a `check` generator.  The
check recomputes the closed form (or coefficient formula) over the size
range, compares it against an independent oracle, usually brute-force
enumeration or truncated series algebra, and yields a counterexample string
for every failing case, in case order.  `run` reports the first one.  Suites
are deterministic, so a parallel run produces the same report as a
sequential one.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import compositions, lagrange, matrixcomp, motzkin
from .bell import (
    BinomialSequence,
    WeightVector,
    partial_bell,
    partial_bell_by_partitions,
    potential,
    power_derivative,
    stirling2,
)
from .core import binomial, factorial
from .polyring import Polynomial, Series, WeightSpec, specialize

SUITES = ("core-identities", "bell", "motzkin", "compositions", "matrixcomp")

_SERIES_SEED = 20260810

# the binomial-sequence families every family-indexed identity runs over
FAMILIES = (
    BinomialSequence.power(),
    BinomialSequence.factorial(),
    BinomialSequence.abel(Fraction(-2)),
    BinomialSequence.exponential(),
)


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


class _Shared:
    """What several identities build alike, made once per suite run.

    The symbolic weights memoise their Bell tables, so sharing them (and
    the composition series) keeps one suite run from rebuilding either
    once per identity.
    """

    def __init__(self) -> None:
        self.sym = WeightSpec.symbolic()
        self.sym_t = WeightVector(lambda k: Polynomial.variable("t", k))
        self._composition_series: dict[int, Series] = {}

    def composition_series(self, top: int) -> Series:
        if top not in self._composition_series:
            self._composition_series[top] = lagrange.composition_series(
                self.sym, top, top, top
            )
        return self._composition_series[top]


def _one_size(n: int) -> tuple[int, ...]:
    return (n,)


@dataclass(frozen=True)
class Identity:
    """One registered identity.

    `check(shared, *sizes)` yields a counterexample per failing case, in
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

    def first_counterexample(self, n: int, shared: _Shared) -> str | None:
        return next(self.check(shared, *self.derive(n)), None)

    def result(self, requested: int, shared: _Shared) -> IdentityResult:
        n = requested if self.cap is None else min(requested, self.cap)
        counterexample = self.first_counterexample(n, shared)
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


def check(suite: str, identity: str, n: int) -> str | None:
    """First counterexample of one registered identity at size n, with no
    cap applied; None when the identity holds over the whole range."""
    return REGISTRY[(suite, identity)].first_counterexample(n, _Shared())


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
def _upper_negation_convolution(_, n):
    for l in range(n + 1):
        for j in range(n + 1):
            lhs = sum(
                (-1) ** i * binomial(j, i) * binomial(-i, l) for i in range(j + 1)
            )
            rhs = (-1) ** ((l - j) % 2) * binomial(l - 1, l - j)
            if lhs != rhs:
                yield f"l={l}, j={j}: {lhs} != {rhs}"


@_identity("core-identities", "binomial-orthogonality", "0 <= j <= k <= {}")
def _binomial_orthogonality(_, n):
    for k in range(n + 1):
        for j in range(k + 1):
            lhs = sum(
                (-1) ** (l - j) * binomial(l, j) * binomial(k, l)
                for l in range(j, k + 1)
            )
            if lhs != (1 if k == j else 0):
                yield f"j={j}, k={k}: {lhs}"


@_identity("core-identities", "kronecker-convolution", "0 <= n, r <= {}")
def _kronecker_convolution(_, top):
    for n in range(top + 1):
        for r in range(top + 1):
            lhs = sum(
                (-1) ** i * binomial(n, i) * binomial(n - i, r) for i in range(n + 1)
            )
            if lhs != (1 if r == n else 0):
                yield f"n={n}, r={r}: {lhs}"


@_identity("core-identities", "pascal-recurrence", "1 <= a, b <= {}")
def _pascal_recurrence(_, n):
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if binomial(a, b) != binomial(a - 1, b - 1) + binomial(a - 1, b):
                yield f"a={a}, b={b}"


# ---------------------------------------------------------------------------
# bell
# ---------------------------------------------------------------------------


@_identity("bell", "recurrence-vs-partition-sum", "0 <= r <= n <= {}", cap=10)
def _recurrence_vs_partition_sum(shared, top):
    sym = shared.sym_t
    for n in range(top + 1):
        for r in range(n + 1):
            if partial_bell(n, r, sym) != partial_bell_by_partitions(n, r, sym):
                yield f"n={n}, r={r}"


@_identity("bell", "homogeneity", "0 <= r <= m <= {}, q=5/3", cap=8)
def _homogeneity(shared, top):
    sym = shared.sym_t
    q = Fraction(5, 3)
    scaled = WeightVector(lambda k: Polynomial.variable("t", k) * q)
    for m in range(top + 1):
        for r in range(m + 1):
            if partial_bell(m, r, scaled) != partial_bell(m, r, sym) * q**r:
                yield f"m={m}, r={r}, q={q}"


@_identity("bell", "potential-shifted-arguments", "n <= {}, 1 <= r <= 6", cap=8)
def _potential_shifted_arguments(shared, top):
    # potential of positive order r from the Bell polynomial with the
    # shifted argument vector (1, 2 f_1, 3 f_2, ...), f_k = entry_k / k!
    sym = shared.sym_t
    shifted = WeightVector(
        lambda k: Polynomial.const(1)
        if k == 1
        else Polynomial.variable("t", k - 1) * k
    )
    for n in range(top + 1):
        for r in range(1, 7):
            lhs = potential(n, r, sym)
            rhs = partial_bell(n + r, r, shifted) * Fraction(1, binomial(n + r, r))
            if lhs != rhs:
                yield f"n={n}, r={r}"


@_identity(
    "bell", "bell-of-power-coefficients", "5 seeded series, 1 <= r <= m <= {}", cap=8
)
def _bell_of_power_coefficients(_, top):
    # B(m, r) of the vector (1, f_1(2), f_2(3), ...) built from powers of a
    # unit series f, against C(m-1, r-1) f_{m-r}(m)
    rng = random.Random(_SERIES_SEED)
    for trial in range(5):
        f = _random_unit_series(rng, top)
        # entry k is the (k-1)-th derivative of f^k at 0; entry 1 is then 1
        vec = WeightVector(lambda k, f=f: power_derivative(f, k - 1, k))
        for m in range(1, top + 1):
            for r in range(1, m + 1):
                lhs = partial_bell(m, r, vec)
                rhs = power_derivative(f, m - r, m) * binomial(m - 1, r - 1)
                if lhs != rhs:
                    yield f"trial={trial}, m={m}, r={r}"


@_identity(
    "bell", "bell-of-binomial-sequences", "4 families, 1 <= r <= m <= {}", cap=8
)
def _bell_of_binomial_sequences(_, top):
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
def _potential_vs_series_power(shared, top):
    # potential(n, power) against n! [x^n] A(x)^power with A from the same vector
    sym = shared.sym_t
    a_series = Series(
        (top, 0, 0),
        {(0, 0, 0): 1}
        | {
            (k, 0, 0): Polynomial.variable("t", k) * Fraction(1, factorial(k))
            for k in range(1, top + 1)
        },
    )
    for power in range(-4, 5):
        powered = a_series.pow(power)
        for n in range(top + 1):
            lhs = potential(n, power, sym)
            rhs = powered.coeff(n) * factorial(n)
            if lhs != rhs:
                yield f"power={power}, n={n}"


@_identity("bell", "stirling-recurrence-agreement", "0 <= k <= n <= {}", cap=12)
def _stirling_recurrence_agreement(_, top):
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
def _binomial_convolution(_, top):
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
        lhs = motzkin.weighted_sum_bruteforce(m, k, weights).constant_value()
        if lhs != closed_value(m, k):
            yield f"{label}m={m}, k={k}"


def _type_key(profile) -> tuple:
    return (
        tuple(sorted(profile.u_counts.items())),
        tuple(sorted(profile.h_counts.items())),
    )


@_identity("motzkin", "path-sum-triple-agreement", "2m+k <= {}")
def _path_sum_triple_agreement(shared, top):
    sym = shared.sym
    for m, k in pairs_up_to(top):
        brute = motzkin.weighted_sum_bruteforce(m, k, sym)
        if brute != motzkin.weighted_sum_closed(m, k, sym):
            yield f"m={m}, k={k}: closed form differs from enumeration"
        if brute != lagrange.motzkin_series(sym, m, k).coeff(m, k):
            yield f"m={m}, k={k}: series fixed point differs from enumeration"


@_identity("motzkin", "segment-refinement", "2m+k <= {}", cap=8)
def _segment_refinement(shared, top):
    sym = shared.sym
    for m, k in pairs_up_to(top):
        by_split = {}
        for path in motzkin.enumerate_paths(m, k):
            profile = motzkin.segment_profile(path)
            key = (profile.u_segments, profile.h_segments)
            weight = motzkin.path_weight(path, sym)
            by_split[key] = by_split.get(key, Polynomial.zero()) + weight
        total = Polynomial.zero()
        for r in range(m + 1):
            for l in range(k + 1):
                refined = motzkin.weighted_sum_by_segments(m, k, r, l, sym)
                total = total + refined
                if refined != by_split.get((r, l), Polynomial.zero()):
                    yield f"m={m}, k={k}, r={r}, l={l}"
        if total != motzkin.weighted_sum_closed(m, k, sym):
            yield f"m={m}, k={k}: refinement does not repartition the total"


@_identity("motzkin", "type-counts", "2m+k <= {}", cap=8)
def _motzkin_type_counts(_, top):
    for m, k in pairs_up_to(top):
        by_type = {}
        for path in motzkin.enumerate_paths(m, k):
            key = _type_key(motzkin.segment_profile(path))
            by_type[key] = by_type.get(key, 0) + 1
        total = 0
        for (u_items, h_items), expected in sorted(by_type.items()):
            got = motzkin.count_by_type(m, k, dict(u_items), dict(h_items))
            total += got
            if got != expected:
                yield f"m={m}, k={k}, u-type={dict(u_items)}, h-type={dict(h_items)}"
        if total != motzkin.count_paths(m, k):
            yield f"m={m}, k={k}: type counts do not sum to the path count"


@_identity("motzkin", "motzkin-numbers", "n <= {}")
def _motzkin_numbers(_, top):
    motzkin_numbers = [1]
    for n in range(1, top + 1):
        value = motzkin_numbers[n - 1]
        value += sum(
            motzkin_numbers[i] * motzkin_numbers[n - 2 - i] for i in range(n - 1)
        )
        motzkin_numbers.append(value)
    ones = WeightSpec.all_ones()
    for n in range(top + 1):
        row = sum(
            motzkin.weighted_sum_closed(m, n - 2 * m, ones).constant_value()
            for m in range(n // 2 + 1)
        )
        if row != motzkin_numbers[n]:
            yield f"n={n}: {row} != {motzkin_numbers[n]}"


@_identity("motzkin", "catalan-slice", "m <= {}", derive=lambda n: (n // 2,))
def _catalan_slice(_, top):
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
def _set_partition_weights(shared, top):
    sym = shared.sym
    stirling_weights = motzkin.named_weights("stirling")
    for m, k in pairs_up_to(top):
        lhs = specialize(motzkin.weighted_sum_closed(m, k, sym), stirling_weights)
        if lhs != motzkin.stirling_closed_value(m, k):
            yield f"m={m}, k={k}"


@_identity(
    "motzkin", "plane-tree-weights-single", "b in 1..3, 2m+k <= {}", cap=8
)
def _plane_tree_weights_single(_, top):
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
def _plane_tree_weights_general(_, top):
    for b in (1, 2):
        for d in (1, 2, 3):
            weights = motzkin.named_weights("b-ary", b=b, d=d)
            for m, k in pairs_up_to(top):
                lhs = motzkin.weighted_sum_bruteforce(m, k, weights).constant_value()
                if lhs != motzkin.bary_general_closed_value(m, k, b, d):
                    yield f"b={b}, d={d}, m={m}, k={k}"
                for jj in range(1, k + 1):
                    if d * k == jj:
                        continue
                    closed_factor = motzkin.bary_h_factor_closed(jj, k, d)
                    if closed_factor != motzkin.bary_h_factor_series(jj, k, d):
                        yield f"h-factor at j={jj}, k={k}, d={d}"


@_identity("motzkin", "series-coefficient-weights", "2 series, 2m+k <= {}", cap=8)
def _series_coefficient_weights(_, top):
    rng = random.Random(_SERIES_SEED + 1)
    fs = [Series.from_x_coeffs([1, 1], nx=top), _random_unit_series(rng, top)]
    for idx, f in enumerate(fs):
        yield from _bruteforce_mismatches(
            f"series {idx}, ",
            motzkin.series_coefficient_weights(f),
            lambda m, k, f=f: motzkin.series_family_closed_value(m, k, f),
            top,
        )


@_identity(
    "motzkin",
    "series-pair-double-sum",
    "2m+k <= {1}, k >= 1",
    cap=8,
    derive=lambda n: (n, min(n, 7)),
)
def _series_pair_double_sum(_, skipped_order, top):
    # g and f are the next two draws of series-coefficient-weights' generator
    # after the order-`skipped_order` series that identity uses
    rng = random.Random(_SERIES_SEED + 1)
    _random_unit_series(rng, skipped_order)
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
def _labeled_tree_weights(_, top):
    for r in (0, 1, 2):
        yield from _bruteforce_mismatches(
            f"r={r}, ",
            motzkin.named_weights("r-ary", r=r),
            lambda m, k, r=r: motzkin.rary_closed_value(m, k, r),
            top,
        )


@_identity("motzkin", "binomial-sequence-weights", "4 families, 2m+k <= {}", cap=8)
def _binomial_sequence_weights(_, top):
    for phi in FAMILIES:
        yield from _bruteforce_mismatches(
            f"phi={phi.name()}, ",
            motzkin.binomial_sequence_weights(phi),
            lambda m, k, phi=phi: motzkin.binomial_sequence_closed_value(m, k, phi),
            top,
        )


@_identity("motzkin", "abel-weights", "q in {{0, -1, 1/2}}, 2m+k <= {}", cap=8)
def _abel_weights(_, top):
    for q in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        yield from _bruteforce_mismatches(
            f"q={q}, ",
            motzkin.named_weights("abel", q=q),
            lambda m, k, q=q: motzkin.abel_closed_value(m, k, q),
            top,
        )


@_identity("motzkin", "bell-number-weights", "2m+k <= {}", cap=8)
def _bell_number_weights(_, top):
    yield from _bruteforce_mismatches(
        "",
        motzkin.named_weights("bell-numbers"),
        motzkin.bell_numbers_closed_value,
        top,
    )


@_identity("motzkin", "two-sequence-double-sum", "4 families, 2m+k <= {}", cap=8)
def _two_sequence_double_sum(_, top):
    psi = BinomialSequence.factorial()
    for phi in FAMILIES:
        yield from _bruteforce_mismatches(
            f"phi={phi.name()}, ",
            motzkin.binomial_sequence_weights(phi, psi),
            lambda m, k, phi=phi: motzkin.two_sequence_closed_value(m, k, phi, psi),
            top,
        )


@_identity("motzkin", "coefficient-degree-grading", "2m+k <= {}", cap=8)
def _coefficient_degree_grading(shared, top):
    sym = shared.sym
    for m, k in pairs_up_to(top):
        for mono in motzkin.weighted_sum_closed(m, k, sym).terms:
            if mono.weighted_degree("t") != m or mono.weighted_degree("s") != k:
                yield f"m={m}, k={k}, monomial {mono.to_text()}"


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def _compositions_with_paths(top):
    """(m, j, [(composition, its Motzkin path), ...]) for m, j <= top."""
    for m in range(top + 1):
        for j in range(top + 1):
            yield m, j, [
                (comp, compositions.composition_to_motzkin(comp))
                for comp in compositions.enumerate_compositions(m, j)
            ]


@_identity("compositions", "closed-vs-enumeration", "m, j <= {}, all k", cap=6)
def _composition_closed_vs_enumeration(shared, top):
    sym = shared.sym
    for m, j, items in _compositions_with_paths(top):
        by_zeros = {}
        for comp, path in items:
            weight = motzkin.path_weight(path, sym)
            by_zeros[comp.zero_parts] = (
                by_zeros.get(comp.zero_parts, Polynomial.zero()) + weight
            )
        for k in range(j + 1):
            closed = compositions.weighted_sum_closed(m, k, j, sym)
            if closed != by_zeros.get(k, Polynomial.zero()):
                yield f"m={m}, k={k}, j={j}"


@_identity("compositions", "series-agreement", "m, k, j <= {}", cap=5)
def _composition_series_agreement(shared, top):
    sym = shared.sym
    series = shared.composition_series(top)
    for m in range(top + 1):
        for j in range(top + 1):
            for k in range(j + 1):
                closed = compositions.weighted_sum_closed(m, k, j, sym)
                if series.coeff(m, k, j) != closed:
                    yield f"m={m}, k={k}, j={j}"


@_identity("compositions", "fixed-parts-slice", "m, k, j <= {}", cap=5)
def _composition_fixed_parts_slice(shared, top):
    sym = shared.sym
    series = shared.composition_series(top)
    for j in range(top + 1):
        slice_series = lagrange.composition_series_fixed_parts(sym, j, top, top)
        for m in range(top + 1):
            for k in range(top + 1):
                if slice_series.coeff(m, k) != series.coeff(m, k, j):
                    yield f"m={m}, k={k}, j={j}"


@_identity("compositions", "h-segment-refinement", "m, j <= {}, all k, l", cap=6)
def _composition_h_segment_refinement(shared, top):
    sym = shared.sym
    for m, j, items in _compositions_with_paths(top):
        by_runs = {}
        for comp, path in items:
            key = (comp.zero_parts, motzkin.segment_profile(path).h_segments)
            weight = motzkin.path_weight(path, sym)
            by_runs[key] = by_runs.get(key, Polynomial.zero()) + weight
        for k in range(j + 1):
            total = Polynomial.zero()
            for l in range(k + 1):
                refined = compositions.weighted_sum_by_hsegments(m, k, j, l, sym)
                total = total + refined
                if refined != by_runs.get((k, l), Polynomial.zero()):
                    yield f"m={m}, k={k}, j={j}, l={l}"
            if total != compositions.weighted_sum_closed(m, k, j, sym):
                yield f"m={m}, k={k}, j={j}: refinement sum"


@_identity("compositions", "type-counts", "m, j <= {}", cap=6)
def _composition_type_counts(_, top):
    for m, j, items in _compositions_with_paths(top):
        by_type = {}
        for _, path in items:
            key = _type_key(motzkin.segment_profile(path))
            by_type[key] = by_type.get(key, 0) + 1
        total = 0
        for (u_items, h_items), expected in sorted(by_type.items()):
            got = compositions.count_by_type(j, dict(u_items), dict(h_items))
            total += got
            if got != expected:
                yield f"m={m}, j={j}, u-type={dict(u_items)}, h-type={dict(h_items)}"
        if total != len(items):
            yield f"m={m}, j={j}: type counts do not sum to the composition count"


@_identity("compositions", "embedding-consistency", "m, j <= {}", cap=6)
def _composition_embedding_consistency(_, top):
    for _, j, items in _compositions_with_paths(top):
        for comp, path in items:
            profile = motzkin.segment_profile(path)
            if profile.u_segments != j - comp.zero_parts:
                yield f"{comp.parts}: u-segments != parts - zeros"
            nonzero = sorted(p for p in comp.parts if p)
            runs = sorted(
                length
                for length, cnt in profile.u_counts.items()
                for _ in range(cnt)
            )
            if nonzero != runs:
                yield f"{comp.parts}: u-run lengths differ from nonzero parts"


@_identity(
    "compositions",
    "restricted-counts",
    "m <= {}, j <= {}",
    cap=10,
    derive=lambda n: (n, min(n, 8)),
)
def _composition_restricted_counts(_, sum_top, parts_top):
    for m in range(sum_top + 1):
        for j in range(parts_top + 1):
            direct = sum(
                1
                for comp in compositions.enumerate_compositions(m, j)
                if all(p in (1, 2) for p in comp.parts)
            )
            if compositions.restricted_count(m, j, allowed={1, 2}) != direct:
                yield f"allowed {{1,2}}: m={m}, j={j}"
            direct = sum(
                1
                for comp in compositions.enumerate_compositions(m, j)
                if all(p >= 1 and p != 2 for p in comp.parts)
            )
            if compositions.restricted_count(m, j, forbidden=2) != direct:
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


@_identity(
    "matrixcomp", "closed-vs-enumeration", "m <= {}, p <= 3, j <= 4", cap=6
)
def _matrix_closed_vs_enumeration(shared, top):
    sym = shared.sym
    for p in range(4):
        for j in range(5):
            series = lagrange.bipartite_matrix_series(sym, p, j, top)
            for m in range(top + 1):
                closed = matrixcomp.weighted_sum_closed(m, p, j, sym)
                brute = Polynomial.zero()
                for matrix in matrixcomp.enumerate_bipartite(m, p, j):
                    brute = brute + matrixcomp.matrix_weight(matrix, sym)
                if closed != brute:
                    yield f"m={m}, p={p}, j={j}: closed vs enumeration"
                if series.coeff(m) != closed:
                    yield f"m={m}, p={p}, j={j}: series vs closed"


@_identity(
    "matrixcomp", "row-power-law", "order x^{}, p <= 3, j <= 4", cap=8
)
def _matrix_row_power_law(shared, top):
    sym = shared.sym
    for p in range(4):
        for j in range(5):
            single = lagrange.bipartite_matrix_series(sym, 1, j, top)
            if lagrange.bipartite_matrix_series(sym, p, j, top) != single.pow(p):
                yield f"p={p}, j={j}"


@_identity(
    "matrixcomp", "nonzero-refinement", "m <= {}, p <= 3, j <= 4", cap=6
)
def _matrix_nonzero_refinement(shared, top):
    sym = shared.sym
    for m, p, j in _matrix_shapes(top):
        by_nonzeros = {}
        for matrix in matrixcomp.enumerate_bipartite(m, p, j):
            r = len(matrix.nonzero_entries())
            by_nonzeros[r] = by_nonzeros.get(
                r, Polynomial.zero()
            ) + matrixcomp.matrix_weight(matrix, sym)
        total = Polynomial.zero()
        for r in range(m + 1):
            refined = matrixcomp.weighted_sum_by_nonzeros(m, p, j, r, sym)
            total = total + refined
            if refined != by_nonzeros.get(r, Polynomial.zero()):
                yield f"m={m}, p={p}, j={j}, r={r}"
        if total != matrixcomp.weighted_sum_closed(m, p, j, sym):
            yield f"m={m}, p={p}, j={j}: refinement sum"


@_identity("matrixcomp", "type-counts", "m <= {}, p <= 3, j <= 4", cap=6)
def _matrix_type_counts(_, top):
    for m, p, j in _matrix_shapes(top):
        by_type = {}
        count = 0
        for matrix in matrixcomp.enumerate_bipartite(m, p, j):
            entries = matrix.nonzero_entries()
            key = tuple(sorted((v, entries.count(v)) for v in set(entries)))
            by_type[key] = by_type.get(key, 0) + 1
            count += 1
        total = 0
        for key, expected in sorted(by_type.items()):
            got = matrixcomp.count_by_type(p, j, dict(key))
            total += got
            if got != expected:
                yield f"m={m}, p={p}, j={j}, type={dict(key)}"
        if total != count:
            yield f"m={m}, p={p}, j={j}: type counts do not sum"


@_identity(
    "matrixcomp", "zero-one-matrices", "m <= {}, p <= 3, j <= 4", cap=8
)
def _matrix_zero_one(_, top):
    zero_one_weights = WeightSpec.from_tables({1: 1}, {}, name="zero-one")
    for m, p, j in _matrix_shapes(top):
        direct = None
        if m <= matrixcomp.DEFAULT_SUM_BOUND:
            direct = sum(
                1
                for matrix in matrixcomp.enumerate_bipartite(m, p, j)
                if all(e <= 1 for row in matrix.rows for e in row)
            )
        value = matrixcomp.zero_one_count(p, j, m)
        closed = matrixcomp.weighted_sum_closed(
            m, p, j, zero_one_weights
        ).constant_value()
        if value != closed or (direct is not None and value != direct):
            yield f"m={m}, p={p}, j={j}"


@_identity("matrixcomp", "tree-correspondence", "m <= {}, j <= 4", cap=8)
def _matrix_tree_correspondence(_, top):
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
def _matrix_column_stability(_, top):
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
def _general_matrix_series(shared, top):
    sym = shared.sym
    for p in range(3):
        for j in range(4):
            series = lagrange.matrix_composition_series(sym, p, j, top, top)
            table = {}
            for m in range(top + 1):
                for flat in compositions.enumerate_compositions(m, p * j):
                    rows = [
                        flat.parts[row * j : (row + 1) * j] for row in range(p)
                    ]
                    weight = Polynomial.const(1)
                    zeros = 0
                    for row in rows:
                        path = compositions.composition_to_motzkin(
                            compositions.Composition(row)
                        )
                        weight = weight * motzkin.path_weight(path, sym)
                        zeros += sum(1 for e in row if e == 0)
                    key = (m, zeros)
                    table[key] = table.get(key, Polynomial.zero()) + weight
                if p == 0 and m == 0:
                    table[(0, 0)] = Polynomial.const(1)
            for m in range(top + 1):
                for k in range(top + 1):
                    if series.coeff(m, k) != table.get((m, k), Polynomial.zero()):
                        yield f"p={p}, j={j}, m={m}, k={k}"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _run_suite(suite: str, max_n: int) -> list[IdentityResult]:
    shared = _Shared()
    return [
        entry.result(max_n, shared)
        for entry in REGISTRY.values()
        if entry.suite == suite
    ]


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
    if max_n < 0 or jobs < 1:
        raise ValueError("arguments must be >= 0")
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in _SUITE_FUNCTIONS:
            raise ValueError(f"unknown suite {name!r}")
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            chunks = list(pool.map(_run_one, [(name, max_n) for name in names]))
    else:
        chunks = [_run_one((name, max_n)) for name in names]
    return [record for chunk in chunks for record in chunk]
