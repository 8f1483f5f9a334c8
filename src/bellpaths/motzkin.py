"""Motzkin paths with up-run and horizontal-run statistics.

A Motzkin path of length n runs from (0,0) to (n,0) with steps u = (1,1),
h = (1,0), d = (1,-1) and never dips below the x-axis.  A u-segment
(h-segment) is a maximal run of consecutive u (h) steps.  This module pairs
brute-force enumeration with the closed counting forms expressed through
partial Bell and potential polynomials, plus the named weight specializations
(set partitions, plane trees, labeled trees, Abel and Bell weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .bell import (
    BinomialSequence,
    WeightVector,
    as_polynomial,
    bell_number,
    partial_bell,
    power_derivative,
    stirling2,
)
from .core import EnumerationBoundError, as_integer, binomial, factorial, multinomial
from .polyring import Polynomial, Series, WeightSpec

DEFAULT_PATH_BOUND = 16
# enumeration recurses once per step; no `bound` argument lifts this ceiling
MAX_PATH_BOUND = 64


@dataclass(frozen=True)
class MotzkinPath:
    """Step sequence over {u, d, h}; validated on construction."""

    steps: str

    def __post_init__(self):
        height = 0
        for step in self.steps:
            if step == "u":
                height += 1
            elif step == "d":
                height -= 1
            elif step != "h":
                raise ValueError(f"invalid step {step!r} in {self.steps!r}")
            if height < 0:
                raise ValueError(f"path {self.steps!r} dips below the axis")
        if height != 0:
            raise ValueError(f"path {self.steps!r} does not return to the axis")

    def __len__(self):
        return len(self.steps)

    def __str__(self):
        return self.steps


@dataclass
class SegmentProfile:
    """Run-length statistics: u_counts[i] and h_counts[i] are the numbers of
    maximal u-runs and h-runs of length i."""

    u_counts: dict = field(default_factory=dict)
    h_counts: dict = field(default_factory=dict)

    @property
    def u_segments(self) -> int:
        return sum(self.u_counts.values())

    @property
    def h_segments(self) -> int:
        return sum(self.h_counts.values())


def segment_profile(path: MotzkinPath) -> SegmentProfile:
    """Maximal-run decomposition of the u-runs and h-runs of a path."""
    profile = SegmentProfile()
    run_step = ""
    run_length = 0
    for step in path.steps + "$":
        if step == run_step:
            run_length += 1
            continue
        if run_step == "u":
            profile.u_counts[run_length] = profile.u_counts.get(run_length, 0) + 1
        elif run_step == "h":
            profile.h_counts[run_length] = profile.h_counts.get(run_length, 0) + 1
        run_step = step
        run_length = 1
    return profile


def enumerate_paths(
    m: int, k: int, bound: int = DEFAULT_PATH_BOUND
) -> Iterator[MotzkinPath]:
    """All paths with m up-steps and k horizontal steps, each exactly once.

    Depth-first over steps in the order u < d < h, so the stream is
    lexicographic under that alphabet ordering and deterministic.  Paths
    longer than `bound` or MAX_PATH_BOUND raise EnumerationBoundError.
    """
    if m < 0 or k < 0:
        raise ValueError("step counts must be >= 0")
    if bound < 0:
        raise ValueError("enumeration bound must be >= 0")
    bound = min(bound, MAX_PATH_BOUND)
    if 2 * m + k > bound:
        raise EnumerationBoundError(
            f"path length {2 * m + k} exceeds enumeration bound {bound}"
        )
    buffer: list[str] = []

    def rec(u_left: int, d_left: int, h_left: int):
        if not (u_left or d_left or h_left):
            yield MotzkinPath("".join(buffer))
            return
        if u_left:
            buffer.append("u")
            yield from rec(u_left - 1, d_left, h_left)
            buffer.pop()
        if d_left > u_left:
            buffer.append("d")
            yield from rec(u_left, d_left - 1, h_left)
            buffer.pop()
        if h_left:
            buffer.append("h")
            yield from rec(u_left, d_left, h_left - 1)
            buffer.pop()

    yield from rec(m, m, k)


def path_weight(path: MotzkinPath, weights: WeightSpec) -> Polynomial:
    """Product of t-weights over u-runs and s-weights over h-runs."""
    profile = segment_profile(path)
    result = 1
    for length, count in profile.u_counts.items():
        result = result * weights.entry("t", length) ** count
    for length, count in profile.h_counts.items():
        result = result * weights.entry("s", length) ** count
    return as_polynomial(result)


def weighted_sum_bruteforce(
    m: int, k: int, weights: WeightSpec, bound: int = DEFAULT_PATH_BOUND
) -> Polynomial:
    """Weighted path sum by direct enumeration; the oracle for every closed form."""
    total = Polynomial.zero()
    for path in enumerate_paths(m, k, bound=bound):
        total = total + path_weight(path, weights)
    return total


def count_paths(m: int, k: int, bound: int = DEFAULT_PATH_BOUND) -> int:
    return sum(1 for _ in enumerate_paths(m, k, bound=bound))


def weighted_sum_closed(m: int, k: int, weights: WeightSpec) -> Polynomial:
    """Closed form for the weighted path sum over m up-steps, k horizontals:

        sum_{j=0..k} sum_{l=j..k} (-1)^{l-j} C(l-1, l-j) C(m+j, j)
            * potential(m, m+j+1; t) / (m+1)!  *  l! B(k, l; s) / k!

    with both vectors in the (1! w_1, 2! w_2, ...) convention.  Summed by l
    on the outside, so each B(k, l; s) enters one product.
    """
    if m < 0 or k < 0:
        raise ValueError("arguments must be >= 0")
    tvec = WeightVector.from_weights(weights, "t")
    bells = WeightVector.from_weights(weights, "s").row(k)
    total = 0
    for l in range(k + 1):
        if not bells[l]:
            continue
        inner = 0
        for j in range(l + 1):
            c = binomial(l - 1, l - j) * binomial(m + j, j)
            pot = tvec.potential(m, m + j + 1)
            if c and pot:
                inner = inner + pot * (c if (l - j) % 2 == 0 else -c)
        if inner:
            total = total + inner * bells[l] * factorial(l)
    return as_polynomial(total * Fraction(1, factorial(m + 1) * factorial(k)))


def segment_split_coefficient(m: int, k: int, r: int, l: int) -> int:
    """Signed binomial sum through which every count refined by the numbers of
    u-segments (r) and h-segments (l) factors:

        sum_{j=0..k} (-1)^{l-j} C(l-1, l-j) C(m+j, m) C(m+j+1, r).
    """
    total = 0
    for j in range(k + 1):
        c = binomial(l - 1, l - j)
        if not c:
            continue
        sign = 1 if (l - j) % 2 == 0 else -1
        total += sign * c * binomial(m + j, m) * binomial(m + j + 1, r)
    return total


def weighted_sum_by_segments(
    m: int, k: int, r: int, l: int, weights: WeightSpec
) -> Polynomial:
    """Weighted sum restricted to paths with exactly r u-segments and l
    h-segments:  r! l! V / (k! (m+1)!) * B(m, r; t) B(k, l; s)."""
    if m < 0 or k < 0 or r < 0 or l < 0:
        raise ValueError("arguments must be >= 0")
    bt = partial_bell(m, r, WeightVector.from_weights(weights, "t"))
    bs = partial_bell(k, l, WeightVector.from_weights(weights, "s"))
    if bt.is_zero() or bs.is_zero():
        return Polynomial.zero()
    v = segment_split_coefficient(m, k, r, l)
    scale = Fraction(
        factorial(r) * factorial(l) * v, factorial(k) * factorial(m + 1)
    )
    return bt * bs * scale


def count_by_type(m: int, k: int, u_type: dict, h_type: dict) -> int:
    """Number of paths whose u-runs have the given length multiset (u_type
    maps run length to count) and likewise for h-runs.

    The underlying expression carries a denominator of m + 1; the result is
    asserted to be a nonnegative integer, since it counts paths.
    """
    u_type = {int(i): int(c) for i, c in u_type.items() if c}
    h_type = {int(i): int(c) for i, c in h_type.items() if c}
    if any(i < 1 or c < 0 for i, c in u_type.items()) or any(
        i < 1 or c < 0 for i, c in h_type.items()
    ):
        raise ValueError("segment types need lengths >= 1 and counts >= 0")
    if sum(i * c for i, c in u_type.items()) != m:
        raise ValueError(f"u-type {u_type} does not describe {m} up-steps")
    if sum(i * c for i, c in h_type.items()) != k:
        raise ValueError(f"h-type {h_type} does not describe {k} horizontal steps")
    r = sum(u_type.values())
    l = sum(h_type.values())
    value = Fraction(
        multinomial(r, u_type.values())
        * multinomial(l, h_type.values())
        * segment_split_coefficient(m, k, r, l),
        m + 1,
    )
    count = as_integer(value)
    if count < 0:
        raise AssertionError(f"negative type count {count} at m={m}, k={k}")
    return count


# ---------------------------------------------------------------------------
# Named weight specializations
# ---------------------------------------------------------------------------


def _tree_weight(branching: int, i: int) -> Fraction:
    """Weight i of the complete plane-tree series solving f = 1 + x f^branching."""
    return Fraction(binomial(branching * i + 1, i), branching * i + 1)


_KIND_PARAMS = {
    "symbolic": (),
    "all-ones": (),
    "stirling": (),
    "b-ary": ("b", "d"),
    "r-ary": ("r",),
    "abel": ("q",),
    "bell-numbers": (),
    "factorial-psi": (),
}


def named_weights(kind: str, **params) -> WeightSpec:
    """Weight specs by name.

    Kinds (parameters in parentheses):
      symbolic        keep every weight as its variable
      all-ones        t_i = s_i = 1
      stirling        t_i = s_i = 1/i!            (set-partition weights)
      b-ary (b, d)    t_i, s_i = plane-tree weights C(bi+1, i)/(bi+1) etc.
      r-ary (r)       t_i = ((r+1)i + 1)^{i-1} / i!, s_i = 1  (labeled trees)
      abel (q)        t_i = (1 - qi)^{i-1} / i!,    s_i = 1
      bell-numbers    t_i = B_i / i!,               s_i = 1
      factorial-psi   t_i = s_i = 1 via the rising-factorial family
    """
    kind = kind.replace("_", "-")
    if kind not in _KIND_PARAMS:
        raise ValueError(f"unknown weight kind {kind!r}")
    unknown = sorted(set(params) - set(_KIND_PARAMS[kind]))
    if unknown:
        raise ValueError(f"weight kind {kind!r} takes no parameter {', '.join(unknown)}")
    one = Fraction(1)
    if kind == "symbolic":
        return WeightSpec.symbolic()
    if kind == "all-ones":
        return WeightSpec.all_ones()
    if kind == "stirling":
        rule = lambda i: Fraction(1, factorial(i))
        return WeightSpec(rule, rule, name="stirling")
    if kind == "b-ary":
        b = as_integer(params.get("b", 1))
        d = as_integer(params.get("d", 1))
        if b < 0 or d < 0:
            raise ValueError("b-ary weights need b, d >= 0")
        return WeightSpec(
            lambda i: _tree_weight(b, i),
            lambda i: _tree_weight(d, i),
            name=f"b-ary(b={b},d={d})",
        )
    if kind == "r-ary":
        r = as_integer(params.get("r", 1))
        if r < 0:
            raise ValueError("r-ary weights need r >= 0")
        return WeightSpec(
            lambda i: Fraction(((r + 1) * i + 1) ** (i - 1), factorial(i)),
            lambda i: one,
            name=f"r-ary(r={r})",
        )
    if kind == "abel":
        q = Fraction(params.get("q", 0))
        return WeightSpec(
            lambda i: (1 - q * i) ** (i - 1) / factorial(i),
            lambda i: one,
            name=f"abel(q={q})",
        )
    if kind == "bell-numbers":
        return WeightSpec(
            lambda i: Fraction(bell_number(i), factorial(i)),
            lambda i: one,
            name="bell-numbers",
        )
    # the last kind left: factorial-psi
    return binomial_sequence_weights(BinomialSequence.factorial())


def binomial_sequence_weights(
    phi: BinomialSequence, psi: BinomialSequence | None = None
) -> WeightSpec:
    """t_i = phi_i(1)/i! and s_i = psi_{i-1}(1)/(i-1)!, defaulting s_i to 1."""
    if psi is None:
        s_rule = lambda i: Fraction(1)
        s_name = ""
    else:
        s_rule = lambda i: psi.value(i - 1, 1) / factorial(i - 1)
        s_name = f",psi={psi.name()}"
    return WeightSpec(
        lambda i: phi.value(i, 1) / factorial(i),
        s_rule,
        name=f"binseq(phi={phi.name()}{s_name})",
    )


def series_coefficient_weights(f: Series, g: Series | None = None) -> WeightSpec:
    """Weights carved out of unit power series:

        t_i = f_i(i+1) / (i+1)!      with f_m(i) = m-th derivative of f^i at 0,
        s_i = g_{i-1}(i) / i!        or s_i = 1 when no g is given.
    """

    def t_rule(i):
        return power_derivative(f, i, i + 1).constant_value() / factorial(i + 1)

    if g is None:
        s_rule = lambda i: Fraction(1)
    else:

        def s_rule(i):
            return power_derivative(g, i - 1, i).constant_value() / factorial(i)

    return WeightSpec(t_rule, s_rule, name="series-coefficients")


# ---------------------------------------------------------------------------
# Closed evaluations of the named specializations
# ---------------------------------------------------------------------------


def stirling_closed_value(m: int, k: int) -> Fraction:
    """Value of the path sum under stirling weights:

        sum_j (-1)^{k-j} C(m+j, j) j! (m+j+1)^m S(k, j) / (k! (m+1)!).
    """
    total = Fraction(0)
    for j in range(k + 1):
        sign = 1 if (k - j) % 2 == 0 else -1
        total += Fraction(
            sign
            * binomial(m + j, j)
            * factorial(j)
            * (m + j + 1) ** m
            * stirling2(k, j),
            factorial(k) * factorial(m + 1),
        )
    return total


def bary_d1_closed_value(m: int, k: int, b: int) -> Fraction:
    """Path sum under b-ary tree weights on u-runs, weight 1 on h-runs:

        C(m+k+1, k) C((b+1)m+k+1, m) / ((b+1)m+k+1).
    """
    top = (b + 1) * m + k + 1
    return Fraction(binomial(m + k + 1, k) * binomial(top, m), top)


def _h_run_series(d: int, ny: int) -> Series:
    """(S(y) - 1) / S(y) for the d-ary plane-tree weight series S."""
    cells = {(0, 0, 0): 1}
    for i in range(1, ny + 1):
        cells[(0, i, 0)] = _tree_weight(d, i)
    s = Series((0, ny, 0), cells)
    return Series.one(0, ny) - s.reciprocal()


def bary_h_factor_series(j: int, k: int, d: int) -> Fraction:
    """[y^k] ((S(y)-1)/S(y))^j for the d-ary tree weight series, the quantity
    the closed h-run factor below reproduces wherever it is defined."""
    return _h_run_series(d, k).pow(j).coeff(0, k).constant_value()


def bary_h_factor_closed(j: int, k: int, d: int) -> Fraction:
    """The closed h-run factor (dj - j)/(dk - j) * C(dk - j, k - j).

    Undefined (zero denominator) when dk = j, which happens at j = k = 0 and,
    for d = 1, on the whole diagonal j = k; use the series form there.
    """
    if d * k - j == 0:
        raise ZeroDivisionError(f"h-run factor undefined at j={j}, k={k}, d={d}")
    return Fraction((d - 1) * j, d * k - j) * binomial(d * k - j, k - j)


def bary_general_closed_value(m: int, k: int, b: int, d: int) -> Fraction:
    """Path sum under b-ary u-run and d-ary h-run tree weights:

        1/(m+1) sum_{j=0..k} C(m+j, j) (m+j+1)/((b+1)m+j+1)
                * C((b+1)m+j+1, m) * h_factor(j, k, d)

    where h_factor is taken in its series form (bary_h_factor_series) so the
    degenerate dk = j cases carry their natural values: the j-th rational
    factor is the j-th coefficient of an outer series, composed with the
    h-run series (S(y) - 1)/S(y), and the sum is its y^k coefficient.
    """
    factors = []
    for j in range(k + 1):
        top = (b + 1) * m + j + 1
        factors.append(Fraction(binomial(m + j, j) * (m + j + 1), top) * binomial(top, m))
    summed = Series.from_x_coeffs(factors).compose_x(_h_run_series(d, k))
    return summed.coeff(0, k).constant_value() / (m + 1)


def series_family_closed_value(m: int, k: int, f: Series) -> Fraction:
    """Path sum under series-coefficient weights (t from f, s all 1):

        C(m+k+1, k) * f_m(2m+k+1) / ((2m+k+1) m!).
    """
    value = power_derivative(f, m, 2 * m + k + 1).constant_value()
    return Fraction(binomial(m + k + 1, k), (2 * m + k + 1) * factorial(m)) * value


def series_pair_closed_value(m: int, k: int, f: Series, g: Series) -> Fraction:
    """Double-sum form of the path sum under series-coefficient weights with
    t from f and s from g.  The inner factor carries a denominator of k, so
    this form is only defined for k >= 1; the k = 0 slice is covered by the
    series oracle instead.
    """
    if k < 1:
        raise ValueError("the double-sum form needs k >= 1")
    total = Fraction(0)
    for j in range(k + 1):
        fm = power_derivative(f, m, 2 * m + j + 1).constant_value()
        for l in range(j, k + 1):
            sign = 1 if (l - j) % 2 == 0 else -1
            gk = power_derivative(g, k - l, k).constant_value()
            total += (
                sign
                * binomial(l, j)
                * gk
                / factorial(k - l)
                * Fraction(j * (m + j + 1), k * (2 * m + j + 1))
                * binomial(m + j, j)
                * fm
                / factorial(m + 1)
            )
    return total


def rary_closed_value(m: int, k: int, r: int) -> Fraction:
    """Path sum under r-ary labeled-tree weights:

        C(m+k+1, k) ((r+2)m + k + 1)^{m-1} / m!.
    """
    base = Fraction((r + 2) * m + k + 1)
    return binomial(m + k + 1, k) * base ** (m - 1) / factorial(m)


def abel_closed_value(m: int, k: int, q) -> Fraction:
    """Path sum under Abel weights:  C(m+k+1, k) ((1-q)m + k + 1)^{m-1} / m!."""
    base = (1 - Fraction(q)) * m + k + 1
    return binomial(m + k + 1, k) * base ** (m - 1) / factorial(m)


def binomial_sequence_closed_value(m: int, k: int, phi: BinomialSequence) -> Fraction:
    """Path sum under binomial-sequence weights (s all 1):

        C(m+k, k) * phi_m(m+k+1) / (m+1)!.
    """
    return binomial(m + k, k) * phi.value(m, m + k + 1) / factorial(m + 1)


def bell_numbers_closed_value(m: int, k: int) -> Fraction:
    """Path sum under Bell-number weights:

        C(m+k, k) * sum_i S(m, i) (m+k+1)^i / (m+1)!.
    """
    inner = sum(stirling2(m, i) * (m + k + 1) ** i for i in range(m + 1))
    return Fraction(binomial(m + k, k) * inner, factorial(m + 1))


def two_sequence_closed_value(
    m: int, k: int, phi: BinomialSequence, psi: BinomialSequence
) -> Fraction:
    """Double-sum form of the path sum under a pair of binomial sequences
    (t from phi, s from psi):

        sum_{j=0..k} sum_{l=j..k} (-1)^{l-j} C(l-1, l-j) psi_{k-l}(l)/(k-l)!
            * C(m+j, j) phi_m(m+j+1) / (m+1)!.
    """
    total = Fraction(0)
    for j in range(k + 1):
        phi_m = phi.value(m, m + j + 1)
        for l in range(j, k + 1):
            c = binomial(l - 1, l - j)
            if not c:
                continue
            sign = 1 if (l - j) % 2 == 0 else -1
            total += (
                sign
                * c
                * psi.value(k - l, l)
                / factorial(k - l)
                * binomial(m + j, j)
                * phi_m
                / factorial(m + 1)
            )
    return total
