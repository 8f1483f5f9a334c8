import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellpaths import cli, compositions, lagrange, matrixcomp, motzkin, verify
from bellpaths.bell import (
    BinomialSequence,
    WeightVector,
    as_polynomial,
    partial_bell,
    partial_bell_by_partitions,
    potential,
    power_derivative,
    stirling2,
)
from bellpaths.core import EnumerationBoundError, binomial, factorial
from bellpaths.polyring import Polynomial, Series, WeightSpec, monomial_items, specialize

SYM = WeightVector(lambda k: Polynomial.variable("t", k))
ONES = WeightVector(lambda k: 1)


def _entries(*values) -> WeightVector:
    """The vector x_k = values[k - 1]."""
    return WeightVector(lambda k: values[k - 1])


# the numeric weight specs the command line accepts by name
NUMERIC_KINDS = (
    "all-ones",
    "stirling",
    "b-ary:b=2,d=1",
    "r-ary:r=1",
    "abel:q=-2",
    "bell-numbers",
    "factorial-psi",
)


def numeric_vectors():
    """(label, vector) for both weight families of every numeric kind."""
    for kind in NUMERIC_KINDS:
        weights = cli.parse_weights(kind)
        for family in ("t", "s"):
            yield f"{kind}/{family}", WeightVector.from_weights(weights, family)


def test_partial_bell_all_ones():
    assert partial_bell(4, 2, ONES) == 7


def test_partial_bell_diagonal_is_power():
    for n in range(1, 7):
        assert partial_bell(n, n, SYM) == Polynomial.variable("t", 1) ** n


def test_partial_bell_single_split():
    t1, t2 = Polynomial.variable("t", 1), Polynomial.variable("t", 2)
    assert partial_bell(3, 2, SYM) == t1 * t2 * 3


def test_partial_bell_conventions():
    assert partial_bell(0, 0, SYM) == 1
    assert partial_bell(3, 0, SYM) == 0
    assert partial_bell(2, 5, SYM) == 0
    assert partial_bell(2, -1, SYM) == 0


def test_partition_sum_examples():
    assert partial_bell_by_partitions(4, 2, ONES) == 7
    assert partial_bell_by_partitions(5, 1, SYM) == Polynomial.variable("t", 5)
    assert partial_bell_by_partitions(0, 0, SYM) == 1


def test_partition_sum_bound():
    with pytest.raises(EnumerationBoundError):
        partial_bell_by_partitions(31, 2, ONES)
    # an entry that is 0 by its indices is answered before the bound
    for n, r in ((37, 40), (37, 0), (31, -1), (-1, 0), (2, 3), (5, 0)):
        assert partial_bell_by_partitions(n, r, ONES) == 0, (n, r)
    assert partial_bell_by_partitions(30, 12, ONES) == stirling2(30, 12)


def test_recurrence_matches_partition_sum_symbolically():
    assert verify.check("bell", "recurrence-vs-partition-sum", 12) is None


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=3), st.integers(1, 6))
def test_homogeneity(q, m):
    scaled = WeightVector(lambda k: Polynomial.variable("t", k) * q)
    for r in range(m + 1):
        assert partial_bell(m, r, scaled) == partial_bell(m, r, SYM) * q**r


def test_potential_first_order():
    a = _entries(Polynomial.variable("t", 1))
    assert potential(1, 7, a) == Polynomial.variable("t", 1) * 7


def test_potential_negative_power():
    a = _entries(1, 2)  # series 1 + x + x^2
    assert potential(2, -1, a) == 0


def test_potential_cube():
    t1, t2 = Polynomial.variable("t", 1), Polynomial.variable("t", 2)
    a = _entries(t1, t2 * 2)
    assert potential(2, 3, a) == t2 * 6 + t1**2 * 6


def test_potential_rejects_non_integer_power():
    with pytest.raises(ValueError):
        potential(2, Fraction(1, 2), SYM)


def test_potential_of_order_zero():
    assert potential(0, -3, SYM) == 1


def test_potential_shifted_bell_arguments():
    assert verify.check("bell", "potential-shifted-arguments", 8) is None


def test_potential_matches_series_power():
    assert verify.check("bell", "potential-vs-series-power", 6) is None
    top = 6
    for label, vec in numeric_vectors():
        a_series = Series.from_x_coeffs(
            [1] + [vec[k] * Fraction(1, factorial(k)) for k in range(1, top + 1)]
        )
        for power in range(-4, 5):
            powered = a_series.pow(power)
            for n in range(top + 1):
                expected = powered.coeff(n) * factorial(n)
                assert potential(n, power, vec) == expected, (label, power, n)


def test_power_derivative_examples():
    one_plus_x = Series.from_x_coeffs([1, 1], nx=3)
    assert power_derivative(one_plus_x, 2, 3) == 6
    assert power_derivative(one_plus_x, 0, 5) == 1
    assert power_derivative(one_plus_x, 3, 2) == 0


def test_power_derivative_requires_unit_constant():
    with pytest.raises(ValueError):
        power_derivative(Series.from_x_coeffs([2, 1]), 1, 1)


def test_bell_of_power_coefficients():
    # B(m, r) of the vector with entry k the (k-1)-th derivative of f^k
    assert verify.check("bell", "bell-of-power-coefficients", 8) is None


FAMILIES = [
    BinomialSequence.power(),
    BinomialSequence.factorial(),
    BinomialSequence.abel(Fraction(-2)),
    BinomialSequence.abel(Fraction(1, 2)),
    BinomialSequence.exponential(),
]


def test_bell_of_binomial_sequences():
    assert verify.check("bell", "bell-of-binomial-sequences", 8) is None
    # the registry's families lack abel(1/2)
    phi = BinomialSequence.abel(Fraction(1, 2))
    vec = WeightVector(lambda k: Polynomial.const(k * phi.value(k - 1, 1)))
    for m in range(1, 9):
        for r in range(1, m + 1):
            lhs = partial_bell(m, r, vec).constant_value()
            assert lhs == binomial(m, r) * phi.value(m - r, r), (m, r)


def test_binomial_sequence_values():
    assert BinomialSequence.exponential().value(3, 1) == 5  # third Bell number
    assert BinomialSequence.power().value(4, 2) == 16
    assert BinomialSequence.factorial().value(3, 1) == 6
    assert BinomialSequence.abel(0).value(5, 3) == 3**5
    for phi in FAMILIES:
        assert phi.value(0, Fraction(7, 3)) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 7),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_binomial_convolution(phi, n, x, y):
    lhs = phi.value(n, x + y)
    rhs = sum(binomial(n, i) * phi.value(i, x) * phi.value(n - i, y) for i in range(n + 1))
    assert lhs == rhs


def exponent_series_sequence(coeffs):
    """phi_n(x) = n! [u^n] exp(x lam(u)) for the exponent series lam with
    coefficients lam_1, lam_2, ... (lam_1 != 0): the general binomial
    sequence, by series composition, the oracle the built-in kinds' closed
    forms are checked against."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    if not coeffs or not coeffs[0]:
        raise ValueError("exponent series needs a nonzero linear coefficient")

    def value(n, x):
        x = Fraction(x)
        if n == 0:
            return Fraction(1)
        if len(coeffs) < n:
            raise IndexError(
                f"exponent series has {len(coeffs)} coefficients, index {n} requested"
            )
        lam = Series.from_x_coeffs([Fraction(0), *coeffs[:n]], nx=n)
        exp_x = Series.from_x_coeffs([x**j / factorial(j) for j in range(n + 1)])
        return exp_x.compose_x(lam).coeff(n).constant_value() * factorial(n)

    return value


def test_generic_sequence_from_exponent_series():
    # lam(u) = u gives the power family
    generic_power = exponent_series_sequence([1, 0, 0, 0, 0, 0])
    # lam(u) = e^u - 1 gives the exponential family
    generic_exp = exponent_series_sequence(
        [Fraction(1, factorial(k)) for k in range(1, 7)]
    )
    for n in range(7):
        for x in (Fraction(1), Fraction(-2), Fraction(3, 2)):
            assert generic_power(n, x) == BinomialSequence.power().value(n, x)
            assert generic_exp(n, x) == BinomialSequence.exponential().value(n, x)


def test_generic_sequence_needs_linear_coefficient():
    with pytest.raises(ValueError):
        exponent_series_sequence([0, 1])


def test_sequence_values_are_computed_once_and_shared():
    phi = BinomialSequence.abel(-2)
    assert phi.value(3, 2) == phi.value(3, Fraction(2)) == 2 * 8**2
    assert list(phi.cache) == [(3, Fraction(2))]
    # the store is no part of a sequence's value
    assert phi == BinomialSequence.abel(-2)
    assert hash(phi) == hash(BinomialSequence.abel(-2))
    assert "cache" not in repr(phi)


def test_stirling_values():
    assert stirling2(4, 2) == 7
    assert stirling2(3, 0) == 0
    for n in range(9):
        assert stirling2(n, n) == 1
    # read from the shared all-ones Bell table, which stays integral
    assert all(type(stirling2(12, k)) is int for k in range(13))
    # classic recurrence as the independent check
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_bell_numbers():
    # phi_n(1) of the exponential family, read by the bell-numbers weights
    bell_numbers = [1, 1, 2, 5, 15, 52, 203]
    exponential = BinomialSequence.exponential()
    assert [exponential.value(n, 1) for n in range(7)] == bell_numbers
    assert [sum(stirling2(n, k) for k in range(n + 1)) for n in range(7)] == bell_numbers


def test_partial_bell_matches_sympy():
    # a second, independent oracle where sympy is installed; its bell(n, r,
    # symbols) is the partial Bell polynomial over x_1 .. x_(n-r+1)
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t1:11")

    def as_sympy(poly):
        return sympy.Add(*(
            sympy.Rational(coeff.numerator, coeff.denominator)
            * sympy.Mul(*(t[index - 1] ** exp for (_, index), exp in monomial_items(mono)))
            for mono, coeff in poly.terms.items()
        ))

    for n in range(1, 11):
        for r in range(1, n + 1):
            expected = sympy.bell(n, r, t[: n - r + 1])
            assert sympy.expand(expected - as_sympy(partial_bell(n, r, SYM))) == 0, (n, r)


def test_integral_entries_build_int_rows(tmp_path):
    # the rows over the same entries held as Fractions are the oracle
    weight_file = tmp_path / "weights.csv"
    weight_file.write_text("t,1,1,1\nt,2,1,2\nt,3,3,1\ns,1,2,1\ns,2,1,3\n")
    kinds = NUMERIC_KINDS + ("abel:q=1/2", f"csv:{weight_file}")
    for kind in kinds:
        weights = cli.parse_weights(kind)
        for family in ("t", "s"):
            vector = WeightVector.from_weights(weights, family)
            as_fractions = WeightVector(
                lambda k, w=weights, f=family: Fraction(w.entry(f, k) * factorial(k))
            )
            entries = [vector[k] for k in range(1, 13)]
            for k, value in enumerate(entries, 1):
                assert value == as_fractions[k], (kind, family, k)
                integral = Fraction(value).denominator == 1
                assert type(value) is (int if integral else Fraction), (kind, family, k)
            for n in range(13):
                row = vector.row(n)
                assert row == as_fractions.row(n), (kind, family, n)
                if all(type(value) is int for value in entries):
                    assert all(type(value) is int for value in row), (kind, family, n)


def test_bell_table_matches_partition_sum_in_every_ring():
    fractions = WeightVector(lambda k: Fraction((-1) ** k * k, k + 2))
    for label, vec in [("symbolic", SYM), ("fractions", fractions), *numeric_vectors()]:
        for n in range(15):
            # symbolic and integer entries keep every coefficient an int
            integral = all(
                isinstance(vec[k], Polynomial) or type(vec[k]) is int for k in range(1, n + 1)
            )
            for r in range(n + 1):
                value = vec.bell(n, r)
                if label != "symbolic":
                    # numeric weights stay rationals inside the table
                    assert not isinstance(value, Polynomial), (label, n, r)
                oracle = partial_bell_by_partitions(n, r, vec)
                assert as_polynomial(value) == oracle, (label, n, r)
                if integral:
                    coefficients = oracle.terms.values()
                    assert all(type(c) is int for c in coefficients), (label, n, r)


def test_bell_table_grows_to_the_same_rows():
    for label, vec in [("symbolic", SYM), *numeric_vectors()]:
        grown = WeightVector(lambda k: vec[k])
        grown.row(4)
        grown.row(8)
        fresh = WeightVector(lambda k: vec[k])
        assert [grown.row(n) for n in range(9)] == [fresh.row(n) for n in range(9)], label


def test_bell_table_reads_each_entry_once():
    calls = {}

    def rule(k):
        calls[k] = calls.get(k, 0) + 1
        return Polynomial.variable("t", k)

    vec = WeightVector(rule)
    for n in range(9):
        for r in range(n + 1):
            partial_bell(n, r, vec)
        for power in range(-3, 4):
            potential(n, power, vec)
    partial_bell_by_partitions(8, 2, vec)
    assert calls == {k: 1 for k in range(1, 9)}


def _bell_and_potential_values(spec, top):
    # rows first, one new row per call, so that threads running this at
    # once spend their time growing the same rows
    values = []
    for family in ("t", "s"):
        vec = WeightVector.from_weights(spec, family)
        for n in range(top + 1):
            values += [partial_bell(n, r, vec) for r in range(n + 1)]
        for n in range(top + 1):
            values += [potential(n, power, vec) for power in (-2, 1, 3)]
    # closed path sums, which also share their inner sums through the spec
    values += [motzkin.weighted_sum_closed(m, k, spec) for m in range(5) for k in range(5)]
    return values


def test_shared_spec_is_safe_across_threads():
    # named_weights hands one spec to every caller: threads growing its Bell
    # rows at once must read what a serial run reads, and leave rows that a
    # later read past them can still trust
    serial = _bell_and_potential_values(WeightSpec.symbolic(), 12)
    further = _bell_and_potential_values(WeightSpec.symbolic(), 14)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            motzkin._named_spec.cache_clear()
            shared = motzkin.named_weights("symbolic")
            barrier = threading.Barrier(4)
            results = [None] * 4

            def work(slot):
                barrier.wait()
                results[slot] = _bell_and_potential_values(shared, 12)

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert results == [serial] * 4
            assert _bell_and_potential_values(shared, 14) == further
    finally:
        sys.setswitchinterval(interval)


def test_weight_spec_builds_each_table_once():
    calls = {"t": {}, "s": {}}

    def counting(family):
        def rule(i):
            calls[family][i] = calls[family].get(i, 0) + 1
            return Fraction(1, i)

        return rule

    weights = WeightSpec(counting("t"), counting("s"), name="counting")
    for n in range(9):
        for m in range(n // 2 + 1):
            motzkin.weighted_sum_closed(m, n - 2 * m, weights)
    compositions.weighted_sum_closed(4, 2, 5, weights)
    matrixcomp.weighted_sum_closed(5, 2, 3, weights)
    # the oracles and specialize read the same memoised entries
    motzkin.weighted_sum_bruteforce(2, 4, weights)
    lagrange.motzkin_series(weights, 4, 6)
    specialize(motzkin.weighted_sum_closed(3, 2, WeightSpec.symbolic()), weights)
    assert calls["t"] == {i: 1 for i in range(1, 6)}
    assert calls["s"] == {i: 1 for i in range(1, 9)}


def test_numeric_closed_forms_specialize_the_symbolic_ones():
    sym = WeightSpec.symbolic()
    pairs = [(m, k) for m in range(6) for k in range(11 - 2 * m)]
    motzkin_sym = {(m, k): motzkin.weighted_sum_closed(m, k, sym) for m, k in pairs}
    comp_sym = {
        (m, k, j): compositions.weighted_sum_closed(m, k, j, sym)
        for m in range(7)
        for j in range(6)
        for k in range(j + 1)
    }
    mat_sym = {
        (m, p, j): matrixcomp.weighted_sum_closed(m, p, j, sym)
        for m in range(8)
        for p in range(1, 4)
        for j in range(1, 4)
    }
    for kind in NUMERIC_KINDS:
        weights = cli.parse_weights(kind)
        for (m, k), poly in motzkin_sym.items():
            value = motzkin.weighted_sum_closed(m, k, weights)
            assert value == specialize(poly, weights), (kind, m, k)
        for (m, k, j), poly in comp_sym.items():
            value = compositions.weighted_sum_closed(m, k, j, weights)
            assert value == specialize(poly, weights), (kind, m, k, j)
        for (m, p, j), poly in mat_sym.items():
            value = matrixcomp.weighted_sum_closed(m, p, j, weights)
            assert value == specialize(poly, weights), (kind, m, p, j)


def _exact_types(poly: Polynomial, label):
    """Every coefficient is an int or a Fraction."""
    for coeff in poly.terms.values():
        assert type(coeff) in (int, Fraction), (label, coeff)


def test_public_results_hold_no_float():
    sym = WeightSpec.symbolic()
    specs = [sym] + [cli.parse_weights(kind) for kind in NUMERIC_KINDS]
    for weights in specs:
        label = weights.name
        for m, k in ((0, 0), (2, 1), (3, 4), (5, 0)):
            _exact_types(motzkin.weighted_sum_closed(m, k, weights), (label, m, k))
        for m, k, j in ((2, 1, 3), (4, 2, 5), (5, 0, 3)):
            _exact_types(compositions.weighted_sum_closed(m, k, j, weights), label)
        for m, p, j in ((2, 2, 1), (4, 3, 2), (5, 2, 3)):
            _exact_types(matrixcomp.weighted_sum_closed(m, p, j, weights), label)
        for family in ("t", "s"):
            vector = WeightVector.from_weights(weights, family)
            for n in range(8):
                for r in range(n + 1):
                    _exact_types(partial_bell(n, r, vector), (label, family, n, r))
                for power in (-3, -1, 2, 5):
                    _exact_types(potential(n, power, vector), (label, family, n, power))

    # every named kind reads an int (integral weights) or a Fraction
    for kind in motzkin._KIND_PARAMS:
        weights = motzkin.named_weights(kind)
        for family in ("t", "s"):
            for i in range(1, 9):
                value = weights.entry(family, i)
                if kind == "symbolic":
                    assert value == Polynomial.variable(family, i)
                    continue
                assert type(value) in (int, Fraction), (kind, family, i, value)
                if type(value) is Fraction:
                    assert value.denominator != 1, (kind, family, i)

    # constant_value is always a Fraction, so `/` on it stays exact
    ones = WeightSpec.all_ones()
    for m, k in ((0, 0), (2, 1), (3, 3)):
        value = motzkin.weighted_sum_closed(m, k, ones).constant_value()
        assert type(value) is Fraction and value == motzkin.count_paths(m, k)
    series = lagrange.motzkin_series(ones, 4, 3)
    for i in range(5):
        for j in range(4):
            assert type(series.coeff(i, j).constant_value()) is Fraction, (i, j)
    f = Series.from_x_coeffs([1, 1], nx=6)
    for m in range(7):
        value = power_derivative(f, m, m + 1).constant_value()
        assert type(value) is Fraction and value / factorial(m) == binomial(m + 1, m)

    # the b-ary, r-ary and abel weight families and the weights carved out
    # of unit series stay Fractions, and so do their closed values
    series_specs = [
        motzkin.named_weights("b-ary", b=2, d=3),
        motzkin.named_weights("r-ary", r=2),
        motzkin.named_weights("abel", q=Fraction(-1, 2)),
        motzkin.series_coefficient_weights(f, Series.from_x_coeffs([1, 2, 1], nx=6)),
    ]
    for weights in series_specs:
        for i in range(1, 6):
            for rule in (weights.t_rule, weights.s_rule):
                assert type(rule(i)) is Fraction, (weights.name, i)
    for m, k in ((0, 0), (1, 2), (3, 1)):
        for value in (
            motzkin.bary_d1_closed_value(m, k, 2),
            motzkin.bary_general_closed_value(m, k, 2, 3),
            motzkin.abel_closed_value(m, k, -3),
            motzkin.abel_closed_value(m, k, Fraction(-1, 2)),
            motzkin.series_family_closed_value(m, k, f),
        ):
            assert type(value) is Fraction, (m, k, value)
