from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bellpaths.polyring import (
    SYMBOLIC,
    Monomial,
    Polynomial,
    Series,
    WeightSpec,
    specialize,
)

T1 = Polynomial.variable("t", 1)
T2 = Polynomial.variable("t", 2)
S1 = Polynomial.variable("s", 1)


coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def monomials(draw, max_index=3, max_exp=3):
    items = []
    for family in ("t", "s"):
        for index in range(1, max_index + 1):
            exp = draw(st.integers(0, max_exp))
            if exp:
                items.append(((family, index), exp))
    return Monomial(items)


@st.composite
def polynomials(draw, max_terms=4, max_index=3, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(monomials(max_index, max_exp))] = draw(coefficients)
    return Polynomial(terms)


def product_by_exponents(a: Monomial, b: Monomial) -> Monomial:
    """a * b through the validating constructor, from summed exponents."""
    exponents = {}
    for var, exp in a.items + b.items:
        exponents[var] = exponents.get(var, 0) + exp
    return Monomial(exponents.items())


def product_by_double_loop(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by the general term-pair loop, with no one-term shortcut."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = product_by_exponents(m1, m2)
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return Polynomial(terms)


def test_poly_add():
    assert (T1 + T1) == T1 * 2


def test_poly_difference_of_squares():
    assert (T1 + S1) * (T1 - S1) == T1**2 - S1**2


def test_poly_absorbing_zero():
    assert (T1 * S1 * 3) * Polynomial.zero() == Polynomial.zero()


def test_poly_equality_with_scalars():
    assert Polynomial.const(Fraction(3, 2)) == Fraction(3, 2)
    assert Polynomial.zero() == 0
    assert T1 != 1


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


def assert_same_monomial(got: Monomial, expected: Monomial):
    assert got.items == expected.items
    assert hash(got) == hash(expected)
    assert got == expected


def test_monomial_product_interleaves_families_canonically():
    t1, t2, t3 = (Monomial.variable("t", i) for i in (1, 2, 3))
    s1, s2 = Monomial.variable("s", 1), Monomial.variable("s", 2)
    t2_s1 = ((("t", 2), 1), (("s", 1), 1))
    assert (t2 * s1).items == t2_s1
    assert (s1 * t2).items == t2_s1
    assert (t1 * s1 * t3).items == ((("t", 1), 1), (("t", 3), 1), (("s", 1), 1))
    assert_same_monomial(t1 * s1 * t3, s1 * t3 * t1)
    t1_sq_s1_s2 = Monomial([(("t", 1), 2), (("s", 1), 1), (("s", 2), 1)])
    assert_same_monomial((t1 * s2) * (s1 * t1), t1_sq_s1_s2)
    assert_same_monomial(s2 * Monomial(), s2)
    assert_same_monomial(Monomial() * t3, t3)


@settings(max_examples=150)
@given(monomials(), monomials())
def test_monomial_product_matches_summed_exponents(a, b):
    expected = product_by_exponents(a, b)
    assert_same_monomial(a * b, expected)
    assert_same_monomial(b * a, expected)
    assert {a * b: 1}[expected] == 1


nonzero_coefficients = coefficients.filter(bool)


@settings(max_examples=100)
@given(polynomials(), monomials(), nonzero_coefficients)
def test_one_term_product_matches_the_double_loop(p, mono, coeff):
    single = Polynomial({mono: coeff})
    for product, expected in (
        (p * single, product_by_double_loop(p, single)),
        (single * p, product_by_double_loop(single, p)),
    ):
        assert product == expected
        assert product.terms == expected.terms
        assert all(product.terms.values())
        for term in product.terms:
            assert_same_monomial(term, Monomial(term.items))


def test_integral_coefficients_are_stored_as_ints():
    assert T1.terms == {Monomial.variable("t", 1): 1}
    assert type(next(iter(T1.terms.values()))) is int
    assert type(Polynomial.const(Fraction(6, 3)).terms[Monomial()]) is int
    assert type(((T1 + S1) ** 3 * 2).terms[Monomial.variable("t", 1, 3)]) is int
    assert Polynomial.from_text("4/2*t1 + 1/2*s1").terms == {
        Monomial.variable("t", 1): 2,
        Monomial.variable("s", 1): Fraction(1, 2),
    }
    # constant_value stays a Fraction, so dividing it never gives a float
    for value in (Polynomial.const(3), Polynomial.zero(), Polynomial.const(Fraction(1, 2))):
        assert type(value.constant_value()) is Fraction
    assert Polynomial.const(3).constant_value() / 2 == Fraction(3, 2)


def test_specialize_examples():
    from bellpaths.core import factorial

    ones = WeightSpec.all_ones()
    assert specialize(T1 * S1 * 3, ones) == 3

    # t_i = s_i = 1/i!: t1^2 + t2 -> 1 + 1/2, lone s3 -> 1/6
    weights = WeightSpec(
        lambda i: Fraction(1, factorial(i)), lambda i: Fraction(1, factorial(i))
    )
    assert specialize(T1**2 + T2, weights) == Fraction(3, 2)
    assert specialize(Polynomial.variable("s", 3), weights) == Fraction(1, 6)


def test_specialize_rejects_symbolic():
    with pytest.raises(ValueError):
        specialize(T1, WeightSpec.symbolic())


@settings(max_examples=40)
@given(polynomials(), polynomials(), st.integers(0, 1000))
def test_specialize_is_ring_homomorphism(p, q, seed):
    import random

    rnd = random.Random(seed)
    table = {}

    def rule(i, family):
        key = (family, i)
        if key not in table:
            table[key] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        return table[key]

    weights = WeightSpec(lambda i: rule(i, "t"), lambda i: rule(i, "s"))
    assert specialize(p * q, weights) == specialize(p, weights) * specialize(q, weights)
    assert specialize(p + q, weights) == specialize(p, weights) + specialize(q, weights)


def test_text_format_examples():
    assert (T1 * S1 * 3).to_text() == "3*t1*s1"
    assert (T1**3).to_text() == "1*t1^3"
    assert (T1 * T2 * 3).to_text() == "3*t1*t2"
    assert Polynomial.zero().to_text() == "0"
    assert Polynomial.const(Fraction(-4, 5)).to_text() == "-4/5"
    assert (Polynomial.const(7) + T1 * Fraction(1, 2)).to_text() == "7 + 1/2*t1"


@settings(max_examples=80)
@given(polynomials())
def test_text_round_trip(p):
    assert Polynomial.from_text(p.to_text()) == p


def test_text_output_is_deterministic():
    p = S1 + T2 + T1**2 + Polynomial.const(5)
    q = Polynomial.const(5) + T1**2 + T2 + S1
    assert p.to_text() == q.to_text()


def test_series_mul_truncates():
    one_plus = Series.from_x_coeffs([1, 1], nx=2)
    one_minus = Series.from_x_coeffs([1, -1], nx=2)
    product = one_plus * one_minus
    assert product.coeff(0) == 1
    assert product.coeff(1) == 0
    assert product.coeff(2) == -1

    tight = Series.from_x_coeffs([0, 1, 1], nx=1)  # x(1+x) truncated at order 1
    assert tight.coeff(1) == 1
    with pytest.raises(IndexError):
        tight.coeff(2)


def test_series_scalar_add():
    weight_series = Series(
        (3, 0, 0),
        {(0, 0, 0): Polynomial.const(1)}
        | {(i, 0, 0): Polynomial.variable("t", i) for i in range(1, 4)},
    )
    bumped = weight_series + 1
    assert bumped.coeff(0) == 2
    for i in range(1, 4):
        assert bumped.coeff(i) == Polynomial.variable("t", i)


def test_series_coeff_out_of_truncation_is_error():
    f = Series.from_x_coeffs([1, 2, 3])
    with pytest.raises(IndexError):
        f.coeff(3)
    with pytest.raises(IndexError):
        f.coeff(0, 1)


def test_series_geometric_reciprocal():
    f = Series.from_x_coeffs([1, 1], nx=3)
    inv = f.pow(-1)
    assert [inv.coeff(i).constant_value() for i in range(4)] == [1, -1, 1, -1]


def test_series_pow_symbolic():
    f = Series((2, 0, 0), {(0, 0, 0): Polynomial.const(1), (1, 0, 0): T1})
    squared = f.pow(2)
    assert squared.coeff(0) == 1
    assert squared.coeff(1) == T1 * 2
    assert squared.coeff(2) == T1**2


def test_series_reciprocal_multiplies_back():
    f = Series.from_x_coeffs([1, 1, 1], nx=2)
    inv = f.pow(-1)
    assert inv.coeff(2) == 0  # 1 - x + 0 x^2
    assert f * inv == Series.one(2)


def test_series_reciprocal_rejects_bad_constant():
    with pytest.raises(ValueError):
        Series.from_x_coeffs([0, 1]).reciprocal()
    symbolic_const = Series((1, 0, 0), {(0, 0, 0): T1})
    with pytest.raises(ValueError):
        symbolic_const.reciprocal()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(coefficients, min_size=4, max_size=4),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_series_pow_addition_law(tail, a, b):
    f = Series.from_x_coeffs([Fraction(1), *tail], nx=4)
    assert f.pow(a) * f.pow(b) == f.pow(a + b)


# the three kinds of cell a series holds: ints, Fractions and Polynomials
ring_values = st.one_of(
    st.integers(-3, 3), coefficients, polynomials(max_terms=2, max_index=2, max_exp=2)
)


@st.composite
def series(draw, gradings=st.integers(1, 3), max_order=3, constant=ring_values):
    """A Series over the first `gradings` of x, y, q with up to four cells
    of positive order, and its constant term drawn from `constant`."""
    used = draw(gradings)
    orders = tuple(draw(st.integers(0, max_order)) for _ in range(used))
    orders += (0,) * (3 - used)
    keys = [key for key in itertools.product(*(range(n + 1) for n in orders)) if any(key)]
    cells = {(0, 0, 0): draw(constant)}
    if keys:
        for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
            cells[key] = draw(ring_values)
    return Series(orders, cells)


def power_sum(f: Series, g: Series) -> Series:
    """sum_i f_i g^i with each power by binary powering, not by compose_x."""
    total = Series.zero(*g.orders())
    for (i, _, _), c in f.cells.items():
        total = total + g.pow(i) * c
    return total


@settings(max_examples=80, deadline=None)
@given(series(gradings=st.just(1), max_order=5), series(constant=st.just(0)))
def test_compose_x_is_the_power_sum(f, g):
    composed = f.compose_x(g)
    assert composed.orders() == g.orders()
    assert composed == power_sum(f, g)


@settings(max_examples=60, deadline=None)
@given(
    series(gradings=st.integers(2, 3), constant=nonzero_coefficients),
    st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)),
    polynomials(max_terms=2, max_index=2, max_exp=2),
)
def test_reciprocal_multiplies_back_symbolically(f, key, symbolic):
    # one non-constant symbolic cell of positive order, inside the box
    key = tuple(min(k, n) for k, n in zip(key, f.orders()))
    if any(key):
        f = Series(f.orders(), f.cells | {key: symbolic * T1 + T2})
    assert f * f.reciprocal() == Series.one(*f.orders())
    assert f.reciprocal() * f == Series.one(*f.orders())


@settings(max_examples=40, deadline=None)
@given(series())
def test_scale_by_one_is_identity(s):
    for one in (1, Fraction(1), Polynomial.const(1)):
        assert s.scale(one) == s
        assert s * one == s


def test_compose_x_stops_at_the_first_vanishing_power():
    # (1 + x + x^2 + ...)(y) in a box of y-order 2: y^3 and beyond vanish
    geometric = Series.from_x_coeffs([1] * 6)
    y = Series((0, 2, 0), {(0, 1, 0): T1})
    expected = Series((0, 2, 0), {(0, 0, 0): 1, (0, 1, 0): T1, (0, 2, 0): T1**2})
    assert geometric.compose_x(y) == expected
    assert Series.from_x_coeffs([5]).compose_x(y) == Series((0, 2, 0), {(0, 0, 0): 5})
    with pytest.raises(ValueError):
        geometric.compose_x(y + 1)
    with pytest.raises(ValueError):
        y.compose_x(Series.from_x_coeffs([0, 1]))


def test_series_three_gradings():
    f = Series((1, 1, 1), {(1, 0, 0): T1, (0, 1, 1): S1})
    square = f.pow(2)
    assert square.coeff(1, 1, 1) == T1 * S1 * 2
    assert square.coeff(1, 0, 0) == 0


def test_series_equality_includes_orders():
    assert Series.one(2) != Series.one(3)
    assert Series.one(2) == Series.from_x_coeffs([1, 0, 0])


def test_weightspec_tables_default_zero():
    w = WeightSpec.from_tables({1: Fraction(1, 2)}, {2: 3})
    assert w.entry("t", 1) == Fraction(1, 2)
    assert w.entry("t", 2) == 0
    assert w.entry("s", 2) == 3
    assert w.entry("t", 1) == Polynomial.const(Fraction(1, 2))


def test_weightspec_symbolic_polys():
    w = WeightSpec.symbolic()
    assert w.t_rule(4) is SYMBOLIC
    assert w.entry("t", 4) == Polynomial.variable("t", 4)
    with pytest.raises(ValueError):
        w.entry("t", 0)
