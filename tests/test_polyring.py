from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bellpaths import lagrange, motzkin, polyring
from bellpaths.polyring import (
    SYMBOLIC,
    Polynomial,
    Series,
    WeightSpec,
    monomial,
    monomial_items,
    specialize,
)

T1 = Polynomial.variable("t", 1)
T2 = Polynomial.variable("t", 2)
S1 = Polynomial.variable("s", 1)


def from_text(text: str) -> Polynomial:
    """The polynomial a `Polynomial.to_text` string prints, parsed back
    through `monomial`, so the text form can be checked to round-trip."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    terms = {}
    for chunk in text.split(" + "):
        tokens = chunk.split("*")
        try:
            coeff = Fraction(tokens[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coefficient {tokens[0]!r}") from exc
        items = []
        for tok in tokens[1:]:
            if "^" in tok:
                name, _, exp_text = tok.partition("^")
                exp = int(exp_text)
            else:
                name, exp = tok, 1
            if len(name) < 2 or name[0] not in ("t", "s"):
                raise ValueError(f"bad variable token {tok!r}")
            items.append(((name[0], int(name[1:])), exp))
        mono = monomial(items)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(terms)


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
    return monomial(items)


@st.composite
def polynomials(draw, max_terms=4, max_index=3, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(monomials(max_index, max_exp))] = draw(coefficients)
    return Polynomial(terms)


def product_by_exponents(a: tuple, b: tuple) -> tuple:
    """The key of a * b through the validating packer, from the exponents
    of the two keys' (variable, exponent) pairs summed per variable."""
    exponents = {}
    for var, exp in monomial_items(a) + monomial_items(b):
        exponents[var] = exponents.get(var, 0) + exp
    return monomial(exponents.items())


def times(a: tuple, b: tuple) -> tuple:
    """The key of a * b, as the polynomial product forms it."""
    (key,) = (Polynomial({a: 1}) * Polynomial({b: 1})).terms
    return key


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


def assert_same_monomial(got: tuple, expected: tuple):
    assert type(got) is tuple
    assert hash(got) == hash(expected)
    assert got == expected


def var(family: str, index: int, exp: int = 1) -> tuple:
    return monomial([((family, index), exp)])


def test_monomial_product_interleaves_families_canonically():
    t1, t2, t3 = (var("t", i) for i in (1, 2, 3))
    s1, s2 = var("s", 1), var("s", 2)
    t2_s1 = ((("t", 2), 1), (("s", 1), 1))
    assert monomial_items(times(t2, s1)) == t2_s1
    assert monomial_items(times(s1, t2)) == t2_s1
    t1_s1_t3 = times(times(t1, s1), t3)
    assert monomial_items(t1_s1_t3) == ((("t", 1), 1), (("t", 3), 1), (("s", 1), 1))
    assert_same_monomial(t1_s1_t3, times(times(s1, t3), t1))
    t1_sq_s1_s2 = monomial([(("t", 1), 2), (("s", 1), 1), (("s", 2), 1)])
    assert_same_monomial(times(times(t1, s2), times(s1, t1)), t1_sq_s1_s2)
    assert_same_monomial(times(s2, monomial()), s2)
    assert_same_monomial(times(monomial(), t3), t3)


def test_a_repeated_variable_packs_as_one_item():
    assert monomial([(("t", 1), 1), (("t", 1), 1)]) == var("t", 1, 2)
    assert monomial([(("s", 2), 1), (("t", 1), 0), (("s", 2), 3)]) == var("s", 2, 4)
    assert from_text("1*t1*t1") == from_text("1*t1^2")
    assert from_text("2*s3*t1*s3^2").to_text() == "2*t1*s3^3"
    for text in ("1*t1*t1", "3*t2*t1*t2 + -1*t1^2*t1"):
        p = from_text(text)
        assert from_text(p.to_text()) == p
        assert all(len({v for v, _ in monomial_items(key)}) == len(key) for key in p.terms)


def test_field_overflow_is_refused_never_carried():
    top = (1 << polyring._E) - 1
    t1 = Polynomial.variable("t", 1)
    assert (t1 ** top).to_text() == f"1*t1^{top}"
    with pytest.raises(ValueError, match="does not fit"):
        t1 ** (1 << polyring._E)
    with pytest.raises(ValueError, match="does not fit"):
        (t1 ** top) * (t1 * Polynomial.variable("t", 2))
    with pytest.raises(ValueError, match="does not fit"):
        Polynomial.variable("s", 3) ** top * Polynomial.variable("s", 3)
    with pytest.raises(ValueError, match="does not fit"):
        from_text(f"1*t1^{1 << 40}")
    with pytest.raises(ValueError, match="does not fit"):
        from_text(f"1*s2^{top}*s2")
    big = 1 << polyring._INDEX_BITS
    assert Polynomial.variable("s", big - 1).to_text() == f"1*s{big - 1}"
    for make in (
        lambda: Polynomial.variable("t", big),
        lambda: from_text(f"1*s{big}"),
        lambda: monomial([(("t", 1 << 40), 1)]),
    ):
        with pytest.raises(ValueError, match="does not fit"):
            make()


def test_non_integral_exponents_and_indices_are_refused_not_truncated():
    for items in (
        [(("t", 1), Fraction(3, 2))],
        [(("t", 1), 2.7)],
        [(("s", Fraction(5, 2)), 1)],
        [(("t", 1.5), 2)],
    ):
        with pytest.raises(ValueError, match="expected an integer value"):
            monomial(items)
    # integral values of any exact or float type read as their int
    assert monomial([(("t", Fraction(2)), 2.0)]) == monomial([(("t", 2), 2)])


# the variables in canonical order: t before s, then by index
CANONICAL_VARIABLES = [(family, index) for family in ("t", "s") for index in range(1, 5)]


@st.composite
def monomial_pairs(draw):
    """Two monomials of one of five kinds: ordered-disjoint (every variable
    of the first before every variable of the second), touching (ordered,
    but the last variable of the first is the first of the second),
    interleaved (disjoint, but not ordered either way), overlapping (a
    shared variable) or one constant."""
    kinds = ["ordered", "touching", "interleaved", "overlapping", "constant"]
    kind = draw(st.sampled_from(kinds))
    n = len(CANONICAL_VARIABLES)
    owners = {}
    if kind in ("ordered", "touching"):
        cut = draw(st.integers(0, n - 1 if kind == "touching" else n))
        for pos in range(n):
            if draw(st.booleans()):
                owners[pos] = "a" if pos < cut else "b"
        if kind == "touching":
            owners[cut] = "ab"
    elif kind == "interleaved":
        positions = st.sets(st.integers(0, n - 1), min_size=3, max_size=3)
        first, middle, last = sorted(draw(positions))
        owners = {first: "a", middle: "b", last: "a"}
    elif kind == "overlapping":
        owners = {draw(st.integers(0, n - 1)): "ab"}
    if kind in ("interleaved", "overlapping"):
        extra = ["", "a", "b"] if kind == "interleaved" else ["", "a", "b", "ab"]
        for pos in range(n):
            owner = draw(st.sampled_from(extra))
            if owner and pos not in owners:
                owners[pos] = owner

    def side(name):
        return monomial([
            (CANONICAL_VARIABLES[pos], draw(st.integers(1, 3)))
            for pos in sorted(owners)
            if name in owners[pos]
        ])

    a, b = side("a"), side("b")
    if kind == "constant":
        b = draw(monomials(max_index=4))
    return kind, a, b


@settings(max_examples=200)
@given(monomial_pairs())
def test_monomial_product_matches_summed_exponents(pair):
    kind, a, b = pair
    expected = product_by_exponents(a, b)
    for product in (times(a, b), times(b, a)):
        assert_same_monomial(product, expected)
        if kind not in ("touching", "overlapping"):
            # disjoint variables: the packer sorts the joined items, which
            # is the product
            assert_same_monomial(product, monomial(monomial_items(a) + monomial_items(b)))
    assert {times(a, b): 1}[expected] == 1


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
            assert_same_monomial(term, monomial(monomial_items(term)))



integer_polynomials = st.dictionaries(
    monomials(), st.integers(-60, 60), max_size=6
).map(Polynomial)
scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@settings(max_examples=150)
@given(st.one_of(polynomials(), integer_polynomials), scalars)
def test_scaling_matches_the_term_by_term_fraction_product(p, c):
    expected = {
        mono: Fraction(coeff) * c for mono, coeff in p.terms.items() if coeff * c
    }
    for product in (p * c, c * p):
        assert product.terms == expected
        for coeff in product.terms.values():
            # integral values are ints, the others Fractions
            assert type(coeff) is (int if coeff.denominator == 1 else Fraction)


def test_integral_coefficients_are_stored_as_ints():
    assert T1.terms == {var("t", 1): 1}
    assert type(next(iter(T1.terms.values()))) is int
    assert type(Polynomial.const(Fraction(6, 3)).terms[monomial()]) is int
    assert type(((T1 + S1) ** 3 * 2).terms[var("t", 1, 3)]) is int
    assert from_text("4/2*t1 + 1/2*s1").terms == {
        var("t", 1): 2,
        var("s", 1): Fraction(1, 2),
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



def text_by_nested_key(p: Polynomial) -> str:
    """p.to_text() by the first renderer: terms sorted on a key of
    ((family rank, index), exponent) pairs, each monomial printed item by
    item."""
    if not p.terms:
        return "0"

    def key(mono):
        return tuple(
            ((0 if family == "t" else 1, index), e)
            for (family, index), e in monomial_items(mono)
        )

    parts = []
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: key(kv[0])):
        factors = [str(coeff)]
        for (family, index), e in monomial_items(mono):
            factors.append(f"{family}{index}" if e == 1 else f"{family}{index}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def test_text_matches_the_nested_key_renderer_on_prefixes():
    # monomials that are prefixes of one another, two-digit indices (t10
    # sorts after t9, not after t1) and a constant term
    t = {i: Polynomial.variable("t", i) for i in (1, 2, 9, 10)}
    s = {i: Polynomial.variable("s", i) for i in (1, 10)}
    p = (
        t[1] + t[1] ** 2 + t[1] * t[2] + t[1] * t[2] ** 2 * Fraction(-3, 7)
        + t[1] * s[1] + t[9] * 4 - t[10] + s[1] * s[10] + s[10] ** 3
        + t[1] * t[2] * s[1] + Polynomial.const(Fraction(5, 2))
    )
    assert p.to_text() == text_by_nested_key(p)
    assert p.to_text().startswith("5/2 + 1*t1 + 1*t1*t2 + ")
    assert Polynomial.zero().to_text() == text_by_nested_key(Polynomial.zero()) == "0"


@settings(max_examples=150)
@given(polynomials(max_terms=12, max_index=11))
def test_text_matches_the_nested_key_renderer(p):
    assert p.to_text() == text_by_nested_key(p)


@settings(max_examples=80)
@given(polynomials())
def test_text_round_trip(p):
    assert from_text(p.to_text()) == p


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


def repeated_product(f: Series, exp: int) -> Series:
    """f^exp for exp >= 0 as exp plain products from 1, left to right: the
    oracle of the power table, which no power of f is read from."""
    result = Series.one(*f.orders())
    for _ in range(exp):
        result = result * f
    return result


def power_sum(f: Series, g: Series) -> Series:
    """sum_i f_i g^i with each power by repeated products, not by compose_x
    or the power table."""
    total = Series.zero(*g.orders())
    for (i, _, _), c in f.cells.items():
        total = total + repeated_product(g, i) * c
    return total


# a nonzero rational constant term as an int, a Fraction or a constant Polynomial
nonzero_constants = st.one_of(
    st.integers(-3, 3).filter(bool),
    nonzero_coefficients,
    nonzero_coefficients.map(Polynomial.const),
)


# exponents in the order a caller asks for them, repeats included, so that
# every way to the table is taken: a stored power, f^(e-1) * f, and squaring
exponent_orders = st.lists(st.integers(0, 7), min_size=1, max_size=8)


@settings(max_examples=120, deadline=None)
@given(series(), exponent_orders)
def test_the_power_table_matches_repeated_products(f, exponents):
    # numeric, symbolic and multigraded series, any constant term, zero too
    for exp in exponents:
        assert f.pow(exp) == repeated_product(f, exp), exp
    # a stored power is handed out again, not rebuilt
    assert all(f.pow(exp) is f.pow(exp) for exp in exponents if exp >= 1)
    assert f.pow(1) is f


@settings(max_examples=60, deadline=None)
@given(series(constant=nonzero_constants), exponent_orders)
def test_negative_powers_are_powers_of_the_one_reciprocal(f, exponents):
    inverse = f.reciprocal()
    for exp in exponents:
        assert f.pow(-exp) == repeated_product(inverse, exp), exp
        assert f.pow(-exp) * f.pow(exp) == Series.one(*f.orders())
    assert f.pow(-1) is f.pow(-1)


@settings(max_examples=60, deadline=None)
@given(
    series(gradings=st.just(1), max_order=5),
    series(constant=st.just(0)),
    exponent_orders,
)
def test_compose_x_shares_the_inner_power_table(f, g, exponents):
    # powers read before the substitution are the ones it sums, and the
    # powers it builds are the ones later readers get
    for exp in exponents:
        g.pow(exp)
    assert f.compose_x(g) == power_sum(f, g)
    for exp in exponents:
        assert g.pow(exp) == repeated_product(g, exp)


def test_the_h_run_series_powers_match_repeated_products():
    # zero constant term in y; one series per (d, order), shared by the
    # h-run factor and the closed value that compose with it
    for d in (1, 2, 3):
        for order in range(6):
            h = motzkin._h_run_series(d, order)
            assert h is motzkin._h_run_series(d, order)
            assert (0, 0, 0) not in h.cells
            for j in (3, 0, 5, 1, 2, 4):
                power = repeated_product(h, j)
                assert h.pow(j) == power
                assert motzkin.bary_h_factor_series(j, order, d) == power.coeff(0, order)


def test_each_power_is_built_once_from_the_stored_powers(monkeypatch):
    products = []
    multiply = Series.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    f = Series.from_x_coeffs([1, 2, 3, 4, 5, 6, 7, 8])

    def cost(exp):
        products.clear()
        f.pow(exp)
        return len(products)

    # no product for f^0 and f^1; f^4 by squaring twice, with no 1 * f
    assert [cost(0), cost(1), cost(4), cost(4)] == [0, 0, 2, 0]
    # f^5 = f^4 * f, f^3 = f^2 * f: one product each from the stored powers
    assert [cost(5), cost(3), cost(6)] == [1, 1, 1]
    # f^-2 from the reciprocal, formed once by its recurrence
    assert [cost(-2), cost(-2), cost(-3)] == [1, 0, 1]
    # f^8 from f^4 squared, f^7 = f^6 * f
    assert [cost(8), cost(7)] == [1, 1]


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


def geometric_reciprocal(f: Series) -> Series:
    """1/f as the geometric sum in -g for f = c0 (1 + g), by compose_x: the
    powers of g vanish past the total order of the box."""
    c0 = f.cells[(0, 0, 0)]
    if isinstance(c0, Polynomial):
        c0 = c0.constant_value()
    inverse = Fraction(1) / c0
    g = f.scale(inverse) - 1
    geometric = Series.from_x_coeffs([1] * (f.nx + f.ny + f.nq + 1))
    return geometric.compose_x(-g).scale(inverse)


@settings(max_examples=120, deadline=None)
@given(series(constant=nonzero_constants))
def test_reciprocal_is_the_geometric_sum(f):
    inverse = f.reciprocal()
    assert inverse.orders() == f.orders()
    assert inverse == geometric_reciprocal(f)
    assert f.pow(-2) == inverse.pow(2)


def test_reciprocal_of_the_composition_denominator(monkeypatch):
    # the sparse three-grading denominator that composition_series inverts
    denominators = []
    recurrence = Series.reciprocal

    def recorded(f):
        denominators.append(f)
        return recurrence(f)

    monkeypatch.setattr(Series, "reciprocal", recorded)
    for kind in ("symbolic", "stirling"):
        for top in range(6):
            lagrange.composition_series(motzkin.named_weights(kind), top, top, top)
    monkeypatch.undo()
    assert len(denominators) == 12
    for f in denominators:
        assert f.reciprocal() == geometric_reciprocal(f)


def test_reciprocal_errors_are_unchanged():
    message = "series reciprocal needs a nonzero rational constant term"
    for f in (
        Series.from_x_coeffs([0, 1]),
        Series((2, 1, 1), {(1, 1, 0): 3}),
        Series((1, 0, 0), {(0, 0, 0): T1}),
        Series((1, 1, 0), {(0, 0, 0): T1 + 1, (0, 1, 0): 2}),
    ):
        with pytest.raises(ValueError, match=message):
            f.reciprocal()
        with pytest.raises(ValueError, match=message):
            f.pow(-1)


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
    # an index is read as an integer, never truncated to one
    assert WeightSpec.from_tables({2.0: 5}, {}).entry("t", 2) == 5
    for t_table, s_table in (({1.5: 2}, {}), ({}, {Fraction(7, 2): 1})):
        with pytest.raises(ValueError, match="expected an integer value"):
            WeightSpec.from_tables(t_table, s_table)


def test_weightspec_symbolic_polys():
    w = WeightSpec.symbolic()
    assert w.t_rule(4) is SYMBOLIC
    assert w.entry("t", 4) == Polynomial.variable("t", 4)
    with pytest.raises(ValueError):
        w.entry("t", 0)
