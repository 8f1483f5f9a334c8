import random
from fractions import Fraction

import pytest

from bellpaths.lagrange import (
    bipartite_matrix_series,
    composition_series,
    composition_series_fixed_parts,
    lagrange_coefficient,
    matrix_composition_series,
    motzkin_series,
    reversion,
)
from bellpaths.bell import power_derivative
from bellpaths.polyring import Polynomial, Series, WeightSpec, specialize

from conftest import random_reversible_series

T1 = Polynomial.variable("t", 1)
T2 = Polynomial.variable("t", 2)
S1 = Polynomial.variable("s", 1)


def x_identity(order):
    return Series.from_x_coeffs([0, 1], nx=order)


def test_reversion_catalan():
    f = Series.from_x_coeffs([0, 1, -1], nx=6)
    g = reversion(f, 6)
    assert [g.coeff(i).constant_value() for i in range(7)] == [0, 1, 1, 2, 5, 14, 42]
    assert f.compose_x(g) == x_identity(6)


def test_reversion_identity():
    f = x_identity(5)
    assert reversion(f, 5) == f


def test_reversion_geometric():
    # f = x/(1-x) reverts to x/(1+x)
    f = Series.from_x_coeffs([0, 1, 1, 1, 1, 1], nx=5)
    g = reversion(f, 5)
    expected = Series.from_x_coeffs([0, 1, -1, 1, -1, 1], nx=5)
    assert g == expected
    assert f.compose_x(g) == x_identity(5)


def test_reversion_preconditions():
    with pytest.raises(ValueError):
        reversion(Series.from_x_coeffs([1, 1], nx=3), 3)  # nonzero constant
    with pytest.raises(ValueError):
        reversion(Series.from_x_coeffs([0, 0, 1], nx=3), 3)  # zero linear term
    symbolic_leading = Series((3, 0, 0), {(1, 0, 0): T1})
    with pytest.raises(ValueError):
        reversion(symbolic_leading, 3)


def test_reversion_symbolic_unit_leading_term():
    # f = x + t1 x^2 is revertible symbolically since f_1 = 1
    f = Series((4, 0, 0), {(1, 0, 0): Polynomial.const(1), (2, 0, 0): T1})
    g = reversion(f, 4)
    assert f.compose_x(g) == x_identity(4)
    assert g.coeff(2) == -T1


def test_round_trip_random_series(rng):
    for _ in range(50):
        f = random_reversible_series(rng, 20)
        g = reversion(f, 20)
        assert f.compose_x(g) == x_identity(20)


def test_lagrange_coefficient_square():
    # phi = x^2, f = x/(1+x): phi(g) = (x/(1-x))^2 has [x^4] = 3
    phi = Series.from_x_coeffs([0, 0, 1, 0, 0], nx=4)
    f = Series.from_x_coeffs([0, 1, -1, 1, -1], nx=4)
    assert lagrange_coefficient(phi, f, 4) == 3


def test_lagrange_coefficient_recovers_reversion(rng):
    for _ in range(10):
        f = random_reversible_series(rng, 10)
        g = reversion(f, 10)
        phi = x_identity(10)
        for n in range(1, 11):
            assert lagrange_coefficient(phi, f, n) == g.coeff(n)


def test_lagrange_coefficient_constant_phi():
    phi = Series.from_x_coeffs([1, 0, 0], nx=2)
    f = Series.from_x_coeffs([0, 1, 1], nx=2)
    assert lagrange_coefficient(phi, f, 2) == 0


def test_lagrange_coefficient_matches_composition(rng):
    for _ in range(10):
        f = random_reversible_series(rng, 10)
        phi = Series.from_x_coeffs(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(11)], nx=10
        )
        g = reversion(f, 10)
        composed = phi.compose_x(g)
        n = rng.randint(1, 10)
        assert lagrange_coefficient(phi, f, n) == composed.coeff(n)


def test_motzkin_series_catalan_slice():
    series = motzkin_series(WeightSpec.all_ones(), 4, 0)
    assert [series.coeff(m, 0).constant_value() for m in range(5)] == [1, 1, 2, 5, 14]


def test_motzkin_series_symbolic_cells():
    sym = WeightSpec.symbolic()
    assert motzkin_series(sym, 1, 1).coeff(1, 1) == T1 * S1 * 3
    series = motzkin_series(sym, 0, 4)
    for k in range(1, 5):
        assert series.coeff(0, k) == Polynomial.variable("s", k)


def test_motzkin_series_dyck_weights():
    dyck = WeightSpec(lambda i: Fraction(1), lambda i: Fraction(0), name="dyck")
    series = motzkin_series(dyck, 5, 3)
    for k in range(1, 4):
        for m in range(6):
            assert series.coeff(m, k) == 0
    assert series.coeff(5, 0).constant_value() == 42


def test_composition_series_cells():
    ones = WeightSpec.all_ones()
    series = composition_series(ones, 3, 3, 3)
    assert series.coeff(0, 0, 0) == 1
    for j in range(1, 4):
        assert series.coeff(0, j, j) == 1  # the all-zero composition
    assert series.coeff(2, 1, 3) == 3

    sym = WeightSpec.symbolic()
    assert composition_series(sym, 2, 1, 3).coeff(2, 1, 3) == T1**2 * S1 * 3


def test_fixed_parts_slice():
    sym = WeightSpec.symbolic()
    assert composition_series_fixed_parts(sym, 0, 3, 3) == Series.one(3, 3)

    one_part = composition_series_fixed_parts(sym, 1, 3, 2)
    assert one_part.coeff(0, 1) == S1
    assert one_part.coeff(1, 0) == T1
    assert one_part.coeff(2, 0) == T2
    assert one_part.coeff(0, 0) == 0

    full = composition_series(sym, 4, 4, 4)
    for j in range(5):
        slice_series = composition_series_fixed_parts(sym, j, 4, 4)
        for m in range(5):
            for k in range(5):
                assert slice_series.coeff(m, k) == full.coeff(m, k, j), (m, k, j)


def test_bipartite_series_cells():
    sym = WeightSpec.symbolic()
    assert bipartite_matrix_series(sym, 0, 3, 4) == Series.one(4)

    single_row = bipartite_matrix_series(sym, 1, 1, 4)
    for i in range(1, 5):
        assert single_row.coeff(i) == Polynomial.variable("t", i)

    two_rows = bipartite_matrix_series(sym, 2, 1, 4)
    assert two_rows.coeff(2) == T1**2 + T2 * 2


def test_bipartite_power_law():
    sym = WeightSpec.symbolic()
    for j in range(4):
        single = bipartite_matrix_series(sym, 1, j, 8)
        for p in range(4):
            assert bipartite_matrix_series(sym, p, j, 8) == single.pow(p)


def test_matrix_series_cells():
    sym = WeightSpec.symbolic()
    for j in range(4):
        assert matrix_composition_series(sym, 1, j, 3, 3) == (
            composition_series_fixed_parts(sym, j, 3, 3)
        )
    assert matrix_composition_series(sym, 0, 2, 3, 3) == Series.one(3, 3)

    ones = WeightSpec.all_ones()
    assert matrix_composition_series(ones, 2, 1, 1, 1).coeff(1, 1) == 2


def test_numeric_series_cells_stay_rationals():
    def numeric(series):
        return not any(isinstance(c, Polynomial) for c in series.cells.values())

    f = Series.from_x_coeffs([Fraction(2), Fraction(-1, 3), Fraction(5, 4), 0, 1])
    g = f.pow(-3)
    assert numeric(g)
    assert numeric(f.reciprocal())
    assert numeric(f * g + g.shift(di=2) - 1)
    assert g * f.pow(3) == Series.one(4)
    f_reversible = Series.from_x_coeffs([0, 1, Fraction(1, 2), 3])
    assert numeric(reversion(f_reversible, 3))

    ones = motzkin_series(WeightSpec.all_ones(), 6, 6)
    assert numeric(ones)
    sym = motzkin_series(WeightSpec.symbolic(), 6, 6)
    for m in range(7):
        for k in range(7):
            assert ones.coeff(m, k) == specialize(sym.coeff(m, k), WeightSpec.all_ones())

    # the public readers still hand out Polynomials
    unit = Series.from_x_coeffs([1, Fraction(1, 2), 3], nx=2)
    assert isinstance(unit.coeff(1), Polynomial)
    assert isinstance(unit.coeff(2, 0, 0), Polynomial)
    assert isinstance(power_derivative(unit, 2, 3), Polynomial)
    assert isinstance(lagrange_coefficient(unit, f_reversible, 2), Polynomial)
    with pytest.raises(TypeError):
        Series.from_x_coeffs([1, 0.5])
