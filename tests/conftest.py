import random
from fractions import Fraction

import pytest

from bellpaths import lagrange
from bellpaths.polyring import Polynomial, Series


def random_reversible_series(rng: random.Random, order: int) -> Series:
    """Univariate rational series with zero constant and nonzero linear term."""
    f1 = Fraction(0)
    while not f1:
        f1 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    coeffs = [Fraction(0), f1]
    coeffs += [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order - 1)]
    return Series.from_x_coeffs(coeffs, nx=order)


def off_by_one_matrix_series(weights, rows, cols, nx):
    """lagrange.bipartite_matrix_series with one term too many in the
    geometric sum of a row: a wrong builder the power-law checks must see."""
    geometric = Series.from_x_coeffs([1] * (cols + 2))
    return geometric.compose_x(lagrange._t_minus_one(weights, nx)).pow(rows)


def symbolic_t_entry(k: int) -> Polynomial:
    return Polynomial.variable("t", k)


@pytest.fixture
def rng():
    return random.Random(987654321)
