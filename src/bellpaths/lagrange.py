"""Series reversion, Lagrange coefficient extraction, and the generating
functions for weighted Motzkin paths, compositions, and matrix compositions.

The generating functions are the independent series oracles for the closed
forms in the motzkin, compositions, and matrixcomp modules: each coefficient
is computed here purely by truncated series algebra (fixed-point iteration or
explicit expansion), never through the closed forms it is used to verify.
"""

from __future__ import annotations

from fractions import Fraction

from .polyring import Polynomial, Series, WeightSpec


def _check_reversible(f: Series, order: int) -> None:
    if not f.is_univariate():
        raise ValueError("reversion needs a univariate series")
    if f.nx < order:
        raise ValueError(f"series truncated at {f.nx}, order {order} requested")
    if not f.coeff(0).is_zero():
        raise ValueError("reversion needs zero constant term")
    f1 = f.coeff(1)
    if f1.is_zero():
        raise ValueError("reversion needs a nonzero linear coefficient")
    if not f1.is_constant() and f1 != 1:
        # general symbolic leading coefficients would drag polynomial
        # fractions into the coefficient ring
        raise ValueError("symbolic reversion is only supported when f_1 = 1")


def _x_over_f(f: Series, order: int) -> Series:
    """The series x / f(x) truncated at the given order."""
    # f is univariate with zero constant term, so every cell sits at i >= 1
    shifted = Series((order, 0, 0), {(i - 1, 0, 0): c for (i, _, _), c in f.cells.items()})
    return shifted.reciprocal()


def reversion(f: Series, order: int) -> Series:
    """Compositional inverse g of f, with f(g(x)) = x mod x^(order+1).

    Coefficients come from the inversion formula
        [x^n] g = (1/n) [x^{n-1}] (x / f(x))^n.
    """
    _check_reversible(f, order)
    h = _x_over_f(f, max(order - 1, 0))
    cells = {}
    for n in range(1, order + 1):
        cells[(n, 0, 0)] = h.pow(n).cells.get((n - 1, 0, 0), 0) * Fraction(1, n)
    return Series((order, 0, 0), cells)


def lagrange_coefficient(phi: Series, f: Series, n: int) -> Polynomial:
    """[x^n] phi(g(x)) where g is the compositional inverse of f, computed as

        (1/n) [x^{n-1}] phi'(x) (x / f(x))^n

    without constructing g.
    """
    if n < 1:
        raise ValueError(f"coefficient index must be >= 1, got {n}")
    if not phi.is_univariate():
        raise ValueError("lagrange_coefficient needs a univariate phi")
    if phi.nx < n:
        raise ValueError(f"phi truncated at {phi.nx}, order {n} requested")
    _check_reversible(f, n)
    h = _x_over_f(f, n - 1)
    product = phi.derivative_x().truncate(n - 1) * h.pow(n)
    return product.coeff(n - 1) * Fraction(1, n)


def _s_series(weights: WeightSpec, nx: int, ny: int, nq: int = 0) -> Series:
    cells = {(0, 0, 0): 1}
    for i in range(1, ny + 1):
        si = weights.entry("s", i)
        if si:
            cells[(0, i, 0)] = si
    return Series((nx, ny, nq), cells)


def _t_minus_one(weights: WeightSpec, nx: int, ny: int = 0, nq: int = 0) -> Series:
    cells = {}
    for i in range(1, nx + 1):
        ti = weights.entry("t", i)
        if ti:
            cells[(i, 0, 0)] = ti
    return Series((nx, ny, nq), cells)


def motzkin_series(weights: WeightSpec, nx: int, ny: int) -> Series:
    """Weighted Motzkin-path generating function.

    The coefficient of x^m y^k is the sum, over paths with m up-steps and k
    horizontal steps, of the product of t-weights of the up-run lengths and
    s-weights of the horizontal-run lengths.  Solved as the fixed point of

        M = T(z) / (1 - ((S(y) - 1) / S(y)) T(z)),   z = x M,

    starting from M = 1, with T(z) = t.compose_x(z) for T built once.  A
    pass gains one order of x, since z = x M reads M one order lower, so
    pass p runs at x-order p and pass nx gives the full box.  The result is
    checked against the equation M (1 - a T(xM)) = T(xM) at the full box; a
    failure is an internal bug.
    """
    one = Series.one(nx, ny)
    s = _s_series(weights, nx, ny)
    a = one - s.reciprocal()
    t = _t_minus_one(weights, nx) + 1
    m = one
    for order in range(nx + 1):
        # exact through x^(order-1); the shift reads no further
        tz = t.compose_x(Series((order, ny, 0), m.cells).shift(di=1))
        m = tz * (one - a * tz).reciprocal()
    tz = t.compose_x(m.shift(di=1))
    if m * (one - a * tz) != tz:
        raise RuntimeError("Motzkin fixed point does not solve its equation; this is a bug")
    return m


def composition_series(weights: WeightSpec, nx: int, ny: int, nq: int) -> Series:
    """Weighted compositions graded by sum (x), zero parts (y), and parts (q).

    Expanded from the closed rational form

        C = S(qy) / (1 + q S(qy) - q S(qy) T(x)).
    """
    sq_cells = {(0, 0, 0): 1}
    for i in range(1, min(ny, nq) + 1):
        si = weights.entry("s", i)
        if si:
            sq_cells[(0, i, i)] = si
    sq = Series((nx, ny, nq), sq_cells)
    t_minus_one = _t_minus_one(weights, nx, ny, nq)
    denom = Series.one(nx, ny, nq) - (sq * t_minus_one).shift(dl=1)
    return sq * denom.reciprocal()


def composition_series_fixed_parts(
    weights: WeightSpec, parts: int, nx: int, ny: int
) -> Series:
    """The fixed-parts slice of the composition series: coefficient of x^m y^k
    is the weighted count of compositions of m into exactly `parts` parts with
    k zero parts.  Assembled as

        sum_{i=0..parts} [y^{parts-i}] S(y)^{i+1} * y^{parts-i} (T(x) - 1)^i

    with both powers read from the power tables of S(y) and T(x) - 1; the
    sum stops at the first power of T(x) - 1 that vanishes.
    """
    if parts < 0:
        raise ValueError(f"parts must be >= 0, got {parts}")
    s = _s_series(weights, 0, ny)
    t_minus_one = _t_minus_one(weights, nx, ny)
    total = Series.zero(nx, ny)
    for i in range(parts + 1):
        power = t_minus_one.pow(i)
        if power.is_zero():
            break
        zeros = parts - i
        if zeros <= ny:
            coeff = s.pow(i + 1).coeff(0, zeros)
            if coeff:
                total = total + power.scale(coeff).shift(dj=zeros)
    return total


def bipartite_matrix_series(weights: WeightSpec, rows: int, cols: int, nx: int) -> Series:
    """Generating function for weighted bipartite matrix compositions with
    `rows` rows and `cols` columns, graded by total sum:

        ( sum_{i=0..cols} (T(x) - 1)^i ) ^ rows.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be >= 0")
    geometric = Series.from_x_coeffs([1] * (cols + 1))
    return geometric.compose_x(_t_minus_one(weights, nx)).pow(rows)


def matrix_composition_series(
    weights: WeightSpec, rows: int, cols: int, nx: int, ny: int
) -> Series:
    """Generating function for arbitrary weighted matrix compositions with
    `rows` rows and `cols` columns: the rows-th power of the fixed-parts
    composition series.  x grades the total sum, y the number of zero entries.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be >= 0")
    return composition_series_fixed_parts(weights, cols, nx, ny).pow(rows)
