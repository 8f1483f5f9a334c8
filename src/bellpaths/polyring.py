"""Multivariate polynomials in the weight variables t1, t2, ... and
s1, s2, ... with exact int or Fraction coefficients (integral values are
stored as ints, so integer arithmetic never builds a Fraction), and truncated
formal power series in up to three grading variables (x, y, and a
part-marking grade) whose coefficients are weight-ring values: ints,
Fractions or Polynomials.

A monomial is its own dict key: the sorted tuple of its packed items, one
int per variable, (s-bit | index << _E | exponent) with fixed-width fields
(a packed exponent vector per variable; Monagan and Pearce, CASC 2007).
Int order is (t before s, index, exponent), so key order is the canonical
print order, a shorter key first when it is a prefix, and the unit monomial
is ().  Keys hash in C, a product whose variables do not interleave is one
tuple concatenation, and a shared variable adds its exponent fields.  Python
ints never wrap, so an exponent or index too wide for its field is refused,
never carried into the next field.

Terms are kept in a canonical order so printed output and comparisons are
byte-stable.  Series store explicit truncation orders; reading a coefficient
beyond the truncation box is an error, never a fabricated zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .core import as_integer

_FAMILIES = ("t", "s")

# field widths of a packed item: exponent, index, then the family bit
_E = 15
_EXPONENT = (1 << _E) - 1
_INDEX_BITS = 14
_S = 1 << (_E + _INDEX_BITS)


def monomial(items=()) -> tuple:
    """The key of the product of family_index^exponent over the
    ((family, index), exponent) pairs; a repeated variable's exponents add,
    a zero exponent is left out."""
    exponents = {}
    for (family, index), exp in items:
        exp = as_integer(exp)
        if exp == 0:
            continue
        if family not in _FAMILIES:
            raise ValueError(f"unknown variable family {family!r}")
        index = as_integer(index)
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        if exp < 0:
            raise ValueError(f"negative exponent {exp} on {family}{index}")
        if index >> _INDEX_BITS:
            raise ValueError(f"variable index {index} does not fit {_INDEX_BITS} bits")
        var = (_S if family == "s" else 0) | index << _E
        exponents[var] = exponents.get(var, 0) + exp
    for var, exp in exponents.items():
        if exp > _EXPONENT:
            raise ValueError(f"exponent {exp} of {_name(var)} does not fit {_E} bits")
    return tuple(sorted(var | exp for var, exp in exponents.items()))


def _name(item: int) -> str:
    return f"{'s' if item & _S else 't'}{(item & ~_S) >> _E}"


class _ItemTexts(dict):
    """Packed item -> its text, e.g. "t1" or "s3^2", made on first lookup.
    A text depends on its item alone, so one table serves every call; it
    holds one string per distinct item ever printed."""

    def __missing__(self, item):
        exp = item & _EXPONENT
        text = self[item] = _name(item) if exp == 1 else f"{_name(item)}^{exp}"
        return text


_ITEM_TEXTS = _ItemTexts()


def monomial_items(key: tuple) -> tuple:
    """The ((family, index), exponent) pairs of a monomial key, in
    canonical order."""
    return tuple(
        (("s" if item & _S else "t", (item & ~_S) >> _E), item & _EXPONENT)
        for item in key
    )


def monomial_text(key: tuple) -> str:
    """e.g. "t1^2*s3"; the unit monomial prints as "1"."""
    return "*".join(map(_ITEM_TEXTS.__getitem__, key)) or "1"


def weighted_degree(key: tuple, family: str) -> int:
    """Sum of index * exponent over the variables of one family."""
    return sum(index * exp for (fam, index), exp in monomial_items(key) if fam == family)


def _times(a: tuple, b: tuple) -> tuple:
    """The key of the product of two monomial keys: their concatenation
    when every variable of one comes before every variable of the other,
    else one merge that adds the exponent fields of a shared variable."""
    if not a or not b:
        return a or b
    if a[-1] | _EXPONENT < b[0]:
        return a + b
    if b[-1] | _EXPONENT < a[0]:
        return b + a
    merged = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x >> _E == y >> _E:
            exp = (x & _EXPONENT) + (y & _EXPONENT)
            if exp > _EXPONENT:
                raise ValueError(f"exponent {exp} of {_name(x)} does not fit {_E} bits")
            merged.append(x + (y & _EXPONENT))
            i += 1
            j += 1
        elif x < y:
            merged.append(x)
            i += 1
        else:
            merged.append(y)
            j += 1
    return (*merged, *a[i:], *b[j:])


def _coerce_coeff(value) -> int | Fraction:
    """An exact coefficient, with integral values as ints."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"polynomial coefficients must be exact rationals, got {value!r}")


class Polynomial:
    """Exact multivariate polynomial: a finite map from monomial keys (see
    `monomial`) to ints or Fractions.

    Integral values enter as ints, so integer polynomials never build a
    Fraction, and scaling by an int or an exact rational also keeps
    integral coefficients as ints; only a sum or product of two polynomials
    with Fraction coefficients may leave an integral Fraction, which
    compares, hashes and prints like the int.  Zero
    coefficients are never stored, so structural equality after
    normalization is exact mathematical equality.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                c = _coerce_coeff(coeff)
                if c:
                    cleaned[mono] = c
        self.terms = cleaned

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(value) -> "Polynomial":
        return Polynomial({(): _coerce_coeff(value)})

    @staticmethod
    def variable(family: str, index: int) -> "Polynomial":
        return Polynomial({monomial((((family, index), 1),)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction (so that
        `/` on it stays exact); rejects non-constant input."""
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self.terms[()])
        raise ValueError(f"polynomial {self} is not constant")

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.const(value)

    def __add__(self, other):
        other = Polynomial._coerce(other)
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = result.get(mono, 0) + coeff
            if new:
                result[mono] = new
            else:
                result.pop(mono, None)
        out = Polynomial.__new__(Polynomial)
        out.terms = result
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.terms = {mono: -coeff for mono, coeff in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-Polynomial._coerce(other))

    def __rsub__(self, other):
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_coeff(other)
            if not c:
                return Polynomial.zero()
            out = Polynomial.__new__(Polynomial)
            if isinstance(c, int):
                out.terms = {
                    mono: v * c if type(v) is int else _coerce_coeff(v * c)
                    for mono, v in self.terms.items()
                }
                return out
            # by p/q exactly: an int coefficient that q divides stays an int,
            # and one that it does not gives a non-integral Fraction, as
            # gcd(p, q) = 1
            p, q = c.numerator, c.denominator
            out.terms = {
                mono: (v // q * p if not v % q else Fraction(v * p, q))
                if type(v) is int else _coerce_coeff(v * c)
                for mono, v in self.terms.items()
            }
            return out
        other = Polynomial._coerce(other)
        ta, tb = self.terms, other.terms
        out = Polynomial.__new__(Polynomial)
        # one-term factor: multiplying by a fixed monomial is injective and
        # nonzero exact coefficients have a nonzero product, so no merging
        if len(tb) == 1:
            ((m2, c2),) = tb.items()
            out.terms = {_times(m1, m2): c1 * c2 for m1, c1 in ta.items()}
            return out
        if len(ta) == 1:
            ((m1, c1),) = ta.items()
            out.terms = {_times(m1, m2): c1 * c2 for m2, c2 in tb.items()}
            return out
        result = {}
        for m1, c1 in ta.items():
            for m2, c2 in tb.items():
                mono = _times(m1, m2)
                new = result.get(mono, 0) + c1 * c2
                if new:
                    result[mono] = new
                else:
                    del result[mono]
        out.terms = result
        return out

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("polynomials only take nonnegative powers")
        result = Polynomial.const(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def to_text(self) -> str:
        """Canonical text form, e.g. "3*t1*s1" or "1/2 + -2*t2^3".

        Coefficients print as "p" or "p/q"; exponent 1 is left implicit; the
        zero polynomial prints as "0".  Terms come in the canonical order of
        their monomials, which is the order of their keys.  The form
        round-trips bit-exactly through the parser of the polyring tests.
        """
        if not self.terms:
            return "0"
        terms = self.terms
        text_of = _ITEM_TEXTS.__getitem__
        return " + ".join([
            "*".join([str(terms[key]), *map(text_of, key)])
            for key in sorted(terms)
        ])

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.to_text()})"


class _SymbolicMarker:
    """Sentinel meaning "keep this weight as its symbolic variable"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "SYMBOLIC"


SYMBOLIC = _SymbolicMarker()


@dataclass(frozen=True)
class WeightSpec:
    """Assignment of a value to every weight t_i and s_i, i >= 1.

    Each rule maps an index to either SYMBOLIC (keep the variable itself) or
    an exact rational value.  Rules, not tables, because the weight series
    are infinite and get truncated on demand.
    """

    t_rule: Callable[[int], object]
    s_rule: Callable[[int], object]
    name: str = "custom"
    # (family, index) -> entry, and family -> the bell.WeightVector built by
    # bell.WeightVector.from_weights, so each rule index is evaluated once
    # and every closed form over the spec shares one Bell table per family
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def entry(self, family: str, index: int):
        """Weight `family`_index as an exact int (integral values) or
        Fraction, or as its variable when the rule keeps it SYMBOLIC; each
        index is evaluated once."""
        key = (family, index)
        if key not in self.cache:
            if family not in _FAMILIES:
                raise ValueError(f"unknown weight family {family!r}")
            if index < 1:
                raise ValueError(f"weight index must be >= 1, got {index}")
            value = (self.t_rule if family == "t" else self.s_rule)(index)
            if value is SYMBOLIC:
                value = Polynomial.variable(family, index)
            else:
                value = _coerce_coeff(value)
            self.cache[key] = value
        return self.cache[key]

    @staticmethod
    def symbolic() -> "WeightSpec":
        return WeightSpec(lambda i: SYMBOLIC, lambda i: SYMBOLIC, name="symbolic")

    @staticmethod
    def all_ones() -> "WeightSpec":
        one = Fraction(1)
        return WeightSpec(lambda i: one, lambda i: one, name="all-ones")

    @staticmethod
    def from_tables(t_table, s_table, name="table") -> "WeightSpec":
        """Finite tables {index: value}; indices not listed get 0."""
        t_map = {as_integer(k): v for k, v in t_table.items()}
        s_map = {as_integer(k): v for k, v in s_table.items()}
        return WeightSpec(
            lambda i: t_map.get(i, 0),
            lambda i: s_map.get(i, 0),
            name=name,
        )


def specialize(poly: Polynomial, weights: WeightSpec) -> Fraction:
    """Exact evaluation of a polynomial under a fully numeric weight spec.

    Every variable occurring in the polynomial must be assigned a rational;
    a SYMBOLIC assignment is an error.
    """
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for (family, index), exp in monomial_items(mono):
            w = weights.entry(family, index)
            if isinstance(w, Polynomial):
                raise ValueError(
                    f"no numeric value for {family}{index} under weights "
                    f"{weights.name!r}"
                )
            value *= w**exp
        total += value
    return total


class Series:
    """Truncated formal power series whose coefficients are weight-ring
    values: ints, Fractions or Polynomials in the weight variables.

    Grading variables are x, y, and a third part-marking grade; a univariate
    series is the ny = nq = 0 case.  Only nonzero cells are stored, but the
    truncation box is explicit: arithmetic discards anything beyond it, and
    coefficient reads outside it raise IndexError.

    Cells keep the ring value they are given, zero is tested by truthiness
    and any operand that is not a Series is a scalar, so numeric series stay
    rationals and symbolic ones stay polynomials on the same code path.
    coeff is the one public reader and returns a Polynomial.  No series is
    changed after construction, so scale(1) returns self.  compose_x is the
    one substitution loop: every power sum a series builder needs (T(xM), a
    geometric sum) goes through it; the reciprocal is a coefficient
    recurrence.

    Each series keeps a table of the powers f^e (e >= 2) that pow has built
    from it, and its reciprocal, the base of every negative power.  The
    table lives exactly as long as the series: every caller holding the
    series shares its powers (compose_x reads the inner series' powers from
    it), and they go when the series goes.  A power is stored whole, by one
    dict assignment, so a series may be shared between threads; racing
    builders compute identical exact values.
    """

    __slots__ = ("nx", "ny", "nq", "cells", "_powers")

    def __init__(self, orders, cells=None):
        nx, ny, nq = orders
        if nx < 0 or ny < 0 or nq < 0:
            raise ValueError(f"truncation orders must be >= 0, got {orders}")
        self.nx, self.ny, self.nq = nx, ny, nq
        cleaned = {}
        if cells:
            for key, value in cells.items():
                i, j, l = key
                if i > nx or j > ny or l > nq:
                    continue
                if i < 0 or j < 0 or l < 0:
                    raise ValueError(f"negative series index {key}")
                if not isinstance(value, (int, Fraction, Polynomial)):
                    raise TypeError(
                        f"series coefficients must be exact ring values, got {value!r}"
                    )
                if value:
                    cleaned[(i, j, l)] = value
        self.cells = cleaned
        self._powers = None

    @staticmethod
    def _direct(orders, cells) -> "Series":
        """A series from nonzero ring-value cells already inside the box, with
        none of the constructor's checks."""
        out = Series.__new__(Series)
        out.nx, out.ny, out.nq = orders
        out.cells = cells
        out._powers = None
        return out

    @staticmethod
    def zero(nx: int, ny: int = 0, nq: int = 0) -> "Series":
        return Series((nx, ny, nq))

    @staticmethod
    def one(nx: int, ny: int = 0, nq: int = 0) -> "Series":
        return Series((nx, ny, nq), {(0, 0, 0): 1})

    @staticmethod
    def from_x_coeffs(coeffs, nx: int | None = None) -> "Series":
        """Univariate series from a list of x-coefficients c0, c1, ..."""
        coeffs = list(coeffs)
        if nx is None:
            nx = len(coeffs) - 1
        return Series((nx, 0, 0), {(i, 0, 0): c for i, c in enumerate(coeffs)})

    def orders(self):
        return (self.nx, self.ny, self.nq)

    def is_univariate(self) -> bool:
        return self.ny == 0 and self.nq == 0

    def coeff(self, i: int, j: int = 0, l: int = 0) -> Polynomial:
        """The stored coefficient of x^i y^j q^l; out-of-truncation is an error."""
        if not (0 <= i <= self.nx and 0 <= j <= self.ny and 0 <= l <= self.nq):
            raise IndexError(
                f"coefficient ({i},{j},{l}) outside truncation "
                f"({self.nx},{self.ny},{self.nq})"
            )
        return Polynomial._coerce(self.cells.get((i, j, l), 0))

    def is_zero(self) -> bool:
        return not self.cells

    def _min_orders(self, other):
        return (
            min(self.nx, other.nx),
            min(self.ny, other.ny),
            min(self.nq, other.nq),
        )

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series(self.orders(), {(0, 0, 0): other})
        # the constructor drops cells past the smaller box and zero sums
        cells = dict(self.cells)
        for key, value in other.cells.items():
            cells[key] = cells[key] + value if key in cells else value
        return Series(self._min_orders(other), cells)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.orders(), {k: -p for k, p in self.cells.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        orders = self._min_orders(other)
        nx, ny, nq = orders
        cells = {}
        for (i1, j1, l1), p1 in self.cells.items():
            for (i2, j2, l2), p2 in other.cells.items():
                i, j, l = i1 + i2, j1 + j2, l1 + l2
                if i > nx or j > ny or l > nq:
                    continue
                key = (i, j, l)
                if key in cells:
                    cells[key] = cells[key] + p1 * p2
                else:
                    cells[key] = p1 * p2
        return Series._direct(orders, {key: value for key, value in cells.items() if value})

    __rmul__ = __mul__

    def scale(self, value) -> "Series":
        if not value:
            return Series(self.orders())
        if value == 1:
            return self
        return Series(self.orders(), {k: p * value for k, p in self.cells.items()})

    def shift(self, di: int = 0, dj: int = 0, dl: int = 0) -> "Series":
        """Multiply by x^di y^dj q^dl, discarding cells pushed past truncation."""
        cells = {}
        for (i, j, l), p in self.cells.items():
            key = (i + di, j + dj, l + dl)
            if key[0] <= self.nx and key[1] <= self.ny and key[2] <= self.nq:
                cells[key] = p
        return Series(self.orders(), cells)

    def truncate(self, nx: int, ny: int = 0, nq: int = 0) -> "Series":
        if nx > self.nx or ny > self.ny or nq > self.nq:
            raise ValueError("cannot extend a truncated series")
        return Series((nx, ny, nq), dict(self.cells))

    def reciprocal(self) -> "Series":
        """1/f for a series whose constant term is a nonzero rational, given
        as such or as a constant Polynomial.

        By the coefficient recurrence h_0 = 1/c0 and
        h_key = -(1/c0) sum_{a != 0, a <= key} f_a h_(key-a), with the keys of
        the box taken in lexicographic order, so that every h_(key-a) is
        final before h_key is formed."""
        c0 = self.cells.get((0, 0, 0), 0)
        if isinstance(c0, Polynomial) and c0.is_constant():
            c0 = c0.constant_value()
        if isinstance(c0, Polynomial) or not c0:
            raise ValueError(
                "series reciprocal needs a nonzero rational constant term"
            )
        inverse = _coerce_coeff(Fraction(1) / c0)
        negated = -inverse
        nx, ny, nq = self.orders()
        terms = [(key, value) for key, value in self.cells.items() if any(key)]
        # each h_key, once known, adds f_a h_key to the pending sum of key + a
        pending = {}
        cells = {}
        for i in range(nx + 1):
            for j in range(ny + 1):
                for l in range(nq + 1):
                    if i or j or l:
                        total = pending.pop((i, j, l), 0)
                        if not total:
                            continue
                        h = cells[(i, j, l)] = total * negated
                    else:
                        h = cells[(0, 0, 0)] = inverse
                    for (a, b, c), value in terms:
                        key = (i + a, j + b, l + c)
                        if key[0] <= nx and key[1] <= ny and key[2] <= nq:
                            pending[key] = (
                                pending[key] + value * h if key in pending else value * h
                            )
        return Series._direct((nx, ny, nq), cells)

    def pow(self, exp: int) -> "Series":
        """f^exp, read from the power table when it holds it.

        A new power f^e is f^(e-1) * f when f^(e-1) is stored, and otherwise
        built by squaring: (f^(e/2))^2 for even e, f^(e-1) * f for odd e,
        storing every power formed on the way (the binary method, Knuth,
        TAOCP vol. 2, section 4.6.3).  A negative power is a power of the
        stored reciprocal."""
        if exp < 0:
            return self._power(-1).pow(-exp)
        if exp == 0:
            return Series.one(self.nx, self.ny, self.nq)
        if exp == 1:
            return self
        return self._power(exp)

    def _power(self, exp: int) -> "Series":
        """The stored f^exp, exp >= 2 or exp = -1 (the reciprocal), built
        on first use."""
        powers = self._powers
        if powers is None:
            powers = self._powers = {}
        power = powers.get(exp)
        if power is None:
            power = powers[exp] = self._build_power(exp)
        return power

    def _build_power(self, exp: int) -> "Series":
        """A new f^exp for _power, from the powers stored so far."""
        if exp < 0:
            return self.reciprocal()
        if exp % 2 == 0 and exp > 2 and exp - 1 not in self._powers:
            half = self.pow(exp // 2)
            return half * half
        return self.pow(exp - 1) * self

    def derivative_x(self) -> "Series":
        """d/dx, with the truncation order in x reduced by one."""
        if self.nx == 0:
            return Series((0, self.ny, self.nq))
        cells = {}
        for (i, j, l), p in self.cells.items():
            if i >= 1:
                cells[(i - 1, j, l)] = p * i
        return Series((self.nx - 1, self.ny, self.nq), cells)

    def compose_x(self, inner: "Series") -> "Series":
        """Substitute a series with zero constant term for x in a univariate
        one: sum_i c_i inner^i in the box of `inner`, which may have any
        grading.  The powers are read from the power table of `inner`, so
        they are shared with its other readers, and the sum stops at the
        first power that vanishes."""
        if not self.is_univariate():
            raise ValueError("compose_x needs a univariate outer series")
        if (0, 0, 0) in inner.cells:
            raise ValueError("compose_x needs an inner series with zero constant term")
        result = Series.zero(*inner.orders()) + self.cells.get((0, 0, 0), 0)
        for i in range(1, self.nx + 1):
            power = inner.pow(i)
            if power.is_zero():
                break
            ci = self.cells.get((i, 0, 0))
            if ci:
                result = result + power.scale(ci)
        return result

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.orders() == other.orders() and self.cells == other.cells

    __hash__ = None

    def __repr__(self):
        body = ", ".join(
            f"x^{i}y^{j}q^{l}: {p}" for (i, j, l), p in sorted(self.cells.items())
        )
        return f"Series(orders={self.orders()}, {{{body}}})"
