"""Multivariate polynomials in the weight variables t1, t2, ... and
s1, s2, ... with exact int or Fraction coefficients (integral values are
stored as ints, so integer arithmetic never builds a Fraction), and truncated
formal power series in up to three grading variables (x, y, and a
part-marking grade) whose coefficients are weight-ring values: ints,
Fractions or Polynomials.

Terms are kept in a canonical order so printed output and comparisons are
byte-stable.  Series store explicit truncation orders; reading a coefficient
beyond the truncation box is an error, never a fabricated zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

_FAMILIES = ("t", "s")


def _var_key(var):
    family, index = var
    return (0 if family == "t" else 1, index)


class Monomial:
    """Product of weight variables with positive integer exponents.

    Stored as a tuple of ((family, index), exponent) pairs sorted by family
    (t before s) and then index.  Zero exponents are never stored; the empty
    tuple is the constant monomial.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, items=()):
        pairs = []
        for var, exp in items:
            exp = int(exp)
            if exp == 0:
                continue
            family, index = var
            if family not in _FAMILIES:
                raise ValueError(f"unknown variable family {family!r}")
            if index < 1:
                raise ValueError(f"variable index must be >= 1, got {index}")
            if exp < 0:
                raise ValueError(f"negative exponent {exp} on {family}{index}")
            pairs.append(((family, index), exp))
        pairs.sort(key=lambda p: _var_key(p[0]))
        self.items = tuple(pairs)
        self._hash = hash(self.items)

    @staticmethod
    def variable(family: str, index: int, exp: int = 1) -> "Monomial":
        return Monomial((((family, index), exp),))

    def __mul__(self, other: "Monomial") -> "Monomial":
        b = other.items
        if not b:
            return self
        a = self.items
        if not a:
            return other
        # both item tuples are canonical, so one linear merge in the
        # canonical variable order (t before s, then index) gives a
        # canonical product; plain tuple order would put s before t
        merged = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                merged.append((va, ea + eb))
                i += 1
                j += 1
            elif (va[1] < vb[1]) if va[0] == vb[0] else (va[0] == "t"):
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        merged.extend(a[i:])
        merged.extend(b[j:])
        out = Monomial.__new__(Monomial)
        out.items = items = tuple(merged)
        out._hash = hash(items)
        return out

    def __pow__(self, exp: int) -> "Monomial":
        if exp < 0:
            raise ValueError("monomials only take nonnegative powers")
        return Monomial((var, e * exp) for var, e in self.items)

    def weighted_degree(self, family: str) -> int:
        """Sum of index * exponent over the variables of one family."""
        return sum(idx * e for (fam, idx), e in self.items if fam == family)

    def sort_key(self):
        return tuple((_var_key(var), e) for var, e in self.items)

    def to_text(self) -> str:
        """e.g. "t1^2*s3"; the unit monomial prints as "1"."""
        factors = []
        for (family, index), e in self.items:
            name = f"{family}{index}"
            factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors) or "1"

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.items == other.items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.to_text()})"


_MONOMIAL_ONE = Monomial()


def _coerce_coeff(value) -> int | Fraction:
    """An exact coefficient, with integral values as ints."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"polynomial coefficients must be exact rationals, got {value!r}")


class Polynomial:
    """Exact multivariate polynomial: a finite map Monomial -> int or
    Fraction.

    Integral values enter as ints, so integer polynomials never build a
    Fraction; a Fraction result that happens to be integral may stay a
    Fraction, which compares, hashes and prints like the int.  Zero
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
        return Polynomial({_MONOMIAL_ONE: _coerce_coeff(value)})

    @staticmethod
    def variable(family: str, index: int) -> "Polynomial":
        return Polynomial({Monomial.variable(family, index): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _MONOMIAL_ONE in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction (so that
        `/` on it stays exact); rejects non-constant input."""
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self.terms[_MONOMIAL_ONE])
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
            out.terms = {mono: coeff * c for mono, coeff in self.terms.items()}
            return out
        other = Polynomial._coerce(other)
        ta, tb = self.terms, other.terms
        out = Polynomial.__new__(Polynomial)
        # one-term factor: multiplying by a fixed monomial is injective and
        # nonzero exact coefficients have a nonzero product, so no merging
        if len(tb) == 1:
            ((m2, c2),) = tb.items()
            out.terms = {m1 * m2: c1 * c2 for m1, c1 in ta.items()}
            return out
        if len(ta) == 1:
            ((m1, c1),) = ta.items()
            out.terms = {m1 * m2: c1 * c2 for m2, c2 in tb.items()}
            return out
        result = {}
        for m1, c1 in ta.items():
            for m2, c2 in tb.items():
                mono = m1 * m2
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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def to_text(self) -> str:
        """Canonical text form, e.g. "3*t1*s1" or "1/2 + -2*t2^3".

        Coefficients print as "p" or "p/q"; exponent 1 is left implicit; the
        zero polynomial prints as "0".  The form round-trips bit-exactly
        through from_text.
        """
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            text = str(coeff)
            if mono.items:
                text += "*" + mono.to_text()
            parts.append(text)
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "Polynomial":
        text = text.strip()
        if text == "0":
            return cls.zero()
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
                if len(name) < 2 or name[0] not in _FAMILIES:
                    raise ValueError(f"bad variable token {tok!r}")
                items.append(((name[0], int(name[1:])), exp))
            mono = Monomial(items)
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(terms)

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
    def from_tables(t_table, s_table, default=Fraction(0), name="table") -> "WeightSpec":
        """Finite tables {index: value}; indices not listed get `default`."""
        t_map = {int(k): v for k, v in t_table.items()}
        s_map = {int(k): v for k, v in s_table.items()}
        return WeightSpec(
            lambda i: t_map.get(i, default),
            lambda i: s_map.get(i, default),
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
        for (family, index), exp in mono.items:
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
    one substitution loop: the reciprocal and every power sum a series
    builder needs (T(xM), a geometric sum, exp(x lam)) go through it.
    """

    __slots__ = ("nx", "ny", "nq", "cells")

    def __init__(self, orders, cells=None):
        if isinstance(orders, int):
            orders = (orders, 0, 0)
        while len(orders) < 3:
            orders = (*orders, 0)
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
        return Series(orders, cells)

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
        as such or as a constant Polynomial."""
        c0 = self.cells.get((0, 0, 0), 0)
        if isinstance(c0, Polynomial) and c0.is_constant():
            c0 = c0.constant_value()
        if isinstance(c0, Polynomial) or not c0:
            raise ValueError(
                "series reciprocal needs a nonzero rational constant term"
            )
        inverse = Fraction(1) / c0
        # f = c0 (1 + g) with g of positive total order, so 1/f is the
        # geometric series in -g; its powers vanish past the total order.
        g = self.scale(inverse) - 1
        geometric = Series.from_x_coeffs([1] * (self.nx + self.ny + self.nq + 1))
        return geometric.compose_x(-g).scale(inverse)

    def pow(self, exp: int) -> "Series":
        if exp < 0:
            return self.reciprocal().pow(-exp)
        result = Series.one(self.nx, self.ny, self.nq)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

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
        grading.  The sum stops at the first power of `inner` that vanishes."""
        if not self.is_univariate():
            raise ValueError("compose_x needs a univariate outer series")
        if (0, 0, 0) in inner.cells:
            raise ValueError("compose_x needs an inner series with zero constant term")
        result = Series.zero(*inner.orders()) + self.cells.get((0, 0, 0), 0)
        power = Series.one(*inner.orders())
        for i in range(1, self.nx + 1):
            power = power * inner
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
