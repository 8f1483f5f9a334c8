"""Partial Bell polynomials, potential polynomials, and binomial sequences.

This is the algebraic engine behind every closed form in the package: the
weighted path, composition, and matrix counts all reduce to partial Bell
polynomials B(n, r) of the weight variables and to potential polynomials
(coefficients of integer powers of a unit power series).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import EnumerationBoundError, factorial
from .polyring import Polynomial, Series, WeightSpec

PARTITION_SUM_BOUND = 30


def as_polynomial(value) -> Polynomial:
    """A weight-ring value (int, Fraction or Polynomial) as a Polynomial, the
    result type of every public Bell function and closed form."""
    return Polynomial._coerce(value)


class WeightVector:
    """Entries x_1, x_2, ... of one weight sequence and the partial Bell
    polynomials B(n, r) built from them.

    Every closed form in this package feeds the vector in the "k! times
    series coefficient" convention, i.e. entry k is k! times the k-th
    coefficient of the weight series; build those with from_weights.

    Rows grow on demand by the triangular recurrence (Comtet, Advanced
    Combinatorics, 1974, section 3.3)

        B(n, r) = sum_i C(n-1, i-1) * x_i * B(n-i, r-1),

    and every entry of the rule, every row and every potential polynomial
    is computed once.  The vector is ring-generic: entries may be ints,
    Fractions or Polynomials, zero is tested by truthiness and the empty sum
    is plain 0, so numeric weights stay rationals and symbolic ones stay
    polynomials on the same code path.
    """

    def __init__(self, rule):
        self._rule = rule
        self._entries: dict = {}
        self._rows = [(1,)]
        self._potentials: dict = {}

    def __getitem__(self, index: int):
        """x_index, evaluated by the rule on first use."""
        if index < 1:
            raise IndexError(f"weight vector indices start at 1, got {index}")
        if index not in self._entries:
            self._entries[index] = self._rule(index)
        return self._entries[index]

    def row(self, n: int) -> tuple:
        """(B(n, 0), B(n, 1), ..., B(n, n))."""
        if n < 0:
            raise ValueError(f"Bell table rows start at 0, got {n}")
        rows = self._rows
        for nn in range(len(rows), n + 1):
            xs = [None] + [self[i] for i in range(1, nn + 1)]
            binomials = [None] + [comb(nn - 1, i - 1) for i in range(1, nn + 1)]
            row = [0] * (nn + 1)
            for rr in range(1, nn + 1):
                acc = 0
                for i in range(1, nn - rr + 2):
                    prev = rows[nn - i][rr - 1]
                    if prev and xs[i]:
                        # one copy of the large prev, not two
                        acc = acc + prev * (xs[i] * binomials[i])
                row[rr] = acc
            rows.append(tuple(row))
        return rows[n]

    def bell(self, n: int, r: int):
        """B(n, r), with B(n, r) = 0 outside 0 <= r <= n."""
        if n < 0 or r < 0 or r > n:
            return 0
        return self.row(n)[r]

    def potential(self, n: int, power: int):
        """n! [x^n] A(x)^power for A(x) = 1 + sum_k (x_k / k!) x^k, as

            sum_{k=1..n} power (power-1) ... (power-k+1) * B(n, k),

        exact for every integer power, negative included.
        """
        if n == 0:
            return 1
        key = (n, power)
        if key not in self._potentials:
            row = self.row(n)
            total = 0
            falling = 1
            for k in range(1, n + 1):
                falling *= power - k + 1
                if not falling:
                    break
                if row[k]:
                    total = total + row[k] * falling
            self._potentials[key] = total
        return self._potentials[key]

    @classmethod
    def from_weights(cls, weights: WeightSpec, family: str) -> "WeightVector":
        """Entry k = k! * (weight k of the chosen family).

        Built once per spec and family, so every closed form evaluated over
        the same spec shares one set of Bell rows.
        """
        if family not in ("t", "s"):
            raise ValueError(f"unknown weight family {family!r}")
        if family not in weights.cache:
            weights.cache[family] = cls(
                lambda k: weights.entry(family, k) * factorial(k)
            )
        return weights.cache[family]

    @classmethod
    def constant(cls, value) -> "WeightVector":
        return cls(lambda k: value)

    @classmethod
    def from_entries(cls, entries) -> "WeightVector":
        entries = list(entries)

        def rule(k):
            if k > len(entries):
                raise IndexError(
                    f"weight vector has {len(entries)} entries, index {k} requested"
                )
            return entries[k - 1]

        return cls(rule)


def partial_bell(n: int, r: int, entries: WeightVector) -> Polynomial:
    """Partial Bell polynomial B(n, r) of the given entries.

    Conventions: B(0, 0) = 1, B(n, 0) = 0 for n > 0, and B(n, r) = 0 for
    r > n or r < 0.  Read from the vector's Bell rows, which are built by
    the triangular recurrence in polynomial time; the partition-sum
    evaluator below is the independent cross-check.
    """
    return as_polynomial(entries.bell(n, r))


def _partitions_with_parts(n: int, r: int):
    """Multiplicity maps {part: count} of the partitions of n into r parts."""

    def rec(remaining, parts_left, max_part, current):
        if parts_left == 0:
            if remaining == 0:
                yield dict(current)
            return
        if remaining < parts_left or remaining > parts_left * max_part:
            return
        for part in range(min(max_part, remaining - parts_left + 1), 0, -1):
            current[part] = current.get(part, 0) + 1
            yield from rec(remaining - part, parts_left - 1, part, current)
            current[part] -= 1
            if not current[part]:
                del current[part]

    yield from rec(n, r, n, {})


def partial_bell_by_partitions(n: int, r: int, entries: WeightVector) -> Polynomial:
    """B(n, r) evaluated literally as the sum over partitions of n into r parts:

        sum  n! / (r_1! r_2! ...) * prod (x_i / i!)^{r_i}

    over all nonnegative solutions of r_1 + r_2 + ... = r and
    r_1 + 2 r_2 + ... = n.  Exponential in n, so bounded; this is the
    independent evaluator the recurrence is checked against.
    """
    if n > PARTITION_SUM_BOUND:
        raise EnumerationBoundError(
            f"partition summation bound is n <= {PARTITION_SUM_BOUND}, got {n}"
        )
    if n < 0 or r < 0 or r > n:
        return Polynomial.zero()
    if n == 0:
        return Polynomial.const(1)
    total = Polynomial.zero()
    for multiplicities in _partitions_with_parts(n, r):
        coeff = Fraction(factorial(n))
        term = Polynomial.const(1)
        for part, count in multiplicities.items():
            coeff /= factorial(count) * factorial(part) ** count
            term = term * entries[part] ** count
        total = total + term * coeff
    return total


def potential(n: int, power: int, entries: WeightVector) -> Polynomial:
    """Potential polynomial: n! times the x^n coefficient of A(x)^power, where
    A(x) = 1 + sum_k (entry_k / k!) x^k.

    Assembled from partial Bell polynomials as

        sum_{k=1..n} C(power, k) * k! * B(n, k)

    which is exact for every integer power, negative included; non-integer
    powers are rejected rather than approximated.
    """
    if isinstance(power, Fraction):
        if power.denominator != 1:
            raise ValueError(f"potential polynomial power must be an integer, got {power}")
        power = power.numerator
    if not isinstance(power, int):
        raise ValueError(f"potential polynomial power must be an integer, got {power!r}")
    if n < 0:
        raise ValueError(f"potential polynomial order must be >= 0, got {n}")
    return as_polynomial(entries.potential(n, power))


def power_derivative(f: Series, m: int, i: int) -> Polynomial:
    """m-th derivative of f(x)^i at x = 0, i.e. m! * [x^m] f(x)^i.

    f must be univariate with constant term 1 and truncated at order >= m.
    """
    if not f.is_univariate():
        raise ValueError("power_derivative needs a univariate series")
    if f.coeff(0) != 1:
        raise ValueError("power_derivative needs constant term 1")
    if m > f.nx:
        raise IndexError(f"order {m} beyond series truncation {f.nx}")
    return f.pow(i).coeff(m) * factorial(m)


# all-ones entries: B(n, k) is the Stirling number S(n, k), kept as ints
_ONES = WeightVector.constant(1)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, as B(n, k) at all entries 1."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    return _ONES.bell(n, k)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set."""
    return sum(stirling2(n, k) for k in range(n + 1))


@dataclass(frozen=True)
class BinomialSequence:
    """A polynomial family phi_n with phi_0 = 1 and the convolution property

        phi_n(x + y) = sum_i C(n, i) phi_i(x) phi_{n-i}(y).

    Built-in kinds and their closed forms:
      power        phi_n(x) = x^n
      factorial    phi_n(x) = x (x+1) ... (x+n-1)
      abel(q)      phi_n(x) = x (x - q n)^{n-1}
      exponential  phi_n(x) = sum_i S(n, i) x^i

    The generic constructor takes the coefficients of an exponent series
    lam(u) with lam_1 != 0, defining phi_n(x) = n! [u^n] exp(x lam(u)).
    """

    kind: str
    q: Fraction | None = None
    exponent_coeffs: tuple | None = None

    @staticmethod
    def power() -> "BinomialSequence":
        return BinomialSequence("power")

    @staticmethod
    def factorial() -> "BinomialSequence":
        return BinomialSequence("factorial")

    @staticmethod
    def abel(q) -> "BinomialSequence":
        return BinomialSequence("abel", q=Fraction(q))

    @staticmethod
    def exponential() -> "BinomialSequence":
        return BinomialSequence("exponential")

    @staticmethod
    def from_exponent_series(coeffs) -> "BinomialSequence":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs or not coeffs[0]:
            raise ValueError("exponent series needs a nonzero linear coefficient")
        return BinomialSequence("generic", exponent_coeffs=coeffs)

    def value(self, n: int, x) -> Fraction:
        """phi_n(x) for an exact rational x."""
        if n < 0:
            raise ValueError(f"sequence index must be >= 0, got {n}")
        x = Fraction(x)
        if n == 0:
            return Fraction(1)
        if self.kind == "power":
            return x**n
        if self.kind == "factorial":
            result = Fraction(1)
            for i in range(n):
                result *= x + i
            return result
        if self.kind == "abel":
            return x * (x - self.q * n) ** (n - 1)
        if self.kind == "exponential":
            return Fraction(sum(stirling2(n, i) * x**i for i in range(n + 1)))
        if self.kind == "generic":
            return self._generic_value(n, x)
        raise ValueError(f"unknown binomial sequence kind {self.kind!r}")

    def _generic_value(self, n: int, x: Fraction) -> Fraction:
        if len(self.exponent_coeffs) < n:
            raise IndexError(
                f"exponent series has {len(self.exponent_coeffs)} coefficients, "
                f"index {n} requested"
            )
        lam = Series.from_x_coeffs([Fraction(0), *self.exponent_coeffs[:n]], nx=n)
        exp_x = Series.from_x_coeffs([x**j / factorial(j) for j in range(n + 1)])
        return exp_x.compose_x(lam).coeff(n).constant_value() * factorial(n)

    def name(self) -> str:
        if self.kind == "abel":
            return f"abel(q={self.q})"
        return self.kind
