"""Partial Bell polynomials, potential polynomials, and binomial sequences.

This is the algebraic engine behind every closed form in the package: the
weighted path, composition, and matrix counts all reduce to partial Bell
polynomials B(n, r) of the weight variables and to potential polynomials
(coefficients of integer powers of a unit power series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .core import EnumerationBoundError, factorial
from .polyring import Polynomial, Series, WeightSpec

PARTITION_SUM_BOUND = 30


def as_polynomial(value) -> Polynomial:
    """A weight-ring value (int, Fraction or Polynomial) as a Polynomial, the
    result type of every public Bell function and closed form."""
    return Polynomial._coerce(value)


def _integral(value):
    """An integral Fraction as its int; any other value as it is."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


class WeightVector:
    """Entries x_1, x_2, ... of one weight sequence and the partial Bell
    polynomials B(n, r) built from them.

    Every closed form in this package feeds the vector in the "k! times
    series coefficient" convention, i.e. entry k is k! times the k-th
    coefficient of the weight series; build those with from_weights.

    Rows grow on demand by the triangular recurrence (Comtet, Advanced
    Combinatorics, 1974, section 3.3)

        B(n, r) = sum_i C(n-1, i-1) * x_i * B(n-i, r-1),

    and every entry of the rule, every row, every potential polynomial and
    every Motzkin inner sum of potentials is computed once.  The vector is
    ring-generic: entries may be ints, Fractions or Polynomials, zero is
    tested by truthiness and the empty sum is plain 0, so numeric weights
    stay rationals and symbolic ones stay polynomials on the same code path.

    A vector may be shared between threads: new rows are built in a local
    list and published with one assignment, so a reader sees the old rows
    or the grown ones, never a row appended twice; a potential or inner sum
    is likewise stored whole, by one dict assignment.  Racing builders
    compute identical exact values, so whichever publishes last is correct.
    """

    def __init__(self, rule):
        self._rule = rule
        self._entries: dict = {}
        self._rows: tuple = ((1,),)
        self._potentials: dict = {}
        # motzkin.weighted_sum_closed's inner sums over potentials, by (m, l)
        self._inner_sums: dict = {}

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
        if n < len(rows):
            return rows[n]
        grown = list(rows)
        for nn in range(len(rows), n + 1):
            xs = [None] + [self[i] for i in range(1, nn + 1)]
            binomials = [None] + [comb(nn - 1, i - 1) for i in range(1, nn + 1)]
            row = [0] * (nn + 1)
            for rr in range(1, nn + 1):
                acc = 0
                for i in range(1, nn - rr + 2):
                    prev = grown[nn - i][rr - 1]
                    if prev and xs[i]:
                        # one copy of the large prev, not two
                        acc = acc + prev * (xs[i] * binomials[i])
                row[rr] = acc
            grown.append(tuple(row))
        self._rows = tuple(grown)
        return grown[n]

    def bell(self, n: int, r: int):
        """B(n, r); 0 with no row built where r < 0, r > n or r = 0 < n."""
        if n < 0 or r < 0 or r > n or r == 0 < n:
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
    def from_weights(
        cls, weights: WeightSpec, family: str, plain: bool = False
    ) -> "WeightVector":
        """Entry k = k! * (weight k of the chosen family), or with `plain`
        the weight itself (x_k = t_k, as the `bell` command reads it).

        An integral entry is an int, so integer vectors (stirling, abel with
        integer q) build rows without a Fraction.  Built once per spec, family
        and convention, so every closed form over the spec shares its rows.
        """
        if family not in ("t", "s"):
            raise ValueError(f"unknown weight family {family!r}")
        key = f"{family} plain" if plain else family
        if key not in weights.cache:
            if plain:
                vector = cls(lambda k: weights.entry(family, k))
            else:
                vector = cls(
                    lambda k: _integral(weights.entry(family, k) * factorial(k))
                )
            # setdefault: threads that race here all get the one vector
            weights.cache.setdefault(key, vector)
        return weights.cache[key]


def partial_bell(n: int, r: int, entries: WeightVector) -> Polynomial:
    """Partial Bell polynomial B(n, r) of the given entries.

    Conventions: B(0, 0) = 1, B(n, 0) = 0 for n > 0, and B(n, r) = 0 for
    r > n or r < 0.  Read from the vector's Bell rows, which are built by
    the triangular recurrence in polynomial time; the partition-sum
    evaluator below is the independent cross-check.
    """
    return as_polynomial(entries.bell(n, r))


def partial_bell_by_partitions(n: int, r: int, entries: WeightVector) -> Polynomial:
    """B(n, r) evaluated literally as the sum over partitions of n into r parts:

        sum  n! / prod_p (c_p! p!^c_p) * prod_p x_p^c_p

    where c_p parts equal p, over all c_1 + c_2 + ... = r with
    c_1 + 2 c_2 + ... = n (Comtet, Advanced Combinatorics, 1974, section 3.3).
    One term per partition, and no recurrence, so this is the independent
    evaluator the recurrence is checked against.  Over the plain symbolic
    vector (x_p = t_p) each term is its own monomial prod_p t_p^c_p, so this
    is also the package's one partition walker: verify reads the partitions
    off those monomials.  Exponential in n, so bounded; 0 without that check
    where r < 0, r > n or r = 0 < n.

    The walk is depth-first over distinct part sizes, largest first, taking
    c >= 1 parts of each size it keeps.  Each level carries the integer
    coefficient and the plain ring product (int, Fraction or Polynomial, as
    in WeightVector.row) of its prefix, so a prefix that many partitions
    share is multiplied once; a zero entry ends its branch.
    """
    if r < 0 or r > n or r == 0 < n:
        return Polynomial.zero()
    if n > PARTITION_SUM_BOUND:
        raise EnumerationBoundError(
            f"partition summation bound is n <= {PARTITION_SUM_BOUND}, got {n}"
        )
    if n == 0:
        return Polynomial.const(1)
    total = 0

    def walk(remaining, parts_left, below, coeff, product):
        # the rest of a partition: `parts_left` parts of sizes below `below`
        # summing to `remaining`
        nonlocal total
        for part in range(min(below - 1, remaining - parts_left + 1), 0, -1):
            if part * parts_left < remaining:
                break
            x = entries[part]
            if not x:
                continue
            term, quotient = product, coeff
            for count in range(1, min(parts_left, remaining // part) + 1):
                term = term * x
                # n! / prod (c! p!^c) over a prefix of u elements is n!/u!
                # times the set partitions of u elements into its blocks, so
                # every quotient is exact
                quotient //= count * factorial(part)
                rest, left = remaining - count * part, parts_left - count
                if not left:
                    # count * part <= remaining <= part * parts_left: rest is 0
                    total = total + term * quotient
                elif left <= rest <= left * (part - 1):
                    walk(rest, left, part, quotient, term)

    walk(n, r, n + 1, factorial(n), 1)
    return as_polynomial(total)


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


def unit_power(f: Series, i: int) -> Series:
    """f(x)^i for a univariate f with constant term 1, the series whose
    coefficients power_derivative reads."""
    if not f.is_univariate():
        raise ValueError("power_derivative needs a univariate series")
    if f.coeff(0) != 1:
        raise ValueError("power_derivative needs constant term 1")
    return f.pow(i)


def power_derivative(f: Series, m: int, i: int) -> Polynomial:
    """m-th derivative of f(x)^i at x = 0, i.e. m! * [x^m] f(x)^i.

    f must be univariate with constant term 1 and truncated at order >= m.
    """
    power = unit_power(f, i)
    if m > f.nx:
        raise IndexError(f"order {m} beyond series truncation {f.nx}")
    return power.coeff(m) * factorial(m)


# all-ones entries: B(n, k) is the Stirling number S(n, k), kept as ints
_ONES = WeightVector(lambda k: 1)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, as B(n, k) at all entries 1."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    return _ONES.bell(n, k)


@dataclass(frozen=True)
class BinomialSequence:
    """A polynomial family phi_n with phi_0 = 1 and the convolution property

        phi_n(x + y) = sum_i C(n, i) phi_i(x) phi_{n-i}(y).

    Built-in kinds and their closed forms:
      power        phi_n(x) = x^n
      factorial    phi_n(x) = x (x+1) ... (x+n-1)
      abel(q)      phi_n(x) = x (x - q n)^{n-1}
      exponential  phi_n(x) = sum_i S(n, i) x^i
    """

    kind: str
    q: Fraction | None = None
    # (n, x) -> phi_n(x), each value computed once for the life of the
    # sequence object and stored whole, as WeightSpec keeps its entries
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def value(self, n: int, x) -> Fraction:
        """phi_n(x) for an exact rational x."""
        if n < 0:
            raise ValueError(f"sequence index must be >= 0, got {n}")
        # x keys as given: an int or float hashes and compares equal to its
        # Fraction, so every spelling of one rational shares an entry
        key = (n, x)
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = self._value(n, Fraction(x))
        return value

    def _value(self, n: int, x: Fraction) -> Fraction:
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
        raise ValueError(f"unknown binomial sequence kind {self.kind!r}")

    def name(self) -> str:
        if self.kind == "abel":
            return f"abel(q={self.q})"
        return self.kind
