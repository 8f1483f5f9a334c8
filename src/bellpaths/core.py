"""Exact scalar arithmetic: arbitrary-precision integers, rationals, and the
generalized binomial/multinomial coefficients every closed form here consumes.

Integers are plain Python ints; rationals are fractions.Fraction, which keeps
every value in lowest terms with a positive denominator.  All functions are
pure and all values immutable, so they are safe to share between tasks.
"""

from __future__ import annotations

import math
from fractions import Fraction

factorial = math.factorial


class EnumerationBoundError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its size bound."""


def binomial(a: int, b: int) -> int:
    """Generalized binomial coefficient a(a-1)...(a-b+1) / b! of integers.

    The upper index may be any integer, including negative ones, which go by
    upper negation: C(a, b) = (-1)^b C(b - a - 1, b) for a < 0.  For b < 0
    the result is 0, and for b = 0 it is 1 (empty product), so in particular
    binomial(-1, 0) == 1.  Non-integer arguments (Fractions, floats) raise
    ValueError rather than round: C(1/2, 2) is -1/8, not an integer.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError(f"binomial needs integer arguments, got ({a!r}, {b!r})")
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    value = math.comb(b - a - 1, b)
    return -value if b % 2 else value


def multinomial(total: int, parts) -> int:
    """total! / prod(part!) over the given nonnegative parts.

    The parts must sum to `total`; anything else is rejected rather than
    silently reinterpreted.
    """
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be nonnegative, got {parts}")
    if sum(parts) != total:
        raise ValueError(
            f"multinomial parts {parts} sum to {sum(parts)}, expected {total}"
        )
    result = math.factorial(total)
    for p in parts:
        result //= math.factorial(p)
    return result


def as_integer(value) -> int:
    """Coerce an exact rational to int, rejecting non-integral values."""
    if type(value) is int:
        return value  # the common case, without building a Fraction
    q = Fraction(value)
    if q.denominator != 1:
        raise ValueError(f"expected an integer value, got {value}")
    return q.numerator


def part_type(counts: dict) -> dict:
    """A type {part: count} of a multiset of parts, with int keys and values
    and zero counts dropped; non-integral parts or counts, parts below 1 and
    negative counts are rejected."""
    counts = {as_integer(p): as_integer(c) for p, c in counts.items() if c}
    if any(part < 1 or count < 0 for part, count in counts.items()):
        raise ValueError(f"types need parts >= 1 and counts >= 0, got {counts}")
    return counts
