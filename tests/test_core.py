from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import bellpaths
from bellpaths import compositions, matrixcomp, motzkin, verify
from bellpaths.core import as_integer, binomial, factorial, multinomial, part_type


def test_every_exported_name_resolves():
    # `from bellpaths import *` in a fresh namespace binds exactly __all__
    namespace = {}
    exec("from bellpaths import *", namespace)
    del namespace["__builtins__"]
    assert len(set(bellpaths.__all__)) == len(bellpaths.__all__)
    assert sorted(namespace) == sorted(bellpaths.__all__)
    for name in bellpaths.__all__:
        assert namespace[name] is getattr(bellpaths, name), name


def test_binomial_standard():
    assert binomial(5, 2) == 10


def test_binomial_empty_product():
    assert binomial(-1, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1


def test_binomial_negative_upper():
    # (-2)(-3)(-4) / 3!
    assert binomial(-2, 3) == -4


def test_binomial_negative_lower_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-3, -2) == 0


def test_binomial_matches_falling_factorial():
    # the slow oracle beside the math.comb fast path, over a whole grid with
    # negative upper indices, b < 0, and b > a >= 0
    for a in range(-40, 41):
        for b in range(-3, 41):
            product = Fraction(0 if b < 0 else 1)
            for i in range(b):
                product *= a - i
            assert binomial(a, b) == product / factorial(max(b, 0)), (a, b)


def test_binomial_rejects_non_integer_arguments():
    # C(1/2, 2) = -1/8 and C(5/2, 2) = 15/8: no integer result is right
    for a, b in [(Fraction(1, 2), 2), (2.5, 2), (5, 2.0), (Fraction(7), 3)]:
        with pytest.raises(ValueError, match="integer arguments"):
            binomial(a, b)


@given(st.integers(1, 40), st.integers(1, 40))
def test_pascal_recurrence(a, b):
    assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


def test_upper_negation_convolution():
    assert verify.check("core-identities", "upper-negation-convolution", 12) is None


def test_binomial_orthogonality():
    assert verify.check("core-identities", "binomial-orthogonality", 12) is None


def test_kronecker_convolution():
    assert verify.check("core-identities", "kronecker-convolution", 12) is None


def test_multinomial_examples():
    assert multinomial(2, [1, 1]) == 2
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(3, [3]) == 1
    assert multinomial(0, []) == 1


def test_multinomial_rejects_mismatch():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_large_values_stay_exact():
    # several hundred digits, no overflow
    value = factorial(200)
    assert len(str(value)) > 300
    assert binomial(400, 200) == factorial(400) // (factorial(200) ** 2)


def test_as_integer():
    assert as_integer(Fraction(10, 2)) == 5
    with pytest.raises(ValueError, match="got 1/3$"):
        as_integer(Fraction(1, 3))
    # a float is named as given, not by its binary fraction
    with pytest.raises(ValueError, match="got 1.9$"):
        as_integer(1.9)


def test_part_type_is_the_one_type_validator():
    assert part_type({2: 1, Fraction(3): Fraction(2), 5: 0}) == {2: 1, 3: 2}
    assert part_type({0: 0}) == {}
    # every count_by_type validates its types through part_type
    for bad in ({0: 1}, {-1: 1}, {1: -1}):
        with pytest.raises(ValueError, match="types need parts >= 1 and counts >= 0"):
            part_type(bad)
        with pytest.raises(ValueError, match="types need parts"):
            motzkin.count_by_type(1, 0, bad, {})
        with pytest.raises(ValueError, match="types need parts"):
            compositions.count_by_type(1, {}, bad)
        with pytest.raises(ValueError, match="types need parts"):
            matrixcomp.count_by_type(1, 1, bad)


def test_part_type_rejects_non_integral_parts_and_counts():
    # truncating 2.5 to 2 and 1.9 to 1 gave the plausible counts 6 and 2
    with pytest.raises(ValueError, match="expected an integer value"):
        motzkin.count_by_type(2, 1, {1: 2.5}, {1: 1})
    with pytest.raises(ValueError, match="expected an integer value"):
        matrixcomp.count_by_type(2, 2, {1: 1.9})
    with pytest.raises(ValueError, match="expected an integer value"):
        part_type({Fraction(3, 2): 1})
    # integral Fractions are still accepted
    assert motzkin.count_by_type(2, 1, {Fraction(1): Fraction(2)}, {1: 1}) == (
        motzkin.count_by_type(2, 1, {1: 2}, {1: 1})
    )
    assert matrixcomp.count_by_type(2, 2, {Fraction(2): Fraction(1)}) == (
        matrixcomp.count_by_type(2, 2, {2: 1})
    )
