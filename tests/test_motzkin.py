import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellpaths import cli, lagrange, motzkin, verify
from bellpaths.bell import WeightVector, partial_bell, potential
from bellpaths.core import EnumerationBoundError, binomial, factorial
from bellpaths.polyring import Polynomial, WeightSpec
from bellpaths.verify import pairs_up_to

SYM = WeightSpec.symbolic()
T1 = Polynomial.variable("t", 1)
T2 = Polynomial.variable("t", 2)
S1 = Polynomial.variable("s", 1)


@pytest.mark.parametrize(
    "steps, message",
    [
        ("uxd", "invalid step 'x' in 'uxd'"),
        ("du", "path 'du' dips below the axis"),
        ("uu", "path 'uu' does not return to the axis"),
    ],
)
def test_segment_profile_refuses_a_string_that_is_not_a_path(steps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        motzkin.segment_profile(steps)


def test_enumerate_small_sets():
    assert list(motzkin.enumerate_paths(1, 1)) == ["udh", "uhd", "hud"]
    assert list(motzkin.enumerate_paths(0, 4)) == ["hhhh"]
    # lexicographic under u < d < h: "uudd" precedes "udud"
    assert list(motzkin.enumerate_paths(2, 0)) == ["uudd", "udud"]


def test_enumerate_bound():
    with pytest.raises(EnumerationBoundError):
        list(motzkin.enumerate_paths(9, 0))
    assert motzkin.count_paths(9, 0, bound=18) == 4862


def test_segment_profile():
    # (u-runs, h-runs), each as (length, count) pairs in length order
    assert motzkin.segment_profile("uudd") == (((2, 1),), ())
    assert motzkin.segment_profile("uhd") == (((1, 1),), ((1, 1),))
    assert motzkin.segment_profile("uhhdud") == (((1, 2),), ((2, 1),))
    assert motzkin.segment_profile("") == ((), ())


def test_bruteforce_weighted_sums():
    assert motzkin.weighted_sum_bruteforce(1, 1, SYM) == T1 * S1 * 3
    assert motzkin.weighted_sum_bruteforce(2, 0, SYM) == T1**2 + T2
    assert motzkin.weighted_sum_bruteforce(0, 3, SYM) == Polynomial.variable("s", 3)


def test_path_weight_is_the_weight_of_the_path_profile():
    weights = motzkin.named_weights("b-ary", b=2, d=3)
    path = "uhhduudhd"
    assert motzkin.segment_profile(path) == (((1, 1), (2, 1)), ((1, 1), (2, 1)))
    expected = (
        weights.entry("t", 1) * weights.entry("t", 2)
        * weights.entry("s", 1) * weights.entry("s", 2)
    )
    assert motzkin.path_weight(path, weights) == expected
    assert motzkin.path_weight(path, SYM) == T1 * T2 * S1 * Polynomial.variable("s", 2)


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_NAMED = st.one_of(
    st.sampled_from(["all-ones", "stirling", "bell-numbers", "factorial-psi"]),
    st.builds("b-ary:b={},d={}".format, st.integers(0, 3), st.integers(0, 3)),
    st.builds("r-ary:r={}".format, st.integers(0, 2)),
    st.builds("abel:q={}".format, _FRACTIONS),
)
# rows family,index,numerator,denominator of a csv: weight file
_CSV_ROWS = st.lists(
    st.tuples(st.sampled_from("ts"), st.integers(1, 6), st.integers(-4, 4), st.integers(1, 3)),
    max_size=8,
    unique_by=lambda row: row[:2],
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_NAMED, _CSV_ROWS),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_numeric_path_sums_agree_four_ways(spec, m, k):
    # closed form, tallied brute force, per-path weights and the series
    # fixed point, for a drawn named or csv weight spec
    with tempfile.TemporaryDirectory() as folder:
        if isinstance(spec, list):
            path = os.path.join(folder, "weights.csv")
            with open(path, "w") as handle:
                handle.writelines(",".join(map(str, row)) + "\n" for row in spec)
            spec = f"csv:{path}"
        weights = cli.parse_weights(spec)
    closed = motzkin.weighted_sum_closed(m, k, weights)
    tallied = motzkin.weighted_sum_bruteforce(m, k, weights)
    per_path = Polynomial.zero()
    for path in motzkin.enumerate_paths(m, k):
        per_path = per_path + motzkin.path_weight(path, weights)
    series = lagrange.motzkin_series(weights, m, k).coeff(m, k)
    assert closed == tallied == per_path == series, spec


def test_closed_weighted_sums():
    assert motzkin.weighted_sum_closed(1, 1, SYM) == T1 * S1 * 3
    assert motzkin.weighted_sum_closed(2, 0, SYM) == T1**2 + T2
    for k in range(6):
        expected = Polynomial.variable("s", k) if k else Polynomial.const(1)
        assert motzkin.weighted_sum_closed(0, k, SYM) == expected


def _docstring_double_sum(m, k, t, s):
    # weighted_sum_closed's docstring sum, term by term from the public
    # potential and partial_bell, with no inner sum shared between entries
    total = Fraction(0)
    for j in range(k + 1):
        for l in range(j, k + 1):
            c = (-1) ** (l - j) * binomial(l - 1, l - j) * binomial(m + j, j)
            if c:
                pot = potential(m, m + j + 1, t).constant_value()
                total += c * pot * factorial(l) * partial_bell(k, l, s).constant_value()
    return total / (factorial(m + 1) * factorial(k))


@pytest.mark.parametrize("kind", ["all-ones", "stirling", "abel:q=-2"])
def test_table_entries_equal_the_docstring_double_sum(kind, capsys):
    top = 30
    assert cli.main(["motzkin", "table", "--max-n", str(top), "--weights", kind]) == 0
    rows = capsys.readouterr().out.splitlines()
    shared = cli.parse_weights(kind)
    t = WeightVector(lambda i: shared.t_rule(i) * factorial(i))
    s = WeightVector(lambda i: shared.s_rule(i) * factorial(i))
    expected = {(m, k): _docstring_double_sum(m, k, t, s) for m, k in pairs_up_to(top)}
    assert len(rows) == top + 1
    for n, row in enumerate(rows):
        label, _, values = row.partition(": ")
        assert label == f"n={n}"
        want = [expected[(m, n - 2 * m)] for m in range(n // 2 + 1)]
        assert [Fraction(value) for value in values.split()] == want, (kind, n)
    # a fresh spec filled in descending (m, k) order builds its inner sums
    # in another order than the table did, and must read the same values
    fresh = WeightSpec(shared.t_rule, shared.s_rule, name=f"fresh {kind}")
    for m, k in sorted(expected, reverse=True):
        assert motzkin.weighted_sum_closed(m, k, fresh).constant_value() == expected[(m, k)]


def test_triple_agreement():
    assert verify.check("motzkin", "path-sum-triple-agreement", 7) is None


def test_path_count_closed_form():
    # |paths with m ups, k horizontals| = C(m+k+1, k) C(2m+k+1, m) / (2m+k+1)
    for m, k in pairs_up_to(9):
        expected = Fraction(
            binomial(m + k + 1, k) * binomial(2 * m + k + 1, m), 2 * m + k + 1
        )
        assert motzkin.count_paths(m, k) == expected, (m, k)


def test_segment_split_coefficient():
    assert motzkin.segment_split_coefficient(1, 1, 1, 1) == 6
    assert motzkin.segment_split_coefficient(2, 1, 1, 1) == 12
    for m in range(5):
        for r in range(m + 2):
            assert motzkin.segment_split_coefficient(m, 0, r, 0) == binomial(m + 1, r)


def test_segment_split_coefficient_stops_at_min_k_l():
    # j runs to min(k, l): the terms past l vanish, since C(l-1, l-j) = 0
    for m in range(12):
        for k in range(12):
            for r in range(14):
                for l in range(14):
                    full = sum(
                        (-1) ** (l - j)
                        * binomial(l - 1, l - j)
                        * binomial(m + j, m)
                        * binomial(m + j + 1, r)
                        for j in range(k + 1)
                    )
                    assert motzkin.segment_split_coefficient(m, k, r, l) == full, (m, k, r, l)


def test_weighted_sum_by_segments():
    assert motzkin.weighted_sum_by_segments(1, 1, 1, 1, SYM) == T1 * S1 * 3
    for m in range(1, 4):
        assert motzkin.weighted_sum_by_segments(m, 2, 0, 1, SYM) == 0
    # each refinement against enumeration, and their sum against the closed form
    assert verify.check("motzkin", "segment-refinement", 6) is None



def test_symbolic_closed_forms_have_int_coefficients():
    # symbolic path sums are integral, so the final exact scaling by
    # 1/((m+1)! k!) (or r! l! V/(k! (m+1)!)) must leave ints, not Fractions
    for m in range(9):
        for k in range(9):
            forms = [motzkin.weighted_sum_closed(m, k, SYM)]
            forms += [
                motzkin.weighted_sum_by_segments(m, k, r, l, SYM)
                for r in range(m + 1)
                for l in range(k + 1)
            ]
            for form in forms:
                assert all(type(c) is int for c in form.terms.values()), (m, k)

def test_count_by_type_examples():
    assert motzkin.count_by_type(1, 1, {1: 1}, {1: 1}) == 3
    assert motzkin.count_by_type(2, 0, {2: 1}, {}) == 1
    assert motzkin.count_by_type(2, 0, {1: 2}, {}) == 1


def test_count_by_type_rejects_mismatch():
    with pytest.raises(ValueError):
        motzkin.count_by_type(2, 0, {1: 1}, {})
    with pytest.raises(ValueError):
        motzkin.count_by_type(1, 2, {1: 1}, {1: 1})


def test_count_by_type_partitions_path_set():
    assert verify.check("motzkin", "type-counts", 7) is None


def test_parallel_reduction_matches_sequential():
    # weighted sums are associative-commutative reductions: chunked partial
    # sums recombined in any order must agree exactly
    paths = list(motzkin.enumerate_paths(2, 3))
    forward = Polynomial.zero()
    for path in paths:
        forward = forward + motzkin.path_weight(path, SYM)
    chunks = [paths[i::3] for i in range(3)]
    partials = []
    for chunk in chunks:
        piece = Polynomial.zero()
        for path in chunk:
            piece = piece + motzkin.path_weight(path, SYM)
        partials.append(piece)
    recombined = partials[2] + partials[0] + partials[1]
    assert recombined == forward == motzkin.weighted_sum_bruteforce(2, 3, SYM)


def test_named_weights_values():
    stirling = motzkin.named_weights("stirling")
    assert stirling.entry("t", 3) == Fraction(1, 6)
    assert stirling.entry("s", 3) == Fraction(1, 6)

    bary = motzkin.named_weights("b-ary", b=1, d=1)
    assert bary.entry("t", 2) == 1  # C(3,2)/3
    assert bary.entry("s", 2) == 1

    abel0 = motzkin.named_weights("abel", q=0)
    for i in range(1, 5):
        assert abel0.entry("t", i) == Fraction(1, motzkin.factorial(i))
        assert abel0.entry("s", i) == 1

    with pytest.raises(ValueError):
        motzkin.named_weights("no-such-kind")


def test_stirling_specialization():
    assert verify.check("motzkin", "set-partition-weights", 7) is None


def test_plane_tree_specialization_single():
    assert verify.check("motzkin", "plane-tree-weights-single", 6) is None


def test_plane_tree_specialization_general():
    assert verify.check("motzkin", "plane-tree-weights-general", 6) is None


def test_h_run_factor_closed_is_undefined_at_dk_equal_j():
    # where it is defined, plane-tree-weights-general checks it against the series
    with pytest.raises(ZeroDivisionError):
        motzkin.bary_h_factor_closed(0, 0, 2)


def test_series_coefficient_specialization():
    assert verify.check("motzkin", "series-coefficient-weights", 6) is None


def test_series_pair_specialization(rng):
    assert verify.check("motzkin", "series-pair-double-sum", 6) is None
    f = verify._random_unit_series(rng, 7)
    g = verify._random_unit_series(rng, 7)
    with pytest.raises(ValueError):
        motzkin.series_pair_closed_value(2, 0, f, g)


def test_labeled_tree_specialization():
    assert verify.check("motzkin", "labeled-tree-weights", 6) is None


def test_binomial_sequence_specialization():
    # single family (s all 1) and the pair with psi the factorial family
    assert verify.check("motzkin", "binomial-sequence-weights", 6) is None
    assert verify.check("motzkin", "two-sequence-double-sum", 6) is None


def test_abel_and_bell_specializations():
    assert verify.check("motzkin", "abel-weights", 6) is None
    assert verify.check("motzkin", "bell-number-weights", 6) is None


def test_factorial_psi_weights_are_all_ones():
    weights = motzkin.named_weights("factorial-psi")
    for i in range(1, 6):
        assert weights.entry("t", i) == 1
        assert weights.entry("s", i) == 1


def test_coefficient_degrees_track_step_counts():
    assert verify.check("motzkin", "coefficient-degree-grading", 6) is None
