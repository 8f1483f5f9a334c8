from fractions import Fraction

import pytest

from bellpaths import compositions, motzkin, verify
from bellpaths.core import EnumerationBoundError, binomial
from bellpaths.polyring import Polynomial, WeightSpec

SYM = WeightSpec.symbolic()
T1 = Polynomial.variable("t", 1)
S1 = Polynomial.variable("s", 1)


def test_enumerate_examples():
    got = list(compositions.enumerate_compositions(2, 3))
    assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert list(compositions.enumerate_compositions(0, 4)) == [(0, 0, 0, 0)]
    assert list(compositions.enumerate_compositions(3, 0)) == []
    assert list(compositions.enumerate_compositions(0, 0)) == [()]


def test_enumerate_counts_match_stars_and_bars():
    # the bound corners by their length only; (12, 12) itself, 1 352 078
    # compositions, is counted from a fresh interpreter in CI
    corners = [(12, j) for j in range(1, 7)] + [(m, 12) for m in range(7)]
    for m, j in [*((m, j) for m in range(7) for j in range(1, 7)), *corners]:
        count = sum(1 for _ in compositions.enumerate_compositions(m, j))
        assert count == binomial(m + j - 1, j - 1), (m, j)


def test_stream_is_ordered_complete_and_checked():
    # strictly increasing, each a valid j-tuple summing to m, and as many as
    # stars and bars count: so each composition once, with no second
    # enumerator to compare against
    for m in range(9):
        for j in range(9):
            stream = list(compositions.enumerate_compositions(m, j))
            expected = binomial(m + j - 1, j - 1) if j else int(m == 0)
            assert len(stream) == expected, (m, j)
            for before, after in zip(stream, stream[1:]):
                assert before < after, (m, j, before, after)
            for comp in stream:
                assert type(comp) is tuple and len(comp) == j, comp
                assert sum(comp) == m and min(comp, default=0) >= 0, comp


def test_composition_rejects_a_negative_part():
    # the embedding is the one function that takes parts from a caller
    for parts in ((1, -1), (-2,), (0, 3, -1, 2)):
        with pytest.raises(ValueError, match=r"^parts must be nonnegative, got "):
            compositions.composition_to_motzkin(parts)
    assert compositions.composition_to_motzkin(()) == ""


def test_composition_parts_are_read_as_integers():
    # as everywhere else: an integral float is its integer, a fraction of
    # one is refused with a ValueError, never a TypeError from the embedding
    assert compositions.composition_to_motzkin((2.0, 0)) == "uuddh"
    assert compositions.composition_to_motzkin((Fraction(1), 1)) == "udud"
    for parts in ((1.5,), (1, Fraction(1, 2))):
        with pytest.raises(ValueError, match="expected an integer value"):
            compositions.composition_to_motzkin(parts)


def test_enumerate_bound():
    with pytest.raises(EnumerationBoundError):
        list(compositions.enumerate_compositions(13, 2))


def test_embedding():
    to_path = compositions.composition_to_motzkin
    assert to_path((1, 1, 0)) == "ududh"
    assert to_path((0, 0)) == "hh"

    path = to_path((2, 0, 1))
    assert path == "uuddhud"
    assert motzkin.segment_profile(path) == (((1, 1), (2, 1)), ((1, 1),))


def test_embedding_consistency():
    assert verify.check("compositions", "embedding-consistency", 5) is None


def test_closed_examples():
    assert compositions.weighted_sum_closed(2, 1, 3, SYM) == T1**2 * S1 * 3
    for j in range(5):
        expected = Polynomial.variable("s", j) if j else Polynomial.const(1)
        assert compositions.weighted_sum_closed(0, j, j, SYM) == expected
    ones = WeightSpec.all_ones()
    assert compositions.weighted_sum_closed(5, 0, 3, ones).constant_value() == 6
    # degenerate slices
    assert compositions.weighted_sum_closed(2, 3, 2, SYM) == 0  # j < k
    assert compositions.weighted_sum_closed(2, 2, 2, SYM) == 0  # m >= 1, j = k
    assert compositions.weighted_sum_closed(0, 0, 0, SYM) == 1


def test_closed_matches_enumeration():
    assert verify.check("compositions", "closed-vs-enumeration", 5) is None


def test_closed_matches_series():
    assert verify.check("compositions", "series-agreement", 7) is None


def test_h_segment_refinement():
    assert compositions.weighted_sum_by_hsegments(2, 1, 3, 1, SYM) == T1**2 * S1 * 3
    # at most j-k+1 zero-runs fit
    assert compositions.weighted_sum_by_hsegments(2, 2, 4, 4, SYM) == 0
    # the refinements sum to the closed form, m, j <= 5
    assert verify.check("compositions", "h-segment-refinement", 5) is None


def test_count_by_type_examples():
    assert compositions.count_by_type(3, {1: 2}, {1: 1}) == 3
    assert compositions.count_by_type(2, {1: 1, 2: 1}, {}) == 2
    for j in range(1, 5):
        assert compositions.count_by_type(j, {}, {j: 1}) == 1


def test_count_by_type_rejects_inconsistent():
    with pytest.raises(ValueError):
        compositions.count_by_type(3, {1: 1}, {1: 1})


def test_count_by_type_partitions_composition_set():
    assert verify.check("compositions", "type-counts", 5) is None


def test_restricted_counts():
    assert compositions.restricted_count(4, 3, allowed={1, 2}) == 3
    assert compositions.restricted_count(5, 2) == 4
    assert compositions.restricted_count(3, 2, forbidden=1) == 0

    rules = (
        {"allowed": {1, 2}},
        {"allowed": {2, 3}},
        {"allowed": {1, 3, 5}},
        {"forbidden": 1},
        {"forbidden": 2},
        {"allowed": {1, 2, 3}, "forbidden": 2},
        {},
    )
    for m in range(11):
        for j in range(9):
            stream = list(compositions.enumerate_compositions(m, j))
            for rule in rules:
                admitted = rule.get("allowed", range(1, m + 1))
                direct = sum(
                    1
                    for comp in stream
                    if all(p in admitted and p != rule.get("forbidden") for p in comp)
                )
                assert compositions.restricted_count(m, j, **rule) == direct, (rule, m, j)


def test_restricted_rejects_nonpositive_allowed():
    with pytest.raises(ValueError):
        compositions.restricted_count(3, 2, allowed={0, 1})
    for forbidden in (0, -1):
        with pytest.raises(ValueError):
            compositions.restricted_count(3, 2, forbidden=forbidden)
    # non-integral parts are refused, not truncated (which gave 2) or left
    # unmatched (which gave the unrestricted count 3)
    with pytest.raises(ValueError, match="expected an integer value"):
        compositions.restricted_count(3, 2, allowed={Fraction(3, 2), 2})
    with pytest.raises(ValueError, match="expected an integer value"):
        compositions.restricted_count(4, 2, forbidden=2.5)
    assert compositions.restricted_count(4, 2, forbidden=Fraction(2)) == 2
    assert compositions.restricted_count(4, 3, allowed={Fraction(1), 2}) == 3
