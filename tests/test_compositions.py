import pytest

from bellpaths import compositions, motzkin, verify
from bellpaths.core import EnumerationBoundError, binomial
from bellpaths.polyring import Polynomial, WeightSpec

SYM = WeightSpec.symbolic()
T1 = Polynomial.variable("t", 1)
S1 = Polynomial.variable("s", 1)


def test_enumerate_examples():
    got = [c.parts for c in compositions.enumerate_compositions(2, 3)]
    assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert [c.parts for c in compositions.enumerate_compositions(0, 4)] == [(0, 0, 0, 0)]
    assert list(compositions.enumerate_compositions(3, 0)) == []
    assert [c.parts for c in compositions.enumerate_compositions(0, 0)] == [()]


def test_enumerate_counts_match_stars_and_bars():
    for m in range(7):
        for j in range(1, 7):
            count = sum(1 for _ in compositions.enumerate_compositions(m, j))
            assert count == binomial(m + j - 1, j - 1), (m, j)


def test_enumerate_bound():
    with pytest.raises(EnumerationBoundError):
        list(compositions.enumerate_compositions(13, 2))


def test_embedding():
    to_path = compositions.composition_to_motzkin
    assert str(to_path(compositions.Composition((1, 1, 0)))) == "ududh"
    assert str(to_path(compositions.Composition((0, 0)))) == "hh"

    path = to_path(compositions.Composition((2, 0, 1)))
    assert str(path) == "uuddhud"
    profile = motzkin.segment_profile(path)
    assert profile.u_counts == {2: 1, 1: 1}
    assert profile.h_counts == {1: 1}


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


def test_h_segment_refinement_matches_enumeration():
    # each refinement against enumeration, m, j <= 5
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
    for m in range(6):
        for j in range(6):
            by_type = {}
            total = 0
            for comp in compositions.enumerate_compositions(m, j):
                path = compositions.composition_to_motzkin(comp)
                profile = motzkin.segment_profile(path)
                key = (
                    tuple(sorted(profile.u_counts.items())),
                    tuple(sorted(profile.h_counts.items())),
                )
                by_type[key] = by_type.get(key, 0) + 1
                total += 1
            summed = 0
            for (u_items, h_items), expected in by_type.items():
                got = compositions.count_by_type(j, dict(u_items), dict(h_items))
                assert got == expected, (m, j, u_items, h_items)
                summed += got
            assert summed == total


def test_restricted_counts():
    assert compositions.restricted_count(4, 3, allowed={1, 2}) == 3
    assert compositions.restricted_count(5, 2) == 4
    assert compositions.restricted_count(3, 2, forbidden=1) == 0

    for m in range(11):
        for j in range(7):
            direct = sum(
                1
                for comp in compositions.enumerate_compositions(m, j)
                if all(p in (1, 2) for p in comp.parts)
            )
            assert compositions.restricted_count(m, j, allowed={1, 2}) == direct


def test_restricted_rejects_nonpositive_allowed():
    with pytest.raises(ValueError):
        compositions.restricted_count(3, 2, allowed={0, 1})
    for forbidden in (0, -1):
        with pytest.raises(ValueError):
            compositions.restricted_count(3, 2, forbidden=forbidden)
