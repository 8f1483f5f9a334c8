"""Acceptance suite: every criterion at its stated range, exact equality.

Each test prints one pass/fail line (visible with `pytest -s` or in verbose
runs, where the test name itself is the per-criterion line).  All comparisons
are exact; there are no tolerances to tune.  Where a criterion states an
identity the verify registry holds, the test runs that registry check at the
criterion's own range through `verify.check`; what has other data or another
oracle stays inline.
"""

import os
import random
import time
from fractions import Fraction

from bellpaths import cli, compositions, lagrange, matrixcomp, motzkin, verify
from bellpaths.bell import WeightVector, partial_bell, power_derivative
from bellpaths.core import binomial
from bellpaths.polyring import Series, WeightSpec, specialize
from bellpaths.verify import pairs_up_to

from conftest import random_reversible_series

SYM = WeightSpec.symbolic()
VERIFY_ALL_8 = os.path.join(os.path.dirname(__file__), "data", "verify_all_8.txt")


def _holds(suite, n, *identities):
    """Each registered identity holds at size n, with no cap applied."""
    for identity in identities:
        counterexample = verify.check(suite, identity, n)
        assert counterexample is None, f"{suite}/{identity}: {counterexample}"


def _report(criterion, ok=True):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")


def _x_identity(order):
    return Series.from_x_coeffs([0, 1], nx=order)


def test_criterion_01_triple_agreement_up_to_10():
    started = time.monotonic()
    _holds("motzkin", 10, "path-sum-triple-agreement")
    elapsed = time.monotonic() - started
    assert elapsed <= 60, f"triple agreement took {elapsed:.1f}s"
    _report("1 (path-sum triple agreement, 2m+k <= 10)")


def test_criterion_02_segment_refinements_up_to_8():
    _holds("motzkin", 8, "segment-refinement", "type-counts")
    _report("2 (segment refinement and type counts, 2m+k <= 8)")


def test_criterion_03_motzkin_and_catalan_sequences():
    motzkin_numbers = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    ones = WeightSpec.all_ones()
    for n in range(11):
        enumerated = sum(
            motzkin.count_paths(m, n - 2 * m) for m in range(n // 2 + 1)
        )
        closed = sum(
            motzkin.weighted_sum_closed(m, n - 2 * m, ones).constant_value()
            for m in range(n // 2 + 1)
        )
        assert enumerated == motzkin_numbers[n] == closed, n

    catalan = [1, 1, 2, 5, 14, 42]
    dyck = WeightSpec(lambda i: Fraction(1), lambda i: Fraction(0), name="dyck")
    for m in range(6):
        assert motzkin.count_paths(m, 0) == catalan[m]
        assert motzkin.weighted_sum_closed(m, 0, dyck).constant_value() == catalan[m]
    _report("3 (Motzkin numbers n <= 10 and Catalan slice m <= 5)")


def test_criterion_04_stirling_and_plane_tree_weights():
    _holds("motzkin", 8, "set-partition-weights")

    for b in (1, 2, 3):
        weights = motzkin.named_weights("b-ary", b=b, d=1)
        for m, k in pairs_up_to(8):
            value = specialize(motzkin.weighted_sum_closed(m, k, SYM), weights)
            assert value == motzkin.bary_d1_closed_value(m, k, b), (b, m, k)
    _report("4 (set-partition and plane-tree weight closed forms, 2m+k <= 8)")


def test_criterion_05_series_and_sequence_families():
    _holds(
        "motzkin",
        8,
        "series-coefficient-weights",
        "labeled-tree-weights",
        "binomial-sequence-weights",
        "bell-number-weights",
    )
    _report("5 (series-family, labeled-tree, sequence, and Bell weights, 2m+k <= 8)")


def test_criterion_06_bell_argument_identities():
    rng = random.Random(777)
    for trial in range(25):
        f = verify._random_unit_series(rng, 8)
        vec = WeightVector(lambda k, f=f: power_derivative(f, k - 1, k))
        for m in range(1, 9):
            for r in range(1, m + 1):
                lhs = partial_bell(m, r, vec)
                rhs = power_derivative(f, m - r, m) * binomial(m - 1, r - 1)
                assert lhs == rhs, (trial, m, r)

    _holds("bell", 8, "bell-of-binomial-sequences")
    _report("6 (Bell argument identities: 25 series and 4 families, m <= 8)")


def test_criterion_07_potential_identity_and_reversion_round_trip():
    _holds("bell", 8, "potential-shifted-arguments")

    rng = random.Random(999)
    for _ in range(50):
        f = random_reversible_series(rng, 20)
        g = lagrange.reversion(f, 20)
        assert f.compose_x(g) == _x_identity(20)
    _report("7 (shifted-argument potential identity; 50 reversion round trips)")


def test_criterion_08_composition_closed_forms():
    _holds(
        "compositions",
        7,
        "closed-vs-enumeration",
        "h-segment-refinement",
        "type-counts",
    )

    for m in range(11):
        for j in range(11):
            direct = sum(
                1
                for comp in compositions.enumerate_compositions(m, j)
                if all(p in (1, 2) for p in comp)
            )
            assert compositions.restricted_count(m, j, allowed={1, 2}) == direct, (m, j)
    _report("8 (composition closed forms m, j <= 7; restricted counts m <= 10)")


def test_criterion_09_matrix_closed_forms_and_power_law():
    _holds(
        "matrixcomp", 7, "closed-vs-enumeration", "nonzero-refinement", "type-counts"
    )
    _holds("matrixcomp", 8, "row-power-law")
    _report("9 (matrix closed forms m <= 7, p <= 3, j <= 4; power law to x^8)")


def test_criterion_10_tree_correspondence():
    _holds("matrixcomp", 8, "tree-correspondence")
    assert matrixcomp.bounded_composition_count(4, 2, 3) == 16
    assert matrixcomp.bounded_outdegree_tree_count(4, 2) == 4
    _report("10 (tree correspondence m <= 8, j <= 4; spot values)")


def test_criterion_11_binomial_identities_up_to_12():
    _holds(
        "core-identities",
        12,
        "upper-negation-convolution",
        "binomial-orthogonality",
        "kronecker-convolution",
    )
    _report("11 (binomial identities, indices <= 12)")


def test_criterion_12_verify_all_parallel_and_sequential(capsys):
    started = time.monotonic()
    sequential = cli.main(["verify", "--suite", "all", "--max-n", "8"])
    sequential_out = capsys.readouterr().out
    parallel = cli.main(["verify", "--suite", "all", "--max-n", "8", "--jobs", "4"])
    parallel_out = capsys.readouterr().out
    elapsed = time.monotonic() - started

    assert sequential == 0
    assert parallel == 0
    assert sequential_out == parallel_out
    with open(VERIFY_ALL_8) as handle:
        assert sequential_out == handle.read()
    assert elapsed <= 300, f"verification took {elapsed:.1f}s"

    records = verify.run("all", 8, jobs=2)
    assert records == verify.run("all", 8)
    _report("12 (full verification <= 5 min, parallel report identical)")
