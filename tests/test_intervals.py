"""Interval-union algebra and response-curve preimage tests."""

import math

import numpy as np
import pytest

from tailamp.intervals import (
    THETA_HI,
    THETA_LO,
    IntervalUnion,
    theta_preimage,
)
from tailamp.mliqae import ControllerConfig, run
from tailamp.qsim import AnalyticOracle
from tailamp.stats import clopper_pearson


def measure(union: IntervalUnion) -> float:
    """Total length of the union's components."""
    return sum(hi - lo for lo, hi in union.components)


def full_domain() -> IntervalUnion:
    """The whole angle domain as a one-component union."""
    return IntervalUnion([(THETA_LO, THETA_HI)])


def hull(union: IntervalUnion) -> tuple[float, float]:
    """Smallest single interval containing the union; the empty union has none."""
    if not union:
        raise ValueError("hull of empty interval union")
    return union.components[0][0], union.components[-1][1]


def grid_over(union: IntervalUnion, points_per_component: int = 512) -> np.ndarray:
    """Dense evaluation grid covering every component, endpoints included."""
    if not union:
        return np.empty(0)
    return np.concatenate(
        [np.linspace(lo, hi, points_per_component) for lo, hi in union.components]
    )

# Angle bands induced by 262/1000 successes at order 0 and 998/1000 at
# order 1, both at risk 0.05.  The endpoints below were verified against
# independent asin(sqrt(.)) arithmetic on the exact interval endpoints.
ANGLES_ORDER0 = (0.50607, 0.56915)
ANGLES_ORDER1 = ((0.49527, 0.51841), (0.52879, 0.55193))
ANGLES_BOTH = ((0.50607, 0.51841), (0.52879, 0.55193))


def band_order0() -> tuple[float, float]:
    ci = clopper_pearson(262, 1000, 0.05)
    return ci.lo, ci.hi


def band_order1() -> tuple[float, float]:
    ci = clopper_pearson(998, 1000, 0.05)
    return ci.lo, ci.hi


class TestNormalization:
    def test_components_sorted_and_disjoint(self):
        u = IntervalUnion([(0.4, 0.5), (0.1, 0.2)])
        assert u.components == ((0.1, 0.2), (0.4, 0.5))

    def test_touching_components_merge(self):
        u = IntervalUnion([(0.1, 0.2), (0.2, 0.3)])
        assert u.components == ((0.1, 0.3),)

    def test_overlapping_components_merge(self):
        u = IntervalUnion([(0.1, 0.25), (0.2, 0.3), (0.28, 0.31)])
        assert u.components == ((0.1, 0.31),)

    def test_a_nested_component_keeps_the_outer_end(self):
        u = IntervalUnion([(0.1, 0.5), (0.2, 0.3)])
        assert u.components == ((0.1, 0.5),)

    def test_clipped_to_open_domain(self):
        u = IntervalUnion([(-1.0, 0.2), (1.5, 3.0)])
        assert u.components[0][0] == THETA_LO
        assert u.components[-1][1] == THETA_HI

    def test_degenerate_point_interval_survives(self):
        u = IntervalUnion([(0.3, 0.3)])
        assert u.components == ((0.3, 0.3),)

    def test_inverted_pairs_drop(self):
        assert len(IntervalUnion([(0.5, 0.4)])) == 0

    def test_empty_and_full(self):
        assert len(IntervalUnion()) == 0
        full = full_domain()
        assert len(full) == 1
        assert measure(full) == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_equality_and_hash_follow_components(self):
        a = IntervalUnion([(0.1, 0.2), (0.4, 0.5)])
        b = IntervalUnion([(0.4, 0.5), (0.1, 0.2)])
        assert a == b
        assert hash(a) == hash(b)


class TestHullAndMeasure:
    def test_hull_spans_components(self):
        u = IntervalUnion([(0.1, 0.2), (0.4, 0.5)])
        assert hull(u) == (0.1, 0.5)

    def test_hull_of_single_component_is_itself(self):
        assert hull(IntervalUnion([(0.3, 0.7)])) == (0.3, 0.7)

    def test_hull_of_empty_raises(self):
        with pytest.raises(ValueError):
            hull(IntervalUnion())

    def test_measure_adds_component_lengths(self):
        u = IntervalUnion([(0.1, 0.2), (0.4, 0.5)])
        assert measure(u) == pytest.approx(0.2, abs=1e-15)
        assert measure(IntervalUnion()) == 0.0

    def test_contains_respects_component_gaps(self):
        u = IntervalUnion([(0.1, 0.2), (0.4, 0.5)])
        assert u.contains(0.15)
        assert not u.contains(0.3)
        assert u.contains(0.09, tol=0.02)


class TestIntersection:
    def test_identity_with_full_domain(self):
        u = IntervalUnion([(0.2, 0.3), (0.6, 0.9)])
        assert u.intersect(full_domain()) == u

    def test_disjoint_sets_intersect_empty(self):
        a = IntervalUnion([(0.1, 0.2)])
        b = IntervalUnion([(0.3, 0.4)])
        assert len(a.intersect(b)) == 0

    def test_commutative_associative_idempotent(self):
        rng = np.random.default_rng(13)

        def random_union():
            edges = np.sort(rng.uniform(0.01, 1.5, size=8))
            return IntervalUnion(list(zip(edges[0::2], edges[1::2])))

        for _ in range(50):
            a, b, c = random_union(), random_union(), random_union()
            assert a.intersect(b) == b.intersect(a)
            assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
            assert a.intersect(a) == a

    def test_matches_membership_grid_oracle(self):
        rng = np.random.default_rng(37)
        grid = np.linspace(THETA_LO, THETA_HI, 100_000)
        for _ in range(20):
            edges_a = np.sort(rng.uniform(0.01, 1.55, size=6))
            edges_b = np.sort(rng.uniform(0.01, 1.55, size=6))
            a = IntervalUnion(list(zip(edges_a[0::2], edges_a[1::2])))
            b = IntervalUnion(list(zip(edges_b[0::2], edges_b[1::2])))
            got = a.intersect(b)
            member = np.array([got.contains(x) for x in grid])
            expected = np.array(
                [a.contains(x) and b.contains(x) for x in grid]
            )
            assert np.array_equal(member, expected)


class TestPreimage:
    def test_order_zero_band_is_single_interval(self):
        u = theta_preimage(0, *band_order0())
        assert len(u) == 1
        assert u.components[0][0] == pytest.approx(ANGLES_ORDER0[0], abs=1e-5)
        assert u.components[0][1] == pytest.approx(ANGLES_ORDER0[1], abs=1e-5)

    def test_order_one_band_splits_into_branches(self):
        u = theta_preimage(1, *band_order1())
        # Two low branches around the first turning point, plus a third real
        # branch near pi/2 that must not be dropped or the round-trip
        # guarantee below would fail.
        assert len(u) == 3
        for expected, got in zip(ANGLES_ORDER1, u.components):
            assert got[0] == pytest.approx(expected[0], abs=1e-5)
            assert got[1] == pytest.approx(expected[1], abs=1e-5)

    def test_two_band_intersection_endpoints(self):
        combined = theta_preimage(0, *band_order0()).intersect(
            theta_preimage(1, *band_order1())
        )
        assert len(combined) == 2
        for expected, got in zip(ANGLES_BOTH, combined.components):
            assert got[0] == pytest.approx(expected[0], abs=1e-5)
            assert got[1] == pytest.approx(expected[1], abs=1e-5)
        assert measure(combined) == pytest.approx(0.03548, abs=5e-5)

    def test_total_band_gives_full_domain(self):
        for k in (0, 1, 4, 9):
            u = theta_preimage(k, 0.0, 1.0)
            assert len(u) == 1
            assert u.components[0] == (THETA_LO, THETA_HI)

    def test_bands_meeting_at_a_zero_of_the_response_merge(self):
        # From p = 0, band j's rising flank starts at j pi / omega, where band
        # j - 1's falling flank ends at ((j - 1) pi + pi) / omega.  The two
        # differ by an ulp for some j, and MERGE_TOL closes that gap, so the
        # preimage has one component per zero of the response in [0, pi/2].
        for k in (1, 5, 16, 33, 50, 64):
            for p_hi in (0.3, 0.7):
                assert len(theta_preimage(k, 0.0, p_hi)) == k + 1

    def test_branch_count_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(0, 12))
            lo = float(rng.uniform(0.0, 0.98))
            hi = float(rng.uniform(lo, 1.0))
            assert len(theta_preimage(k, lo, hi)) <= 2 * k + 2

    def test_round_trip_membership(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            k = int(rng.integers(0, 8))
            omega = 2 * k + 1
            lo = float(rng.uniform(0.0, 0.9))
            hi = float(rng.uniform(lo, 1.0))
            u = theta_preimage(k, lo, hi)
            inside = grid_over(u, 64)
            vals = np.sin(omega * inside) ** 2
            assert np.all(vals >= lo - 1e-9)
            assert np.all(vals <= hi + 1e-9)
            outside = rng.uniform(THETA_LO, THETA_HI, size=400)
            outside = outside[[not u.contains(x, tol=1e-12) for x in outside]]
            vals_out = np.sin(omega * outside) ** 2
            assert np.all((vals_out < lo) | (vals_out > hi))

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            theta_preimage(-1, 0.1, 0.2)
        with pytest.raises(ValueError):
            theta_preimage(0, 0.7, 0.2)
        with pytest.raises(ValueError):
            theta_preimage(0, -0.1, 0.2)


class TestAmplitudeBounds:
    def test_maps_hull_through_squared_sine(self):
        # A controller report maps its feasible hull to amplitude space.
        report = run(AnalyticOracle(0.2625), ControllerConfig(budget=4000), np.random.default_rng(5))
        lo, hi = hull(report.feasible)
        assert report.theta_bounds == (lo, hi)
        assert report.a_bounds[0] == pytest.approx(math.sin(lo) ** 2, abs=1e-15)
        assert report.a_bounds[1] == pytest.approx(math.sin(hi) ** 2, abs=1e-15)


class TestGridOver:
    def test_covers_every_component_with_endpoints(self):
        u = IntervalUnion([(0.1, 0.2), (0.5, 0.9)])
        grid = grid_over(u, 16)
        assert grid.size == 32
        for lo, hi in u.components:
            assert lo in grid
            assert hi in grid

    def test_empty_union_gives_empty_grid(self):
        assert grid_over(IntervalUnion()).size == 0
