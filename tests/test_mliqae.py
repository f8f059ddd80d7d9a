"""Estimation controller tests: policies, feasibility updates, estimates."""

import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tailamp import mliqae
from tailamp.cli import run_seed
from tailamp.intervals import THETA_HI, THETA_LO, IntervalUnion, theta_preimage
from tailamp.mliqae import (
    ControllerConfig,
    run,
    select_depth,
    select_shots,
    update_feasible,
)
from tailamp.qsim import AnalyticOracle, OracleSpec, StatevectorOracle
from tailamp.stats import (
    OrderTotals,
    RoundRecord,
    chord_mass,
    clopper_pearson,
    log_likelihood,
    log_likelihood_slopes,
    log_likelihood_terms,
)
from test_stats import columns

# The worked two-round dataset: 262/1000 successes at order 0 and 998/1000
# at order 1.  True amplitude 0.2625, true angle asin(sqrt(0.2625)).  The
# controller's own second batch after ROUND_A runs at order 3, where 341 of
# 1000 is the expected count at the true angle.
ROUND_A = RoundRecord(k=0, m=1000, h=262)
ROUND_B = RoundRecord(k=1, m=1000, h=998)
ROUND_C = RoundRecord(k=3, m=1000, h=341)
THETA_TRUE = math.asin(math.sqrt(0.2625))

# A remaining budget of 8193 calls affords one shot at any order up to
# (8193 - 1) // 2 = 4096, so the depth scans below stop there.
DEEP = 8193
DEEP_K = 4096
FULL = (THETA_LO, THETA_HI)


def loglik(theta, rounds) -> np.ndarray:
    return log_likelihood_terms(np.atleast_1d(np.asarray(theta, dtype=float)), *columns(OrderTotals(rounds).rows))


def band_for(rec: RoundRecord) -> IntervalUnion:
    ci = clopper_pearson(rec.h, rec.m, 0.05)
    return theta_preimage(rec.k, ci.lo, ci.hi)


def controller_mle(feasible: tuple[float, float], rounds) -> float:
    """The controller's MLE over the interval feasible: theta_hat after one update."""
    return update_feasible(feasible, OrderTotals(rounds), 0.05)[1]


def add_batch(feasible: tuple[float, float], totals: OrderTotals, rec: RoundRecord):
    """Pool rec into totals and update feasible: the new set, theta_hat and the cut."""
    totals.add(rec)
    return update_feasible(feasible, totals, 0.05)


def two_round_set() -> tuple[tuple[float, float], OrderTotals]:
    """The set and totals after ROUND_A, then ROUND_C at the order the depth rule picks."""
    totals = OrderTotals()
    feasible, _, _ = add_batch(FULL, totals, ROUND_A)
    assert select_depth(feasible, DEEP) == ROUND_C.k
    feasible, _, _ = add_batch(feasible, totals, ROUND_C)
    return feasible, totals


def two_edge_refine(lo: float, hi: float, rows) -> tuple[float, float]:
    """The MLE search that checks both edges before any Newton step.

    The reference the one-edge search of mliqae._newton_refine is held to.
    """
    score_lo, _ = log_likelihood_slopes(lo, rows)
    score_hi, _ = log_likelihood_slopes(hi, rows)
    if score_lo <= 0.0:
        return lo, score_lo
    if score_hi >= 0.0:
        return hi, score_hi
    th = 0.5 * (lo + hi)
    for _ in range(mliqae._NEWTON_MAX_STEPS):
        score, curv = log_likelihood_slopes(th, rows)
        if score > 0.0:
            lo = th
        elif score < 0.0:
            hi = th
        newton = th - score / curv
        if abs(newton - th) <= mliqae._MLE_BRACKET:
            return th, score
        th = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise AssertionError(f"no convergence on [{lo!r}, {hi!r}]")


def single_flank_pieces(rng, n: int):
    """n (lo, hi, rows): totals at one to four orders and a piece on one flank of each.

    The counts are drawn at a true angle anywhere on the flanks the piece
    lies on, so the maximum falls below, inside or above the piece.
    """
    for _ in range(n):
        ks = rng.choice(12, size=int(rng.integers(1, 5)), replace=False).tolist()
        centre = float(rng.uniform(0.01, math.pi / 2.0 - 0.01))
        cell_lo, cell_hi = 0.0, math.pi / 2.0
        for k in ks:
            step = math.pi / (2.0 * (2 * k + 1))
            j = math.floor(centre / step)
            cell_lo, cell_hi = max(cell_lo, j * step), min(cell_hi, (j + 1) * step)
        lo, hi = sorted(rng.uniform(cell_lo, cell_hi, size=2).tolist())
        truth = float(rng.uniform(cell_lo, cell_hi))
        totals = OrderTotals()
        for k in ks:
            m = int(rng.integers(1, 2000))
            totals.add(RoundRecord(k=k, m=m, h=int(rng.binomial(m, math.sin((2 * k + 1) * truth) ** 2))))
        yield lo, hi, totals.rows


def edge_pieces(rng, n: int):
    """(lo, hi, rows) whose maximum lies just inside or outside an edge, or on a singular edge.

    From each of n single_flank_pieces with an inside maximum r, one edge
    moves to r -+ d for d = 1e-12, 1e-10 and 1e-8 on either side of r.  Each
    piece also yields two whose lo or hi is the singular angle of an order
    nearest below lo or above hi, which _concave_piece nudges off when that
    order's term is singular there.
    """
    for lo, hi, rows in single_flank_pieces(rng, n):
        steps = [math.pi / (2.0 * w) for w, _, _ in rows]
        below = max(math.floor(lo / step) * step for step in steps)
        above = min(math.ceil(hi / step) * step for step in steps)
        if below > 0.0:
            yield below, hi, rows
        yield lo, above, rows
        lo, hi = mliqae._concave_piece(lo, hi, rows)
        r, _ = two_edge_refine(lo, hi, rows)
        if lo < r < hi:
            for d in (1e-12, 1e-10, 1e-8):
                for offset in (d, -d):
                    yield lo, r + offset, rows
                    yield r + offset, hi, rows


def measure(feasible: tuple[float, float]) -> float:
    lo, hi = feasible
    return hi - lo


def nested(inner: tuple[float, float], outer: tuple[float, float]) -> bool:
    return outer[0] <= inner[0] <= inner[1] <= outer[1]


class FlipOracle:
    """Adversarial oracle whose order-0 and higher-order responses disagree."""

    def success_probability(self, k: int) -> float:
        return 0.9 if k == 0 else 0.05


class GlitchOracle:
    """Honest oracle except for one call, whose batch sees no success."""

    def __init__(self, a: float, glitch_call: int):
        self.honest = AnalyticOracle(a)
        self.glitch_call = glitch_call
        self.calls = 0

    def success_probability(self, k: int) -> float:
        self.calls += 1
        return 0.0 if self.calls == self.glitch_call else self.honest.success_probability(k)


def in_single_flank(theta_lo: float, theta_hi: float, k: int) -> bool:
    """Independent check that the amplified response is monotone over the
    hull: both scaled endpoints fall in the same half-period of sin^2."""
    omega = 2 * k + 1
    half = math.pi / 2.0
    return math.floor(omega * theta_lo / half) == math.floor(omega * theta_hi / half)


def deepest_single_flank(theta_lo: float, theta_hi: float, k_max: int) -> int:
    """Brute force: the largest k <= k_max that in_single_flank accepts."""
    omega = 2.0 * np.arange(k_max + 1) + 1.0
    half = math.pi / 2.0
    flank = np.floor(omega * theta_lo / half) == np.floor(omega * theta_hi / half)
    return int(np.flatnonzero(flank)[-1])


class TestControllerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ControllerConfig(budget=0)
        with pytest.raises(ValueError):
            ControllerConfig(budget=100, delta_tot=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon_a", -0.1),
            ("epsilon_a", math.inf),
            ("epsilon_a", math.nan),
        ],
    )
    def test_rejects_bad_loop_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControllerConfig(budget=100, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", 100.0),
            ("budget", True),
            ("budget", "100"),
            ("delta_tot", "0.05"),
            ("delta_tot", True),
            ("epsilon_a", None),
            ("epsilon_a", False),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        kwargs = {"budget": 100, field: value}
        with pytest.raises(ValueError, match=re.escape(f"bad value {value!r} for parameter {field!r}: must be ")):
            ControllerConfig(**kwargs)

    def test_accepts_boundary_settings(self):
        cfg = ControllerConfig(budget=np.int64(1), delta_tot=np.float64(0.5), epsilon_a=0)
        assert (cfg.budget, cfg.delta_tot, cfg.epsilon_a) == (1, 0.5, 0)
        assert ControllerConfig(budget=100, delta_tot=1e-12).delta_tot == 1e-12

    def test_budget_ceiling_is_two_to_the_53(self):
        assert mliqae.MAX_BUDGET == 2**53
        assert ControllerConfig(budget=2**53).budget == 2**53
        ceiling = r"^budget 9007199254740993 is too large: .* at most 2\*\*53 = 9007199254740992$"
        with pytest.raises(ValueError, match=ceiling):
            ControllerConfig(budget=2**53 + 1)

    def test_fields_are_the_run_contract(self):
        assert [f.name for f in fields(ControllerConfig)] == [
            "budget",
            "delta_tot",
            "epsilon_a",
        ]


class TestSelectShots:
    def test_pacing_bound_binds_early(self):
        # A share of 10000 // 28 = 357 shots lies above _M_MIN.
        assert select_shots(10_000, 0) == 357

    def test_tiny_budget_spends_everything(self):
        assert select_shots(16, 0) == 16

    def test_share_does_not_depend_on_the_round(self):
        # 1e6 // (5 * 28) = 7142 shots at order 2.  The step reads only the
        # remaining budget and the order, so no round count can cap the
        # batch or shrink the horizon.
        assert select_shots(1_000_000, 2) == 7142

    def test_zero_when_one_shot_is_unaffordable(self):
        # One shot at order 3 costs 7 calls.
        assert select_shots(5, 3) == 0

    def test_never_exceeds_remaining_budget(self):
        rng = np.random.default_rng(2)
        budget = 50_000
        for _ in range(200):
            remaining = budget - int(rng.integers(0, budget))
            k = int(rng.integers(0, 12))
            m = select_shots(remaining, k)
            assert (2 * k + 1) * m <= remaining


class TestSelectDepth:
    def test_wide_hull_keeps_order_zero(self):
        # A hull wider than pi/6 straddles a turning point of sin^2((2k+1) theta)
        # at every k >= 1.
        assert deepest_single_flank(0.30, 0.90, DEEP_K) == 0
        assert select_depth((0.30, 0.90), DEEP) == 0

    def test_no_estimate_defaults_to_zero(self):
        assert select_depth(FULL, DEEP) == 0

    def test_point_hull_scans_from_the_remainder_bound(self):
        # A zero-width hull has no width bound and every order is
        # single-flank over it, so the deepest order one shot of which the
        # rest of the budget affords is chosen, down to order 0 when even
        # that shot is unaffordable.
        for spent, k in ((0, DEEP_K), (8000, 96), (8190, 1), (8191, 0), (8192, 0), (8193, 0)):
            assert select_depth((0.5, 0.5), DEEP - spent) == k

    def test_is_the_deepest_single_flank_order(self):
        # Brute force over every order on random hulls, from the full domain
        # down to a near-point at either edge.
        rng = np.random.default_rng(31)
        hulls = [(THETA_LO, THETA_HI), (THETA_LO, 1e-9), (THETA_HI - 1e-9, THETA_HI)]
        for _ in range(600):
            centres = rng.uniform(0.0, math.pi / 2, size=int(rng.integers(1, 4)))
            widths = 10.0 ** rng.uniform(-8, 0, size=centres.size)
            union = IntervalUnion(zip(centres - 0.5 * widths, centres + 0.5 * widths))
            hulls.append((union.components[0][0], union.components[-1][1]))
        for lo, hi in hulls:
            assert select_depth((lo, hi), DEEP) == deepest_single_flank(lo, hi, DEEP_K)

    def test_positive_depth_is_always_single_flank(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            theta = float(rng.uniform(0.05, 1.4))
            width = float(rng.uniform(1e-6, 0.05))
            lo = max(1e-6, theta - 0.5 * width)
            hi = min(math.pi / 2 - 1e-6, theta + 0.5 * width)
            k = select_depth((lo, hi), DEEP)
            if k > 0:
                assert in_single_flank(lo, hi, k)


class TestUpdateFeasible:
    def test_rejects_a_set_that_is_not_one_interval_on_one_flank(self):
        # The set after ROUND_A holds pi/6, where order 1 (omega = 3) is
        # singular through ROUND_B's failures, so the depth rule never runs
        # order 1 over it.
        after_a, _, _ = update_feasible(FULL, OrderTotals([ROUND_A]), 0.05)
        lo, hi = after_a
        assert lo < math.pi / 6 < hi and select_depth(after_a, DEEP) != ROUND_B.k
        with pytest.raises(ValueError, match="singular"):
            update_feasible(after_a, OrderTotals([ROUND_A, ROUND_B]), 0.05)
        # Without a failure at order 1, pi/6 is no singular angle, and pi/3
        # lies above the set.
        all_hits = OrderTotals([ROUND_A, RoundRecord(k=1, m=1000, h=1000)])
        update_feasible(after_a, all_hits, 0.05)
        # pi/6 within _CUT_NUDGE of both edges: each edge moves inward past
        # it, nothing is left, and the update raises instead of returning an
        # inverted set.
        tight = (math.pi / 6 * (1 - 4e-13), math.pi / 6 * (1 + 4e-13))
        with pytest.raises(ValueError, match="within a nudge of a singular angle"):
            update_feasible(tight, OrderTotals([ROUND_B]), 0.05)

    def test_a_zero_width_set_has_no_chord_and_stays_put(self):
        # Both chord ends sit on theta_hat, so the chord is 0, the cut is
        # -inf (log 0 is never taken) and the set keeps its one point.
        got = update_feasible((0.5, 0.5), OrderTotals([RoundRecord(k=0, m=10, h=3)]), 0.05)
        assert got == ((0.5, 0.5), 0.5, -math.inf)

    def test_uninformative_batch_barely_moves_the_set(self):
        before, totals = two_round_set()
        # Two successes out of four at order 0 add almost no information.
        after, _, _ = add_batch(before, totals, RoundRecord(k=0, m=4, h=2))
        assert nested(after, before)
        assert measure(after) >= 0.99 * measure(before)

    def test_contradictory_batch_never_empties_the_set(self):
        # No success in 200 shots at order 0 contradicts the 262/1000 before
        # it.  The set shrinks, but keeps the MLE over the set before.
        before, totals = two_round_set()
        after, theta_hat, _ = add_batch(before, totals, RoundRecord(k=0, m=200, h=0))
        assert nested(after, before)
        arrays = columns(totals.rows)
        ll_grid = log_likelihood_terms(np.linspace(*before, 200_001), *arrays).max()
        ll_hat = log_likelihood_terms(np.array([theta_hat]), *arrays)[0]
        assert ll_hat >= ll_grid - 1e-9 * abs(ll_grid)
        assert after[0] <= theta_hat <= after[1]

    def test_early_newton_stop_still_bounds_the_set(self, monkeypatch):
        # A coarse refinement stops short of the maximum; the residual score
        # there widens the radius, so every point of the set before that
        # clears the cut, on a dense grid, stays in the set.  Each case runs
        # its (m, h) batches at the orders the depth rule picks.
        monkeypatch.setattr(mliqae, "_MLE_BRACKET", 1e-2)
        for batches in ([(1000, 262)], [(1000, 262), (1000, 998)], [(300, 40), (500, 100)]):
            feasible, totals = FULL, OrderTotals()
            for m, h in batches:
                before = feasible
                batch = RoundRecord(k=select_depth(before, DEEP), m=m, h=h)
                feasible, _, cut = add_batch(before, totals, batch)
            grid = np.linspace(*before, 200_001)
            above = grid[log_likelihood_terms(grid, *columns(totals.rows)) >= cut]
            assert above.size and nested((above.min(), above.max()), feasible)

    def test_measure_never_increases(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            a = float(rng.uniform(0.05, 0.9))
            oracle = AnalyticOracle(a)
            feasible, totals = FULL, OrderTotals()
            last = measure(feasible)
            for _ in range(8):
                k = select_depth(feasible, DEEP)
                h = int(rng.binomial(400, oracle.success_probability(k)))
                feasible, _, _ = add_batch(feasible, totals, RoundRecord(k=k, m=400, h=h))
                now = measure(feasible)
                assert now <= last + 1e-12
                last = now


class TestConstrainedMle:
    """The update's MLE over the set before it, the theta_hat it returns."""

    def test_interior_maximum_matches_frequency(self):
        (feasible,) = band_for(ROUND_A).components
        theta_hat = controller_mle(feasible, [ROUND_A])
        assert theta_hat == pytest.approx(math.asin(math.sqrt(0.262)), abs=1e-5)
        assert math.sin(theta_hat) ** 2 == pytest.approx(0.262, abs=1e-4)

    def test_excluded_maximum_lands_on_nearest_endpoint(self):
        assert controller_mle((0.60, 0.70), [ROUND_A]) == pytest.approx(0.60, abs=1e-6)
        assert controller_mle((0.30, 0.40), [ROUND_A]) == pytest.approx(0.40, abs=1e-6)

    def test_two_round_estimate_stays_near_truth(self):
        feasible, _ = two_round_set()
        theta_hat = controller_mle(feasible, [ROUND_A, ROUND_C])
        assert feasible[0] <= theta_hat <= feasible[1]
        assert abs(math.sin(theta_hat) ** 2 - 0.2625) < 0.03

    def test_maximum_on_an_edge_returns_the_edge_exactly(self):
        assert controller_mle((0.2, 0.4), [RoundRecord(k=0, m=500, h=0)]) == 0.2
        assert controller_mle((0.2, 0.4), [ROUND_B]) == 0.4

    def test_refinement_reaches_the_stationary_point(self):
        # Interior optimum of a multi-order dataset: the score vanishes there
        # and the estimate beats a dense grid.
        rounds = [ROUND_A, RoundRecord(k=2, m=400, h=75)]
        theta_hat = controller_mle((0.50, 0.58), rounds)
        grid = np.linspace(0.50, 0.58, 200_001)
        assert loglik(theta_hat, rounds)[0] >= loglik(grid, rounds).max()
        step = 1e-7
        up, down = loglik(theta_hat + step, rounds)[0], loglik(theta_hat - step, rounds)[0]
        assert abs(up - down) / (2 * step) < 1e-2

    def test_one_edge_search_equals_the_two_edge_search(self):
        # The midpoint's score picks the one edge worth checking, and the
        # search checks it only when it closes in on it; on every piece the
        # result is the two-edge search's, bit for bit.  The edge pieces put
        # the maximum within 1e-12 to 1e-8 of an edge, on either side, or
        # start the piece on a singular angle.
        pieces = (single_flank_pieces(np.random.default_rng(31), 1500), edge_pieces(np.random.default_rng(32), 300))
        for source in pieces:
            where = {"lo": 0, "hi": 0, "inside": 0}
            for lo, hi, rows in source:
                lo, hi = mliqae._concave_piece(lo, hi, rows)
                theta, score = mliqae._newton_refine(lo, hi, rows)
                assert (theta, score) == two_edge_refine(lo, hi, rows)
                where["lo" if theta == lo else "hi" if theta == hi else "inside"] += 1
            assert min(where.values()) >= 100, where

    def test_the_search_checks_an_edge_only_when_it_closes_in_on_it(self, monkeypatch):
        seen = []

        def spy(theta, rows):
            seen.append(theta)
            return log_likelihood_slopes(theta, rows)

        monkeypatch.setattr(mliqae, "log_likelihood_slopes", spy)
        # From the full domain, 262/1000 at order 0 has its maximum far from
        # either edge: five Newton iterates and no edge.
        rows = OrderTotals([ROUND_A]).rows
        lo, hi = mliqae._concave_piece(THETA_LO, THETA_HI, rows)
        theta, _ = mliqae._newton_refine(lo, hi, rows)
        assert lo < theta < hi
        assert len(seen) == 5 and lo not in seen and hi not in seen
        # A maximum on an edge: that edge is evaluated once, and is the result.
        for piece, edge, other in (((0.60, 0.70), 0.60, 0.70), ((0.30, 0.40), 0.40, 0.30)):
            seen.clear()
            assert mliqae._newton_refine(*piece, rows)[0] == edge
            assert seen.count(edge) == 1 and other not in seen

    def test_a_chord_end_at_the_maximum_costs_no_likelihood_pass(self, monkeypatch):
        # 100 of 100 at order 0 puts the maximum on the upper edge of the
        # full domain, so the upper chord end is theta_hat itself: its drop
        # is 0 and its mass 1, and only theta_hat and the lower end take a
        # likelihood pass.  The set and the cut are those of the three-pass
        # update, bit for bit.
        totals = OrderTotals([RoundRecord(k=0, m=100, h=100)])
        rows, info = totals.rows, totals.info
        calls = []

        def spy(theta, rows):
            calls.append(theta)
            return log_likelihood(theta, rows)

        monkeypatch.setattr(mliqae, "log_likelihood", spy)
        feasible, theta_hat, cut = update_feasible(FULL, totals, 0.05)
        assert theta_hat == THETA_HI and len(calls) == 2
        assert feasible == (1.3196803661654453, THETA_HI) and cut == -6.305922568234987

        lo, hi = mliqae._concave_piece(THETA_LO, THETA_HI, rows)
        theta, score = mliqae._newton_refine(lo, hi, rows)
        reach = mliqae._CHORD_SIGMAS / math.sqrt(info)
        end_lo, end_hi = max(lo, theta - reach), min(hi, theta + reach)
        ll = log_likelihood(theta, rows)
        masses = [chord_mass(ll - log_likelihood(end, rows)) for end in (end_lo, end_hi)]
        chord = (theta - end_lo) * masses[0] + (end_hi - theta) * masses[1]
        want = ll + math.log(chord) - math.log(mliqae._HALF_PI) + math.log(0.05)
        slack = info * (ll - want)
        up, down = max(score, 0.0), max(-score, 0.0)
        assert cut == want
        assert feasible == (
            max(lo, theta - 2.0 * (down + math.sqrt(down * down + slack)) / info),
            min(hi, theta + 2.0 * (up + math.sqrt(up * up + slack)) / info),
        )

    def test_a_lower_chord_end_at_the_maximum_costs_no_likelihood_pass(self, monkeypatch):
        # The mirror of the test above: 0 of 100 at order 0 puts the maximum
        # on the lower edge of the full domain, so the lower chord end is
        # theta_hat itself, and only theta_hat and the upper end take a pass.
        totals = OrderTotals([RoundRecord(k=0, m=100, h=0)])
        calls = []

        def spy(theta, rows):
            calls.append(theta)
            return log_likelihood(theta, rows)

        monkeypatch.setattr(mliqae, "log_likelihood", spy)
        feasible, theta_hat, cut = update_feasible(FULL, totals, 0.05)
        assert theta_hat == THETA_LO and len(calls) == 2
        assert feasible == (THETA_LO, 0.2511159606294512) and cut == -6.305922568234986

    def test_an_edge_with_zero_score_is_the_maximum(self):
        # 1 success in 5 shots at order 0 has its maximum at asin(sqrt(1/5)),
        # where the score is exactly 0.0 in double.  On a piece ending there,
        # that edge is the maximum and is returned as it is, not approached
        # by Newton steps from inside the piece.
        rows = OrderTotals([RoundRecord(k=0, m=5, h=1)]).rows
        edge = math.asin(math.sqrt(0.2))
        assert log_likelihood_slopes(edge, rows)[0] == 0.0
        assert mliqae._newton_refine(0.3, edge, rows) == (edge, 0.0)
        assert mliqae._newton_refine(edge, 0.6, rows) == (edge, 0.0)

    def test_capped_search_returns_the_score_at_its_angle(self, monkeypatch):
        # With the step cap binding, the search stops at an iterate short of
        # the maximum; the score it returns, which the update's outer bound
        # takes as the residual, is the one at that iterate.
        monkeypatch.setattr(mliqae, "_NEWTON_MAX_STEPS", 1)
        rows = OrderTotals([RoundRecord(k=0, m=100, h=3), RoundRecord(k=1, m=200, h=40)]).rows
        theta, score = mliqae._newton_refine(0.1, 0.3, rows)
        assert 0.1 < theta < 0.3
        assert score == log_likelihood_slopes(theta, rows)[0] > 0.0

    def test_set_starting_on_a_singular_angle_finds_its_interior_maximum(self):
        # Order 1 (omega = 3) is singular at pi/6 through its failures: the
        # edge moves inward past it, and the search runs on what is left.
        theta_hat = controller_mle((math.pi / 6, 0.6), [ROUND_A, ROUND_B])
        assert theta_hat == pytest.approx(0.538395, abs=1e-6)


class TestUpdateCost:
    def test_kernel_passes_per_update_stay_low(self, monkeypatch):
        # Closed-form runs at 64k: 77 updates over three amplitudes and three
        # seeds.  The search makes 280 score passes and the chord 225
        # likelihood passes; checking an edge before any Newton step and a
        # likelihood pass at a chord end on theta_hat made 343 and 231.
        passes = {"score": 0, "likelihood": 0}

        def counted(kernel, name):
            def wrapper(theta, rows):
                passes[name] += 1
                return kernel(theta, rows)

            return wrapper

        monkeypatch.setattr(mliqae, "log_likelihood_slopes", counted(log_likelihood_slopes, "score"))
        monkeypatch.setattr(mliqae, "log_likelihood", counted(log_likelihood, "likelihood"))
        updates = 0
        for a in (0.015, 0.5, 1.0 - 1e-6):
            for seed in range(3):
                report = run(AnalyticOracle(a), ControllerConfig(budget=64000), np.random.default_rng(seed))
                updates += len(report.ledger)
        assert passes["score"] / updates <= 3.64 and passes["likelihood"] / updates <= 2.93, (passes, updates)


class TestNoRecovery:
    def test_self_contradicting_oracle_spends_its_budget_and_never_fails(self):
        # Order 0 and the deeper orders disagree about the angle.  The set
        # shrinks towards the best compromise and the run spends its budget.
        budget = 50_000
        report = run(FlipOracle(), ControllerConfig(budget=budget), np.random.default_rng(8))
        assert not report.failed and report.restarts == 0
        assert len(report.feasible)
        assert report.feasible.contains(report.theta_hat)
        assert report.oracle_calls == budget

    def test_million_shot_self_contradicting_run_ends_cleanly(self):
        # The loop never nests a recovery inside a batch, so even the largest
        # budget on a self-contradicting oracle ends in one flat pass.
        budget = 1_000_000
        report = run(FlipOracle(), ControllerConfig(budget=budget), np.random.default_rng(8))
        assert not report.failed and report.restarts == 0
        assert report.feasible.contains(report.theta_hat)
        assert report.oracle_calls == budget

    def test_contradictory_batch_mid_run_is_kept_and_the_run_carries_on(self):
        # The second batch reports no success against an honest first batch
        # at order 0.  Nothing is shed: the batch stays in the ledger, the
        # set stays non-empty and the run spends its budget.
        budget = 64_000
        for seed in range(3):
            oracle = GlitchOracle(0.2625, glitch_call=2)
            report = run(oracle, ControllerConfig(budget=budget), np.random.default_rng(seed))
            first, second = report.ledger[:2]
            assert (first.k, second.h) == (0, 0) and first.h > 0
            assert not report.failed and report.restarts == 0
            assert len(report.feasible)
            assert report.feasible.contains(report.theta_hat)
            assert report.oracle_calls == sum(b.cost for b in report.ledger)
            assert report.oracle_calls == budget

    def test_unit_amplitude_width_shrinks_with_budget(self):
        # Pooling every batch keeps tightening the set at the saturated edge;
        # intersecting per-batch bands stalls there, near width 4e-3.
        widths = []
        for budget in (4_000, 32_000, 256_000):
            runs = [
                run(AnalyticOracle(1.0), ControllerConfig(budget=budget), np.random.default_rng(seed))
                for seed in range(5)
            ]
            assert all(r.a_bounds[1] == 1.0 for r in runs)
            widths.append(float(np.median([r.a_bounds[1] - r.a_bounds[0] for r in runs])))
        assert widths[0] > 4 * widths[1] > 16 * widths[2]
        assert widths[2] < 1e-4


class TestRun:
    def test_spends_within_budget(self):
        # Without a precision target a run spends its budget to the last call.
        for budget in (1, 300, 2000, 16_000):
            for a in (0.05, 0.2625, 0.9):
                cfg = ControllerConfig(budget=budget)
                report = run(AnalyticOracle(a), cfg, np.random.default_rng(17))
                assert report.oracle_calls == budget
                assert report.oracle_calls == sum(b.cost for b in report.ledger)

    def test_report_states_each_fact_once(self):
        # The final set is feasible's one interval, and the batch count is len(ledger).
        names = {f.name for f in fields(mliqae.EstimateReport)}
        assert names == {"theta_hat", "a_hat", "a_bounds", "feasible", "oracle_calls", "ledger"}

    def test_identical_seeds_give_identical_reports(self):
        cfg = ControllerConfig(budget=32_000)
        a = run(AnalyticOracle(0.2625), cfg, np.random.default_rng(99))
        b = run(AnalyticOracle(0.2625), cfg, np.random.default_rng(99))
        assert a == b

    def test_estimate_lies_in_feasible_set(self):
        cfg = ControllerConfig(budget=16_000)
        for seed in range(10):
            report = run(AnalyticOracle(0.2625), cfg, np.random.default_rng(seed))
            assert not report.failed
            assert report.feasible.contains(report.theta_hat, tol=1e-9)
            assert report.a_hat == pytest.approx(
                math.sin(report.theta_hat) ** 2, abs=1e-12
            )

    def test_each_batch_runs_at_the_deepest_single_flank_order_before_it(self):
        # Replay each ledger through the three public steps: every batch's
        # order and size are the ones select_depth and select_shots pick,
        # and the last update returns the report's set and estimate bit for
        # bit, so run is these steps in a loop.  Every order is also the
        # deepest one whose scaled hull, before the batch, lies on one
        # flank, among those one shot of which the rest of the budget
        # affords.  A single-flank order has omega (hi - lo) < pi/2, so the
        # brute-force scan stops at k = pi / (4 (hi - lo)).
        budget = 64_000
        for a, seed in ((0.0, 1), (0.015, 2), (0.1, 5), (0.2625, 7), (0.7, 13), (1.0, 3)):
            report = run(AnalyticOracle(a), ControllerConfig(budget=budget), np.random.default_rng(seed))
            feasible, totals, spent = FULL, OrderTotals(), 0
            for batch in report.ledger:
                lo, hi = feasible
                k_max = (budget - spent - 1) // 2
                if hi > lo:
                    k_max = min(k_max, math.ceil(math.pi / (4.0 * (hi - lo))))
                assert batch.k == deepest_single_flank(lo, hi, k_max)
                assert batch.k == select_depth(feasible, budget - spent)
                assert batch.m == select_shots(budget - spent, batch.k)
                spent += batch.cost
                feasible, theta_hat, _ = add_batch(feasible, totals, batch)
            assert report.feasible.components == (feasible,)
            assert theta_hat == report.theta_hat
            assert max(b.k for b in report.ledger) > 0

    def test_a_numpy_integer_budget_runs_as_its_python_int(self):
        # ControllerConfig takes any integer; the ledger and the spend stay Python ints.
        want = run(AnalyticOracle(0.3), ControllerConfig(budget=5000), np.random.default_rng(1))
        got = run(AnalyticOracle(0.3), ControllerConfig(budget=np.int64(5000)), np.random.default_rng(1))
        assert got == want
        assert {type(b.m) for b in got.ledger} == {int} and type(got.oracle_calls) is int

    def test_huge_budgets_end_in_a_few_rounds(self):
        # Only the set's width and the remaining budget bound the order, so
        # the order grows with the budget and the round count barely does.
        # The statevector model answers any order from its rotation angle.
        grid = ((0.0, 10**10), (0.015, 10**10), (1.0, 10**10), (0.015, 10**12))
        cases = [(AnalyticOracle(a), a, budget) for a, budget in grid]
        spec = OracleSpec(np.full(8, 1.0 / 8), np.linspace(0.0, 0.03, 8))
        cases.append((StatevectorOracle(spec), spec.amplitude, 10**10))
        for oracle, a, budget in cases:
            report = run(oracle, ControllerConfig(budget=budget), np.random.default_rng(4))
            assert len(report.ledger) <= 30
            assert report.oracle_calls == budget
            assert report.feasible.contains(math.asin(math.sqrt(a)), tol=1e-12)
            assert report.a_bounds[0] <= a <= report.a_bounds[1]

    def test_shot_floor_keeps_runs_short(self):
        # _M_MIN buys wall time, not accuracy: without it (_M_MIN = 1) the
        # late batches shrink to a few shots each, and the longest run at
        # each amplitude of this grid lasts 34-107 rounds instead of 7-17.
        for a in (0.0, 0.015, 0.2625, 0.5, 0.9, 0.9999, 1.0):
            for budget in (300, 2000, 4000, 16_000, 64_000, 256_000, 10**6, 10**7):
                for rep in range(3):
                    rng = np.random.default_rng(run_seed(0, "mliqae", budget, rep))
                    report = run(AnalyticOracle(a), ControllerConfig(budget=budget), rng)
                    assert len(report.ledger) <= 20
                    assert report.oracle_calls == budget

    def test_target_half_width_stops_early(self):
        cfg = ControllerConfig(budget=1_000_000, epsilon_a=0.02)
        report = run(AnalyticOracle(0.3), cfg, np.random.default_rng(3))
        assert not report.failed
        half_width = 0.5 * (report.a_bounds[1] - report.a_bounds[0])
        assert half_width <= 0.02
        assert report.oracle_calls < 1_000_000

    def test_a_target_every_set_meets_stops_after_one_batch(self):
        # No amplitude interval is wider than 1, so the test after the first
        # update stops the run.
        cfg = ControllerConfig(budget=1_000_000, epsilon_a=0.5)
        report = run(AnalyticOracle(0.3), cfg, np.random.default_rng(3))
        assert len(report.ledger) == 1
        assert report.oracle_calls == report.ledger[0].cost < 1_000_000

    def test_a_run_loads_no_scipy(self):
        # The controller works on per-order totals alone; only an exact
        # Clopper-Pearson band needs scipy, so a fresh interpreter shows it
        # stays unloaded through a whole run on either measurement model.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from tailamp.mliqae import ControllerConfig, run\n"
            "from tailamp.qsim import AnalyticOracle, OracleSpec, StatevectorOracle\n"
            "run(AnalyticOracle(0.2625), ControllerConfig(budget=8000), np.random.default_rng(1))\n"
            "spec = OracleSpec(np.full(1024, 1.0 / 1024), np.linspace(0.0, 0.03, 1024))\n"
            "run(StatevectorOracle(spec), ControllerConfig(budget=32000), np.random.default_rng(1))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_estimate_converges_with_budget(self):
        errors = []
        for budget in (2000, 32_000):
            errs = []
            for seed in range(8):
                cfg = ControllerConfig(budget=budget)
                report = run(
                    AnalyticOracle(0.2625), cfg, np.random.default_rng(200 + seed)
                )
                errs.append(abs(report.a_hat - 0.2625))
            errors.append(float(np.median(errs)))
        assert errors[1] < errors[0]


# Decision-equivalence gate.  The (kind, k, m, h) ledgers of this seeded grid
# and the estimates below were first recorded with the golden-section MLE and
# the hand-rolled inverse beta that the Newton refinement and scipy's
# betaincinv replaced, and re-recorded five times since: when the low-depth
# sweep and the saturation back-off were deleted, when the pooled likelihood
# set replaced the intersection of per-batch bands, when the deepest
# single-flank order replaced the depth ladder, when the depth cap of
# k <= 64 was deleted, and when the shot rule became one fixed share of the
# remainder.  Any change meant to keep the controller's decisions must keep
# the digest, and the estimates to 1e-8.  Every budget reaches the shot
# rule's _M_MIN floor in its late batches and its affordable remainder in its
# last; all but 300 also reach its 1/_HORIZON share.
EQUIV_AMPLITUDES = (0.0, 0.015, 0.2625, 0.9999, 1.0)
EQUIV_BUDGETS = (300, 4000, 64000, 256000)
EQUIV_SEEDS = 3
EQUIV_DIGEST = "d312c6468c1190d5a9728d2525bcc5908e8856e192a93b4e9f1e6279be22b16c"
EQUIV_A_HAT = {
    (0.0, 300): (1e-24,) * 3,
    (0.0, 4000): (1e-24,) * 3,
    (0.0, 64000): (1e-24,) * 3,
    (0.0, 256000): (1e-24,) * 3,
    (0.015, 300): (0.015498109665615736, 0.015498109665615736, 0.010427080143885652),
    (0.015, 4000): (0.01528434185706217, 0.014740288078058134, 0.015720445054728648),
    (0.015, 64000): (0.014986983121355171, 0.01501696009905138, 0.015002193311922847),
    (0.015, 256000): (0.015005770886110631, 0.015000683783935823, 0.0149981921283243),
    (0.2625, 300): (0.25333333333333324, 0.2799999999999999, 0.2700000000000001),
    (0.2625, 4000): (0.2641791641967038, 0.2639775429965282, 0.26451392329811135),
    (0.2625, 64000): (0.2626247889631516, 0.26254638528790264, 0.26248376296016024),
    (0.2625, 256000): (0.26249950376233894, 0.2624941903207422, 0.262506143856737),
    (0.9999, 300): (1.0,) * 3,
    (0.9999, 4000): (0.9999114755851416, 0.9999287291559751, 0.9999071594569809),
    (0.9999, 64000): (0.9998999244932746, 0.9999006643934483, 0.9998977250832628),
    (0.9999, 256000): (0.9998997758893907, 0.999899775383702, 0.9999002430681151),
    (1.0, 300): (1.0,) * 3,
    (1.0, 4000): (1.0,) * 3,
    (1.0, 64000): (1.0,) * 3,
    (1.0, 256000): (1.0,) * 3,
}


def ledger_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        for b in report.ledger:
            digest.update(f"{b.kind},{b.k},{b.m},{b.h};".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def equivalence_grid():
    reports = {}
    for a in EQUIV_AMPLITUDES:
        for budget in EQUIV_BUDGETS:
            for rep in range(EQUIV_SEEDS):
                rng = np.random.default_rng(run_seed(0, "mliqae", budget, rep))
                reports[a, budget, rep] = run(AnalyticOracle(a), ControllerConfig(budget=budget), rng)
    return reports


class TestDecisionEquivalence:
    def test_ledgers_match_the_recorded_digest(self, equivalence_grid):
        assert ledger_digest(equivalence_grid.values()) == EQUIV_DIGEST

    def test_estimates_match_the_recorded_values(self, equivalence_grid):
        for (a, budget, rep), report in equivalence_grid.items():
            assert report.a_hat == pytest.approx(EQUIV_A_HAT[a, budget][rep], abs=1e-8)


# The same gate on the precision-stop path, which EQUIV_DIGEST (epsilon_a = 0)
# never takes: the grid above at two targets.  Recorded when the stop test
# moved from the top of the loop to just after each update.
EQUIV_EPSILONS = (1e-2, 1e-3)
EQUIV_EPS_DIGEST = "8dc91a10aa49d9141a75dc004f3ace304b62f6556aef2f7d6c5c4f37ff5715f5"
EQUIV_EPS_A_HAT = {
    (0.0, 300, 0.01): (1e-24,) * 3,
    (0.0, 300, 0.001): (1e-24,) * 3,
    (0.0, 4000, 0.01): (1e-24,) * 3,
    (0.0, 4000, 0.001): (1e-24,) * 3,
    (0.0, 64000, 0.01): (1e-24,) * 3,
    (0.0, 64000, 0.001): (1e-24,) * 3,
    (0.0, 256000, 0.01): (1e-24,) * 3,
    (0.0, 256000, 0.001): (1e-24,) * 3,
    (0.015, 300, 0.01): (0.015498109665615736, 0.015498109665615736, 0.010427080143885652),
    (0.015, 300, 0.001): (0.015498109665615736, 0.015498109665615736, 0.010427080143885652),
    (0.015, 4000, 0.01): (0.015971905933259173, 0.01702758804874933, 0.0159736252022516),
    (0.015, 4000, 0.001): (0.01528434185706217, 0.014740288078058134, 0.015720445054728648),
    (0.015, 64000, 0.01): (0.015430336676097715, 0.015246272624570142, 0.01339585590839373),
    (0.015, 64000, 0.001): (0.014959468617675973, 0.014903624387570459, 0.015201198443657547),
    (0.015, 256000, 0.01): (0.01334500109385177, 0.012688689564645375, 0.014548238897396329),
    (0.015, 256000, 0.001): (0.014772460477011301, 0.015126156974062627, 0.01488444276578421),
    (0.2625, 300, 0.01): (0.25333333333333324, 0.2799999999999999, 0.2700000000000001),
    (0.2625, 300, 0.001): (0.25333333333333324, 0.2799999999999999, 0.2700000000000001),
    (0.2625, 4000, 0.01): (0.2642251796806472, 0.2640498338834355, 0.26451392329811135),
    (0.2625, 4000, 0.001): (0.2641791641967038, 0.2639775429965282, 0.26451392329811135),
    (0.2625, 64000, 0.01): (0.26131412774852264, 0.260969580518912, 0.26080376265561084),
    (0.2625, 64000, 0.001): (0.26260183542190174, 0.2625852695683919, 0.26240152627868685),
    (0.2625, 256000, 0.01): (0.26073849348168976, 0.26292112312315247, 0.26319563138786084),
    (0.2625, 256000, 0.001): (0.2625634050773581, 0.2623099646336515, 0.2624924292489808),
    (0.9999, 300, 0.01): (1.0,) * 3,
    (0.9999, 300, 0.001): (1.0,) * 3,
    (0.9999, 4000, 0.01): (1.0,) * 3,
    (0.9999, 4000, 0.001): (0.9999742156287588, 0.9999480819352743, 0.9999480819352743),
    (0.9999, 64000, 0.01): (0.999562363240048, 1.0, 1.0),
    (0.9999, 64000, 0.001): (0.9998391127261227, 0.9998372405576255, 0.9999290927976671),
    (0.9999, 256000, 0.01): (1.0, 0.9997812294903949, 0.9998906147451376),
    (0.9999, 256000, 0.001): (1.0, 0.9997812294903949, 0.9998906147451376),
    (1.0, 300, 0.01): (1.0,) * 3,
    (1.0, 300, 0.001): (1.0,) * 3,
    (1.0, 4000, 0.01): (1.0,) * 3,
    (1.0, 4000, 0.001): (1.0,) * 3,
    (1.0, 64000, 0.01): (1.0,) * 3,
    (1.0, 64000, 0.001): (1.0,) * 3,
    (1.0, 256000, 0.01): (1.0,) * 3,
    (1.0, 256000, 0.001): (1.0,) * 3,
}


@pytest.fixture(scope="module")
def precision_grid():
    reports = {}
    for a in EQUIV_AMPLITUDES:
        for budget in EQUIV_BUDGETS:
            for eps in EQUIV_EPSILONS:
                for rep in range(EQUIV_SEEDS):
                    rng = np.random.default_rng(run_seed(0, "mliqae", budget, rep))
                    cfg = ControllerConfig(budget=budget, epsilon_a=eps)
                    reports[a, budget, eps, rep] = run(AnalyticOracle(a), cfg, rng)
    return reports


class TestPrecisionStopEquivalence:
    def test_ledgers_match_the_recorded_digest(self, precision_grid):
        assert ledger_digest(precision_grid.values()) == EQUIV_EPS_DIGEST

    def test_estimates_match_the_recorded_values(self, precision_grid):
        for (a, budget, eps, rep), report in precision_grid.items():
            assert report.a_hat == pytest.approx(EQUIV_EPS_A_HAT[a, budget, eps][rep], abs=1e-8)


class TestAmplitudeBoundsAtDomainEdges:
    def test_zero_amplitude_reports_a_zero_lower_bound(self, equivalence_grid):
        report = equivalence_grid[0.0, 4000, 0]
        assert report.a_bounds[0] == 0.0
        assert report.a_bounds[0] <= report.a_hat <= report.a_bounds[1]

    def test_unit_amplitude_reports_a_unit_upper_bound(self, equivalence_grid):
        report = equivalence_grid[1.0, 64000, 0]
        assert report.a_bounds[1] == 1.0
