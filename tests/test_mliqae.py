"""Estimation controller tests: policies, feasibility updates, recovery."""

import hashlib
import math

import numpy as np
import pytest

from tailamp import mliqae
from tailamp.cli import run_seed
from tailamp.intervals import IntervalUnion, theta_preimage
from tailamp.mliqae import (
    ControllerConfig,
    InferenceState,
    constrained_mle,
    disambiguate,
    run,
    select_depth,
    select_shots,
    update_feasible,
)
from tailamp.qsim import AnalyticOracle
from tailamp.stats import RoundRecord, clopper_pearson, delta_schedule, log_likelihood

# The worked two-round dataset used throughout: 262/1000 successes at order 0
# and 998/1000 at order 1, both at risk 0.05.  True amplitude 0.2625,
# true angle asin(sqrt(0.2625)).
ROUND_A = RoundRecord(k=0, m=1000, h=262, delta=0.05)
ROUND_B = RoundRecord(k=1, m=1000, h=998, delta=0.05)
THETA_TRUE = math.asin(math.sqrt(0.2625))

SURVIVING_COMPONENTS = ((0.50607, 0.51841), (0.52879, 0.55193))


def band_for(rec: RoundRecord) -> IntervalUnion:
    ci = clopper_pearson(rec.h, rec.m, rec.delta)
    return theta_preimage(rec.k, ci.lo, ci.hi)


def two_round_state(cfg: ControllerConfig) -> InferenceState:
    state = InferenceState.initial()
    for rec in (ROUND_A, ROUND_B):
        state.rounds.append(rec)
        state.batches += 1
        update_feasible(state, rec, cfg)
    state.t = 2
    theta_hat, _ = constrained_mle(state.feasible, state.rounds, cfg)
    state.theta_hat = theta_hat
    state.k_prev = 1
    return state


class FlipOracle:
    """Adversarial oracle whose order-0 and higher-order responses disagree."""

    def success_probability(self, k: int) -> float:
        return 0.9 if k == 0 else 0.05


def in_single_flank(theta_lo: float, theta_hi: float, k: int) -> bool:
    """Independent check that the amplified response is monotone over the
    hull: both scaled endpoints fall in the same half-period of sin^2."""
    omega = 2 * k + 1
    half = math.pi / 2.0
    return math.floor(omega * theta_lo / half) == math.floor(omega * theta_hi / half)


class TestControllerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ControllerConfig(budget=0)
        with pytest.raises(ValueError):
            ControllerConfig(budget=100, delta_tot=1.5)
        with pytest.raises(ValueError):
            ControllerConfig(budget=100, kappa=2.0)
        with pytest.raises(ValueError):
            ControllerConfig(budget=100, m_min=100, m_max=10)
        with pytest.raises(ValueError):
            ControllerConfig(budget=100, restart_cap=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mle_bracket", 0.0),
            ("mle_bracket", -1e-10),
            ("grid_points", 1),
            ("k_max", -1),
            ("saturation_band", -0.01),
            ("saturation_band", 0.5),
            ("disambig_depths", (0, 65)),
            ("disambig_depths", (-1,)),
            ("shot_scale", 0.0),
            ("epsilon_a", -0.1),
            ("restart_cap", 101),
        ],
    )
    def test_rejects_bad_loop_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControllerConfig(budget=100, **{field: value})

    def test_accepts_boundary_settings(self):
        cfg = ControllerConfig(
            budget=100, k_max=0, disambig_depths=(0,), grid_points=2, saturation_band=0.0
        )
        assert cfg.disambig_depths == (0,)


class TestSelectShots:
    def test_pacing_bound_binds_early(self):
        # Base size 220 * 10000^(1/4) * 1.012 = 2226.4 loses to the pacing
        # bound 10000 / (1 * 27) = 370.4.
        state = InferenceState.initial()
        cfg = ControllerConfig(budget=10_000)
        assert select_shots(state, cfg, 0) == 370

    def test_tiny_budget_spends_everything(self):
        state = InferenceState.initial()
        cfg = ControllerConfig(budget=16)
        assert select_shots(state, cfg, 0) == 16

    def test_clamp_binds_for_large_budget_late_round(self):
        state = InferenceState.initial()
        state.t = 29
        cfg = ControllerConfig(budget=1_000_000)
        assert select_shots(state, cfg, 2) == cfg.m_max

    def test_zero_when_one_shot_is_unaffordable(self):
        state = InferenceState.initial()
        state.spent = 995
        cfg = ControllerConfig(budget=1000)
        assert select_shots(state, cfg, 3) == 0

    def test_never_exceeds_remaining_budget(self):
        rng = np.random.default_rng(2)
        cfg = ControllerConfig(budget=50_000)
        for _ in range(200):
            state = InferenceState.initial()
            state.t = int(rng.integers(0, 40))
            state.spent = int(rng.integers(0, cfg.budget))
            k = int(rng.integers(0, 12))
            m = select_shots(state, cfg, k)
            assert (2 * k + 1) * m <= cfg.budget - state.spent


class TestSelectDepth:
    def test_wide_hull_keeps_order_zero(self):
        cfg = ControllerConfig(budget=10_000)
        state = InferenceState.initial()
        state.feasible = band_for(ROUND_A)
        state.rounds = [ROUND_A]
        state.theta_hat = 0.537916
        state.k_prev = 0
        state.t = 1
        assert select_depth(state, cfg) == 0

    def test_no_estimate_defaults_to_zero(self):
        cfg = ControllerConfig(budget=10_000)
        assert select_depth(InferenceState.initial(), cfg) == 0

    def test_single_step_ladder(self):
        cfg = ControllerConfig(budget=10_000)
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta = float(rng.uniform(0.05, 1.4))
            width = float(rng.uniform(1e-5, 0.1))
            lo = max(1e-6, theta - 0.5 * width)
            hi = min(math.pi / 2 - 1e-6, theta + 0.5 * width)
            state = InferenceState.initial()
            state.feasible = IntervalUnion([(lo, hi)])
            state.rounds = [RoundRecord(k=0, m=200, h=50, delta=0.05)]
            state.theta_hat = 0.5 * (lo + hi)
            state.k_prev = int(rng.integers(0, 20))
            state.t = 3
            assert select_depth(state, cfg) <= state.k_prev + 1

    def test_positive_depth_is_always_single_flank(self):
        cfg = ControllerConfig(budget=10_000)
        rng = np.random.default_rng(12)
        for _ in range(300):
            theta = float(rng.uniform(0.05, 1.4))
            width = float(rng.uniform(1e-6, 0.05))
            lo = max(1e-6, theta - 0.5 * width)
            hi = min(math.pi / 2 - 1e-6, theta + 0.5 * width)
            state = InferenceState.initial()
            state.feasible = IntervalUnion([(lo, hi)])
            state.rounds = [RoundRecord(k=0, m=500, h=120, delta=0.05)]
            state.theta_hat = 0.5 * (lo + hi)
            state.k_prev = int(rng.integers(0, 30))
            state.t = 4
            k = select_depth(state, cfg)
            if k > 0:
                assert in_single_flank(lo, hi, k)

    def test_first_flank_respects_phase_cap(self):
        # When the scaled hull sits on the lowest flank the verbatim phase
        # bound applies: (2k+1) * theta_hi <= kappa.
        cfg = ControllerConfig(budget=10_000)
        state = InferenceState.initial()
        state.feasible = IntervalUnion([(0.049, 0.051)])
        state.rounds = [RoundRecord(k=0, m=500, h=2, delta=0.05)]
        state.theta_hat = 0.05
        state.t = 5
        for k_prev in range(0, 40):
            state.k_prev = k_prev
            k = select_depth(state, cfg)
            omega = 2 * k + 1
            if omega * 0.051 <= cfg.kappa:
                assert in_single_flank(0.049, 0.051, k)

    def test_saturation_backoff_reduces_depth(self):
        cfg = ControllerConfig(budget=100_000)
        state = InferenceState.initial()
        state.feasible = IntervalUnion([(0.0499, 0.0501)])
        state.theta_hat = 0.05
        state.k_prev = 4
        state.t = 6
        # Two fresh batches at the previous depth came back effectively
        # saturated, so the controller steps the ladder down.
        state.rounds = [
            RoundRecord(k=4, m=400, h=399, delta=0.01),
            RoundRecord(k=4, m=400, h=400, delta=0.01),
        ]
        baseline = select_depth(state, cfg)
        state.rounds = [
            RoundRecord(k=4, m=400, h=200, delta=0.01),
            RoundRecord(k=4, m=400, h=190, delta=0.01),
        ]
        unsaturated = select_depth(state, cfg)
        assert baseline == max(unsaturated - 1, 0)


class TestUpdateFeasible:
    def test_two_rounds_leave_two_components(self):
        cfg = ControllerConfig(budget=10_000)
        state = two_round_state(cfg)
        assert len(state.feasible) == 2
        for expected, got in zip(SURVIVING_COMPONENTS, state.feasible.components):
            assert got[0] == pytest.approx(expected[0], abs=1e-5)
            assert got[1] == pytest.approx(expected[1], abs=1e-5)

    def test_covering_band_changes_nothing(self):
        cfg = ControllerConfig(budget=10_000)
        state = two_round_state(cfg)
        before = state.feasible
        # Two successes out of four at order 0: the resulting band spans far
        # beyond the current set, so the intersection is a no-op.
        rec = RoundRecord(k=0, m=4, h=2, delta=0.05)
        state.rounds.append(rec)
        update_feasible(state, rec, cfg)
        assert state.feasible == before

    def test_contradictory_band_empties_and_stashes(self):
        cfg = ControllerConfig(budget=10_000)
        state = two_round_state(cfg)
        before = state.feasible
        rec = RoundRecord(k=0, m=200, h=0, delta=0.05)
        state.rounds.append(rec)
        update_feasible(state, rec, cfg)
        assert state.feasible.is_empty
        assert state.pre_collapse == before

    def test_prune_keeps_highest_likelihood_components(self):
        cfg = ControllerConfig(budget=10_000, max_components=3)
        state = InferenceState.initial()
        state.rounds = [RoundRecord(k=0, m=100, h=25, delta=0.05)]
        components = [
            (0.10, 0.12),
            (0.30, 0.32),
            (0.50, 0.52),
            (0.70, 0.72),
            (1.30, 1.32),
        ]
        state.feasible = IntervalUnion(components)
        # Rank components by their dense-grid likelihood supremum, as an
        # independent oracle for what pruning must keep.
        sups = []
        for lo, hi in components:
            grid = np.linspace(lo, hi, 2000)
            sups.append(max(log_likelihood(grid, state.rounds)))
        expected = sorted(
            sorted(range(5), key=lambda i: sups[i], reverse=True)[:3]
        )
        rec = RoundRecord(k=0, m=4, h=2, delta=0.05)
        state.rounds.append(rec)
        update_feasible(state, rec, cfg)
        assert len(state.feasible) == 3
        for idx, got in zip(expected, state.feasible.components):
            assert got == pytest.approx(components[idx], abs=1e-12)

    def test_measure_never_increases(self):
        cfg = ControllerConfig(budget=100_000)
        rng = np.random.default_rng(21)
        for trial in range(10):
            a = float(rng.uniform(0.05, 0.9))
            theta = math.asin(math.sqrt(a))
            oracle = AnalyticOracle(a)
            state = InferenceState.initial()
            last = state.feasible.total_measure()
            for t in range(1, 9):
                k = min(t - 1, 2)
                p = oracle.success_probability(k)
                h = int(rng.binomial(400, p))
                rec = RoundRecord(k=k, m=400, h=h, delta=delta_schedule(t, 0.05))
                state.rounds.append(rec)
                update_feasible(state, rec, cfg)
                if state.feasible.is_empty:
                    break
                now = state.feasible.total_measure()
                assert now <= last + 1e-12
                last = now


class TestConstrainedMle:
    def test_interior_maximum_matches_frequency(self):
        cfg = ControllerConfig(budget=10_000)
        feasible = band_for(ROUND_A)
        theta_hat, a_hat = constrained_mle(feasible, [ROUND_A], cfg)
        assert theta_hat == pytest.approx(math.asin(math.sqrt(0.262)), abs=1e-5)
        assert a_hat == pytest.approx(0.262, abs=1e-4)

    def test_excluded_maximum_lands_on_nearest_endpoint(self):
        cfg = ControllerConfig(budget=10_000)
        above = IntervalUnion([(0.60, 0.70)])
        theta_hat, _ = constrained_mle(above, [ROUND_A], cfg)
        assert theta_hat == pytest.approx(0.60, abs=1e-6)
        below = IntervalUnion([(0.30, 0.40)])
        theta_hat, _ = constrained_mle(below, [ROUND_A], cfg)
        assert theta_hat == pytest.approx(0.40, abs=1e-6)

    def test_two_round_estimate_stays_near_truth(self):
        cfg = ControllerConfig(budget=10_000)
        state = two_round_state(cfg)
        theta_hat, a_hat = constrained_mle(state.feasible, state.rounds, cfg)
        assert state.feasible.contains(theta_hat, tol=1e-9)
        assert abs(a_hat - 0.2625) < 0.03

    def test_agrees_with_dense_grid_oracle(self):
        cfg = ControllerConfig(budget=10_000)
        rng = np.random.default_rng(33)
        for _ in range(20):
            edges = np.sort(rng.uniform(0.05, 1.5, size=4))
            feasible = IntervalUnion([(edges[0], edges[1]), (edges[2], edges[3])])
            rounds = [
                RoundRecord(
                    k=int(rng.integers(0, 4)),
                    m=200,
                    h=int(rng.integers(0, 201)),
                    delta=0.05,
                )
                for _ in range(3)
            ]
            theta_hat, _ = constrained_mle(feasible, rounds, cfg)
            grid = np.concatenate(
                [np.linspace(lo, hi, 20_000) for lo, hi in feasible.components]
            )
            best = float(grid[int(np.argmax(log_likelihood(grid, rounds)))])
            ll_gap = log_likelihood(theta_hat, rounds) - log_likelihood(best, rounds)
            assert ll_gap > -1e-6

    def test_no_rounds_gives_leftmost_point(self):
        cfg = ControllerConfig(budget=10_000)
        feasible = IntervalUnion([(0.2, 0.3), (0.5, 0.6)])
        theta_hat, _ = constrained_mle(feasible, [], cfg)
        # A flat likelihood ties everywhere; ties break toward smaller angle.
        assert theta_hat == pytest.approx(0.2, abs=1e-6)

    def test_maximum_on_an_edge_returns_the_edge_exactly(self):
        cfg = ControllerConfig(budget=10_000)
        rounds = [RoundRecord(k=0, m=500, h=0, delta=0.05)]
        theta_hat, a_hat = constrained_mle(IntervalUnion([(0.2, 0.4)]), rounds, cfg)
        assert theta_hat == 0.2 and a_hat == math.sin(0.2) ** 2
        theta_hat, _ = constrained_mle(IntervalUnion([(0.2, 0.4)]), [ROUND_B], cfg)
        assert theta_hat == 0.4

    def test_refinement_reaches_the_stationary_point(self):
        # Interior optimum of a multi-order dataset: the score vanishes there
        # and the estimate beats a dense grid.
        cfg = ControllerConfig(budget=10_000)
        rounds = [ROUND_A, RoundRecord(k=2, m=400, h=75, delta=0.05)]
        feasible = IntervalUnion([(0.50, 0.58)])
        theta_hat, _ = constrained_mle(feasible, rounds, cfg)
        grid = np.linspace(0.50, 0.58, 200_001)
        assert log_likelihood(theta_hat, rounds) >= log_likelihood(grid, rounds).max()
        step = 1e-7
        up, down = log_likelihood(theta_hat + step, rounds), log_likelihood(theta_hat - step, rounds)
        assert abs(up - down) / (2 * step) < 1e-2

    def test_empty_set_raises(self):
        cfg = ControllerConfig(budget=10_000)
        with pytest.raises(ValueError):
            constrained_mle(IntervalUnion.empty(), [ROUND_A], cfg)


class TestDisambiguate:
    def test_eliminates_distinguishable_alias(self):
        # False component around 0.41 versus truth around 0.61: their
        # order-zero response probabilities differ by about 0.16, so one
        # high-shot batch at order zero should settle it nearly always.
        cfg = ControllerConfig(budget=20_000)
        theta = 0.61
        oracle = AnalyticOracle(math.sin(theta) ** 2)
        eliminated = 0
        trials = 200
        for seed in range(trials):
            state = InferenceState.initial()
            state.feasible = IntervalUnion([(0.40, 0.42), (0.60, 0.62)])
            state.theta_hat = theta
            state.t = 5
            disambiguate(state, cfg, oracle, np.random.default_rng(seed))
            if not state.failed and not state.feasible.is_empty:
                if not state.feasible.contains(0.41):
                    eliminated += 1
        assert eliminated >= int(0.97 * trials)

    def test_single_component_shrinks_without_splitting(self):
        cfg = ControllerConfig(budget=20_000)
        oracle = AnalyticOracle(0.2625)
        state = InferenceState.initial()
        state.feasible = IntervalUnion([(0.530, 0.545)])
        state.theta_hat = THETA_TRUE
        state.t = 5
        before = state.feasible.total_measure()
        disambiguate(state, cfg, oracle, np.random.default_rng(4))
        assert not state.failed
        assert len(state.feasible) == 1
        assert state.feasible.total_measure() <= before + 1e-12

    def test_exhausted_budget_is_a_no_op(self):
        cfg = ControllerConfig(budget=1000)
        oracle = AnalyticOracle(0.2625)
        state = InferenceState.initial()
        state.feasible = IntervalUnion([(0.530, 0.545)])
        state.theta_hat = THETA_TRUE
        state.spent = 1000
        state.t = 5
        before_rounds = list(state.rounds)
        disambiguate(state, cfg, oracle, np.random.default_rng(4))
        assert state.rounds == before_rounds
        assert state.spent == 1000
        assert state.feasible == IntervalUnion([(0.530, 0.545)])


class TestRestart:
    def test_discards_offending_batch_and_recovers(self):
        cfg = ControllerConfig(budget=20_000)
        oracle = AnalyticOracle(0.2625)
        covered = 0
        trials = 200
        for seed in range(trials):
            state = two_round_state(cfg)
            state.spent = 4000
            rec = RoundRecord(k=0, m=200, h=0, delta=delta_schedule(3, 0.05))
            state.rounds.append(rec)
            state.batches += 1
            update_feasible(state, rec, cfg)
            assert state.feasible.is_empty
            mliqae._restart_loop(state, cfg, oracle, np.random.default_rng(seed))
            assert not state.failed
            assert state.restarts == 1
            # The contradictory batch is gone and one reinit batch arrived.
            assert [r.h for r in state.rounds[:2]] == [262, 998]
            if state.feasible.contains(THETA_TRUE, tol=1e-12):
                covered += 1
        assert covered >= int(0.95 * trials)

    def test_zero_cap_marks_failed(self):
        cfg = ControllerConfig(budget=20_000, restart_cap=0)
        oracle = AnalyticOracle(0.2625)
        state = two_round_state(cfg)
        rec = RoundRecord(k=0, m=200, h=0, delta=delta_schedule(3, 0.05))
        state.rounds.append(rec)
        update_feasible(state, rec, cfg)
        mliqae._restart_loop(state, cfg, oracle, np.random.default_rng(0))
        assert state.failed

    def test_largest_cap_fails_cleanly_on_a_self_contradicting_oracle(self):
        # Every restart nests its recovery inside the batch that collapsed;
        # the largest accepted cap must still fail the run, not the stack.
        cfg = ControllerConfig(budget=1_000_000, restart_cap=100, disambig_period=3)
        report = run(FlipOracle(), cfg, np.random.default_rng(8))
        assert report.failed
        assert report.restarts == 101

    def test_healthy_runs_rarely_restart(self):
        # Bands hold jointly with probability 1 - delta_tot, so a small
        # fraction of honest runs may still shed a batch; none may fail.
        cfg = ControllerConfig(budget=8000)
        zero = 0
        for seed in range(60):
            report = run(AnalyticOracle(0.2625), cfg, np.random.default_rng(seed))
            assert not report.failed
            zero += report.restarts == 0
        assert zero >= 50


class TestRun:
    def test_spends_within_budget(self):
        for budget in (300, 2000, 16_000):
            for a in (0.05, 0.2625, 0.9):
                cfg = ControllerConfig(budget=budget)
                report = run(AnalyticOracle(a), cfg, np.random.default_rng(17))
                assert report.oracle_calls <= budget
                assert report.oracle_calls == sum(b.cost for b in report.ledger)

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

    def test_depth_ladder_steps_gently_or_certifies_a_hop(self):
        # Depth normally climbs one rung per round.  A larger jump is only
        # allowed past rungs that measure saturated frequencies, and then
        # only once the accumulated information already localizes the angle
        # to a small fraction of the target flank; that certificate can be
        # recomputed from the ledger prefix.
        for a, seed in ((0.1, 5), (0.2625, 7), (0.02, 11), (0.7, 13)):
            cfg = ControllerConfig(budget=64_000)
            report = run(AnalyticOracle(a), cfg, np.random.default_rng(seed))
            prev = 0
            info = 0.0
            for batch in report.ledger:
                if batch.kind != "disambig":
                    if batch.k > prev + 1:
                        sigma = 1.0 / math.sqrt(info)
                        assert 6.0 * sigma * (2 * batch.k + 1) <= 0.125 * math.pi
                    prev = batch.k
                info += 4.0 * (2 * batch.k + 1) ** 2 * batch.m

    def test_target_half_width_stops_early(self):
        cfg = ControllerConfig(budget=1_000_000, epsilon_a=0.02)
        report = run(AnalyticOracle(0.3), cfg, np.random.default_rng(3))
        assert not report.failed
        half_width = 0.5 * (report.a_bounds[1] - report.a_bounds[0])
        assert half_width <= 0.02
        assert report.oracle_calls < 1_000_000

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

    def test_failed_run_still_reports_an_estimate(self):
        # Zero restart budget plus an adversarial oracle that contradicts
        # itself across depths forces the failure path.
        cfg = ControllerConfig(budget=50_000, restart_cap=0, disambig_period=3)
        report = run(FlipOracle(), cfg, np.random.default_rng(8))
        assert report.failed
        assert 0.0 <= report.a_hat <= 1.0
        assert report.theta_bounds[0] <= report.theta_hat <= report.theta_bounds[1]


# Decision-equivalence gate.  The (kind, k, m, h) ledgers of this seeded grid
# and the estimates below were recorded with the golden-section MLE and the
# hand-rolled inverse beta that the Newton refinement and scipy's betaincinv
# replaced; any change meant to keep the controller's decisions must keep the
# digest, and the estimates to 1e-8.
EQUIV_AMPLITUDES = (0.0, 0.015, 0.2625, 0.9999, 1.0)
EQUIV_BUDGETS = (4000, 64000)
EQUIV_SEEDS = 3
EQUIV_DIGEST = "c7175af4e0a8508e157264472a963cfc1aeea27108bc8585cbac7e41ae61e5ba"
EQUIV_A_HAT = {
    (0.0, 4000): (1.399531621194361e-21,) * 3,
    (0.0, 64000): (1.0248868855853589e-21,) * 3,
    (0.015, 4000): (0.014919695446775929, 0.014597865618082273, 0.014306465458522754),
    (0.015, 64000): (0.015077864709604066, 0.015006577296860217, 0.014964816633786857),
    (0.2625, 4000): (0.2645053201262488, 0.26277601241278853, 0.26097135598784177),
    (0.2625, 64000): (0.26231570706041124, 0.2622565354452174, 0.2623426347781064),
    (0.9999, 4000): (1.0,) * 3,
    (0.9999, 64000): (0.9999112301884817, 0.9998999478546116, 0.9998976874210788),
    (1.0, 4000): (1.0,) * 3,
    (1.0, 64000): (1.0,) * 3,
}


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
        digest = hashlib.sha256()
        for report in equivalence_grid.values():
            for b in report.ledger:
                digest.update(f"{b.kind},{b.k},{b.m},{b.h};".encode())
        assert digest.hexdigest() == EQUIV_DIGEST

    def test_estimates_match_the_recorded_values(self, equivalence_grid):
        for (a, budget, rep), report in equivalence_grid.items():
            assert report.a_hat == pytest.approx(EQUIV_A_HAT[a, budget][rep], abs=1e-8)


# Recovery-path gate.  The decision grid above never restarts, heals or
# fails, so these runs pin the recovery code: two collapses each (the second
# sheds the most inconsistent batch), one heal of a pinned estimate each, a
# disambiguation sweep, and the self-contradicting oracle failing at three
# restart caps.  The digest covers each ledger's (kind, k, m, h) sequence plus
# its restart count and failure flag, recorded before the recovery code was
# folded into one shed-and-rebuild path.
RECOVERY_RUNS = (
    (0.05, 32000, 5),
    (0.05, 32000, 12),
    (0.2625, 4000, 15),
    (0.2625, 4000, 36),
    (0.9, 32000, 21),
    (0.9, 32000, 31),
    (0.015, 4000, 2),
)
RECOVERY_FLIP_CAPS = (0, 1, 3)
RECOVERY_DIGEST = "81af333ffc909590179daaef93e1b4b136adb7f0a3467f20a42bad3d45c1970c"


@pytest.fixture(scope="module")
def recovery_grid():
    reports = []
    for a, budget, rep in RECOVERY_RUNS:
        rng = np.random.default_rng(run_seed(0, "mliqae", budget, rep))
        reports.append(run(AnalyticOracle(a), ControllerConfig(budget=budget), rng))
    for cap in RECOVERY_FLIP_CAPS:
        cfg = ControllerConfig(budget=50_000, restart_cap=cap, disambig_period=3)
        reports.append(run(FlipOracle(), cfg, np.random.default_rng(8)))
    return reports


class TestRecoveryPathEquivalence:
    def test_ledgers_and_outcomes_match_the_recorded_digest(self, recovery_grid):
        digest = hashlib.sha256()
        for report in recovery_grid:
            for b in report.ledger:
                digest.update(f"{b.kind},{b.k},{b.m},{b.h};".encode())
            digest.update(f"{report.restarts},{report.failed}|".encode())
        assert digest.hexdigest() == RECOVERY_DIGEST

    def test_grid_exercises_every_recovery_path(self, recovery_grid):
        assert max(r.restarts for r in recovery_grid if not r.failed) >= 2
        assert any(r.failed for r in recovery_grid)
        assert any(b.kind == "disambig" for r in recovery_grid for b in r.ledger)
        assert any(b.kind == "restart" for r in recovery_grid for b in r.ledger)


class TestAmplitudeBoundsAtDomainEdges:
    def test_zero_amplitude_reports_a_zero_lower_bound(self, equivalence_grid):
        report = equivalence_grid[0.0, 4000, 0]
        assert report.a_bounds[0] == 0.0
        assert report.a_bounds[0] <= report.a_hat <= report.a_bounds[1]

    def test_unit_amplitude_reports_a_unit_upper_bound(self, equivalence_grid):
        report = equivalence_grid[1.0, 64000, 0]
        assert report.a_bounds[1] == 1.0
