"""Tail threshold, hinge normalization, CVaR map, and MC baseline tests."""

import math

import numpy as np
import pytest

from tailamp.riskmodel import (
    ScenarioSet,
    cvar_from_amplitude,
    discrete_cvar,
    mc_estimate_cvar,
    normalize_hinge,
    to_oracle_spec,
    var_threshold,
)


def random_scenarios(rng: np.random.Generator, n: int, alpha: float) -> ScenarioSet:
    probs = rng.dirichlet(np.ones(n))
    responses = rng.normal(0.0, 3.0, size=n)
    return ScenarioSet(probs, responses, alpha)


def threshold_by_scan(s: ScenarioSet) -> float:
    """Brute-force quantile oracle: walk the sorted responses and stop at
    the first index whose cumulative weight reaches the level."""
    order = np.argsort(s.responses, kind="stable")
    total = 0.0
    for idx in order:
        total += s.probs[idx]
        if total >= s.alpha_level - 1e-12:
            return float(s.responses[idx])
    return float(s.responses[order[-1]])


class TestScenarioSet:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.array([1.0]), np.array([1.0, 2.0]), 0.9)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.array([0.5, 0.6]), np.array([1.0, 2.0]), 0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            ScenarioSet(np.array([bad, 1.0]), np.array([1.0, 2.0]), 0.9)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.array([1.0]), np.array([1.0]), 1.0)


class TestVarThreshold:
    def test_uniform_four_scenarios(self):
        s = ScenarioSet(np.full(4, 0.25), np.array([1.0, 2.0, 3.0, 4.0]), 0.75)
        assert var_threshold(s) == 3.0

    def test_tiny_level_gives_minimum(self):
        s = ScenarioSet(np.full(4, 0.25), np.array([4.0, 1.0, 3.0, 2.0]), 1e-9)
        assert var_threshold(s) == 1.0

    def test_matches_cumulative_scan_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            s = random_scenarios(rng, 1000, float(rng.uniform(0.05, 0.99)))
            assert var_threshold(s) == threshold_by_scan(s)

    def test_ties_resolve_deterministically(self):
        probs = np.full(4, 0.25)
        responses = np.array([2.0, 2.0, 2.0, 5.0])
        s = ScenarioSet(probs, responses, 0.5)
        assert var_threshold(s) == 2.0


class TestNormalizeHinge:
    def test_empty_tail_is_all_zero(self):
        s = ScenarioSet(np.full(3, 1.0 / 3.0), np.array([7.0, 7.0, 7.0]), 0.9)
        tn = normalize_hinge(s, 7.0)
        assert np.all(tn.gs == 0.0)
        assert tn.a == 0.0

    def test_endpoint_mapping(self):
        s = ScenarioSet(np.array([0.5, 0.5]), np.array([0.0, 10.0]), 0.5)
        tn = normalize_hinge(s, 0.0)
        np.testing.assert_allclose(tn.gs, [0.0, 1.0])
        assert tn.a == pytest.approx(0.5, abs=1e-15)

    def test_four_scenario_example_amplitude(self):
        gs = np.array(
            [0.0, math.sin(0.35) ** 2, math.sin(0.60) ** 2, math.sin(0.90) ** 2]
        )
        s = ScenarioSet(np.full(4, 0.25), gs, 0.75)
        tn = normalize_hinge(s, 0.0)
        # The hinge rescales by the tail span; undoing the rescaling recovers
        # the weighted tail expectation of the raw responses.
        assert tn.a * (tn.q_max - tn.eta) == pytest.approx(0.262500, abs=1e-6)
        assert tn.gs.max() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_threshold_above_maximum(self):
        s = ScenarioSet(np.array([1.0]), np.array([1.0]), 0.5)
        with pytest.raises(ValueError):
            normalize_hinge(s, 2.0)

    def test_rejects_a_span_that_overflows(self):
        s = ScenarioSet(np.full(4, 0.25), np.array([-1.7e308, 1.7e308, -1.7e308, 1.7e308]), 0.5)
        with pytest.raises(ValueError, match="tail span"):
            normalize_hinge(s, var_threshold(s))

    def test_responses_bounded_after_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_scenarios(rng, 50, 0.9)
            tn = normalize_hinge(s, var_threshold(s))
            assert np.all(tn.gs >= 0.0)
            assert np.all(tn.gs <= 1.0)
            assert 0.0 <= tn.a <= 1.0


class TestResponsesFarBelowTheThreshold:
    # Q - eta overflows for these lower responses, though the hinge of each
    # is an exact 0; the top response is eta itself, then 2e307 above it.
    # Eight draws keep the Monte Carlo hinge sum below the float maximum.
    @pytest.mark.parametrize("top", [1e308, 1.2e308])
    def test_hinge_is_exact_without_overflow(self, top):
        s = ScenarioSet(np.full(8, 0.125), np.array([-1.7e308] * 3 + [1e308] * 4 + [top]), 0.5)
        with np.errstate(over="raise"):
            eta = var_threshold(s)
            tn = normalize_hinge(s, eta)
            cvar = discrete_cvar(s)
            mc = mc_estimate_cvar(s, eta, 8, np.random.default_rng(3))
        span = top - eta
        assert eta == 1e308
        assert tn.gs.tolist() == [0.0] * 7 + [1.0 if span > 0.0 else 0.0]
        assert tn.a == (0.125 if span > 0.0 else 0.0)
        assert cvar == eta + 0.125 * span / 0.5
        assert cvar == pytest.approx(cvar_from_amplitude(tn.a, eta, tn.q_max, 0.5), rel=1e-15)
        assert eta <= mc <= eta + span / 0.5


class TestCvarMaps:
    def test_zero_amplitude_returns_threshold(self):
        assert cvar_from_amplitude(0.0, 3.5, 9.0, 0.95) == 3.5

    def test_unit_tail_identity(self):
        # With span 1 and amplitude 1 - alpha the affine map adds exactly 1.
        assert cvar_from_amplitude(0.05, 2.0, 3.0, 0.95) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_affine_identity_against_direct_sum(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            s = random_scenarios(rng, 64, float(rng.uniform(0.5, 0.99)))
            eta = var_threshold(s)
            tn = normalize_hinge(s, eta)
            direct = discrete_cvar(s)
            mapped = cvar_from_amplitude(tn.a, tn.eta, tn.q_max, s.alpha_level)
            assert mapped == pytest.approx(direct, abs=1e-10)

    def test_all_equal_responses(self):
        s = ScenarioSet(np.full(5, 0.2), np.full(5, 4.2), 0.8)
        assert discrete_cvar(s) == pytest.approx(4.2, abs=1e-12)

    def test_hand_computed_single_tail_scenario(self):
        s = ScenarioSet(np.full(4, 0.25), np.array([0.0, 0.0, 0.0, 1.0]), 0.75)
        assert discrete_cvar(s) == pytest.approx(1.0, abs=1e-12)

    def test_aligned_quantile_matches_tail_average(self):
        # Exactly 1 - alpha of the mass sits above the threshold, so the
        # conditional expectation is a plain weighted tail average.
        probs = np.full(10, 0.1)
        responses = np.arange(10, dtype=float)
        s = ScenarioSet(probs, responses, 0.8)
        eta = var_threshold(s)
        tail = responses[responses > eta]
        expected = eta + float(np.mean(tail - eta))
        assert discrete_cvar(s) == pytest.approx(expected, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        s = random_scenarios(rng, 40, 0.9)
        scaled = ScenarioSet(s.probs, 3.7 * s.responses, s.alpha_level)
        assert discrete_cvar(scaled) == pytest.approx(
            3.7 * discrete_cvar(s), rel=1e-12
        )

    def test_cvar_dominates_threshold(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            s = random_scenarios(rng, 30, 0.9)
            assert discrete_cvar(s) >= var_threshold(s) - 1e-12

    def test_rejects_invalid_amplitude(self):
        with pytest.raises(ValueError):
            cvar_from_amplitude(1.5, 0.0, 1.0, 0.9)


class TestMonteCarloBaseline:
    def test_single_scenario_is_exact_for_any_sample_count(self):
        s = ScenarioSet(np.array([1.0]), np.array([2.5]), 0.9)
        rng = np.random.default_rng(1)
        est = mc_estimate_cvar(s, var_threshold(s), 7, rng)
        assert est == pytest.approx(discrete_cvar(s), abs=1e-12)

    def test_large_sample_consistency(self):
        rng = np.random.default_rng(77)
        s = random_scenarios(rng, 32, 0.9)
        eta = var_threshold(s)
        n = 1_000_000
        est = mc_estimate_cvar(s, eta, n, rng)
        hinge = np.maximum(s.responses - eta, 0.0)
        mean_h = float(np.dot(s.probs, hinge))
        var_h = float(np.dot(s.probs, (hinge - mean_h) ** 2))
        sigma = math.sqrt(var_h / n) / (1.0 - s.alpha_level)
        assert abs(est - discrete_cvar(s)) < 3.0 * sigma

    def test_error_decays_at_the_classical_rate(self):
        rng = np.random.default_rng(3)
        s = random_scenarios(rng, 16, 0.9)
        eta = var_threshold(s)
        truth = discrete_cvar(s)
        sizes = (256, 1024, 4096, 16384)
        rmse = []
        for n in sizes:
            errs = [
                mc_estimate_cvar(s, eta, n, np.random.default_rng(1000 + r)) - truth
                for r in range(200)
            ]
            rmse.append(float(np.sqrt(np.mean(np.square(errs)))))
        slope = np.polyfit(np.log(sizes), np.log(rmse), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_seeded_estimates_reproduce(self):
        rng = np.random.default_rng(7)
        s = random_scenarios(rng, 12, 0.85)
        eta = var_threshold(s)
        a = mc_estimate_cvar(s, eta, 500, np.random.default_rng(42))
        b = mc_estimate_cvar(s, eta, 500, np.random.default_rng(42))
        assert a == b

    def test_rejects_zero_samples(self):
        s = ScenarioSet(np.array([1.0]), np.array([1.0]), 0.5)
        with pytest.raises(ValueError):
            mc_estimate_cvar(s, 1.0, 0, np.random.default_rng(0))


class TestOracleBridge:
    def test_oracle_amplitude_equals_tail_expectation(self):
        rng = np.random.default_rng(55)
        s = random_scenarios(rng, 20, 0.9)
        tn = normalize_hinge(s, var_threshold(s))
        spec = to_oracle_spec(s, tn)
        assert spec.amplitude == pytest.approx(tn.a, abs=1e-12)
