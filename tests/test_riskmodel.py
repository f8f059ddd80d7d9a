"""Tail threshold, hinge normalization, CVaR map, and MC baseline tests."""

import math

import numpy as np
import pytest
import scipy.stats as sps

from tailamp import qsim, stochfem
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


def index_draw_law_pvalue(s: ScenarioSet, n: int, runs: int) -> float:
    """Chi-square p-value of n times the Monte Carlo hinge mean over seeded runs.

    The hinges must be integers.  Then n times the hinge mean of n iid index
    draws has the n-fold convolution of the one-draw law as its exact pmf.
    A total that pmf gives no mass fails outright.
    """
    eta = var_threshold(s)
    hinge = (np.maximum(s.responses, eta) - eta).astype(int)
    one_draw = np.bincount(hinge, weights=s.probs)
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, one_draw)
    totals = [
        round((mc_estimate_cvar(s, eta, n, np.random.default_rng(seed)) - eta) * (1.0 - s.alpha_level) * n)
        for seed in range(runs)
    ]
    seen = np.bincount(totals, minlength=pmf.size)
    assert seen.size == pmf.size and not np.any(seen[pmf == 0.0])
    # Pool the sparse upper tail so that every expected cell holds at least 5.
    cut = int(np.argmax(np.cumsum(pmf[::-1]) * runs >= 5))
    tail = pmf.size - 1 - cut
    observed = np.append(seen[:tail], seen[tail:].sum())
    expected = np.append(pmf[:tail], pmf[tail:].sum()) * runs
    keep = expected > 0
    return sps.chisquare(observed[keep], expected[keep]).pvalue


class TestScenarioSet:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.array([1.0]), np.array([1.0, 2.0]), 0.9)
        with pytest.raises(ValueError, match="need at least one scenario"):
            ScenarioSet(np.array([]), np.array([]), 0.9)

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

    def test_a_level_above_the_rounded_total_takes_the_largest_response(self):
        # The weights sum to 1 - 4e-10 (within the set's 1e-9 tolerance), so
        # no cumulative weight reaches the level: the index clamps to the last.
        s = ScenarioSet(np.full(4, 0.25) * (1 - 4e-10), [1.0, 2.0, 3.0, 4.0], 0.9999999999)
        assert var_threshold(s) == 4.0

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

    def test_zero_weight_scenario_is_never_the_threshold(self):
        # Below the search's 1e-12 slack every cumulative weight reaches the
        # level, so the first sorted scenario was taken even with weight 0.
        s = ScenarioSet(np.arange(12) / 66, np.arange(12.0), 1e-13)
        assert var_threshold(s) == 1.0


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

    def test_monte_carlo_mean_stays_below_the_float_maximum(self):
        # A thousand draws of the top hinge 2e307 sum past the float maximum;
        # the mean is taken as frequencies times hinges, so no partial sum does.
        s = ScenarioSet(np.full(8, 0.125), np.array([-1.7e308] * 3 + [1e308] * 4 + [1.2e308]), 0.5)
        with np.errstate(over="raise"):
            eta = var_threshold(s)
            mc = mc_estimate_cvar(s, eta, 1000, np.random.default_rng(3))
        span = 1.2e308 - eta
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
        for level in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"for parameter 'alpha_level': must be a finite number in \(0, 1\)$"):
                cvar_from_amplitude(0.5, 0.0, 1.0, level)


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

    def test_counts_have_the_distribution_of_index_draws(self):
        s = ScenarioSet(np.array([0.5, 0.3, 0.2]), np.array([0.0, 1.0, 3.0]), 0.5)
        assert var_threshold(s) == 0.0
        assert index_draw_law_pvalue(s, n=5, runs=4000) > 1e-3

    def test_tail_draws_have_the_distribution_of_index_draws(self):
        # Two scenarios tie at eta = 1 and a third lies below it: none of them
        # enters the tail.  Of the four above eta, the last has zero weight and
        # a hinge of 100, so one draw of it would give a total no index draw can.
        probs = np.array([0.3, 0.2, 0.1, 0.15, 0.1, 0.15, 0.0])
        responses = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 5.0, 101.0])
        s = ScenarioSet(probs, responses, 0.5)
        assert var_threshold(s) == 1.0
        assert index_draw_law_pvalue(s, n=5, runs=4000) > 1e-3

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

    @pytest.mark.parametrize("last", [0.0, 1e-10])
    def test_weights_within_the_set_tolerance_draw(self, last):
        # numpy's multinomial rejects sum(p[:-1]) > 1 + 1e-12; the set accepts 1e-9.
        probs = np.array([0.25, 0.25, 0.25, 0.25 + 4.9e-10 - last, last])
        s = ScenarioSet(probs, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.5)
        assert probs.sum() == pytest.approx(1.0 + 4.9e-10, abs=1e-15)
        assert probs[:-1].sum() > 1.0 + 1e-12
        eta = var_threshold(s)
        mc = mc_estimate_cvar(s, eta, 10_000, np.random.default_rng(0))
        assert math.isfinite(mc)
        assert eta <= mc <= eta + (5.0 - eta) / 0.5

    def test_tail_holding_every_weight_draws(self):
        # A caller's eta at the zero-weight scenario's response puts every
        # weighted scenario above it.  Summed without that zero, their share
        # of the total rounds past 1.
        probs = np.array([0.0] + [i / 66 for i in range(1, 12)])
        assert probs[1:].sum() / probs.sum() > 1.0
        s = ScenarioSet(probs, np.arange(12.0), 1e-13)
        mc = mc_estimate_cvar(s, 0.0, 10_000, np.random.default_rng(0))
        assert mc == pytest.approx(float(np.dot(probs, s.responses)) / (1.0 - 1e-13), rel=0.05)

    def test_zero_weight_scenario_is_never_drawn(self):
        # numpy gives the last category whatever count its binomials leave over;
        # with these weights that happens on about one draw in nine at 1e15.
        s = ScenarioSet(np.array([0.1] * 10 + [0.0]), np.array([float(i) for i in range(10)] + [1e300]), 0.5)
        eta = var_threshold(s)
        for seed in range(50):
            mc = mc_estimate_cvar(s, eta, 10**15, np.random.default_rng(seed))
            assert eta <= mc <= eta + (9.0 - eta) / 0.5

    def test_cost_does_not_grow_with_the_sample_count(self):
        # Per-scenario counts take O(N) memory: a trillion draws of 64 scenarios
        # would take 8 TB as indices.
        s = random_scenarios(np.random.default_rng(64), 64, 0.9)
        eta = var_threshold(s)
        mc = mc_estimate_cvar(s, eta, 10**12, np.random.default_rng(1))
        assert eta <= mc <= eta + (s.responses.max() - eta) / (1.0 - s.alpha_level)
        assert mc == pytest.approx(discrete_cvar(s), rel=1e-4)


class RecordingRng:
    """The two draws mc_estimate_cvar makes, recorded on their way to a seeded generator."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.binomial_calls = []
        self.multinomial_calls = []

    def binomial(self, n, p):
        self.binomial_calls.append((n, p))
        return self._rng.binomial(n, p)

    def multinomial(self, n, pvals):
        self.multinomial_calls.append((n, np.asarray(pvals)))
        return self._rng.multinomial(n, pvals)


@pytest.fixture(scope="module")
def bar_ensemble():
    return stochfem.build_scenario_ensemble("bar1d", 1024, seed=1)


class TestMonteCarloDrawsOnlyTheTail:
    def test_multinomial_splits_the_hits_over_the_scenarios_above_eta(self, bar_ensemble):
        s = ScenarioSet(bar_ensemble.probs, bar_ensemble.responses["compliance"], bar_ensemble.alpha_level)
        eta = var_threshold(s)
        above = s.responses > eta
        assert np.count_nonzero(above) == 51
        rng = RecordingRng(1)
        mc_estimate_cvar(s, eta, 20_000, rng)
        [(hits, pvals)] = rng.multinomial_calls
        np.testing.assert_array_equal(pvals, s.probs[above] / s.probs[above].sum())
        [(n, share)] = rng.binomial_calls
        assert n == 20_000 and share == pytest.approx(51 / 1024, rel=1e-12)
        assert 0 <= hits <= n

    def test_empty_tail_returns_the_threshold_without_drawing(self, bar_ensemble):
        s = ScenarioSet(bar_ensemble.probs, bar_ensemble.responses["vmmax"], bar_ensemble.alpha_level)
        eta = var_threshold(s)
        assert normalize_hinge(s, eta).a == 0.0
        rng = RecordingRng(1)
        assert mc_estimate_cvar(s, eta, 20_000, rng) == eta
        assert rng.binomial_calls == [] and rng.multinomial_calls == []


class TestOracleBridge:
    def test_oracle_amplitude_equals_tail_expectation(self):
        rng = np.random.default_rng(55)
        s = random_scenarios(rng, 20, 0.9)
        tn = normalize_hinge(s, var_threshold(s))
        spec = to_oracle_spec(s, tn)
        assert spec.amplitude == pytest.approx(tn.a, abs=1e-12)


def _bar_chain():
    ens = stochfem.build_scenario_ensemble("bar1d", 8, seed=1)
    s = ScenarioSet(ens.probs, ens.responses["compliance"], ens.alpha_level)
    tn = normalize_hinge(s, var_threshold(s))
    spec = to_oracle_spec(s, tn)
    return ens, s, tn, spec


_LINE = np.column_stack([np.linspace(0.0, 1.0, 9), np.zeros(9)])
_ARRAY_HOLDERS = {
    "KernelModel": lambda: stochfem.KernelModel(0.3, 1.0, 0.3, 3, _LINE),
    "NystromBasis": lambda: stochfem.nystrom_basis(stochfem.KernelModel(0.3, 1.0, 0.3, 3, _LINE)),
    "MeshQ4": lambda: stochfem.build_cantilever_mesh(2.0, 1.0, 4, 2),
    "Ensemble": lambda: _bar_chain()[0],
    "ScenarioSet": lambda: _bar_chain()[1],
    "TailNormalization": lambda: _bar_chain()[2],
    "OracleSpec": lambda: _bar_chain()[3],
    "StateVector": lambda: qsim.build_oracle_state(_bar_chain()[3]),
}


@pytest.mark.parametrize("name, make", _ARRAY_HOLDERS.items(), ids=_ARRAY_HOLDERS.keys())
def test_classes_holding_arrays_compare_by_identity(name, make):
    """== on an array-holding record is identity: it never raises on its arrays."""
    x, twin = make(), make()
    assert type(x).__name__ == name
    assert x == x
    assert (x == twin) is False
