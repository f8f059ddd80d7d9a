"""Exact binomial interval and likelihood tests."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from tailamp.stats import (
    RoundRecord,
    clopper_pearson,
    log_likelihood_slopes,
    log_likelihood_terms,
    order_totals,
)


def loglik(theta, rounds) -> np.ndarray:
    """log_likelihood_terms of the rounds' per-order totals at angle(s) theta."""
    return log_likelihood_terms(np.atleast_1d(np.asarray(theta, dtype=float)), *order_totals(rounds))


def binom_tail_cp(h: int, m: int, delta: float) -> tuple[float, float]:
    """Independent interval oracle built on binomial tail bisection.

    The lower endpoint solves P(Bin(m, p) >= h) = delta/2 and the upper
    endpoint solves P(Bin(m, p) <= h) = delta/2, each found by plain
    bisection on scipy's binomial distribution.  No incomplete-beta inverse
    is involved, so agreement with the implementation is evidence and not
    tautology.
    """

    def bisect(func, target):
        lo_p, hi_p = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo_p + hi_p)
            if func(mid) < target:
                lo_p = mid
            else:
                hi_p = mid
        return 0.5 * (lo_p + hi_p)

    p_lo = 0.0 if h == 0 else bisect(lambda p: sps.binom.sf(h - 1, m, p), delta / 2.0)
    p_hi = 1.0 if h == m else bisect(
        lambda p: -sps.binom.cdf(h, m, p), -delta / 2.0
    )
    return p_lo, p_hi


class TestClopperPearson:
    def test_moderate_count_endpoints(self):
        ci = clopper_pearson(262, 1000, 0.05)
        assert ci.lo == pytest.approx(0.23498, abs=5e-6)
        assert ci.hi == pytest.approx(0.29043, abs=5e-6)

    def test_near_saturated_count_endpoints(self):
        ci = clopper_pearson(998, 1000, 0.05)
        assert ci.lo == pytest.approx(0.99279, abs=5e-6)
        assert ci.hi == pytest.approx(0.99976, abs=5e-6)

    def test_matches_binomial_tail_oracle(self):
        for h, m, delta in [
            (262, 1000, 0.05),
            (998, 1000, 0.05),
            (3, 40, 0.10),
            (39, 40, 0.01),
            (17, 17, 0.05),
            (0, 25, 0.05),
        ]:
            ci = clopper_pearson(h, m, delta)
            lo, hi = binom_tail_cp(h, m, delta)
            assert ci.lo == pytest.approx(lo, abs=1e-9)
            assert ci.hi == pytest.approx(hi, abs=1e-9)

    def test_boundary_conventions(self):
        assert clopper_pearson(0, 100, 0.05).lo == 0.0
        assert clopper_pearson(100, 100, 0.05).hi == 1.0

    def test_endpoints_monotone_in_success_count(self):
        m, delta = 60, 0.05
        prev = clopper_pearson(0, m, delta)
        for h in range(1, m + 1):
            cur = clopper_pearson(h, m, delta)
            assert cur.lo >= prev.lo - 1e-12
            assert cur.hi >= prev.hi - 1e-12
            prev = cur

    def test_width_shrinks_like_root_m(self):
        m = 500
        ci_small = clopper_pearson(int(0.3 * m), m, 0.05)
        ci_large = clopper_pearson(int(0.3 * 4 * m), 4 * m, 0.05)
        ratio = (ci_large.hi - ci_large.lo) / (ci_small.hi - ci_small.lo)
        assert 0.4 <= ratio <= 0.6

    def test_coverage_at_least_nominal(self):
        m, delta, p = 120, 0.10, 0.37
        contains = np.array(
            [
                clopper_pearson(h, m, delta).lo <= p <= clopper_pearson(h, m, delta).hi
                for h in range(m + 1)
            ]
        )
        rng = np.random.default_rng(29)
        draws = rng.binomial(m, p, size=10_000)
        coverage = float(np.mean(contains[draws]))
        assert coverage >= 1.0 - delta - 0.01

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 0, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(7, 5, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(2, 5, 1.5)


class TestRoundRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRecord(k=-1, m=10, h=0)
        with pytest.raises(ValueError):
            RoundRecord(k=0, m=0, h=0)
        with pytest.raises(ValueError):
            RoundRecord(k=0, m=10, h=11)


class TestLogLikelihood:
    def test_single_success_at_quarter_pi(self):
        rounds = [RoundRecord(k=0, m=1, h=1)]
        assert loglik(math.pi / 4.0, rounds)[0] == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_symmetric_binomial_peaks_at_quarter_pi(self):
        rounds = [RoundRecord(k=0, m=2, h=1)]
        grid = np.linspace(0.01, math.pi / 2.0 - 0.01, 4001)
        values = loglik(grid, rounds)
        assert grid[int(np.argmax(values))] == pytest.approx(math.pi / 4.0, abs=1e-3)

    def test_minus_infinity_where_predicted_probability_is_degenerate(self):
        # At theta = 0 the success probability is exactly zero, so any
        # observed success makes the data impossible.
        rounds = [RoundRecord(k=0, m=10, h=3)]
        assert loglik(0.0, rounds)[0] == -math.inf

    def test_zero_count_annihilates_degenerate_term(self):
        # With h = 0 the impossible-success term carries a zero coefficient
        # and the convention 0 * log 0 = 0 keeps the sum finite.
        rounds = [RoundRecord(k=0, m=10, h=0)]
        assert loglik(0.0, rounds)[0] == 0.0

    def test_permutation_invariance(self):
        rounds = [
            RoundRecord(k=0, m=100, h=26),
            RoundRecord(k=1, m=80, h=70),
            RoundRecord(k=3, m=50, h=12),
        ]
        theta = 0.41
        forward = loglik(theta, rounds)[0]
        assert loglik(theta, rounds[::-1])[0] == pytest.approx(
            forward, abs=1e-12
        )

    def test_two_round_argmax_lands_in_surviving_band(self):
        # 262/1000 at order 0 plus 998/1000 at order 1: the dense-grid argmax
        # must sit inside one of the two bands that survive intersecting the
        # two exact confidence preimages.
        rounds = [
            RoundRecord(k=0, m=1000, h=262),
            RoundRecord(k=1, m=1000, h=998),
        ]
        grid = np.linspace(1e-6, math.pi / 2.0 - 1e-6, 200_001)
        best = float(grid[int(np.argmax(loglik(grid, rounds)))])
        assert (0.50607 <= best <= 0.51841) or (0.52879 <= best <= 0.55193)

    def test_matches_direct_binomial_expression(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(0, 5))
            m = int(rng.integers(1, 200))
            h = int(rng.integers(0, m + 1))
            theta = float(rng.uniform(0.05, math.pi / 2.0 - 0.05))
            p = math.sin((2 * k + 1) * theta) ** 2
            expected = 0.0
            if h > 0:
                expected += h * math.log(p)
            if m - h > 0:
                expected += (m - h) * math.log(1.0 - p)
            got = loglik(theta, [RoundRecord(k=k, m=m, h=h)])[0]
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestOrderTotals:
    def test_pools_counts_per_order(self):
        rounds = [
            RoundRecord(k=2, m=50, h=12),
            RoundRecord(k=0, m=100, h=26),
            RoundRecord(k=2, m=80, h=70),
            RoundRecord(k=0, m=10, h=0),
        ]
        omega, hs, tails = order_totals(rounds)
        assert omega.tolist() == [1.0, 5.0]
        assert hs.tolist() == [26.0, 82.0]
        assert tails.tolist() == [84.0, 48.0]

    def test_pooled_likelihood_matches_per_batch_sum(self):
        rng = np.random.default_rng(43)
        rounds = []
        for _ in range(40):
            m = int(rng.integers(1, 300))
            rounds.append(
                RoundRecord(k=int(rng.integers(0, 4)), m=m, h=int(rng.integers(0, m + 1)))
            )
        theta = np.linspace(0.05, math.pi / 2.0 - 0.05, 97)
        per_batch = sum(loglik(theta, [r]) for r in rounds)
        assert np.allclose(loglik(theta, rounds), per_batch, rtol=1e-12, atol=1e-9)

    def test_no_rounds_gives_empty_rows(self):
        omega, hs, tails = order_totals([])
        assert omega.size == hs.size == tails.size == 0
        assert log_likelihood_terms(np.array([0.3, 0.7]), omega, hs, tails).tolist() == [0.0, 0.0]


class TestLogLikelihoodSlopes:
    def test_match_central_differences(self):
        rounds = [
            RoundRecord(k=0, m=100, h=26),
            RoundRecord(k=1, m=80, h=70),
            RoundRecord(k=3, m=50, h=0),
        ]
        totals = order_totals(rounds)
        theta = np.array([0.11, 0.37, 0.52, 0.93, 1.21])
        step = 1e-6
        f = lambda th: log_likelihood_terms(np.asarray(th), *totals)
        score, curv = log_likelihood_slopes(theta, *totals)
        fd_score = (f(theta + step) - f(theta - step)) / (2.0 * step)
        up, _ = log_likelihood_slopes(theta + step, *totals)
        down, _ = log_likelihood_slopes(theta - step, *totals)
        assert np.allclose(score, fd_score, rtol=1e-6)
        assert np.allclose(curv, (up - down) / (2.0 * step), rtol=1e-6)
        assert np.all(curv < 0.0)

    def test_zero_counts_contribute_nothing(self):
        theta = np.array([0.4])
        score, curv = log_likelihood_slopes(theta, np.array([3.0]), np.array([0.0]), np.array([0.0]))
        assert score.tolist() == [0.0] and curv.tolist() == [0.0]
