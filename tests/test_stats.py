"""Exact binomial interval and likelihood tests."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from tailamp.stats import (
    OrderTotals,
    RoundRecord,
    chord_mass,
    clopper_pearson,
    log_likelihood,
    log_likelihood_slopes,
    log_likelihood_terms,
)


EPS = np.finfo(float).eps


def columns(rows) -> np.ndarray:
    """Per-order (omega, hs, tails) rows as three numpy columns, for the grid forms."""
    return np.array(rows, dtype=float).reshape(-1, 3).T


def loglik(theta, rounds) -> np.ndarray:
    """log_likelihood_terms of the rounds' per-order totals at angle(s) theta."""
    return log_likelihood_terms(np.atleast_1d(np.asarray(theta, dtype=float)), *columns(OrderTotals(rounds).rows))


def vector_slopes(theta, omega, hs, tails):
    """Score and curvature over a theta grid by numpy broadcasting.

    The reference the scalar log_likelihood_slopes is held to.  Each angle's
    sum over the orders is numpy's reduction: row by row over a grid of two
    or more angles, pairwise in blocks of eight over a single angle.
    """
    ang = np.multiply.outer(omega, theta)
    s, c = np.sin(ang), np.cos(ang)
    w, h, t = omega[:, None], hs[:, None], tails[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(h > 0, h * c / s, 0.0) - np.where(t > 0, t * s / c, 0.0)
        curv = np.where(h > 0, h / (s * s), 0.0) + np.where(t > 0, t / (c * c), 0.0)
    return 2.0 * (w * score).sum(axis=0), -2.0 * (w * w * curv).sum(axis=0)


def slope_scale(theta, omega, hs, tails):
    """Sums of the absolute per-order score and curvature terms at one angle.

    The score's terms change sign, so its rounding is bounded relative to
    this sum, not to the score itself.
    """
    s, c = np.sin(omega * theta), np.cos(omega * theta)
    score = omega * (hs * np.abs(c / s) + tails * np.abs(s / c))
    curv = omega * omega * (hs / (s * s) + tails / (c * c))
    return 2.0 * score.sum(), 2.0 * curv.sum()


def random_totals(rng, n_orders: int) -> OrderTotals:
    """Totals at n_orders distinct orders up to 64, a third with no successes or no failures."""
    totals = OrderTotals()
    for k in rng.choice(65, size=n_orders, replace=False):
        m = int(rng.integers(1, 20_000))
        h = int(rng.choice([0, m, int(rng.integers(0, m + 1))], p=[1 / 6, 1 / 6, 2 / 3]))
        totals.add(RoundRecord(k=int(k), m=m, h=h))
    return totals


def likelihood_error_scale(theta: float, rows) -> float:
    """Bound on the rounding error of log_likelihood at theta, in units of eps.

    Each term h log|sin x| (or t log|cos x|) at the rounded x = omega theta
    is off by up to h (|x cot x| + 1) eps from the angle's rounding and the
    sine's, plus a few ulps of its own size from the log and the product;
    each of the n additions adds up to eps times the sum of the terms' sizes.
    """
    sizes = cond = 0.0
    for w, h, t in rows:
        x = w * theta
        s, c = abs(math.sin(x)), abs(math.cos(x))
        if h > 0:
            sizes += h * abs(math.log(s))
            cond += h * (x * c / s + 1.0)
        if t > 0:
            sizes += t * abs(math.log(c))
            cond += t * (x * s / c + 1.0)
    return 2.0 * (cond + (len(rows) + 2) * sizes)


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
        assert OrderTotals(rounds).rows == ((1.0, 26.0, 84.0), (5.0, 82.0, 48.0))

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
        assert OrderTotals().rows == ()
        assert log_likelihood_terms(np.array([0.3, 0.7]), *columns(())).tolist() == [0.0, 0.0]


class TestLogLikelihoodSlopes:
    def test_match_central_differences(self):
        rounds = [
            RoundRecord(k=0, m=100, h=26),
            RoundRecord(k=1, m=80, h=70),
            RoundRecord(k=3, m=50, h=0),
        ]
        rows = OrderTotals(rounds).rows
        step = 1e-6
        f = lambda th: log_likelihood_terms(np.asarray(th), *columns(rows))
        for theta in (0.11, 0.37, 0.52, 0.93, 1.21):
            score, curv = log_likelihood_slopes(theta, rows)
            fd_score = (f([theta + step]) - f([theta - step]))[0] / (2.0 * step)
            up, _ = log_likelihood_slopes(theta + step, rows)
            down, _ = log_likelihood_slopes(theta - step, rows)
            assert score == pytest.approx(fd_score, rel=1e-6)
            assert curv == pytest.approx((up - down) / (2.0 * step), rel=1e-6)
            assert curv < 0.0

    def test_zero_counts_contribute_nothing(self):
        assert log_likelihood_slopes(0.4, [(3.0, 0.0, 0.0)]) == (0.0, 0.0)
        # Not even at the zero count's own singular angle: sin(3 * 0) = 0.
        rows = [(3.0, 0.0, 40.0)]
        (score,), (curv,) = vector_slopes(np.array([0.0]), *map(np.array, zip(*rows)))
        assert log_likelihood_slopes(0.0, rows) == (score, curv) == (0.0, -720.0)

    def test_equal_the_grid_form_on_random_totals(self):
        # Exact wherever numpy adds the orders in row order: over two angles,
        # as the edge scores were taken, and over one angle below eight
        # orders; numpy's blocked pairwise sum over eight or more orders at
        # one angle rounds differently, within 1e-13 of the term sizes.
        rng = np.random.default_rng(2024)
        for n_orders in list(range(1, 13)) * 25:
            totals = random_totals(rng, n_orders)
            rows = totals.rows
            arrays = columns(rows)
            lo, hi = sorted(rng.uniform(1e-6, math.pi / 2.0 - 1e-6, size=2).tolist())
            (score_lo, score_hi), (curv_lo, curv_hi) = vector_slopes(np.array([lo, hi]), *arrays)
            assert log_likelihood_slopes(lo, rows) == (score_lo, curv_lo)
            assert log_likelihood_slopes(hi, rows) == (score_hi, curv_hi)
            (score,), (curv,) = vector_slopes(np.array([lo]), *arrays)
            got_score, got_curv = log_likelihood_slopes(lo, rows)
            if n_orders < 8:
                assert (got_score, got_curv) == (score, curv)
            else:
                score_scale, curv_scale = slope_scale(lo, *arrays)
                assert abs(got_score - score) <= 1e-13 * score_scale
                assert abs(got_curv - curv) <= 1e-13 * curv_scale


class TestScalarLikelihood:
    def test_matches_a_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        for n_orders in list(range(1, 13)) * 10:
            rows = random_totals(rng, n_orders).rows
            theta = float(rng.uniform(1e-6, math.pi / 2.0 - 1e-6))
            with mpmath.workdps(50):
                want = 0
                for w, h, t in rows:
                    x = mpmath.mpf(w) * mpmath.mpf(theta)
                    want += h * mpmath.log(abs(mpmath.sin(x))) + t * mpmath.log(abs(mpmath.cos(x)))
                want = float(2 * want)
            got = log_likelihood(theta, rows)
            assert abs(got - want) <= likelihood_error_scale(theta, rows) * EPS

    def test_zero_count_annihilates_its_degenerate_term(self):
        # 0 * log 0 = 0: no successes at theta = 0, where sin(theta) = 0.
        rows = OrderTotals([RoundRecord(k=0, m=5, h=0)]).rows
        assert log_likelihood(0.0, rows) == 0.0
        assert log_likelihood(0.3, rows) == pytest.approx(10.0 * math.log(math.cos(0.3)), rel=1e-15)
        assert log_likelihood(0.3, ()) == 0.0

    def test_chord_masses_integrate_the_exponential_drop(self):
        # A drop of 2, none, a negative one from rounding, and an infinite one.
        assert chord_mass(-10.0 - -12.0) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-15)
        assert [chord_mass(-10.0 - end) for end in (-10.0, -9.999, -math.inf)] == [1.0, 1.0, 0.0]
        # A drop of minus two ulps counts as none, so J_t stays a lower bound.
        assert chord_mass(1.0 - (1.0 + 4e-16)) == 1.0

    def test_chord_mass_matches_a_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        drops = [2.0, *rng.uniform(0.0, 40.0, size=2000).tolist(), *(10.0 ** rng.uniform(-300, 3, size=500)).tolist()]
        for drop in drops:
            with mpmath.workdps(50):
                want = float(-mpmath.expm1(-mpmath.mpf(drop)) / drop)
            assert abs(chord_mass(drop) - want) <= 2 * EPS * want
