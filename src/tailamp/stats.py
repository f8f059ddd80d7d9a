"""Exact binomial statistics for amplified measurement rounds.

Each batch of shots at amplification order k is a binomial draw whose success
probability is sin^2((2k+1) theta).  Everything downstream (feasible sets,
confidence bookkeeping, likelihood surfaces) is built from the pieces here:
Clopper-Pearson interval endpoints as beta quantiles (scipy's inverse
regularized incomplete beta), a summable per-round confidence schedule, and
the exact log-likelihood of a collection of rounds with its first two angle
derivatives.  The likelihood depends on the rounds only through the success
and failure totals at each distinct order, so it is evaluated on those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class RoundRecord:
    """One executed batch: k amplification order, m shots, h successes.

    delta is the confidence budget consumed by this batch's interval.
    """

    k: int
    m: int
    h: int
    delta: float

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= self.h <= self.m:
            raise ValueError("h must lie in [0, m]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float


def clopper_pearson(h: int, m: int, delta: float) -> ConfidenceInterval:
    """Exact two-sided binomial confidence interval at miscoverage delta.

    Endpoints are beta quantiles; the conventional boundary cases h = 0 and
    h = m pin the corresponding endpoint to 0 or 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= h <= m:
        raise ValueError("h must lie in [0, m]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if h == 0:
        p_lo = 0.0
    else:
        p_lo = float(special.betaincinv(h, m - h + 1, delta / 2.0))
    if h == m:
        p_hi = 1.0
    else:
        p_hi = float(special.betaincinv(h + 1, m - h, 1.0 - delta / 2.0))
    return ConfidenceInterval(p_lo, p_hi)


def delta_schedule(t: int, delta_tot: float) -> float:
    """Per-batch confidence budget: delta_t = (6/pi^2) delta_tot / t^2.

    Summing over all t >= 1 gives exactly delta_tot, so a union bound over
    every executed batch preserves the overall confidence level.
    """
    if t < 1:
        raise ValueError("batch index t starts at 1")
    if not 0.0 < delta_tot < 1.0:
        raise ValueError("delta_tot must lie in (0, 1)")
    return (6.0 / math.pi**2) * delta_tot / (t * t)


class OrderTotals:
    """Per-order sufficient statistics of a set of rounds that changes in place.

    add folds one round in and remove takes it out again; an order whose
    counts drop to zero leaves the table.  arrays is (omega, hs, tails) as
    order_totals returns it, rebuilt only after a change.  info is the Fisher
    information about the angle, 4 sum (2k+1)^2 m: each shot at order k
    carries 4(2k+1)^2 wherever on the flank it lands.  Integer counts keep
    every total exact, so any add/remove history gives the same values as
    a fresh build from the remaining rounds.
    """

    __slots__ = ("_counts", "_arrays", "info")

    def __init__(self, rounds=()):
        self._counts: dict[int, list[int]] = {}
        self._arrays = None
        self.info = 0
        for r in rounds:
            self.add(r)

    def add(self, rec: RoundRecord, sign: int = 1) -> None:
        acc = self._counts.setdefault(rec.k, [0, 0])
        acc[0] += sign * rec.h
        acc[1] += sign * (rec.m - rec.h)
        if acc[0] == acc[1] == 0:
            del self._counts[rec.k]
        self.info += sign * 4 * (2 * rec.k + 1) ** 2 * rec.m
        self._arrays = None

    def remove(self, rec: RoundRecord) -> None:
        self.add(rec, -1)

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            ks = sorted(self._counts)
            omega = np.array([2 * k + 1 for k in ks], dtype=float)
            hs = np.array([self._counts[k][0] for k in ks], dtype=float)
            tails = np.array([self._counts[k][1] for k in ks], dtype=float)
            self._arrays = (omega, hs, tails)
        return self._arrays


def order_totals(rounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sufficient statistics of the rounds: one row per distinct order k.

    Returns (omega, hs, tails) with omega = 2k+1 in ascending k, hs the summed
    successes and tails the summed failures m - h at that order.
    """
    return OrderTotals(rounds).arrays


def log_likelihood_terms(
    theta: np.ndarray,
    omega: np.ndarray,
    hs: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Log-likelihood over a theta grid from pre-extracted round arrays.

    omega = 2k+1 per row, hs = successes, tails = m - h (per round or, as
    order_totals gives them, per order).  Zero counts annihilate their term
    even when the corresponding log is -inf, matching the 0 * log 0 = 0
    convention; -inf is a legitimate output elsewhere.
    """
    ang = np.multiply.outer(omega.astype(float), theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log(np.abs(np.sin(ang)))
        lq = np.log(np.abs(np.cos(ang)))
        t1 = np.where(hs[:, None] > 0, hs[:, None] * lp, 0.0)
        t2 = np.where(tails[:, None] > 0, tails[:, None] * lq, 0.0)
    return 2.0 * (t1 + t2).sum(axis=0)


def log_likelihood_slopes(
    theta: np.ndarray,
    omega: np.ndarray,
    hs: np.ndarray,
    tails: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Score and curvature of log_likelihood_terms at each theta.

    score = 2 sum w (h cot(w theta) - t tan(w theta)) and
    curvature = -2 sum w^2 (h csc^2(w theta) + t sec^2(w theta)), which is
    negative wherever it is finite: the likelihood is concave between the
    singular angles where a counted outcome has probability zero.
    """
    ang = np.multiply.outer(omega, theta)
    s, c = np.sin(ang), np.cos(ang)
    w, h, t = omega[:, None], hs[:, None], tails[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(h > 0, h * c / s, 0.0) - np.where(t > 0, t * s / c, 0.0)
        curv = np.where(h > 0, h / (s * s), 0.0) + np.where(t > 0, t / (c * c), 0.0)
    return 2.0 * (w * score).sum(axis=0), -2.0 * (w * w * curv).sum(axis=0)


def log_likelihood(theta, rounds) -> float | np.ndarray:
    """Exact log-likelihood of the observed rounds at angle(s) theta.

    Each round contributes h log sin^2(w theta) + (m - h) log cos^2(w theta)
    with w = 2k+1.  Scalar in, scalar out; arrays are evaluated pointwise.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    out = log_likelihood_terms(th, *order_totals(rounds))
    return float(out[0]) if np.ndim(theta) == 0 else out
