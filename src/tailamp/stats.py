"""Exact binomial statistics for amplified measurement rounds.

Each batch of shots at amplification order k is a binomial draw whose success
probability is sin^2((2k+1) theta).  The controller's feasible sets and
estimates are built from the exact log-likelihood of a collection of rounds
with its first two angle derivatives.  The likelihood depends on the rounds
only through the success and failure totals at each distinct order, so it
is evaluated on those.  The exact Clopper-Pearson interval of one batch
(beta quantiles from scipy's inverse regularized incomplete beta) gives the
per-batch band view of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One executed batch: k amplification order, m shots, h successes.

    Slotted: a run's ledger keeps one per batch, hundreds on a saturated run.
    """

    kind: ClassVar[str] = "round"  # every batch is an ordinary round
    k: int
    m: int
    h: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= self.h <= self.m:
            raise ValueError("h must lie in [0, m]")

    @property
    def cost(self) -> int:
        """Oracle calls the batch spent: (2k+1) m."""
        return (2 * self.k + 1) * self.m


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
    from scipy import special  # imported on first use: the controller never calls this

    if h == 0:
        p_lo = 0.0
    else:
        p_lo = float(special.betaincinv(h, m - h + 1, delta / 2.0))
    if h == m:
        p_hi = 1.0
    else:
        p_hi = float(special.betaincinv(h + 1, m - h, 1.0 - delta / 2.0))
    return ConfidenceInterval(p_lo, p_hi)


class OrderTotals:
    """Per-order sufficient statistics of a set of rounds that grows in place.

    add folds in one round: anything with k, m and h, such as a RoundRecord.
    arrays is (omega, hs, tails) as order_totals returns it, built on each
    read.  info is the Fisher information about the angle,
    4 sum (2k+1)^2 m: each shot at order k carries
    4(2k+1)^2 wherever on the flank it lands.  Integer counts keep every
    total exact, so adding rounds one at a time gives the same values as a
    fresh build.
    """

    __slots__ = ("_counts", "info")

    def __init__(self, rounds=()):
        self._counts: dict[int, list[int]] = {}
        self.info = 0
        for r in rounds:
            self.add(r)

    def add(self, rec) -> None:
        acc = self._counts.setdefault(rec.k, [0, 0])
        acc[0] += rec.h
        acc[1] += rec.m - rec.h
        self.info += 4 * (2 * rec.k + 1) ** 2 * rec.m

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ks = sorted(self._counts)
        omega = np.array([2 * k + 1 for k in ks], dtype=float)
        hs = np.array([self._counts[k][0] for k in ks], dtype=float)
        tails = np.array([self._counts[k][1] for k in ks], dtype=float)
        return omega, hs, tails


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

