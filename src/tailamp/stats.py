"""Exact binomial statistics for amplified measurement rounds.

Each batch of shots at amplification order k is a binomial draw whose success
probability is sin^2((2k+1) theta).  The controller's feasible sets and
estimates are built from the exact log-likelihood of a collection of rounds
with its first two angle derivatives.  The likelihood depends on the rounds
only through the success and failure totals at each distinct order, so it
is evaluated on those.  The controller's per-batch kernels run on Python
floats and math's sin, cos, log and expm1: log_likelihood and
log_likelihood_slopes on per-order rows at one angle, chord_mass on one
likelihood drop.  With one to a few dozen orders, numpy's per-call overhead
would outweigh the arithmetic.  log_likelihood_terms takes the same totals
as numpy columns over a grid of angles, the reference the slopes equal bit
for bit.  The exact Clopper-Pearson interval of one batch (beta quantiles
from scipy's inverse regularized incomplete beta) gives the per-batch band
view of a run.
"""

from __future__ import annotations

import bisect
import math
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
    rows is one (omega, hs, tails) tuple of Python floats per order in
    ascending k, for the controller's scalar kernels: omega = 2k+1, hs the
    summed successes and tails the summed failures m - h at that order.  add
    replaces rows with a new tuple in which only its order's row changed, or
    was inserted in its sorted place, so a rows read earlier stays as it was.
    info is the Fisher information about the angle, 4 sum (2k+1)^2 m: each
    shot at order k carries 4(2k+1)^2 wherever on the flank it lands.
    Integer counts keep every total exact, so adding rounds one at a time
    gives the same values as a fresh build.
    """

    __slots__ = ("_counts", "rows", "info")

    def __init__(self, rounds=()):
        self._counts: dict[int, list[int]] = {}
        self.rows: tuple[tuple[float, float, float], ...] = ()
        self.info = 0
        for r in rounds:
            self.add(r)

    def add(self, rec) -> None:
        acc = self._counts.setdefault(rec.k, [0, 0])
        acc[0] += rec.h
        acc[1] += rec.m - rec.h
        self.info += 4 * (2 * rec.k + 1) ** 2 * rec.m
        w = 2.0 * rec.k + 1.0
        rows = self.rows
        # (w,) sorts before every row of order w and after every lower order.
        i = bisect.bisect_left(rows, (w,))
        rest = i + 1 if i < len(rows) and rows[i][0] == w else i
        self.rows = rows[:i] + ((w, float(acc[0]), float(acc[1])),) + rows[rest:]


def log_likelihood_terms(
    theta: np.ndarray,
    omega: np.ndarray,
    hs: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Log-likelihood over a theta grid from per-order columns.

    omega = 2k+1, hs = successes and tails = m - h, one entry per order (or
    per round).  Zero counts annihilate their term even when the
    corresponding log is -inf, matching the 0 * log 0 = 0 convention; -inf
    is a legitimate output elsewhere.
    """
    ang = np.multiply.outer(omega.astype(float), theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log(np.abs(np.sin(ang)))
        lq = np.log(np.abs(np.cos(ang)))
        t1 = np.where(hs[:, None] > 0, hs[:, None] * lp, 0.0)
        t2 = np.where(tails[:, None] > 0, tails[:, None] * lq, 0.0)
    return 2.0 * (t1 + t2).sum(axis=0)


def log_likelihood(theta: float, rows) -> float:
    """log_likelihood_terms at one angle theta, from per-order rows of floats.

    rows are (omega, hs, tails) per order, as OrderTotals.rows gives them.
    One pass over the rows on math's sin, cos and log, added left to right.
    A zero count contributes nothing.  No double but 0 has a sine of 0, and
    none has a cosine of 0, so only successes counted at theta = 0 reach
    log 0, where math.log raises ValueError; the controller's angles are
    never 0.
    """
    sin, cos, log = math.sin, math.cos, math.log
    acc = 0.0
    for w, h, t in rows:
        x = w * theta
        lp = h * log(abs(sin(x))) if h > 0.0 else 0.0
        lq = t * log(abs(cos(x))) if t > 0.0 else 0.0
        acc += lp + lq
    return 2.0 * acc


def log_likelihood_slopes(theta: float, rows) -> tuple[float, float]:
    """Score and curvature of the log-likelihood at one angle theta.

    rows are (omega, hs, tails) per order, as OrderTotals.rows gives them.
    score = 2 sum w (h cot(w theta) - t tan(w theta)) and
    curvature = -2 sum w^2 (h csc^2(w theta) + t sec^2(w theta)), which is
    negative wherever it is finite: the likelihood is concave between the
    singular angles where a counted outcome has probability zero.  A zero
    count contributes nothing, even at its own singular angle.  The sums run
    left to right over the rows; the builtin sum is compensated from Python
    3.12 on and would round differently.
    """
    sin, cos = math.sin, math.cos
    score = curv = 0.0
    for w, h, t in rows:
        x = w * theta
        s, c = sin(x), cos(x)
        score += w * ((h * c / s if h > 0.0 else 0.0) - (t * s / c if t > 0.0 else 0.0))
        curv += w * w * ((h / (s * s) if h > 0.0 else 0.0) + (t / (c * c) if t > 0.0 else 0.0))
    return 2.0 * score, -2.0 * curv


def chord_mass(drop: float) -> float:
    """Integral of exp(-drop u) over u in [0, 1]: (1 - exp(-drop)) / drop.

    drop is the log-likelihood at the maximum less its value at a chord end;
    a drop at or below zero can only come from rounding and counts as zero,
    whose integral is 1.
    """
    return -math.expm1(-drop) / drop if drop > 0.0 else 1.0
