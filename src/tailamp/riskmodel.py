"""Discrete scenario tail risk: VaR threshold, hinge normalization, CVaR.

A quantity of interest takes value Q_i with probability p_i over a finite
scenario set.  With the threshold eta fixed at the alpha-quantile, the
conditional value at risk is an affine function of the normalized tail
expectation a = sum_i p_i g_i, g_i = max(Q_i - eta, 0) / (Q_max - eta).
That single number a in [0, 1] is what both the Monte Carlo baseline and the
amplitude estimator measure; the affine map back to CVaR is exact and shared.
Only the scenarios above eta move either number, so the Monte Carlo baseline
draws counts for those alone: O(N) to select them, O(tail) to draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import OracleSpec
from .stochfem import checked, checked_scenarios

_MAX_DRAWS = int(np.iinfo(np.int64).max)  # numpy's binomial and multinomial take a 64-bit count


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Finite response distribution: values Q_i with weights p_i."""

    probs: np.ndarray
    responses: np.ndarray
    alpha_level: float

    def __post_init__(self):
        probs, responses = checked_scenarios(self.probs, self.responses, "responses")
        checked("alpha_level", self.alpha_level)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "responses", responses)


@dataclass(frozen=True, eq=False)
class TailNormalization:
    """Hinge responses rescaled to [0, 1] plus the exact tail amplitude."""

    eta: float
    q_max: float
    gs: np.ndarray
    a: float


def var_threshold(s: ScenarioSet) -> float:
    """alpha-quantile eta = Q_(k) at k = min{k : sum of sorted p >= alpha}.

    Only scenarios with positive weight are sorted, so eta is always a
    response that carries mass.  Ties in Q keep original scenario order
    (stable sort), which pins the quantile deterministically.
    """
    order = np.argsort(s.responses, kind="stable")
    order = order[s.probs[order] > 0.0]
    cum = np.cumsum(s.probs[order])
    # Tiny slack keeps an exact boundary hit from flipping on rounding.
    idx = int(np.searchsorted(cum, s.alpha_level - 1e-12, side="left"))
    return float(s.responses[order[min(idx, order.size - 1)]])


def normalize_hinge(s: ScenarioSet, eta: float) -> TailNormalization:
    """Map responses through the hinge and rescale by the tail span.

    g_i = max(Q_i - eta, 0) / (Q_max - eta); a degenerate span (all mass at
    or below eta) yields g = 0 identically and a = 0.  Finite responses can
    still lie so far apart that the span overflows, which raises ValueError.
    Here and in the CVaR sums below the hinge is max(Q_i, eta) - eta: the
    same values, with no overflow for responses far below eta.
    """
    q_max = float(np.max(s.responses))
    if q_max < eta:
        raise ValueError("threshold exceeds the largest response")
    span = q_max - float(eta)
    if not np.isfinite(span):
        raise ValueError(f"tail span q_max - eta overflows (q_max {q_max:g}, eta {eta:g})")
    if span > 0.0:
        gs = (np.maximum(s.responses, eta) - eta) / span
    else:
        gs = np.zeros_like(s.responses)
    a = float(np.dot(s.probs, gs))
    return TailNormalization(eta=float(eta), q_max=q_max, gs=gs, a=a)


def cvar_from_amplitude(a: float, eta: float, q_max: float, alpha_level: float) -> float:
    """Affine map from tail amplitude to CVaR at fixed threshold."""
    checked("alpha_level", alpha_level)
    if not 0.0 <= a <= 1.0 + 1e-12:
        raise ValueError("amplitude must lie in [0, 1]")
    return eta + (q_max - eta) / (1.0 - alpha_level) * a


def discrete_cvar(s: ScenarioSet) -> float:
    """Exact CVaR at the alpha-quantile threshold, summed directly.

    Computed from the hinge expectation without the [0, 1] normalization, so
    it is an independent route against cvar_from_amplitude applied to the
    exact amplitude.
    """
    eta = var_threshold(s)
    hinge = np.maximum(s.responses, eta) - eta
    return eta + float(np.dot(s.probs, hinge)) / (1.0 - s.alpha_level)


def mc_estimate_cvar(
    s: ScenarioSet, eta: float, budget: int, rng: np.random.Generator
) -> float:
    """Monte Carlo baseline at the shared fixed threshold.

    The hinge mean of budget iid scenario draws from p depends on the
    draws only through how often each tail scenario (Q_i > eta) comes up;
    every other draw adds a zero hinge.  So the draw is two-stage, which
    gives the law of budget index draws exactly (Devroye 1986, Non-Uniform
    Random Variate Generation, ch. XI): one binomial for how many of them
    land in the tail, then one multinomial that splits those hits over the
    tail scenarios in proportion to their weights.  Selecting the tail and
    its share takes O(N) time for N scenarios; the draws take O(tail) time
    and memory, and an empty tail returns eta without drawing.  One draw is
    still one oracle call, so budget is directly comparable to the
    amplified estimator's oracle-call budget.  The mean is taken as
    frequencies times hinges, so no partial sum exceeds the largest hinge.
    """
    checked("budget", budget)
    if budget > _MAX_DRAWS:
        raise ValueError(f"Monte Carlo budget {budget} is too large: a draw takes at most {_MAX_DRAWS}")
    tail = np.flatnonzero(s.responses > eta)
    # numpy hands any count its binomials leave over to the last category,
    # so a zero-weight scenario there could be drawn; only weighted ones enter.
    tail = tail[s.probs[tail] > 0.0]
    if tail.size == 0:
        return eta
    p = s.probs[tail]
    p_tail = p.sum()
    # The share can round past 1 when every weighted scenario lies above eta.
    hits = rng.binomial(budget, min(p_tail / s.probs.sum(), 1.0))
    # Renormalising meets numpy's sum(p[:-1]) <= 1 + 1e-12, tighter than ScenarioSet's 1e-9.
    counts = rng.multinomial(hits, p / p_tail)
    hinge_mean = float(np.dot(counts / budget, s.responses[tail] - eta))
    return eta + hinge_mean / (1.0 - s.alpha_level)


def to_oracle_spec(s: ScenarioSet, tn: TailNormalization) -> OracleSpec:
    """Package the scenario weights and normalized tail as an oracle."""
    return OracleSpec(s.probs, tn.gs)
