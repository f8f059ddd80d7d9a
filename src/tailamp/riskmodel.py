"""Discrete scenario tail risk: VaR threshold, hinge normalization, CVaR.

A quantity of interest takes value Q_i with probability p_i over a finite
scenario set.  With the threshold eta fixed at the alpha-quantile, the
conditional value at risk is an affine function of the normalized tail
expectation a = sum_i p_i g_i, g_i = max(Q_i - eta, 0) / (Q_max - eta).
That single number a in [0, 1] is what both the Monte Carlo baseline and the
amplitude estimator measure; the affine map back to CVaR is exact and shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import OracleSpec


@dataclass(frozen=True)
class ScenarioSet:
    """Finite response distribution: values Q_i with weights p_i."""

    probs: np.ndarray
    responses: np.ndarray
    alpha_level: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        responses = np.asarray(self.responses, dtype=float)
        if probs.ndim != 1 or probs.shape != responses.shape:
            raise ValueError("probs and responses must be matching 1-d arrays")
        if probs.size < 1:
            raise ValueError("need at least one scenario")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses must be finite")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must lie in (0, 1)")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "responses", responses)


@dataclass(frozen=True)
class TailNormalization:
    """Hinge responses rescaled to [0, 1] plus the exact tail amplitude."""

    eta: float
    q_max: float
    gs: np.ndarray
    a: float


def var_threshold(s: ScenarioSet) -> float:
    """alpha-quantile eta = Q_(k) at k = min{k : sum of sorted p >= alpha}.

    Ties in Q keep original scenario order (stable sort), which pins the
    quantile deterministically.
    """
    order = np.argsort(s.responses, kind="stable")
    cum = np.cumsum(s.probs[order])
    # Tiny slack keeps an exact boundary hit from flipping on rounding.
    idx = int(np.searchsorted(cum, s.alpha_level - 1e-12, side="left"))
    idx = min(idx, s.responses.size - 1)
    return float(s.responses[order][idx])


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
    if not 0.0 < alpha_level < 1.0:
        raise ValueError("alpha_level must lie in (0, 1)")
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
    s: ScenarioSet, eta: float, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte Carlo baseline at the shared fixed threshold.

    Draws scenario indices iid from p and averages the hinge; one draw is
    one oracle call, so n_samples is directly comparable to the amplified
    estimator's oracle-call budget.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    idx = rng.choice(s.responses.size, size=n_samples, p=s.probs)
    hinge_mean = float(np.mean(np.maximum(s.responses[idx], eta) - eta))
    return eta + hinge_mean / (1.0 - s.alpha_level)


def to_oracle_spec(s: ScenarioSet, tn: TailNormalization) -> OracleSpec:
    """Package the scenario weights and normalized tail as an oracle."""
    return OracleSpec(s.probs, tn.gs)
