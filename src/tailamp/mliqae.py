"""Maximum-likelihood iterative amplitude estimation with one anytime-valid set.

The controller runs batches of shots at adaptively chosen amplification
orders k and pools them into per-order success and failure totals.  After
each batch the feasible set keeps the points of the previous set whose
pooled log-likelihood clears a method-of-mixtures cut (Howard et al. 2021,
Ann. Statist. 49(2); Wasserman, Ramdas & Balakrishnan 2020, PNAS
117:16880).  Under the true angle the likelihood ratio of the uniform-prior
mixture is a nonnegative martingale, so by Ville's inequality the true angle
stays in every set at once with probability at least 1 - delta_tot, whatever
depths, shot counts and stopping rule the loop chose.  Each set contains the
maximum-likelihood point of the one before, so it is never empty; the
estimate is that point.  Each batch runs at the deepest order whose
amplified response is monotone over the whole feasible set (the depth rule
of Grinko et al. 2021, npj Quantum Inf. 7:52), so every later set, which
lies inside that one, stays on one flank of every counted order.  The
likelihood is concave there, and the set is one interval, kept as a
(lo, hi) pair; the ledger keeps one stats.RoundRecord per batch.  The
set's width and the unspent budget are the only bounds on the order: no
depth cap applies, since the set is valid at every depth, and a run
without a precision target spends its budget to the last call.  The
per-batch update reads the per-order rows of Python floats that
OrderTotals keeps current and runs on them through the scalar kernels of
stats, on math's functions alone: with one to a few dozen orders, numpy's
per-call overhead would cost more than the arithmetic.

run loops over three steps, each a function of the values it reads:
select_depth picks the order, select_shots the batch size, and
update_feasible returns the new set, its maximum-likelihood point and its cut.
ControllerConfig holds only a run's contract; the loop's policy is fixed by
the module constants: the shot rule's _M_MIN and _HORIZON, and the update's
_MLE_BRACKET, _CUT_NUDGE and _CHORD_SIGMAS.  The depth rule has no constant
of its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .intervals import THETA_HI, THETA_LO, IntervalUnion
from .intervals import theta_preimage  # noqa: F401  (perfbench traces this lookup site)
from .qsim import sample_shots
from .stats import OrderTotals, RoundRecord, chord_mass, log_likelihood, log_likelihood_slopes
from .stats import clopper_pearson  # noqa: F401  (perfbench traces this lookup site)
from .stats import log_likelihood_terms  # noqa: F401  (perfbench traces this lookup site)

# Cap on refinement steps per MLE.  Bisection alone narrows a piece below
# 1e-10 in under 40 steps, so the cap never binds in practice; it only rules
# out a non-terminating loop.
_NEWTON_MAX_STEPS = 100

# Policy of the loop: the validated operating point, the same for every run.
_M_MIN = 50  # fewest shots per batch while the remainder affords them
_HORIZON = 28  # each batch takes 1/_HORIZON of the shots the remainder affords
_MLE_BRACKET = 1e-10  # Newton stops once its step is this short
_CUT_NUDGE = 1e-12  # relative inset of a piece edge from a singular angle
_CHORD_SIGMAS = 1.5  # the likelihood integral is bounded on theta_hat +- this / sqrt(info)

_HALF_PI = 0.5 * math.pi

# Largest budget a run takes: the update reads the pooled counts as floats
# (OrderTotals.rows), which are exact integers only up to 2**53.
MAX_BUDGET = 2**53


@dataclass(frozen=True)
class ControllerConfig:
    """The run's contract: oracle budget, failure probability, precision.

    Everything else the loop decides by the policy constants above.
    """

    budget: int
    delta_tot: float = 0.05
    epsilon_a: float = 0.0  # amplitude half-width stop; 0 runs the budget out

    def __post_init__(self):
        for name, kind, noun in (
            ("budget", numbers.Integral, "an integer"),
            ("delta_tot", numbers.Real, "a real number"),
            ("epsilon_a", numbers.Real, "a real number"),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{name} must be {noun}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.budget > MAX_BUDGET:
            raise ValueError(
                f"budget {self.budget} is too large: the controller takes at most 2**53 = {MAX_BUDGET}"
            )
        if not 0.0 < self.delta_tot < 1.0:
            raise ValueError("delta_tot must lie in (0, 1)")
        if not (math.isfinite(self.epsilon_a) and self.epsilon_a >= 0.0):
            raise ValueError("epsilon_a must be a finite number >= 0")


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one controller run."""

    theta_hat: float
    a_hat: float
    theta_bounds: tuple[float, float]
    a_bounds: tuple[float, float]
    feasible: IntervalUnion  # theta_bounds as a one-component union
    oracle_calls: int
    rounds: int
    ledger: tuple[RoundRecord, ...]
    # The feasible set never empties, so no run restarts or fails.
    restarts: ClassVar[int] = 0
    failed: ClassVar[bool] = False


def _concave_piece(lo: float, hi: float, rows) -> tuple[float, float]:
    """The interval [lo, hi], with its edges moved off the likelihood's singular angles.

    Order omega's success term is singular where sin(omega theta) = 0, at
    j pi / (2 omega) for even j, and its failure term where cos(omega theta)
    = 0, at odd j; a term with a zero count is not singular at all.  Between
    consecutive singular angles every term is concave.  A singular angle
    within a relative _CUT_NUDGE of an edge moves that edge inward past it by
    the nudge, so the piece never starts on a singular angle, where rounding
    loses the score's sign.  One farther inside raises ValueError: the
    likelihood is not concave across it.  The depth rule never counts such
    an order, because it keeps the whole set on one flank of every order.
    rows are the per-order (omega, hs, tails) floats of OrderTotals.rows.
    """
    piece_lo, piece_hi = lo, hi
    lo_in, hi_out = lo * (1.0 - _CUT_NUDGE), hi * (1.0 + _CUT_NUDGE)
    for w, h, t in rows:
        step = _HALF_PI / w
        first = math.floor(lo_in / step) + 1
        last = math.ceil(hi_out / step)
        if first >= last:
            continue
        for j in range(first, last):
            if (t if j % 2 else h) == 0:
                continue
            cut = j * step
            if cut * (1.0 - _CUT_NUDGE) <= lo:
                piece_lo = max(piece_lo, cut * (1.0 + _CUT_NUDGE))
            elif cut * (1.0 + _CUT_NUDGE) >= hi:
                piece_hi = min(piece_hi, cut * (1.0 - _CUT_NUDGE))
            else:
                raise ValueError(f"order {int(w) // 2} is singular at {cut!r}, inside [{lo!r}, {hi!r}]")
    if piece_lo > piece_hi:
        raise ValueError(f"[{lo!r}, {hi!r}] lies within a nudge of a singular angle")
    return piece_lo, piece_hi


def _newton_refine(lo: float, hi: float, rows) -> tuple[float, float]:
    """Maximize the likelihood on the concave piece [lo, hi].

    The maximum is where the score changes sign from + to -, or the edge the
    score points to when it does not change sign.  The score falls across
    the piece, so the sign at the midpoint says which edge can hold the
    maximum.  Newton steps go on from the midpoint; the score at each
    iterate moves the bracket edge on its side up to it, and a step that
    leaves the bracket becomes a bisection.  The edge is checked once, at
    the first iterate whose Newton step is at least half its distance from
    the edge (a step that reaches the edge is one), and returned if its
    score points outward; a maximum inside the piece costs no edge check
    unless the search closes in on that edge.  The search stops at the
    iterate whose Newton step is no longer than _MLE_BRACKET.  Returns
    (theta, score): the maximum and the score there.
    """
    th = 0.5 * (lo + hi)
    score, curv = log_likelihood_slopes(th, rows)
    # The edge's score points outward, and the edge is the maximum, when side * score >= 0.
    edge, side = (hi, 1.0) if score > 0.0 else (lo, -1.0)
    for _ in range(_NEWTON_MAX_STEPS):
        if score > 0.0:
            lo = th
        else:
            hi = th
        newton = th - score / curv
        if edge is not None and abs(edge - th) <= 2.0 * abs(newton - th):
            score_edge, _ = log_likelihood_slopes(edge, rows)
            if side * score_edge >= 0.0:
                return edge, score_edge
            edge = None
        # A converged iterate stops before its step lands on the bracket edge
        # it just moved, which would turn the step into a bisection.
        if abs(newton - th) <= _MLE_BRACKET:
            break
        th = newton if lo < newton < hi else 0.5 * (lo + hi)
        score, curv = log_likelihood_slopes(th, rows)
    return th, score


def update_feasible(
    feasible: tuple[float, float], totals: OrderTotals, delta_tot: float
) -> tuple[tuple[float, float], float, float]:
    """Cut the feasible set to the points that clear the pooled likelihood cut.

    totals already holds the new batch.  The new set is
    D_t = {theta in D_{t-1} : l_t(theta) >= c_t} with
    c_t = log J_t - log(pi/2) - log(1/delta_tot), where J_t is a lower bound
    on the integral of L_t over D_{t-1}; a lower J_t only widens the set.
    D_{t-1}, the interval feasible, must lie on one flank of every counted
    order, as the depth rule keeps it, or ValueError is raised; l_t is then
    concave on it, and D_t is one interval.  J_t integrates the concavity
    chords from theta_hat, the maximum over D_{t-1}, to
    theta_hat -+ _CHORD_SIGMAS / sqrt(info), clipped to D_{t-1}; a chord end
    on theta_hat itself, as when the maximum is an edge, drops by 0, so its
    mass is 1 and it takes no likelihood pass.  -l'' >= info / 2, so with
    residual score g at theta_hat,
    l_t(theta_hat + x) <= l_t(theta_hat) + g x - info x^2 / 4, and the
    interval where that bound clears c_t, clipped to D_{t-1}, is kept: an
    outer bound of D_t.  theta_hat always clears the cut, so it becomes the
    estimate and the set is never empty.  Returns the new set, theta_hat
    and c_t.
    """
    rows, info = totals.rows, totals.info
    lo, hi = _concave_piece(*feasible, rows)
    theta, score = _newton_refine(lo, hi, rows)
    reach = _CHORD_SIGMAS / math.sqrt(info)
    end_lo, end_hi = max(lo, theta - reach), min(hi, theta + reach)
    ll = log_likelihood(theta, rows)
    mass_lo = 1.0 if end_lo == theta else chord_mass(ll - log_likelihood(end_lo, rows))
    mass_hi = 1.0 if end_hi == theta else chord_mass(ll - log_likelihood(end_hi, rows))
    chord = (theta - end_lo) * mass_lo + (end_hi - theta) * mass_hi
    log_j = ll + math.log(chord) if chord > 0.0 else -math.inf
    cut = log_j - math.log(_HALF_PI) + math.log(delta_tot)
    slack = info * (ll - cut)
    up, down = max(score, 0.0), max(-score, 0.0)
    new_lo = max(lo, theta - 2.0 * (down + math.sqrt(down * down + slack)) / info)
    new_hi = min(hi, theta + 2.0 * (up + math.sqrt(up * up + slack)) / info)
    return (new_lo, new_hi), theta, cut


def select_depth(feasible: tuple[float, float], remaining: int) -> int:
    """Amplification order for the next round: the deepest single-flank order.

    The largest k whose scaled feasible hull (2k+1) [lo, hi] lies within one
    half-period of sin^2, so the amplified response is monotone over every
    angle still feasible (the depth rule of Grinko et al. 2021, npj Quantum
    Inf. 7:52), among the orders whose single shot, 2k+1 oracle calls, the
    remaining budget can pay for.  No constant caps k.  Order 0 always
    qualifies; the full domain, before the first batch, admits no deeper
    order, and a zero-width hull admits every affordable one.  Deeper
    amplification is what buys information faster than flat sampling: the
    per-call Fisher information grows linearly with the order.
    """
    lo, hi = feasible
    start = (remaining - 1) // 2
    if hi > lo:
        # No order with (2k+1) (hi - lo) > pi/2 qualifies, and every k from
        # pi / (4 (hi - lo)) + 1 up has (2k+1) (hi - lo) > pi/2 + (hi - lo).
        start = min(start, math.floor(math.pi / (4.0 * (hi - lo))) + 1)
    for k in range(start, 0, -1):
        if math.floor((2 * k + 1) * lo / _HALF_PI) == math.floor((2 * k + 1) * hi / _HALF_PI):
            return k
    return 0


def select_shots(remaining: int, k: int) -> int:
    """Batch size for the next round at amplification order k.

    A fixed share 1/_HORIZON of the shots the remaining budget affords at
    order k, at least _M_MIN, and never more than the remainder affords.
    The depth rule only picks orders one shot of which the remainder can pay
    for, so zero means the budget is exhausted.
    """
    affordable = remaining // (2 * k + 1)
    # A numpy-integer budget makes remaining a numpy integer; the ledger keeps Python ints.
    return int(min(max(_M_MIN, affordable // _HORIZON), affordable))


def run(oracle, cfg: ControllerConfig, rng: np.random.Generator) -> EstimateReport:
    """Execute the full estimation loop until the budget or the target is hit.

    The target half-width is tested after each update, as IQAE tests its
    stop (Grinko et al. 2021).  The oracle only needs a success_probability(k)
    method; both the closed-form and the statevector-backed models satisfy it.
    """
    feasible = (THETA_LO, THETA_HI)
    totals, ledger, spent = OrderTotals(), [], 0
    while spent < cfg.budget:
        k = select_depth(feasible, cfg.budget - spent)
        m = select_shots(cfg.budget - spent, k)
        entry = RoundRecord(k=k, m=m, h=sample_shots(oracle.success_probability(k), m, rng))
        ledger.append(entry)
        totals.add(entry)
        spent += entry.cost
        feasible, theta_hat, _ = update_feasible(feasible, totals, cfg.delta_tot)
        lo, hi = feasible
        if cfg.epsilon_a > 0.0 and 0.5 * (math.sin(hi) ** 2 - math.sin(lo) ** 2) <= cfg.epsilon_a:
            break
    # The domain inset keeps angles off 0 and pi/2; a set reaching the lower
    # inset edge admits a = 0 itself (sin(THETA_HI) ** 2 is exactly 1.0).
    a_lo = 0.0 if lo <= THETA_LO else math.sin(lo) ** 2
    return EstimateReport(
        theta_hat=theta_hat,
        a_hat=math.sin(theta_hat) ** 2,
        theta_bounds=feasible,
        a_bounds=(a_lo, math.sin(hi) ** 2),
        feasible=IntervalUnion([feasible]),
        oracle_calls=spent,
        rounds=len(ledger),
        ledger=tuple(ledger),
    )
