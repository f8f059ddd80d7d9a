"""Maximum-likelihood iterative amplitude estimation with a stabilized loop.

The controller runs batches of shots at adaptively chosen amplification
orders k, converts each batch into an exact confidence band for the success
probability, pulls the band back to angle space, and intersects.  The angle
estimate is the constrained maximum-likelihood point over the surviving
feasible set, which may hold several competing components until later
bands rule them out.  Two guard rails keep the loop out of the classic
failure modes: a safe-depth cap tied to the feasible hull (aliasing), and
one recovery path for a rare over-confident batch contradicting the rest:
the batch that empties the feasible set hands it to the restart loop, which
fails the run at restart_cap or sheds one batch, rebuilds and buys a fresh
k = 0 batch; the heal of a pinned estimate reuses the same shed.

ControllerConfig holds only a run's contract; the loop's policy is fixed by
the module constants _KAPPA through _MLE_BRACKET.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .intervals import THETA_HI, THETA_LO, IntervalUnion, theta_preimage
from .qsim import sample_shots
from .stats import (
    OrderTotals,
    RoundRecord,
    clopper_pearson,
    delta_schedule,
    log_likelihood_slopes,
    log_likelihood_terms,
)

# Cap on refinement steps per MLE.  Bisection alone narrows a one-grid-step
# bracket below 1e-10 in under 30 steps, so the cap never binds in practice;
# it only rules out a non-terminating loop.
_NEWTON_MAX_STEPS = 100

# Likelihood-ratio gate for shedding a contradicted batch: twice the log
# likelihood gap between the unconstrained and the constrained optimum must
# exceed this before the estimate counts as pinned by a bad band.
_HEAL_GATE = 4.0

# Each restart nests three calls inside the batch whose collapse it answers;
# this limit on restart_cap keeps recovery well inside Python's stack limit.
_RESTART_CAP_MAX = 100

# Policy of the loop: the validated operating point, the same for every run.
_KAPPA = 0.49 * math.pi  # safe-depth phase cap, strictly below pi/2
_K_MAX = 64
_MAX_COMPONENTS = 4  # feasible-set components kept after pruning
_M_MIN = 50
_M_MAX = 1100
_SHOT_SCALE = 220.0  # base batch size is shot_scale * budget^(1/4)
_SHOT_GROWTH = 0.012  # mild per-round growth of the base size
_RESERVE_FLOOR = 10  # pacing horizon R_t = max(floor, base - min(t, taper))
_RESERVE_BASE = 28
_RESERVE_TAPER = 20
_SATURATION_BAND = 0.02
_GRID_POINTS = 512
_MLE_BRACKET = 1e-10  # Newton stops once its step or bracket is this narrow


@dataclass(frozen=True)
class ControllerConfig:
    """The run's contract: oracle budget, failure probability, precision, restarts.

    Everything else the loop decides by the policy constants above.
    """

    budget: int
    delta_tot: float = 0.05
    epsilon_a: float = 0.0  # amplitude half-width stop; 0 runs the budget out
    restart_cap: int = 3

    def __post_init__(self):
        for name, kind, noun in (
            ("budget", numbers.Integral, "an integer"),
            ("delta_tot", numbers.Real, "a real number"),
            ("epsilon_a", numbers.Real, "a real number"),
            ("restart_cap", numbers.Integral, "an integer"),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{name} must be {noun}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not 0.0 < self.delta_tot < 1.0:
            raise ValueError("delta_tot must lie in (0, 1)")
        if not 0 <= self.restart_cap <= _RESTART_CAP_MAX:
            raise ValueError(f"restart_cap must lie in [0, {_RESTART_CAP_MAX}]")
        if not self.epsilon_a >= 0.0:
            raise ValueError("epsilon_a must be nonnegative")


@dataclass(frozen=True, slots=True)
class BatchLog:
    """Audit entry for one executed batch; discarded batches stay logged.

    Slotted: a report keeps one entry per batch, hundreds on a saturated run.
    """

    kind: str       # "round" or "restart"
    k: int
    m: int
    h: int

    @property
    def cost(self) -> int:
        """Oracle calls the batch spent: (2k+1) m."""
        return (2 * self.k + 1) * self.m


@dataclass
class InferenceState:
    """Everything the controller carries between batches.

    rounds and totals hold the same retained batches; add_round and
    drop_round keep them in step.
    """

    feasible: IntervalUnion
    rounds: list[RoundRecord] = field(default_factory=list)
    totals: OrderTotals = field(default_factory=OrderTotals)
    ledger: list[BatchLog] = field(default_factory=list)
    spent: int = 0
    t: int = 0            # completed ordinary rounds
    batches: int = 0      # executed batches of any kind; drives the delta schedule
    restarts: int = 0
    theta_hat: float | None = None
    failed: bool = False
    pre_collapse: IntervalUnion | None = None

    @classmethod
    def initial(cls) -> "InferenceState":
        return cls(feasible=IntervalUnion.full_domain())

    def add_round(self, rec: RoundRecord) -> None:
        self.rounds.append(rec)
        self.totals.add(rec)

    def drop_round(self, idx: int) -> None:
        self.totals.remove(self.rounds.pop(idx))


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one controller run."""

    theta_hat: float
    a_hat: float
    theta_bounds: tuple[float, float]
    a_bounds: tuple[float, float]
    feasible: IntervalUnion
    oracle_calls: int
    batches: int
    rounds: int
    restarts: int
    failed: bool
    ledger: tuple[BatchLog, ...]


def _component_sups(union: IntervalUnion, totals, grid_points: int):
    """Grid supremum of the log-likelihood over each component.

    totals are the per-order sufficient statistics of the rounds.  Returns
    (sups, arg_thetas, brackets); brackets are the one-grid-step
    neighborhoods around each argmax, used to seed refinement.
    """
    comps = union.components
    grids = [np.linspace(lo, hi, grid_points) for lo, hi in comps]
    flat = np.concatenate(grids)
    ll = log_likelihood_terms(flat, *totals)
    sups, args, brackets = [], [], []
    start = 0
    for (lo, hi), grid in zip(comps, grids):
        seg = ll[start : start + grid.size]
        j = int(np.argmax(seg))
        sups.append(float(seg[j]))
        args.append(float(grid[j]))
        left = grid[j - 1] if j > 0 else lo
        right = grid[j + 1] if j < grid.size - 1 else hi
        brackets.append((float(left), float(right)))
        start += grid.size
    return sups, args, brackets


def _prune(union: IntervalUnion, state: "InferenceState") -> IntervalUnion:
    """Keep at most _MAX_COMPONENTS components, ranked by likelihood support."""
    if len(union) <= _MAX_COMPONENTS or union.is_empty:
        return union
    sups, _, _ = _component_sups(union, state.totals.arrays, _GRID_POINTS)
    if state.theta_hat is not None:
        ref = state.theta_hat
    else:
        lo, hi = union.hull()
        ref = 0.5 * (lo + hi)
    mids = [0.5 * (lo + hi) for lo, hi in union.components]
    # Rank by sup; -inf ties resolve toward the current estimate.
    order = sorted(
        range(len(union)),
        key=lambda i: (sups[i], -abs(mids[i] - ref)),
        reverse=True,
    )
    keep = sorted(order[:_MAX_COMPONENTS])
    return IntervalUnion([union.components[i] for i in keep])


def _band(rec: RoundRecord) -> IntervalUnion:
    """Angle band of one batch: its Clopper-Pearson interval pulled back to angles."""
    ci = clopper_pearson(rec.h, rec.m, rec.delta)
    return theta_preimage(rec.k, ci.lo, ci.hi)


def update_feasible(state: InferenceState, rec: RoundRecord) -> None:
    """Intersect the feasible set with one batch's angle band, then prune.

    On collapse to empty the previous set is stashed as the support of a
    run that later fails; _run_batch reacts to the collapse.
    """
    new = state.feasible.intersect(_band(rec))
    if new.is_empty:
        state.pre_collapse = state.feasible
        state.feasible = new
    else:
        state.feasible = _prune(new, state)


def _newton_refine(args, brackets, totals, width: float) -> np.ndarray:
    """Maximize the likelihood inside each bracket, all components at once.

    The log-likelihood is concave between its singular angles, so its
    maximum over a bracket is where the score changes sign from + to -, or
    the edge the score points to when it does not change sign.  Newton steps
    start from the grid argmax; the score at each iterate moves the bracket
    edge on its side up to it, and a step that leaves the bracket becomes a
    bisection.  A component stops once its step or its bracket is narrower
    than width.
    """
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    score_lo, _ = log_likelihood_slopes(lo, *totals)
    score_hi, _ = log_likelihood_slopes(hi, *totals)
    at_lo = score_lo <= 0.0
    at_hi = ~at_lo & (score_hi >= 0.0)
    th = np.array(args, dtype=float)
    active = ~(at_lo | at_hi)
    for _ in range(_NEWTON_MAX_STEPS):
        if not active.any():
            break
        score, curv = log_likelihood_slopes(th, *totals)
        lo = np.where(active & (score > 0.0), th, lo)
        hi = np.where(active & (score < 0.0), th, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = th - score / curv
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        done = (score == 0.0) | (np.abs(step - th) <= width) | (hi - lo <= width)
        th = np.where(active & (score != 0.0), step, th)
        active &= ~done
    return np.where(at_lo, lo, np.where(at_hi, hi, th))


def _concave_on(lo: float, hi: float, omega: np.ndarray) -> bool:
    """Whether no order in omega has a singular angle strictly inside (lo, hi).

    The log-likelihood's singular angles are the multiples of pi/(2 omega);
    between them every term is concave, so a certified interval holds a
    single maximum.  The relative slack of 1e-15 covers the rounding of
    the scaled edges, so an edge within rounding of a singular angle counts
    as straddling it.
    """
    half = 0.5 * math.pi
    s_lo = omega * (lo / half) * (1.0 - 1e-15)
    s_hi = omega * (hi / half) * (1.0 + 1e-15)
    return bool(np.all(np.floor(s_lo) + 1.0 >= s_hi))


def constrained_mle(union: IntervalUnion, totals) -> tuple[float, float]:
    """Maximum-likelihood angle restricted to the feasible union.

    totals are the per-order sufficient statistics (omega, hs, tails) of the
    rounds, as order_totals or InferenceState.totals give them.  On a single
    interval where the likelihood is certified concave (_concave_on) the
    maximum is found without a grid: an edge whose score points outward is
    returned as it is, otherwise bracket-guarded Newton refinement runs on
    the whole interval from its midpoint.  Any other set, and any call
    without rounds, takes the grid path: a scan per component, then Newton
    refinement of every component's grid argmax on the analytic score.
    Refinement stops at _MLE_BRACKET.  On the grid path the winning
    component is the one with the larger likelihood sup; exact ties go to
    the smaller angle.  Without rounds the likelihood is flat and the
    leftmost point wins.  Returns (theta_hat, a_hat).
    """
    if union.is_empty:
        raise ValueError("cannot take an MLE over an empty feasible set")
    if len(union) == 1 and totals[0].size and _concave_on(*union.components[0], totals[0]):
        lo, hi = union.components[0]
        theta = float(_newton_refine([0.5 * (lo + hi)], [(lo, hi)], totals, _MLE_BRACKET)[0])
        return theta, math.sin(theta) ** 2
    sups, args, brackets = _component_sups(union, totals, _GRID_POINTS)
    refined = _newton_refine(args, brackets, totals, _MLE_BRACKET)
    fm = log_likelihood_terms(refined, *totals)
    best_ll, best_th = -math.inf, None
    for i in range(len(union)):
        # The refined point can only improve on the grid argmax; keep the max.
        cand_ll = max(sups[i], float(fm[i]))
        cand_th = float(refined[i]) if fm[i] >= sups[i] else args[i]
        if best_th is None or cand_ll > best_ll or (cand_ll == best_ll and cand_th < best_th):
            best_ll, best_th = cand_ll, cand_th
    return best_th, math.sin(best_th) ** 2


_FLANK_GUARD = 1e-3  # fractional clearance from a turning point, upper flanks


def _alias_safe(theta_lo: float, theta_hi: float, k: int, kappa: float) -> bool:
    """Whether sin^2((2k+1) theta) is monotone over the whole hull.

    The scaled hull must sit inside a single half-period flank of sin^2.
    On the lowest flank the small-angle bound (2k+1) theta_hi <= kappa
    applies verbatim; on higher flanks a thin numerical guard keeps the
    edges off the turning points.
    """
    omega = 2 * k + 1
    half = math.pi / 2.0
    s_lo = omega * theta_lo / half
    s_hi = omega * theta_hi / half
    j = math.floor(s_lo)
    if math.floor(s_hi) != j:
        return False
    if j == 0:
        return s_hi <= kappa / half
    return s_lo - j >= _FLANK_GUARD and (j + 1) - s_hi >= _FLANK_GUARD


def select_depth(state: InferenceState) -> int:
    """Amplification order for the next ordinary round.

    The depth climbs the ladder, at most one order above the last batch's,
    as far as two conditions allow: every angle in the feasible hull must
    stay on a single monotone flank of the amplified response (so the batch
    band cannot alias across a turning point), and the predicted operating
    point must sit away from 0 and 1 (a saturated batch carries almost no
    usable band).  Deeper
    amplification is what buys information faster than flat sampling: the
    per-call Fisher information grows linearly with the order.

    Orders whose operating point is degenerate for the current estimate
    stay degenerate as the hull contracts, so when they alone block the
    climb and the accumulated information localizes the angle to a small
    fraction of the target flank, the ladder hops over them.  With no
    usable rung and no certified hop, the highest alias-safe order is used;
    with no alias-safe order, or before the first estimate, order 0.
    """
    if state.theta_hat is None:
        return 0
    lo, hi = state.feasible.hull()
    th = state.theta_hat
    cap = min(_K_MAX, state.ledger[-1].k + 1)

    def point_ok(order: int) -> bool:
        p = math.sin((2 * order + 1) * th) ** 2
        return _SATURATION_BAND <= p <= 1.0 - _SATURATION_BAND

    pick = None
    fallback = None
    for j in range(cap, -1, -1):
        if not _alias_safe(lo, hi, j, _KAPPA):
            continue
        if fallback is None:
            fallback = j
        if point_ok(j):
            pick = j
            break
    blocked_by_saturation = pick is not None and pick < cap and all(
        not point_ok(j) for j in range(pick + 1, cap + 1)
    )
    if pick is None or blocked_by_saturation:
        # The hop certificate 6 sigma (2k+1) <= pi/8 only loosens as k falls,
        # so the scan stops at the deepest order it still certifies.
        info = state.totals.info
        sigma = 1.0 / math.sqrt(info) if info > 0 else math.inf
        nxt = cap + 1
        while nxt <= _K_MAX and 6.0 * sigma * (2 * nxt + 1) <= 0.125 * math.pi:
            if point_ok(nxt):
                pick = nxt
                break
            nxt += 1
    if pick is not None:
        return pick
    return fallback if fallback is not None else 0


def select_shots(state: InferenceState, cfg: ControllerConfig, k: int) -> int:
    """Batch size for the next round at amplification order k.

    The base size grows mildly with the round index; the pacing bound
    spreads what remains of the budget over a shrinking horizon of rounds.
    When even _M_MIN is unaffordable the whole remainder is spent; zero means
    the budget is exhausted.
    """
    cost_per_shot = 2 * k + 1
    remaining = cfg.budget - state.spent
    if remaining < cost_per_shot:
        return 0
    t_next = state.t + 1
    base = _SHOT_SCALE * cfg.budget**0.25 * (1.0 + _SHOT_GROWTH * t_next)
    horizon = max(_RESERVE_FLOOR, _RESERVE_BASE - min(t_next, _RESERVE_TAPER))
    paced = remaining / (cost_per_shot * horizon)
    m = int(min(base, paced))
    m = max(_M_MIN, min(m, _M_MAX))
    affordable = remaining // cost_per_shot
    return int(min(m, affordable))


def _run_batch(
    state: InferenceState,
    cfg: ControllerConfig,
    oracle,
    rng: np.random.Generator,
    k: int,
    m: int,
    kind: str,
) -> None:
    """Draw one batch, log it and fold in its band; a collapse goes to the restart loop."""
    p = oracle.success_probability(k)
    h = sample_shots(p, m, rng)
    state.batches += 1
    delta = delta_schedule(state.batches, cfg.delta_tot)
    rec = RoundRecord(k=k, m=m, h=h, delta=delta)
    entry = BatchLog(kind=kind, k=k, m=m, h=h)
    state.spent += entry.cost
    state.add_round(rec)
    state.ledger.append(entry)
    update_feasible(state, rec)
    if state.feasible.is_empty:
        _restart_loop(state, cfg, oracle, rng)


def _most_inconsistent(state: InferenceState) -> int:
    """Index of the batch least compatible with the joint fit.

    Fits one angle to all retained batches over the full domain, then scores
    each batch by its binomial deviance at that angle.  A batch whose count
    was an extreme draw (the usual cause of a collapse that discarding the
    most recent batch cannot cure) dominates this score by a wide margin.
    """
    rounds = state.rounds
    theta_star, _ = constrained_mle(IntervalUnion.full_domain(), state.totals.arrays)
    omega = np.array([2 * r.k + 1 for r in rounds], dtype=float)
    hs = np.array([r.h for r in rounds], dtype=float)
    ms = np.array([r.m for r in rounds], dtype=float)
    tails = ms - hs
    p = np.clip(np.sin(omega * theta_star) ** 2, 1e-15, 1.0 - 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(hs > 0, hs * np.log(hs / (ms * p)), 0.0)
        t2 = np.where(tails > 0, tails * np.log(tails / (ms * (1.0 - p))), 0.0)
    return int(np.argmax(2.0 * (t1 + t2)))


def _shed(
    state: InferenceState, cfg: ControllerConfig, oracle, rng: np.random.Generator, idx: int
) -> None:
    """Spend one restart: drop batch idx, rebuild from the full domain, buy k = 0.

    A remainder that still contradicts itself goes back to the restart loop.
    The dropped batch's confidence budget stays spent.
    """
    state.restarts += 1
    state.drop_round(idx)
    rebuilt = IntervalUnion.full_domain()
    for rec in state.rounds:
        rebuilt = rebuilt.intersect(_band(rec))
    state.feasible = _prune(rebuilt, state)
    if state.feasible.is_empty:
        _restart_loop(state, cfg, oracle, rng)
        return
    m = select_shots(state, cfg, 0)
    if m > 0:
        _run_batch(state, cfg, oracle, rng, 0, m, kind="restart")


def _restart_loop(
    state: InferenceState, cfg: ControllerConfig, oracle, rng: np.random.Generator
) -> None:
    """Recover from an empty feasible set: the one recovery path.

    Past restart_cap the restart is counted and the run fails; the stashed
    pre-collapse set backs the best-effort estimate in the report.
    Otherwise one batch is shed: on the run's first restart the most recent
    one (a fresh over-confident batch), later the one most inconsistent with
    the joint fit (the bad batch is already retained).  A collapse the shed
    does not cure comes back here until the set holds or the cap is hit.
    """
    if state.restarts >= cfg.restart_cap:
        state.restarts += 1
        state.failed = True
        return
    idx = len(state.rounds) - 1 if state.restarts == 0 else _most_inconsistent(state)
    _shed(state, cfg, oracle, rng, idx)


def _pinned_outside(state: InferenceState) -> bool:
    """Whether the estimate is jammed against a hull edge by the constraint.

    A healthy run keeps the likelihood peak interior to the feasible set.
    When the peak of the unconstrained likelihood lies clearly outside the
    hull, some retained band is contradicting the bulk of the data, the
    same pathology a collapse signals, just without the set going empty.
    """
    if state.theta_hat is None or state.feasible.is_empty or not state.rounds:
        return False
    lo, hi = state.feasible.hull()
    width = hi - lo
    if width <= 0.0:
        return False
    edge_tol = 1e-9 + 1e-6 * width
    if not (state.theta_hat - lo <= edge_tol or hi - state.theta_hat <= edge_tol):
        return False
    pad = max(width, 1e-4)
    window = IntervalUnion([(max(THETA_LO, lo - pad), min(THETA_HI, hi + pad))])
    totals = state.totals.arrays
    theta_free, _ = constrained_mle(window, totals)
    if lo - edge_tol <= theta_free <= hi + edge_tol:
        return False
    gap = 2.0 * (
        log_likelihood_terms(np.array([theta_free]), *totals)[0]
        - log_likelihood_terms(np.array([state.theta_hat]), *totals)[0]
    )
    return gap > _HEAL_GATE


def _heal_pinned(
    state: InferenceState, cfg: ControllerConfig, oracle, rng: np.random.Generator
) -> None:
    """Shed the batch most at odds with the data when the estimate is pinned.

    Costs one restart slot; with none left the run keeps its pinned
    estimate.  An empty rebuild recovers, or fails, as a collapse does.
    """
    if state.restarts >= cfg.restart_cap or not _pinned_outside(state):
        return
    _shed(state, cfg, oracle, rng, _most_inconsistent(state))
    if not state.failed:
        _refresh_estimate(state)


def _refresh_estimate(state: InferenceState) -> None:
    theta_hat, _ = constrained_mle(state.feasible, state.totals.arrays)
    state.theta_hat = theta_hat


def run(oracle, cfg: ControllerConfig, rng: np.random.Generator) -> EstimateReport:
    """Execute the full estimation loop until the budget or the target is hit.

    The oracle only needs a success_probability(k) method; both the
    closed-form and the statevector-backed models satisfy it.
    """
    state = InferenceState.initial()
    while not state.failed:
        if cfg.epsilon_a > 0.0 and state.theta_hat is not None:
            lo, hi = state.feasible.hull()
            if 0.5 * (math.sin(hi) ** 2 - math.sin(lo) ** 2) <= cfg.epsilon_a:
                break
        k = select_depth(state)
        m = select_shots(state, cfg, k)
        if m == 0:
            break
        _run_batch(state, cfg, oracle, rng, k, m, kind="round")
        if state.failed:
            break
        state.t += 1
        _refresh_estimate(state)
        _heal_pinned(state, cfg, oracle, rng)
    return _build_report(state)


def _build_report(state: InferenceState) -> EstimateReport:
    if state.failed:
        base = state.pre_collapse if state.pre_collapse is not None else IntervalUnion.full_domain()
        hull = base.hull()
        support = IntervalUnion([hull])
        feasible = base
    else:
        support = state.feasible
        hull = state.feasible.hull()
        feasible = state.feasible
    theta_hat, a_hat = constrained_mle(support, state.totals.arrays)
    # The domain inset keeps angles off 0 and pi/2; a hull reaching an inset
    # edge admits the degenerate amplitude itself.
    a_lo = 0.0 if hull[0] <= THETA_LO else math.sin(hull[0]) ** 2
    a_hi = 1.0 if hull[1] >= THETA_HI else math.sin(hull[1]) ** 2
    a_bounds = (a_lo, a_hi)
    return EstimateReport(
        theta_hat=theta_hat,
        a_hat=a_hat,
        theta_bounds=hull,
        a_bounds=a_bounds,
        feasible=feasible,
        oracle_calls=state.spent,
        batches=state.batches,
        rounds=state.t,
        restarts=state.restarts,
        failed=state.failed,
        ledger=tuple(state.ledger),
    )
