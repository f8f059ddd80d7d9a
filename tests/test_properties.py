"""Property tests of the interval algebra and the likelihood behind each estimate.

A band is the preimage of a probability interval under sin^2((2k+1) theta).
The controller's feasible set is the part of the previous set where the
pooled likelihood clears a cut; the properties below hold that set, and the
maximum-likelihood search behind it, to dense-grid answers on sets that lie
on one flank of every counted order, where the likelihood is concave.  The
scalar slopes of the per-batch update are held to the grid form bit for
bit.  The scenario layer's threshold and CVaR are held to their brute-force
definitions on weighted scenario sets with ties and zero weights.  Whole
controller runs on the closed-form oracle are held to the run's contract:
spend, bounds, single-flank depths and nested sets.
Needs hypothesis (the ``test`` extra); skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailamp import mliqae
from tailamp.intervals import THETA_HI, THETA_LO, IntervalUnion, theta_preimage
from tailamp.qsim import AnalyticOracle
from tailamp.riskmodel import ScenarioSet, cvar_from_amplitude, discrete_cvar, normalize_hinge, var_threshold
from tailamp.stats import (
    OrderTotals,
    RoundRecord,
    log_likelihood_slopes,
    log_likelihood_terms,
)
from test_stats import columns, vector_slopes

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

angles = st.floats(min_value=0.0, max_value=math.pi / 2.0, allow_nan=False)
unions = st.lists(st.tuples(angles, angles).map(sorted), max_size=6).map(IntervalUnion)


def is_subset(inner: IntervalUnion, outer: IntervalUnion) -> bool:
    return all(
        any(lo_o <= lo and hi <= hi_o for lo_o, hi_o in outer.components)
        for lo, hi in inner.components
    )


@PROPERTY_SETTINGS
@given(unions, unions)
def test_intersection_is_commutative(a, b):
    assert a.intersect(b) == b.intersect(a)


@PROPERTY_SETTINGS
@given(unions, unions)
def test_intersection_is_a_subset_of_both_inputs(a, b):
    both = a.intersect(b)
    assert is_subset(both, a)
    assert is_subset(both, b)


@PROPERTY_SETTINGS
@given(unions)
def test_full_domain_is_the_identity(a):
    assert a.intersect(IntervalUnion([(THETA_LO, THETA_HI)])) == a


# Angles stay clear of the domain inset, where sin^2 rounds to exactly 0 or 1
# and the degenerate preimage falls outside (THETA_LO, THETA_HI).
inner_angles = st.floats(min_value=1e-6, max_value=math.pi / 2.0 - 1e-6)


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=40), inner_angles)
def test_preimage_of_the_exact_probability_contains_the_angle(k, theta):
    p = math.sin((2 * k + 1) * theta) ** 2
    band = theta_preimage(k, p, p)
    # asin(sqrt(p)) loses up to sqrt(eps) near a turning point of sin^2.
    assert band.contains(theta, tol=1e-7)
    assert len(band) <= 2 * k + 2
    assert THETA_LO <= band.components[0][0] and band.components[-1][1] <= THETA_HI


# Per-order totals: one to four distinct orders, each with some shots.
order_counts = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)).filter(lambda c: sum(c) > 0),
    min_size=1,
    max_size=4,
)


def on_one_flank(union: IntervalUnion, ks) -> IntervalUnion:
    """Each component of union clipped to the stretch that holds its midpoint.

    The stretches lie between consecutive turning points j pi / (2(2k+1)) of
    the orders ks, so each is on one flank of every order; a relative 1e-9
    inset keeps clipped neighbours from merging.  When nothing is left, the
    widest stretch stands in.
    """
    turns = sorted({j * math.pi / (2 * (2 * k + 1)) for k in ks for j in range(2 * k + 2)})
    cells = [(a * (1 + 1e-9), b * (1 - 1e-9)) for a, b in zip(turns, turns[1:]) if b - a > 1e-9]
    clipped = [
        (max(lo, a), min(hi, b))
        for lo, hi in union.components
        for a, b in cells
        if a <= 0.5 * (lo + hi) <= b
    ]
    return IntervalUnion(clipped or [max(cells, key=lambda c: c[1] - c[0])])


def dense_grid(union: IntervalUnion, points: int = 20_000) -> np.ndarray:
    """A dense grid over the union, with every component's edges."""
    return np.concatenate([np.linspace(lo, hi, points) for lo, hi in union.components])


@PROPERTY_SETTINGS
@given(order_counts, unions)
def test_piecewise_mle_matches_a_dense_grid(counts, union):
    totals = OrderTotals(RoundRecord(k=k, m=h + t, h=h) for k, (h, t) in counts.items())
    arrays = columns(totals.rows)
    union = on_one_flank(union, counts)
    # The controller's MLE on each component, then the best of them.
    best = []
    for piece in union.components:
        _, theta_hat, _ = mliqae.update_feasible(piece, totals, 0.05)
        assert IntervalUnion([piece]).contains(theta_hat)
        best.append(theta_hat)
    ll_mle = log_likelihood_terms(np.array(best), *arrays).max()
    ll_grid = log_likelihood_terms(dense_grid(union), *arrays).max()
    # Never lower, up to the rounding of the likelihood sum itself.
    assert ll_mle >= ll_grid - 1e-9 * max(1.0, abs(ll_grid))


@PROPERTY_SETTINGS
@given(order_counts, unions, st.sampled_from((0.05, 0.2, 1e-6)))
def test_feasible_update_keeps_every_point_above_the_cut(counts, previous, delta_tot):
    rounds = [RoundRecord(k=k, m=h + t, h=h) for k, (h, t) in counts.items()]
    # One interval on one flank of every order: the widest clipped component.
    pieces = on_one_flank(previous, counts).components
    previous = IntervalUnion([max(pieces, key=lambda c: c[1] - c[0])])
    totals = OrderTotals(rounds)
    feasible, theta_hat, cut = mliqae.update_feasible(previous.components[0], totals, delta_tot)
    new = IntervalUnion([feasible])
    assert len(new)
    assert new.intersect(previous) == new
    grid = dense_grid(previous)
    arrays = columns(totals.rows)
    ll = log_likelihood_terms(grid, *arrays)
    # The cut is valid: no higher than the mixture bound from the integral
    # of the likelihood over the previous set (a log-sum over the grid).
    widths = np.array([hi - lo for lo, hi in previous.components])
    finite = np.isfinite(ll)
    if finite.any() and widths.sum() > 1e-9:
        steps = np.repeat(widths / (20_000 - 1), 20_000)
        top = ll[finite].max()
        log_integral = top + math.log(float(np.sum(steps[finite] * np.exp(ll[finite] - top))))
        assert cut <= log_integral - math.log(math.pi / 2) + math.log(delta_tot) + 1e-3
    # Every grid point that clears the cut stays, and so does the MLE.
    for theta in grid[ll >= cut]:
        assert new.contains(theta, tol=1e-12 * theta)
    assert new.contains(theta_hat)
    # The MLE is never below the grid's best, up to the rounding of the
    # likelihood sum itself.
    ll_grid = ll.max()
    ll_mle = log_likelihood_terms(np.array([theta_hat]), *arrays)[0]
    assert ll_mle >= ll_grid - 1e-9 * max(1.0, abs(ll_grid))


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 500), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=12,
    ),
    st.sets(st.integers(1, 12), max_size=12),
)
def test_order_totals_kept_in_place_match_a_fresh_build(draws, cuts):
    rounds = [RoundRecord(k=k, m=m, h=int(u * m)) for k, m, u in draws]
    acc = OrderTotals()
    for i, r in enumerate(rounds, 1):
        before = acc.rows
        snapshot = [list(row) for row in before]
        acc.add(r)
        # An add leaves rows read before it as they were, and keeps rows
        # ascending float triples, one per order.
        assert [list(row) for row in before] == snapshot
        assert all(type(x) is float for row in acc.rows for x in row)
        assert [row[0] for row in acc.rows] == sorted({row[0] for row in acc.rows})
        if i in cuts:
            assert acc.rows == OrderTotals(rounds[:i]).rows
    assert acc.rows == OrderTotals(rounds).rows
    assert acc.info == 4 * sum((2 * r.k + 1) ** 2 * r.m for r in rounds)


# Per-order totals for the kernels: one to twelve orders up to 64, with
# orders that saw no successes or no failures among them.
kernel_counts = st.dictionaries(
    st.integers(min_value=0, max_value=64),
    st.tuples(st.integers(0, 20_000), st.integers(0, 20_000)).filter(lambda c: sum(c) > 0),
    min_size=1,
    max_size=12,
)


@PROPERTY_SETTINGS
@given(kernel_counts, st.lists(inner_angles, min_size=3, max_size=3))
def test_scalar_slopes_equal_the_grid_form_bit_for_bit(counts, thetas):
    totals = OrderTotals(RoundRecord(k=k, m=h + t, h=h) for k, (h, t) in counts.items())
    rows = totals.rows
    arrays = columns(rows)
    # Over three angles numpy adds the orders row by row, as the kernel does.
    scores, curvs = vector_slopes(np.array(thetas), *arrays)
    assert [log_likelihood_slopes(th, rows) for th in thetas] == list(zip(scores.tolist(), curvs.tolist()))


@st.composite
def scenario_sets(draw):
    """Up to 12 scenarios with integer weights (some zero) and tied responses.

    The level is a float anywhere in [1e-15, 1 - 1e-15], one of the extreme
    levels, or a cumulative-weight boundary exactly.
    """
    weights = draw(st.lists(st.integers(0, 8), min_size=1, max_size=12).filter(any))
    n, total = len(weights), sum(weights)
    responses = draw(
        st.lists(
            st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3, allow_subnormal=False),
            min_size=n,
            max_size=n,
        )
    )
    levels = st.floats(1e-15, 1.0 - 1e-15) | st.sampled_from((1e-15, 1e-13, 1e-12, 1.0 - 1e-15))
    if total > 1:
        levels |= st.integers(1, total - 1).map(lambda j: j / total)
    return ScenarioSet(np.array(weights) / total, np.array(responses), draw(levels))


# Scenario sets are cheap to check but slow to draw, so these tests take
# fewer examples than the interval properties.
SCENARIO_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

# The weights 0, 1/66, ..., 11/66 on responses 0..11 at a level below the
# threshold's 1e-12 slack: the zero-weight response 0 must not be the threshold.
FOUND_ZERO_WEIGHT = ScenarioSet(np.arange(12) / 66, np.arange(12.0), 1e-13)


def quantile_by_definition(s: ScenarioSet, level: float) -> float:
    """Smallest response carrying weight whose P(Q <= q) reaches level; the largest if none does."""
    support = sorted(set(s.responses[s.probs > 0.0].tolist()))
    for q in support:
        if s.probs[s.responses <= q].sum() >= level:
            return q
    return support[-1]


def ru_objective(s: ScenarioSet, eta: float) -> float:
    """Rockafellar-Uryasev objective eta + E[(Q - eta)+] / (1 - alpha)."""
    return eta + float(np.dot(s.probs, np.maximum(s.responses - eta, 0.0))) / (1.0 - s.alpha_level)


@SCENARIO_SETTINGS
@given(scenario_sets())
@example(FOUND_ZERO_WEIGHT)
def test_var_threshold_is_the_quantile_by_definition(s):
    # The threshold searches the level alpha - 1e-12; its running sums and
    # these direct sums round apart by far less than 1e-13.
    level = s.alpha_level - 1e-12
    eta = var_threshold(s)
    assert quantile_by_definition(s, level - 1e-13) <= eta <= quantile_by_definition(s, level + 1e-13)
    assert np.any((s.responses == eta) & (s.probs > 0.0))


@SCENARIO_SETTINGS
@given(scenario_sets())
@example(FOUND_ZERO_WEIGHT)
def test_discrete_cvar_is_the_rockafellar_uryasev_minimum(s):
    # The objective is convex and piecewise linear with kinks at the
    # responses, so its minimum over eta is attained at one of them
    # (Rockafellar & Uryasev 2002, J. Banking & Finance 26(7)).
    best = min(ru_objective(s, float(q)) for q in s.responses)
    eta = var_threshold(s)
    span = float(s.responses.max() - s.responses.min())
    # Rounding, plus the threshold's slack: an eta whose P(Q <= eta) falls
    # short of alpha lies below the minimum, where the objective's slope is
    # -(alpha - P(Q <= eta)) / (1 - alpha).
    short = max(0.0, s.alpha_level - float(s.probs[s.responses <= eta].sum()))
    rounding = 8.0 * np.finfo(float).eps * s.responses.size * (abs(best) + abs(eta) + span)
    assert abs(discrete_cvar(s) - best) <= rounding + span * short / (1.0 - s.alpha_level)


@SCENARIO_SETTINGS
@given(scenario_sets())
@example(FOUND_ZERO_WEIGHT)
def test_cvar_from_the_amplitude_equals_the_direct_sum(s):
    eta = var_threshold(s)
    tn = normalize_hinge(s, eta)
    direct = discrete_cvar(s)
    tail = (tn.q_max - eta) * tn.a / (1.0 - s.alpha_level)
    tol = 8.0 * np.finfo(float).eps * (abs(eta) + tail) * s.responses.size
    assert abs(cvar_from_amplitude(tn.a, eta, tn.q_max, s.alpha_level) - direct) <= tol


# Amplitudes anywhere in [0, 1], with both ends and their neighbourhoods
# drawn more often than a uniform draw would.
contract_amplitudes = st.floats(0.0, 1.0) | st.sampled_from((0.0, 1e-12, 1.0 - 1e-12, 1.0))
# Budgets from 1 to 1e7, a decade first, then a budget in it: at 1e9 and
# above the depth walk alone can take most of a second (ROADMAP item 2).
contract_budgets = st.sampled_from(range(7)).flatmap(lambda d: st.integers(10**d, 10 ** (d + 1)))


@PROPERTY_SETTINGS
@given(
    contract_amplitudes,
    contract_budgets,
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.just(0.0) | st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
def test_whole_run_keeps_the_controller_contract(a, budget, delta_tot, epsilon_a, seed):
    depths, updates = [], []
    select_depth, update_feasible = mliqae.select_depth, mliqae.update_feasible

    def depth_spy(feasible, remaining):
        k = select_depth(feasible, remaining)
        depths.append((k, feasible))
        return k

    def update_spy(feasible, totals, delta):
        decided = update_feasible(feasible, totals, delta)
        updates.append((feasible, decided[0]))
        return decided

    cfg = mliqae.ControllerConfig(budget=budget, delta_tot=delta_tot, epsilon_a=epsilon_a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mliqae, "select_depth", depth_spy)
        mp.setattr(mliqae, "update_feasible", update_spy)
        report = mliqae.run(AnalyticOracle(a), cfg, np.random.default_rng(seed))

    cost = sum(r.cost for r in report.ledger)
    assert report.oracle_calls == cost <= budget
    if epsilon_a == 0.0:
        assert cost == budget
    a_lo, a_hi = report.a_bounds
    assert 0.0 <= a_lo <= report.a_hat <= a_hi <= 1.0
    # One depth and one update per batch, in the ledger's order.
    assert [k for k, _ in depths] == [r.k for r in report.ledger]
    assert len(updates) == len(report.ledger)
    # Each order above 0 lies on one flank over the set its batch started from.
    for k, (lo, hi) in depths:
        if k > 0:
            w = 2 * k + 1
            assert math.floor(w * lo / (math.pi / 2)) == math.floor(w * hi / (math.pi / 2))
    # Each set lies inside the one before; the first is the whole domain.
    sets = [(THETA_LO, THETA_HI)] + [after for _, after in updates]
    assert [before for before, _ in updates] == sets[:-1]
    for (lo, hi), (new_lo, new_hi) in zip(sets, sets[1:]):
        assert lo <= new_lo <= new_hi <= hi
    assert sets[-1] == report.theta_bounds
