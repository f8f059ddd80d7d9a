"""Property tests of the interval algebra and the likelihood behind each estimate.

A band is the preimage of a probability interval under sin^2((2k+1) theta).
The controller's feasible set is the part of the previous set where the
pooled likelihood clears a cut; the properties below hold that set, and the
maximum-likelihood search behind it, to dense-grid answers on sets that lie
on one flank of every counted order, where the likelihood is concave.  The
scalar kernels of the per-batch update are held to the grid forms bit for
bit.
Needs hypothesis (the ``test`` extra); skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tailamp import mliqae
from tailamp.intervals import THETA_HI, THETA_LO, IntervalUnion, theta_preimage
from tailamp.stats import (
    OrderTotals,
    RoundRecord,
    log_likelihood_at,
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
        state = mliqae.InferenceState(feasible=piece, totals=totals)
        mliqae.update_feasible(state, 0.05)
        assert IntervalUnion([piece]).contains(state.theta_hat)
        best.append(state.theta_hat)
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
    state = mliqae.InferenceState(feasible=previous.components[0], totals=OrderTotals(rounds))
    cut = mliqae.update_feasible(state, delta_tot)
    new = IntervalUnion([state.feasible])
    assert not new.is_empty
    assert new.intersect(previous) == new
    grid = dense_grid(previous)
    arrays = columns(state.totals.rows)
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
    assert new.contains(state.theta_hat)
    # The MLE is never below the grid's best, up to the rounding of the
    # likelihood sum itself.
    ll_grid = ll.max()
    ll_mle = log_likelihood_terms(np.array([state.theta_hat]), *arrays)[0]
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
        acc.add(r)
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
def test_scalar_kernels_equal_the_grid_forms_bit_for_bit(counts, thetas):
    totals = OrderTotals(RoundRecord(k=k, m=h + t, h=h) for k, (h, t) in counts.items())
    rows = totals.rows
    arrays = columns(rows)
    assert log_likelihood_at(thetas, rows) == log_likelihood_terms(np.array(thetas), *arrays).tolist()
    # Over three angles numpy adds the orders row by row, as the kernel does.
    scores, curvs = vector_slopes(np.array(thetas), *arrays)
    assert [log_likelihood_slopes(th, rows) for th in thetas] == list(zip(scores.tolist(), curvs.tolist()))
