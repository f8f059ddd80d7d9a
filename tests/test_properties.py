"""Property tests of the interval algebra and the likelihood behind each estimate.

A band is the preimage of a probability interval under sin^2((2k+1) theta),
intersected into the feasible set; these properties are what keep the true
angle inside it.  The constrained MLE skips its grid scan on intervals where
the likelihood is certified concave; the properties below hold it to the
grid path's answer.  Needs hypothesis (the ``test`` extra); skipped without it.
"""

import bisect
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailamp import mliqae
from tailamp.intervals import THETA_HI, THETA_LO, IntervalUnion, theta_preimage
from tailamp.stats import OrderTotals, RoundRecord, log_likelihood_terms, order_totals

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
    assert a.intersect(IntervalUnion.full_domain()) == a


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
    lo, hi = band.hull()
    assert THETA_LO <= lo and hi <= THETA_HI


# Per-order totals: one to four distinct orders, each with some shots.
order_counts = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)).filter(lambda c: sum(c) > 0),
    min_size=1,
    max_size=4,
)
fractions = st.floats(min_value=0.001, max_value=0.999)


@PROPERTY_SETTINGS
@given(order_counts, fractions, fractions, fractions)
def test_grid_free_mle_matches_the_grid_path_on_certified_intervals(counts, where, f1, f2):
    rounds = [RoundRecord(k=k, m=h + t, h=h, delta=0.05) for k, (h, t) in counts.items()]
    totals = order_totals(rounds)
    # The likelihood's singular angles j pi / (2 omega) cut the domain into
    # cells; an interval inside one cell is where the grid-free path runs.
    cuts = sorted({j * math.pi / (2 * w) for w in totals[0].astype(int) for j in range(w + 1)})
    theta = where * math.pi / 2.0
    i = bisect.bisect_right(cuts, theta)
    a, b = cuts[i - 1], cuts[i]
    lo, hi = sorted((a + f1 * (b - a), a + f2 * (b - a)))
    assume(hi > lo)
    assume(mliqae._concave_on(lo, hi, totals[0]))
    union = IntervalUnion([(lo, hi)])
    free, _ = mliqae.constrained_mle(union, totals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mliqae, "_concave_on", lambda *args: False)
        grid, _ = mliqae.constrained_mle(union, totals)
    assert lo <= free <= hi
    assert abs(free - grid) <= 1e-9
    # Never lower, up to the rounding of the likelihood sum itself: points
    # one ulp apart can evaluate a few ulps of the sum apart either way.
    ll_free, ll_grid = log_likelihood_terms(np.array([free, grid]), *totals)
    assert ll_free >= ll_grid - 1e-12 * abs(ll_grid)


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 500), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.integers(0, 11), max_size=12),
)
def test_order_totals_kept_in_place_match_a_fresh_build(draws, drops):
    rounds = [RoundRecord(k=k, m=m, h=int(u * m), delta=0.05) for k, m, u in draws]
    acc = OrderTotals(rounds)
    for d in drops:
        if rounds:
            acc.remove(rounds.pop(d % len(rounds)))
    fresh = order_totals(rounds)
    for kept, built in zip(acc.arrays, fresh):
        assert kept.tolist() == built.tolist()
    assert acc.info == 4 * sum((2 * r.k + 1) ** 2 * r.m for r in rounds)
