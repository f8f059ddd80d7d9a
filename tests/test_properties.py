"""Property tests of the interval algebra behind each batch's angle band.

A band is the preimage of a probability interval under sin^2((2k+1) theta),
intersected into the feasible set; these properties are what keep the true
angle inside it.  Needs hypothesis (the ``test`` extra); skipped without it.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tailamp.intervals import THETA_HI, THETA_LO, IntervalUnion, theta_preimage

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
