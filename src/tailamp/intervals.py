"""Closed-interval unions on the principal angle domain (0, pi/2).

Feasible sets for the amplitude angle are finite unions of disjoint closed
intervals.  This module keeps them in a normalized form (sorted, disjoint,
clipped to the open domain).  The estimation controller keeps its feasible
set as a plain (lo, hi) pair and reports it as a one-component union, whose
membership test the coverage checks read; preimages of probability
intervals under the amplified response curve sin^2((2k+1) theta), which can
have many components, and their intersection give the per-batch band view
of a run (demos/worked_example.py).
"""

from __future__ import annotations

import math

# Domain inset: endpoints are kept inside the open interval (0, pi/2) so that
# amplitude preimages never touch the degenerate angles 0 and pi/2.
THETA_EPS = 1e-12
THETA_LO = THETA_EPS
THETA_HI = math.pi / 2.0 - THETA_EPS

# Gaps at or below this width are closed during normalization.  Touching
# closed intervals (gap zero) always merge.
MERGE_TOL = 1e-14


def _normalize(pairs) -> tuple[tuple[float, float], ...]:
    """Clip to the domain, drop empty pieces, sort, and merge near-touching ones."""
    clipped = []
    for lo, hi in pairs:
        lo = max(float(lo), THETA_LO)
        hi = min(float(hi), THETA_HI)
        if hi >= lo:
            clipped.append((lo, hi))
    if not clipped:
        return ()
    clipped.sort()
    merged = [clipped[0]]
    for lo, hi in clipped[1:]:
        last_lo, last_hi = merged[-1]
        if lo - last_hi <= MERGE_TOL:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class IntervalUnion:
    """Normalized union of disjoint closed intervals inside (0, pi/2).

    Instances are immutable; all operations return new unions.  The empty
    union is a valid value (the intersection of disjoint bands is empty),
    and its len() is 0.
    """

    __slots__ = ("components",)

    def __init__(self, pairs=()):
        self.components: tuple[tuple[float, float], ...] = _normalize(pairs)

    def __len__(self) -> int:
        return len(self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in self.components)
        return f"IntervalUnion({body})"

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        for lo, hi in self.components:
            if lo - tol <= theta <= hi + tol:
                return True
        return False

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set intersection, computed by a linear sweep over both unions."""
        a, b = self.components, other.components
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            out.append((lo, hi))  # normalization drops the empty pieces
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion(out)


def theta_preimage(k: int, p_lo: float, p_hi: float) -> IntervalUnion:
    """Angles theta in (0, pi/2) with sin^2((2k+1) theta) in [p_lo, p_hi].

    The amplified response x -> sin^2(x) is oscillatory in x = (2k+1) theta,
    so the preimage is a union of up to 2k+2 bands.  All real branches are
    returned; discarding any of them would break the round-trip guarantee
    that the true angle survives every measurement update.
    """
    if not 0 <= k:
        raise ValueError("amplification order k must be nonnegative")
    if not (0.0 <= p_lo <= p_hi <= 1.0):
        raise ValueError("probability interval must satisfy 0 <= p_lo <= p_hi <= 1")
    omega = 2 * k + 1
    phi_lo = math.asin(math.sqrt(p_lo))
    phi_hi = math.asin(math.sqrt(p_hi))
    bands = []
    for j in range(k + 1):
        base = j * math.pi
        # Rising flank of |sin| on [j pi, j pi + pi/2].
        bands.append(((base + phi_lo) / omega, (base + phi_hi) / omega))
        # Falling flank on [j pi + pi/2, (j+1) pi].
        bands.append(((base + math.pi - phi_hi) / omega, (base + math.pi - phi_lo) / omega))
    return IntervalUnion(bands)

