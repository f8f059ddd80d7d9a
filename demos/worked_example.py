"""Walk the two-qubit worked example end to end.

Four equally likely scenarios carry response rotation angles
(0, 0.70, 1.20, 1.80).  The script prepares the oracle state, applies one
amplification iterate reflection by reflection, then intersects the paper's
exact per-batch bands of two measured batches into a two-component feasible
set.  The controller's own step follows: its pooled likelihood set after
the order-0 batch, the order its depth rule runs next, which keeps that set
on one flank, and its maximum-likelihood estimate over the set it cut.
"""

import math

import numpy as np

from tailamp.intervals import THETA_HI, THETA_LO, theta_preimage
from tailamp.mliqae import select_depth, update_feasible
from tailamp.qsim import (
    OracleSpec,
    apply_grover,
    apply_oracle,
    build_oracle_state,
    reflect_success,
    reflect_zero,
    success_probability,
)
from tailamp.stats import OrderTotals, RoundRecord, clopper_pearson


def show(label, state):
    amps = " ".join(f"{x:+.6f}" for x in state.amplitudes.real)
    print(f"{label:<26s} [{amps}]")


def main():
    spec = OracleSpec.from_angles(np.full(4, 0.25), (0.0, 0.70, 1.20, 1.80))

    print("== state preparation and one amplification iterate ==")
    state = build_oracle_state(spec)
    show("prepared state", state)

    flipped = reflect_success(state)
    show("after success flip", flipped)
    unprepared = apply_oracle(flipped, spec, adjoint=True)
    show("after unpreparation", unprepared)
    zero_flipped = reflect_zero(unprepared)
    show("after zero flip", zero_flipped)
    iterated = apply_oracle(zero_flipped, spec)
    show("after re-preparation*-1", type(iterated)(iterated.n_index_qubits, -iterated.amplitudes))

    a = success_probability(state)
    theta = math.asin(math.sqrt(a))
    print(f"\nsuccess probability a = {a:.6f}, angle theta = {theta:.6f}")
    for k in range(4):
        p_k = success_probability(apply_grover(state, spec, k))
        print(f"  k={k}: measured success probability {p_k:.6f}"
              f"  (closed form {math.sin((2 * k + 1) * theta) ** 2:.6f})")

    print("\n== interval inference from two batches ==")
    batches = [RoundRecord(k=0, m=1000, h=262),
               RoundRecord(k=1, m=1000, h=998)]
    delta = 0.05
    feasible = None
    for rec in batches:
        ci = clopper_pearson(rec.h, rec.m, delta)
        band = theta_preimage(rec.k, ci.lo, ci.hi)
        print(f"k={rec.k}: {rec.h}/{rec.m} successes"
              f" -> p in [{ci.lo:.5f}, {ci.hi:.5f}]")
        for lo, hi in band.components:
            print(f"      theta branch [{lo:.5f}, {hi:.5f}]")
        feasible = band if feasible is None else feasible.intersect(band)

    print("surviving feasible set:")
    for lo, hi in feasible.components:
        print(f"      [{lo:.5f}, {hi:.5f}]")

    pooled, theta_hat, _ = update_feasible((THETA_LO, THETA_HI), OrderTotals(batches[:1]), delta)
    lo, hi = pooled
    print(f"controller's pooled likelihood set after k=0: [{lo:.5f}, {hi:.5f}]")
    # A 32,000-call run has 31,000 calls left after its first batch.
    k_next = select_depth(pooled, 32_000 - batches[0].cost)
    print(f"controller's next order (deepest on one flank): k={k_next}")

    print(f"controller's estimate after k=0: theta = {theta_hat:.6f},"
          f" a = {math.sin(theta_hat) ** 2:.6f}  (true a = {a:.6f})")


if __name__ == "__main__":
    main()
