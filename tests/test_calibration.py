"""Calibration of the anytime-valid set at a loose confidence level.

At delta_tot = 0.05 the coverage gates cannot tell a valid set from an
invalid one: a controller that kept the pointwise likelihood-ratio set
{l >= l_hat - log(1/delta)}, which is not anytime-valid, covered 185 to 191
of 200 runs per amplitude at B = 32k.  At delta_tot = 0.5 a valid set
covers each run with probability at least one half.  The gates sit three
binomial standard deviations below that: 500 - 3 sqrt(250) = 452.6 of the
acceptance amplitudes' 1,000 runs, and 300 - 3 sqrt(150) = 263.3 of the
operating amplitudes' 600.  A valid set misses either gate with probability
below 0.002; the pointwise set covered 410 of 1,000.  The sets are nested,
so coverage at the end of a run is coverage at every batch of it.

Run j at the i-th amplitude of a group is seeded with
run_seed(cell + i, "mliqae", BUDGET, j).
"""

import math

import numpy as np

from tailamp.cli import run_seed
from tailamp.mliqae import ControllerConfig, run
from tailamp.qsim import AnalyticOracle

DELTA_TOT = 0.5
BUDGET = 32_000
RUNS = 200


def covered(cell: int, amplitudes) -> int:
    count = 0
    for i, a in enumerate(amplitudes):
        theta_true = math.asin(math.sqrt(a))
        for j in range(RUNS):
            rng = np.random.default_rng(run_seed(cell + i, "mliqae", BUDGET, j))
            rep = run(AnalyticOracle(a), ControllerConfig(budget=BUDGET, delta_tot=DELTA_TOT), rng)
            count += rep.feasible.contains(theta_true, tol=1e-12)
    return count


def test_acceptance_amplitudes_cover_at_least_half():
    got = covered(20, (0.015, 0.05, 0.2625, 0.5, 0.9))
    assert got >= 453, f"covered {got}/1000"


def test_operating_amplitudes_cover_at_least_half():
    got = covered(30, (0.013, 0.015, 0.019))
    assert got >= 264, f"covered {got}/600"
