"""Coverage where the benchmark ensembles live.

The acceptance file checks the 1 - delta_tot coverage promise at
a = 0.05 ... 0.9.  The ensembles operate near a = 0.015 (and at exactly 0
for bar1d vmmax), and the saturated edge sits near 1.  Here the same bound,
at least 186 of 200 seeded runs with the true angle inside the final
feasible set, is checked in those places.  The a = 0.0146 cells run the
controller on the statevector simulator of a real bar1d ensemble, not on
the closed form.

Run j of cell c is seeded with run_seed(c + 1, "mliqae", budget, j).
"""

import math

import numpy as np
import pytest

from tailamp import riskmodel, stochfem
from tailamp.cli import run_seed
from tailamp.mliqae import ControllerConfig, run
from tailamp.qsim import AnalyticOracle, StatevectorOracle

RUNS = 200
MIN_COVERED = 186


@pytest.fixture(scope="module")
def bar1d_spec():
    """bar1d seed 1, 1024 scenarios, compliance: a = 0.014557."""
    ens = stochfem.build_scenario_ensemble("bar1d", 1024, 1)
    s = riskmodel.ScenarioSet(ens.probs, ens.responses["compliance"], ens.alpha_level)
    return riskmodel.to_oracle_spec(s, riskmodel.normalize_hinge(s, riskmodel.var_threshold(s)))


def covered(cell: int, make_oracle, a: float, budget: int) -> int:
    theta_true = math.asin(math.sqrt(a))
    count = 0
    for j in range(RUNS):
        rng = np.random.default_rng(run_seed(cell + 1, "mliqae", budget, j))
        rep = run(make_oracle(), ControllerConfig(budget=budget, delta_tot=0.05), rng)
        count += (not rep.failed) and rep.feasible.contains(theta_true, tol=1e-12)
    return count


@pytest.mark.parametrize("cell, budget", [(0, 4_000), (1, 32_000)])
def test_statevector_bar1d_compliance(bar1d_spec, cell, budget):
    assert bar1d_spec.amplitude == pytest.approx(0.014557, abs=1e-6)
    got = covered(cell, lambda: StatevectorOracle(bar1d_spec), bar1d_spec.amplitude, budget)
    assert got >= MIN_COVERED, f"B = {budget}: covered {got}/{RUNS}"


@pytest.mark.parametrize("cell, a", [(2, 0.0), (3, 0.9999)])
def test_closed_form_edges(cell, a):
    got = covered(cell, lambda: AnalyticOracle(a), a, 4_000)
    assert got >= MIN_COVERED, f"a = {a}: covered {got}/{RUNS}"
