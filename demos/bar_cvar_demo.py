"""Estimate the tail risk of a stochastic bar, two ways.

Builds the seeded 1D bar ensemble (1024 scenarios with element moduli
drawn from a discrete log-uniform level set), computes the exact 95%
CVaR of the compliance, then compares a plain Monte Carlo estimate with
the amplified maximum-likelihood estimator at the same measurement
budget.
"""

import numpy as np

from tailamp import riskmodel, stochfem
from tailamp.mliqae import ControllerConfig, run
from tailamp.qsim import AnalyticOracle

BUDGET = 16_000


def main():
    ens = stochfem.build_scenario_ensemble("bar1d", 1024, seed=1)
    s = riskmodel.ScenarioSet(ens.probs, ens.responses["compliance"], ens.alpha_level)
    eta = riskmodel.var_threshold(s)
    tn = riskmodel.normalize_hinge(s, eta)
    truth = riskmodel.discrete_cvar(s)

    print(f"bar ensemble: {ens.n_scenarios} scenarios, alpha = {ens.alpha_level}")
    print(f"tail threshold eta = {eta:.6f}, span = {tn.q_max - tn.eta:.6f},"
          f" tail amplitude a = {tn.a:.8f}")
    print(f"exact CVaR = {truth:.6f}\n")

    rng = np.random.default_rng(7)
    mc = riskmodel.mc_estimate_cvar(s, eta, BUDGET, rng)
    print(f"Monte Carlo     ({BUDGET} samples): {mc:.6f}"
          f"  abs err {abs(mc - truth):.2e}")

    rng = np.random.default_rng(7)
    cfg = ControllerConfig(budget=BUDGET)
    rep = run(AnalyticOracle(tn.a), cfg, rng)
    est = riskmodel.cvar_from_amplitude(rep.a_hat, tn.eta, tn.q_max, ens.alpha_level)
    print(f"amplified (MLE) ({rep.oracle_calls} oracle calls): {est:.6f}"
          f"  abs err {abs(est - truth):.2e}")
    print(f"  rounds {len(rep.ledger)}")
    lo, hi = rep.a_bounds
    clo = riskmodel.cvar_from_amplitude(lo, tn.eta, tn.q_max, ens.alpha_level)
    chi = riskmodel.cvar_from_amplitude(hi, tn.eta, tn.q_max, ens.alpha_level)
    print(f"  CVaR band from the feasible hull: [{clo:.6f}, {chi:.6f}]")


if __name__ == "__main__":
    main()
