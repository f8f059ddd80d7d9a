"""Small budget sweep comparing estimator convergence rates.

Runs both estimators over a seeded grid of measurement budgets on the 1D
bar ensemble, writes the raw and aggregate CSV files next to this script,
and prints the aggregate table with fitted log-log error slopes.  Plain
sampling should fall like budget^-0.5; the amplified estimator falls
faster.

Ten repetitions per budget are too few to read a rate off Monte Carlo's
median error: its fitted slope here is noise (-0.956 on this seed; the same
grid at 200 repetitions gives -0.547).  The rate gates live in
tests/test_acceptance.py, which fits RMSE over 50 repetitions at budgets
2k-128k.
"""

import os
from dataclasses import astuple

import numpy as np

from tailamp.cli import AGG_COLUMNS, RAW_COLUMNS, BenchConfig, run_bench, write_csv

OUT_DIR = os.path.join(os.path.dirname(__file__), "sweep_output")
BUDGETS = (2000, 4000, 8000, 16000, 32000)
REPS = 10


def main():
    cfg = BenchConfig(
        benchmark="bar1d",
        qoi="compliance",
        budgets=BUDGETS,
        repetitions=REPS,
        methods=("mc", "mliqae"),
        seed=1,
        n_scenarios=1024,
    )
    rows, agg = run_bench(cfg)

    os.makedirs(OUT_DIR, exist_ok=True)
    raw_path = os.path.join(OUT_DIR, "bar1d_compliance_raw.csv")
    agg_path = os.path.join(OUT_DIR, "bar1d_compliance_agg.csv")
    write_csv(raw_path, RAW_COLUMNS, map(astuple, rows))
    write_csv(agg_path, AGG_COLUMNS, agg)
    print(f"wrote {raw_path}")
    print(f"wrote {agg_path}\n")

    print(f"{'method':<8s} {'budget':>8s} {'median |err|':>14s} {'mean |err|':>14s}")
    for method, budget, mean_err, med_err, _ in agg:
        print(f"{method:<8s} {budget:>8d} {med_err:>14.3e} {mean_err:>14.3e}")

    for method in ("mc", "mliqae"):
        med = [rec[3] for rec in agg if rec[0] == method]
        slope = np.polyfit(np.log(BUDGETS), np.log(med), 1)[0]
        print(f"\n{method}: fitted log-log slope of median error = {slope:+.3f}")


if __name__ == "__main__":
    main()
