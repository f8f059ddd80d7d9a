"""Command-line driver: ensemble generation, single estimates, budget sweeps.

Three subcommands.  `generate` builds a seeded scenario ensemble and writes
it with a truth sidecar.  `estimate` runs one Monte Carlo or amplified
estimate against an ensemble file and prints the result row.  `bench`
sweeps a budget grid with repetitions for both methods, writing raw rows
and aggregates as CSV.  Every row is reproducible from (ensemble, method,
budget, seed); worker parallelism never changes output bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import mliqae, qsim, riskmodel, stochfem

DEFAULT_BUDGETS = (2000, 4000, 8000, 16000, 32000, 64000, 128000, 256000)
WORKERS_ENV = "TAILAMP_WORKERS"

RAW_COLUMNS = (
    "method",
    "qoi",
    "budget",
    "seed",
    "cvar_est",
    "cvar_true",
    "abs_err",
    "oracle_calls",
    "rounds",
    "restarts",
    "failed",
)
AGG_COLUMNS = ("method", "budget", "mean_abs_err", "median_abs_err", "std_abs_err", "fail_rate")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class BenchConfig:
    """One sweep specification and its only validator; JSON fields, then CLI flags."""

    benchmark: str = "bar1d"
    qoi: str = "compliance"
    alpha_level: float = 0.95
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    repetitions: int = 20
    methods: tuple[str, ...] = ("mc", "mliqae")
    seed: int = 1
    n_scenarios: int = 1024
    out_dir: str = "."
    controller: dict = field(default_factory=dict)
    ensemble: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("benchmark", "qoi", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if self.benchmark not in stochfem.BENCHMARK_DEFAULTS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.qoi not in stochfem.QOI_NAMES:
            raise ValueError(f"unknown qoi {self.qoi!r}")
        alpha = self.alpha_level
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 < alpha < 1.0:
            raise ValueError("alpha_level must be a number in (0, 1)")
        budgets = self.budgets
        if not isinstance(budgets, (list, tuple)) or not all(_is_int(b) and b > 0 for b in budgets):
            raise ValueError("budgets must be a list of positive integers")
        budgets = tuple(int(b) for b in budgets)
        if not budgets or list(budgets) != sorted(budgets):
            raise ValueError("budgets must be nonempty and ascending")
        for name, least in (("repetitions", 1), ("seed", 0), ("n_scenarios", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}")
        methods = self.methods if isinstance(self.methods, (list, tuple)) else ()
        if not methods or any(m not in ("mc", "mliqae") for m in methods):
            raise ValueError("methods must be a nonempty list drawn from {mc, mliqae}")
        for name in ("ensemble", "controller"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a mapping of names to values")
        # Check the controller overrides now, not when the first mliqae cell runs.
        tunable = {f.name for f in fields(mliqae.ControllerConfig)} - {"budget"}
        unknown = set(self.controller) - tunable
        if unknown:
            raise ValueError(f"unknown controller fields: {sorted(unknown)}")
        try:
            mliqae.ControllerConfig(budget=budgets[0], **self.controller)
        except TypeError as exc:
            raise ValueError(f"bad controller value: {exc}") from None
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "methods", tuple(methods))


@dataclass(frozen=True)
class ResultRow:
    method: str
    qoi: str
    budget: int
    seed: int
    cvar_est: float
    cvar_true: float
    abs_err: float
    oracle_calls: int
    rounds: int
    restarts: int
    failed: bool


def run_seed(master_seed: int, method: str, budget: int, repetition: int) -> int:
    """Stable per-cell seed: SHA-256 of the cell identity, reduced to 63 bits."""
    key = f"{master_seed}:{method}:{budget}:{repetition}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def estimate_once(
    ens: stochfem.Ensemble,
    qoi: str,
    method: str,
    budget: int,
    seed: int,
    controller_overrides: dict | None = None,
) -> ResultRow:
    """One seeded estimate against a cached ensemble.

    Both methods share the fixed threshold eta computed once from the full
    ensemble; the amplified estimator runs on the closed-form measurement
    model at the ensemble's exact tail amplitude.
    """
    s = riskmodel.ScenarioSet(ens.probs, ens.responses[qoi], ens.alpha_level)
    eta = riskmodel.var_threshold(s)
    tn = riskmodel.normalize_hinge(s, eta)
    truth = riskmodel.discrete_cvar(s)
    rng = np.random.default_rng(seed)
    if method == "mc":
        est = riskmodel.mc_estimate_cvar(s, eta, budget, rng)
        calls, rounds, restarts, failed = budget, 0, 0, False
    elif method == "mliqae":
        cfg = mliqae.ControllerConfig(budget=budget, **(controller_overrides or {}))
        rep = mliqae.run(qsim.AnalyticOracle(tn.a), cfg, rng)
        est = riskmodel.cvar_from_amplitude(rep.a_hat, tn.eta, tn.q_max, ens.alpha_level)
        calls, rounds, restarts, failed = (
            rep.oracle_calls,
            rep.rounds,
            rep.restarts,
            rep.failed,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return ResultRow(
        method=method,
        qoi=qoi,
        budget=budget,
        seed=seed,
        cvar_est=est,
        cvar_true=truth,
        abs_err=abs(est - truth),
        oracle_calls=calls,
        rounds=rounds,
        restarts=restarts,
        failed=failed,
    )


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def format_row(row: ResultRow) -> str:
    return ",".join(_format_value(getattr(row, name)) for name in RAW_COLUMNS)


def _bench_cell(args) -> ResultRow:
    ens, qoi, method, budget, seed, overrides = args
    return estimate_once(ens, qoi, method, budget, seed, overrides)


def run_bench(cfg: BenchConfig, ens: stochfem.Ensemble | None = None) -> tuple[list[ResultRow], list[tuple]]:
    """Execute the sweep; returns (raw rows, aggregate tuples), both sorted.

    Worker count comes from the TAILAMP_WORKERS environment variable; the
    output is sorted by (method, budget, repetition) regardless of
    completion order, so parallel runs are byte-identical to serial ones.
    """
    if ens is None:
        ens = stochfem.build_scenario_ensemble(
            cfg.benchmark,
            cfg.n_scenarios,
            cfg.seed,
            alpha_level=cfg.alpha_level,
            overrides=cfg.ensemble,
        )
    keys = [
        (method, budget, rep)
        for method in cfg.methods
        for budget in cfg.budgets
        for rep in range(cfg.repetitions)
    ]
    cells = [
        (ens, cfg.qoi, method, budget, run_seed(cfg.seed, method, budget, rep), cfg.controller)
        for method, budget, rep in keys
    ]
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_cell, cells, chunksize=4))
    else:
        rows = [_bench_cell(c) for c in cells]
    keyed = sorted(zip(keys, rows), key=lambda kr: kr[0])
    rows = [r for _, r in keyed]
    agg = []
    for method in sorted(set(r.method for r in rows)):
        for budget in sorted(set(r.budget for r in rows)):
            errs = np.array([r.abs_err for r in rows if r.method == method and r.budget == budget])
            fails = np.array([r.failed for r in rows if r.method == method and r.budget == budget])
            if errs.size == 0:
                continue
            std = float(np.std(errs, ddof=1)) if errs.size > 1 else 0.0
            agg.append(
                (
                    method,
                    budget,
                    float(np.mean(errs)),
                    float(np.median(errs)),
                    std,
                    float(np.mean(fails)),
                )
            )
    return rows, agg


def write_raw_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(RAW_COLUMNS) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def write_agg_csv(path, agg) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(AGG_COLUMNS) + "\n")
        for rec in agg:
            fh.write(",".join(_format_value(v) for v in rec) + "\n")


def truth_sidecar(ens: stochfem.Ensemble) -> dict:
    """Exact threshold, span, amplitude, and CVaR per QoI."""
    out = {
        "benchmark": ens.benchmark,
        "alpha_level": ens.alpha_level,
        "seed": ens.seed,
        "n_scenarios": ens.n_scenarios,
        "qois": {},
    }
    for name in stochfem.QOI_NAMES:
        s = riskmodel.ScenarioSet(ens.probs, ens.responses[name], ens.alpha_level)
        eta = riskmodel.var_threshold(s)
        tn = riskmodel.normalize_hinge(s, eta)
        out["qois"][name] = {
            "eta": tn.eta,
            "q_max": tn.q_max,
            "a": tn.a,
            "cvar": riskmodel.discrete_cvar(s),
        }
    return out


def _ensemble_paths(out_dir: str, benchmark: str, seed: int) -> tuple[str, str]:
    base = os.path.join(out_dir, f"{benchmark}_seed{seed}.ensemble.txt")
    return base, base.replace(".ensemble.txt", ".truth.json")


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    ens = stochfem.build_scenario_ensemble(
        cfg.benchmark,
        cfg.n_scenarios,
        cfg.seed,
        alpha_level=cfg.alpha_level,
        overrides=cfg.ensemble,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    ens_path, truth_path = _ensemble_paths(cfg.out_dir, cfg.benchmark, cfg.seed)
    stochfem.write_ensemble(ens_path, ens)
    with open(truth_path, "w") as fh:
        json.dump(truth_sidecar(ens), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(ens_path)
    print(truth_path)
    return 0


def cmd_estimate(args) -> int:
    ens = stochfem.read_ensemble(args.ensemble)
    cfg = _config_from_args(args)
    row = estimate_once(ens, cfg.qoi, args.method, args.budget, cfg.seed, cfg.controller)
    print(",".join(RAW_COLUMNS))
    print(format_row(row))
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows, agg = run_bench(cfg)
    stem = f"{cfg.benchmark}_{cfg.qoi}"
    raw_path = os.path.join(cfg.out_dir, f"{stem}_raw.csv")
    agg_path = os.path.join(cfg.out_dir, f"{stem}_agg.csv")
    write_raw_csv(raw_path, rows)
    write_agg_csv(agg_path, agg)
    print(raw_path)
    print(agg_path)
    return 0


def _config_from_args(args) -> BenchConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for key in ("benchmark", "qoi", "alpha_level", "seed", "out_dir", "repetitions", "n_scenarios"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    if getattr(args, "budgets", None):
        data["budgets"] = tuple(int(b) for b in args.budgets.split(","))
    known = {f.name for f in fields(BenchConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return BenchConfig(**data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailamp",
        description="Amplitude-amplified CVaR estimation benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--benchmark", choices=sorted(stochfem.BENCHMARK_DEFAULTS))
        p.add_argument("--qoi", choices=stochfem.QOI_NAMES)
        p.add_argument("--alpha-level", dest="alpha_level", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--n-scenarios", dest="n_scenarios", type=int)

    gen = sub.add_parser("generate", help="build and persist a scenario ensemble")
    common(gen)
    gen.set_defaults(handler=cmd_generate)

    est = sub.add_parser("estimate", help="run one estimate against an ensemble file")
    common(est)
    est.add_argument("--ensemble", required=True, help="ensemble file path")
    est.add_argument("--method", choices=("mc", "mliqae"), required=True)
    est.add_argument("--budget", type=int, required=True)
    est.set_defaults(handler=cmd_estimate)

    ben = sub.add_parser("bench", help="budget-sweep benchmark with repetitions")
    common(ben)
    ben.add_argument("--reps", dest="repetitions", type=int)
    ben.add_argument("--budgets", help="comma-separated budget list")
    ben.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
