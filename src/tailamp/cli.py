"""Command-line driver: ensemble generation, single estimates, budget sweeps.

Three subcommands.  `generate` builds a seeded scenario ensemble and writes
it with a truth sidecar.  `estimate` runs one Monte Carlo or amplified
estimate against an ensemble file and prints the result row.  `bench`
sweeps a budget grid with repetitions for both methods, writing raw rows
and aggregates as CSV.  Every row is reproducible from (ensemble, method,
budget, seed): a sweep runs its cells one after another, in output order,
and each cell is one `estimate_once` call.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import astuple, dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import mliqae, qsim, riskmodel, stochfem

DEFAULT_BUDGETS = (2000, 4000, 8000, 16000, 32000, 64000, 128000, 256000)

AGG_COLUMNS = ("method", "budget", "mean_abs_err", "median_abs_err", "std_abs_err")


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
        stochfem.checked("alpha_level", self.alpha_level)
        budgets = self.budgets
        if not isinstance(budgets, (list, tuple)):
            raise ValueError("budgets must be a list of positive integers")
        for budget in budgets:
            stochfem.checked("budget", budget)
        budgets = tuple(int(b) for b in budgets)
        if not budgets or any(a >= b for a, b in zip(budgets, budgets[1:])):
            raise ValueError("budgets must be nonempty and strictly ascending")
        for name in ("repetitions", "seed", "n_scenarios"):
            stochfem.checked(name, getattr(self, name))
        methods = self.methods if isinstance(self.methods, (list, tuple)) else ()
        if not methods or any(m not in ("mc", "mliqae") for m in methods) or len(set(methods)) < len(methods):
            raise ValueError("methods must be a nonempty list of distinct names from {mc, mliqae}")
        for name in ("ensemble", "controller"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a mapping of names to values")
        # Check the controller overrides now, not when the first mliqae cell runs.
        tunable = {f.name for f in fields(mliqae.ControllerConfig)} - {"budget"}
        unknown = set(self.controller) - tunable
        if unknown:
            raise ValueError(f"unknown controller fields: {sorted(unknown)}")
        # The largest budget meets the controller's ceiling only when a cell runs mliqae.
        mliqae.ControllerConfig(budget=budgets[-1] if "mliqae" in methods else 1, **self.controller)
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
    # The likelihood set never empties, so no run fails; readers of `failed` stay valid.
    failed: ClassVar[bool] = False


RAW_COLUMNS = tuple(f.name for f in fields(ResultRow))


def run_seed(master_seed: int, method: str, budget: int, repetition: int) -> int:
    """Stable per-cell seed: SHA-256 of the cell identity, reduced to 63 bits."""
    key = f"{master_seed}:{method}:{budget}:{repetition}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _tail(
    ens: stochfem.Ensemble, qoi: str
) -> tuple[riskmodel.ScenarioSet, riskmodel.TailNormalization, float]:
    """The QoI's scenario set, its hinge normalisation at the VaR threshold, and its exact CVaR.

    Derived on the first call for each QoI and kept in `ens.tails`; later
    calls return the same triple.  The ensemble's arrays are read-only, so
    the kept tail cannot go stale.
    """
    tail = ens.tails.get(qoi)
    if tail is None:
        s = riskmodel.ScenarioSet(ens.probs, ens.responses[qoi], ens.alpha_level)
        tn = riskmodel.normalize_hinge(s, riskmodel.var_threshold(s))
        tn.gs.flags.writeable = False
        tail = ens.tails[qoi] = (s, tn, riskmodel.discrete_cvar(s))
    return tail


def _build_ensemble(cfg: BenchConfig) -> stochfem.Ensemble:
    return stochfem.build_scenario_ensemble(
        cfg.benchmark, cfg.n_scenarios, cfg.seed, alpha_level=cfg.alpha_level, overrides=cfg.ensemble
    )


def estimate_once(
    ens: stochfem.Ensemble,
    qoi: str,
    method: str,
    budget: int,
    seed: int,
    controller_overrides: dict | None = None,
) -> ResultRow:
    """One seeded estimate against a cached ensemble.

    The QoI's tail comes from `_tail`, derived once per ensemble.  Both
    methods share its fixed threshold eta; the amplified estimator runs on
    the closed-form measurement model at the tail's exact amplitude.
    """
    s, tn, truth = _tail(ens, qoi)
    rng = np.random.default_rng(seed)
    if method == "mc":
        est = riskmodel.mc_estimate_cvar(s, tn.eta, budget, rng)
        calls, rounds = budget, 0
    elif method == "mliqae":
        cfg = mliqae.ControllerConfig(budget=budget, **(controller_overrides or {}))
        rep = mliqae.run(qsim.AnalyticOracle(tn.a), cfg, rng)
        est = riskmodel.cvar_from_amplitude(rep.a_hat, tn.eta, tn.q_max, s.alpha_level)
        calls, rounds = rep.oracle_calls, len(rep.ledger)
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
    )


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def format_row(row: ResultRow) -> str:
    return ",".join(map(_format_value, astuple(row)))


def run_bench(cfg: BenchConfig, ens: stochfem.Ensemble | None = None) -> tuple[list[ResultRow], list[tuple]]:
    """Execute the sweep; returns (raw rows, aggregate tuples), both sorted by (method, budget).

    Cells run serially in output order.  Each row is the `estimate_once` row
    for its cell's seed, so any cell can be rerun alone with the same bytes.
    """
    if ens is None:
        ens = _build_ensemble(cfg)
    rows = [
        estimate_once(ens, cfg.qoi, method, budget, run_seed(cfg.seed, method, budget, rep), cfg.controller)
        for method in sorted(cfg.methods)
        for budget in cfg.budgets
        for rep in range(cfg.repetitions)
    ]
    agg = []
    # Distinct methods and strictly ascending budgets keep each cell's rows adjacent.
    for (method, budget), group in itertools.groupby(rows, key=lambda r: (r.method, r.budget)):
        errs = np.array([r.abs_err for r in group])
        std = float(np.std(errs, ddof=1)) if errs.size > 1 else 0.0
        agg.append((method, budget, float(np.mean(errs)), float(np.median(errs)), std))
    return rows, agg


def write_csv(path, columns, records) -> None:
    """A header line of the column names, then one line per record, a tuple in column order."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(map(_format_value, rec)) + "\n")


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
        _, tn, cvar = _tail(ens, name)
        out["qois"][name] = {"eta": tn.eta, "q_max": tn.q_max, "a": tn.a, "cvar": cvar}
    return out


def _ensemble_paths(out_dir: str, benchmark: str, seed: int) -> tuple[str, str]:
    base = os.path.join(out_dir, f"{benchmark}_seed{seed}.ensemble.txt")
    return base, base.replace(".ensemble.txt", ".truth.json")


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    ens = _build_ensemble(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ens_path, truth_path = _ensemble_paths(cfg.out_dir, cfg.benchmark, cfg.seed)
    truth = truth_sidecar(ens)  # before any write: a tail that fails leaves no file
    stochfem.write_ensemble(ens_path, ens)
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(ens_path)
    print(truth_path)
    return 0


def cmd_estimate(args) -> int:
    ens = stochfem.read_ensemble(args.ensemble)
    # The ensemble file fixes everything else a config file could set.
    cfg = _config_from_args(args, file_fields=("qoi", "seed", "controller"))
    budget = stochfem.from_text("budget", args.budget)
    row = estimate_once(ens, cfg.qoi, args.method, budget, cfg.seed, cfg.controller)
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
    write_csv(raw_path, RAW_COLUMNS, map(astuple, rows))
    write_csv(agg_path, AGG_COLUMNS, agg)
    print(raw_path)
    print(agg_path)
    return 0


def _config_from_args(args, file_fields=None) -> BenchConfig:
    """BenchConfig from the --config file, then the flags; file_fields limits the file."""
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        ignored = sorted(set(data) - set(file_fields)) if file_fields else []
        if ignored:
            raise ValueError(f"{args.config}: {args.command} does not take config fields {ignored}")
    for key in ("benchmark", "qoi", "alpha_level", "seed", "out_dir", "repetitions", "n_scenarios"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = stochfem.from_text(key, val)
    if getattr(args, "budgets", None) is not None:
        data["budgets"] = [stochfem.from_text("budget", entry) for entry in args.budgets.split(",")]
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

    def common(p, builds_ensemble=True, takes_qoi=True):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--seed")
        if takes_qoi:  # generate writes every QoI
            p.add_argument("--qoi", choices=stochfem.QOI_NAMES)
        if builds_ensemble:  # estimate reads these from its ensemble file
            p.add_argument("--benchmark", choices=sorted(stochfem.BENCHMARK_DEFAULTS))
            p.add_argument("--alpha-level", dest="alpha_level")
            p.add_argument("--out-dir", dest="out_dir")
            p.add_argument("--n-scenarios", dest="n_scenarios")

    gen = sub.add_parser("generate", help="build and persist a scenario ensemble")
    common(gen, takes_qoi=False)
    gen.set_defaults(handler=cmd_generate)

    est = sub.add_parser("estimate", help="run one estimate against an ensemble file")
    common(est, builds_ensemble=False)
    est.add_argument("--ensemble", required=True, help="ensemble file path")
    est.add_argument("--method", choices=("mc", "mliqae"), required=True)
    est.add_argument("--budget", required=True)
    est.set_defaults(handler=cmd_estimate)

    ben = sub.add_parser("bench", help="budget-sweep benchmark with repetitions")
    common(ben)
    ben.add_argument("--reps", dest="repetitions")
    ben.add_argument("--budgets", help="comma-separated budget list")
    ben.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, MemoryError) as exc:
        # A bare MemoryError carries no message; its name is the message then.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
