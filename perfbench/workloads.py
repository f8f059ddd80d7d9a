"""Workloads of the tailamp benchmark: inputs from a seed, timed runs, checks.

Every workload is a closed loop with one client in one process: the next run
starts only after the previous one has returned.  There are no threads and
no worker pool (the sweep pool of ``cli.run_bench`` is not exercised).  A run
is one ``cli.estimate_once`` or one ``mliqae.run``.

operating    The real traffic.  A cantilever ensemble (256 scenarios) and a
             bar1d ensemble (1024 scenarios), written and read back.  Runs
             rotate over five (ensemble, QoI) pairs, draw a budget
             log-uniformly from [2k, 256k], and call ``estimate_once`` for
             both ``mc`` and ``mliqae``.
saturated    ``mliqae.run`` on the closed-form oracle at a in [1 - 1e-6, 1]
             (every eighth run exactly 1.0) and a fixed 64k budget: every
             batch stays at k = 0 and batches pile up.
statevector  ``mliqae.run`` on a fresh ``StatevectorOracle`` per run, built
             from a 16,384-scenario bar1d ensemble (compliance, 14 index
             qubits), at a fixed 64k budget: the simulator path.

Ensembles, budgets, amplitudes and per-run seeds all derive from the
workload seed; per-run seeds use ``cli.run_seed`` the way the CLI does.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from tailamp import cli, mliqae, qsim, riskmodel, stochfem

import speed
import tracing

WORKLOADS = ("operating", "saturated", "statevector")

OPERATING_ENSEMBLES = (("cantilever", 256), ("bar1d", 1024))
OPERATING_PAIRS = (
    ("cantilever", "compliance"),
    ("cantilever", "tipdisp"),
    ("cantilever", "vmmax"),
    ("bar1d", "compliance"),
    ("bar1d", "vmmax"),
)
BUDGET_LO, BUDGET_HI = 2_000, 256_000
FIXED_BUDGET = 64_000
SATURATED_GAP = 1e-6
EXACT_ONE_EVERY = 8
STATEVECTOR_SCENARIOS = 16_384
STATEVECTOR_QOI = "compliance"
MAX_RUNS = {"operating": 4096, "saturated": 1024, "statevector": 1024}

MIN_TAIL = 10             # samples that must lie beyond a reported percentile
MIN_LATENCY_SAMPLES = 100  # enough mliqae runs for p90 to have MIN_TAIL beyond it
MEASURE_CAP_S = 120.0     # hard stop for the timed loop
WARMUP_RUNS = 2           # untimed runs before the loop, taken from the end of the run list
SETUP_SHARE = 0.2         # set-ups take about this share of the timed loop's length,
SETUP_POINTS = (3, 20)    # at this many points (min, max), the first before the loop
SETUP_POINT_MIN_S = 0.2   # at one point, a cheap set-up repeats until this much time is spent
SETUP_MAX_REPEATS = 200
STATEVECTOR_TOL = 1e-9
TRUTH_RTOL = 1e-9
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --- inputs ---------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One run: which input, which budget, and a seed per method, in order."""

    index: int
    pair: tuple[str, str]           # (ensemble, QoI); ("", "") on saturated
    budget: int
    a: float                        # true tail amplitude
    seeds: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Truth:
    scenarios: riskmodel.ScenarioSet
    tail: riskmodel.TailNormalization
    cvar: float


@dataclass
class Inputs:
    workload: str
    seed: int
    runs: list[RunSpec]
    ensembles: dict = field(default_factory=dict)   # name -> Ensemble
    truths: dict = field(default_factory=dict)      # (ensemble, QoI) -> Truth
    oracle_spec: qsim.OracleSpec | None = None


def spread(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws, each uniform on [0, 1): a golden-ratio sequence from a random start.

    Every prefix covers [0, 1) evenly, so medians over the prefix a timed
    loop gets through move less from seed to seed than with independent
    draws.
    """
    return (rng.random() + GOLDEN * np.arange(n)) % 1.0


def _truth(ens, qoi: str, problems: list) -> Truth:
    s = riskmodel.ScenarioSet(ens.probs, ens.responses[qoi], ens.alpha_level)
    tail = riskmodel.normalize_hinge(s, riskmodel.var_threshold(s))
    cvar = riskmodel.discrete_cvar(s)
    via_a = riskmodel.cvar_from_amplitude(tail.a, tail.eta, tail.q_max, s.alpha_level)
    if not math.isclose(cvar, via_a, rel_tol=TRUTH_RTOL, abs_tol=TRUTH_RTOL):
        problems.append(f"{ens.benchmark}/{qoi}: discrete_cvar {cvar!r} != cvar_from_amplitude {via_a!r}")
    return Truth(s, tail, cvar)


def _same_ensemble(a, b) -> bool:
    return (
        a.benchmark == b.benchmark
        and a.seed == b.seed
        and a.alpha_level == b.alpha_level
        and np.array_equal(a.probs, b.probs)
        and all(np.array_equal(a.responses[q], b.responses[q]) for q in stochfem.QOI_NAMES)
    )


def _seeds(seed: int, methods, budget: int, index: int):
    return tuple((m, cli.run_seed(seed, m, budget, index)) for m in methods)


def make_inputs(workload: str, seed: int, workdir, problems: list) -> Inputs:
    """Everything the timed runs need, derived from the workload seed alone.

    ``workdir`` holds the ensemble files of the operating round trip.
    Failed input checks are appended to ``problems``.
    """
    rng = np.random.default_rng(seed)
    n = MAX_RUNS[workload]
    if workload == "operating":
        ensembles = {}
        for (name, size), ens_seed in zip(
            OPERATING_ENSEMBLES, rng.integers(1, 2**31 - 1, size=len(OPERATING_ENSEMBLES))
        ):
            built = stochfem.build_scenario_ensemble(name, size, int(ens_seed))
            path = Path(workdir) / f"{name}.ensemble.txt"
            stochfem.write_ensemble(path, built)
            ensembles[name] = stochfem.read_ensemble(path)
            if not _same_ensemble(built, ensembles[name]):
                problems.append(f"{name}: ensemble changed in the file round trip")
        truths = {pair: _truth(ensembles[pair[0]], pair[1], problems) for pair in OPERATING_PAIRS}
        budgets = np.rint(BUDGET_LO * (BUDGET_HI / BUDGET_LO) ** spread(rng, n)).astype(int)
        runs = []
        for i, budget in enumerate(budgets.tolist()):
            pair = OPERATING_PAIRS[i % len(OPERATING_PAIRS)]
            runs.append(
                RunSpec(i, pair, budget, truths[pair].tail.a, _seeds(seed, ("mc", "mliqae"), budget, i))
            )
        return Inputs(workload, seed, runs, ensembles, truths)
    if workload == "saturated":
        amps = 1.0 - SATURATED_GAP * spread(rng, n)
        amps[::EXACT_ONE_EVERY] = 1.0
        runs = [
            RunSpec(i, ("", ""), FIXED_BUDGET, a, _seeds(seed, ("mliqae",), FIXED_BUDGET, i))
            for i, a in enumerate(amps.tolist())
        ]
        return Inputs(workload, seed, runs)
    if workload == "statevector":
        ens_seed = int(rng.integers(1, 2**31 - 1))
        ens = stochfem.build_scenario_ensemble("bar1d", STATEVECTOR_SCENARIOS, ens_seed)
        pair = ("bar1d", STATEVECTOR_QOI)
        truth = _truth(ens, STATEVECTOR_QOI, problems)
        spec = riskmodel.to_oracle_spec(truth.scenarios, truth.tail)
        runs = [
            RunSpec(i, pair, FIXED_BUDGET, truth.tail.a, _seeds(seed, ("mliqae",), FIXED_BUDGET, i))
            for i in range(n)
        ]
        return Inputs(workload, seed, runs, {"bar1d": ens}, {pair: truth}, spec)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(inputs: Inputs) -> str:
    """Hash of every generated input: run specs, ensembles, oracle spec."""
    h = hashlib.sha256()
    for r in inputs.runs:
        h.update(repr((r.index, r.pair, r.budget, r.a.hex(), r.seeds)).encode())
    for name in sorted(inputs.ensembles):
        ens = inputs.ensembles[name]
        h.update(repr((name, ens.benchmark, ens.seed, ens.alpha_level)).encode())
        h.update(ens.probs.tobytes())
        for q in stochfem.QOI_NAMES:
            h.update(ens.responses[q].tobytes())
    if inputs.oracle_spec is not None:
        h.update(inputs.oracle_spec.probs.tobytes())
        h.update(inputs.oracle_spec.gs.tobytes())
    return h.hexdigest()


# --- runs -----------------------------------------------------------------


@dataclass
class Outcome:
    """One run as the client saw it, plus what the checks need."""

    index: int
    method: str
    seconds: float
    failed: bool
    estimate: float | None = None
    err: float | None = None             # against the truth; CVaR units where there is a CVaR
    reference_err: float | None = None   # MC error at the same budget, on mliqae outcomes
    a_err: float | None = None
    theta_err: float | None = None
    covered: bool = False
    a_bounds_covered: bool = False
    ledger: tuple = ()
    report: mliqae.EstimateReport | None = None
    started: float = math.nan            # perf_counter when the timed loop started the spec


@contextmanager
def capturing_reports(sink: list):
    """Collect every EstimateReport ``mliqae.run`` returns, e.g. inside estimate_once."""
    original = mliqae.run

    def run(*args, **kwargs):
        report = original(*args, **kwargs)
        sink.append(report)
        return report

    mliqae.run = run
    try:
        yield
    finally:
        mliqae.run = original


def _cvar_err(truth: Truth, a_hat: float) -> float:
    tail = truth.tail
    est = riskmodel.cvar_from_amplitude(a_hat, tail.eta, tail.q_max, truth.scenarios.alpha_level)
    return abs(est - truth.cvar)


def _score(out: Outcome, report, a: float, budget: int, problems) -> None:
    """Fill the accuracy fields of a mliqae outcome and check its spend."""
    out.report = report
    out.failed = out.failed or report.failed
    out.ledger = tuple((b.kind, b.k, b.m, b.h) for b in report.ledger)
    theta = math.asin(math.sqrt(a))
    out.a_err = abs(report.a_hat - a)
    out.theta_err = abs(report.theta_hat - theta)
    out.covered = (not report.failed) and report.feasible.contains(theta, tol=1e-12)
    out.a_bounds_covered = report.a_bounds[0] <= a <= report.a_bounds[1]
    if problems is not None:
        cost = sum(b.cost for b in report.ledger)
        if report.oracle_calls > budget or report.oracle_calls != cost:
            problems.append(
                f"run {out.index}: oracle_calls {report.oracle_calls}, budget {budget}, ledger cost {cost}"
            )


def _failed(index, method, seconds) -> Outcome:
    traceback.print_exc()
    return Outcome(index, method, seconds, failed=True)


def _run_operating(inputs, spec, problems, sink) -> list[Outcome]:
    ens = inputs.ensembles[spec.pair[0]]
    outs = []
    for method, seed in spec.seeds:
        sink.clear()
        start = time.perf_counter()
        try:
            row = cli.estimate_once(ens, spec.pair[1], method, spec.budget, seed)
        except Exception:
            outs.append(_failed(spec.index, method, time.perf_counter() - start))
            continue
        out = Outcome(spec.index, method, time.perf_counter() - start, row.failed, row.cvar_est, row.abs_err)
        if method == "mliqae":
            _score(out, sink[-1], spec.a, spec.budget, problems)
            if problems is not None and row.oracle_calls != sink[-1].oracle_calls:
                problems.append(f"run {spec.index}: row and report disagree on oracle_calls")
        elif problems is not None and row.oracle_calls != spec.budget:
            problems.append(f"run {spec.index}: mc spent {row.oracle_calls} of {spec.budget}")
        outs.append(out)
    mc, amp = outs
    if not (mc.failed or amp.failed):
        amp.reference_err = mc.err
    return outs


def _run_amplitude(inputs, spec, problems, references) -> list[Outcome]:
    """One mliqae.run on the saturated or statevector workload."""
    (method, seed), = spec.seeds
    start = time.perf_counter()
    try:
        if inputs.workload == "statevector":
            oracle = qsim.StatevectorOracle(inputs.oracle_spec)
        else:
            oracle = qsim.AnalyticOracle(spec.a)
        report = mliqae.run(oracle, mliqae.ControllerConfig(budget=spec.budget), np.random.default_rng(seed))
    except Exception:
        return [_failed(spec.index, method, time.perf_counter() - start)]
    out = Outcome(spec.index, method, time.perf_counter() - start, False, report.a_hat)
    _score(out, report, spec.a, spec.budget, problems)
    if problems is not None and inputs.workload == "statevector":
        for k in sorted({b.k for b in report.ledger}):
            got = oracle.success_probability(k)
            want = qsim.analytic_success_probability(inputs.oracle_spec.amplitude, k)
            if abs(got - want) > STATEVECTOR_TOL:
                problems.append(f"run {spec.index}: statevector p(k={k}) {got!r} != closed form {want!r}")
    if references:
        mc_rng = np.random.default_rng(cli.run_seed(inputs.seed, "mc", spec.budget, spec.index))
        if inputs.workload == "statevector":
            truth = inputs.truths[spec.pair]
            out.err = _cvar_err(truth, report.a_hat)
            mc = riskmodel.mc_estimate_cvar(truth.scenarios, truth.tail.eta, spec.budget, mc_rng)
            out.reference_err = abs(mc - truth.cvar)
        else:
            # Monte Carlo on an amplitude alone: each call is one Bernoulli(a) draw.
            out.err = out.a_err
            out.reference_err = abs(mc_rng.binomial(spec.budget, spec.a) / spec.budget - spec.a)
    return [out]


def execute(inputs: Inputs, spec: RunSpec, problems, sink: list, references: bool = True) -> list[Outcome]:
    """Run one spec; ``problems=None`` skips the per-run checks."""
    if inputs.workload == "operating":
        return _run_operating(inputs, spec, problems, sink)
    return _run_amplitude(inputs, spec, problems, references)


def measure(
    inputs: Inputs, seconds: float, min_latency: int, problems: list, gauge, setup=None
) -> list[Outcome]:
    """Closed loop over the run specs for ``seconds``, after a warm-up.

    The warm-up runs the last WARMUP_RUNS specs of the input list, untimed
    and unchecked, so that lazy imports and first-call costs are paid
    before timing.  The loop goes on past ``seconds`` until ``min_latency``
    mliqae runs are in, so that the reported p90 has MIN_TAIL samples beyond
    it, but never past MEASURE_CAP_S.  ``gauge`` (a ``speed.SpeedGauge``)
    times its reference kernel once before the loop and then between runs.
    A ``SetupTimer`` passed as ``setup`` times the set-up again at evenly
    spaced points, as many as let set-ups take about SETUP_SHARE of
    ``seconds``.  Neither gauging nor set-ups count as loop time.
    """
    outs: list[Outcome] = []
    sink: list = []
    n_latency = 0
    due = []
    if setup is not None:
        lo, hi = SETUP_POINTS
        points = min(hi, max(lo, round(SETUP_SHARE * seconds / setup.last_cost)))
        due = [seconds * k / points for k in range(1, points)]
    with capturing_reports(sink):
        for spec in inputs.runs[-WARMUP_RUNS:]:
            execute(inputs, spec, None, sink, references=False)
        gauge.gauge()
        paused = 0.0
        start = time.perf_counter()
        for spec in inputs.runs[:-WARMUP_RUNS]:
            elapsed = time.perf_counter() - start - paused
            if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and n_latency >= min_latency):
                break
            if due and elapsed >= due[0]:
                due.pop(0)
                pause = time.perf_counter()
                setup.build()
                paused += time.perf_counter() - pause
            begun = time.perf_counter()
            got = execute(inputs, spec, problems, sink)
            for o in got:
                o.started = begun
            n_latency += sum(o.method == "mliqae" for o in got)
            outs.extend(got)
            paused += gauge.after_run(sum(o.seconds for o in got))
    for _ in due:
        setup.build()
    return outs


# --- metrics --------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """q-th percentile, refused unless MIN_TAIL samples lie strictly beyond it."""
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("no samples")
    value = float(np.percentile(xs, q))
    beyond = int(np.count_nonzero(xs > value))
    if beyond < MIN_TAIL:
        raise ValueError(f"p{q:g} of {xs.size} samples has {beyond} beyond it, need {MIN_TAIL}")
    return value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Times the set-up at several points of a run.

    The machine's speed drifts over seconds, so set-ups spread over the run
    give a steadier median than set-ups back to back.  Each point keeps the
    median of its repeats and the moment it started; every build must give
    the same inputs as the first.
    """

    def __init__(self, workload: str, seed: int, root: Path, problems: list):
        self.workload, self.seed, self.root, self.problems = workload, seed, root, problems
        self.points: list[tuple[float, float]] = []   # (start, median seconds)
        self.last_cost = 0.0      # wall time of the last point, repeats included
        self._first: str | None = None

    def build(self) -> Inputs:
        begun = time.perf_counter()
        times: list[float] = []
        while not times or (sum(times) < SETUP_POINT_MIN_S and len(times) < SETUP_MAX_REPEATS):
            with tempfile.TemporaryDirectory(dir=self.root, prefix=".perfbench-") as tmp:
                start = time.perf_counter()
                inputs = make_inputs(self.workload, self.seed, tmp, self.problems)
                times.append(time.perf_counter() - start)
        self.points.append((begun, statistics.median(times)))
        self.last_cost = sum(times)
        fp = fingerprint(inputs)
        if self._first is None:
            self._first = fp
        elif fp != self._first:
            self.problems.append("set-up gave different inputs on a repeat")
        return inputs

    def seconds(self, gauge) -> float:
        """Median over points, each rescaled by ``gauge`` at its moment; None gives raw."""
        if gauge is None:
            return statistics.median(s for _, s in self.points)
        return statistics.median(gauge.seconds(t, s) for t, s in self.points)


def _accuracy(amp: list) -> dict:
    """Accuracy of the mliqae runs that returned a report.

    mc_err_ratio is the median error of Monte Carlo over that of mliqae on
    the same runs' budgets, both against the exact truth.
    """
    scored = [o for o in amp if o.report is not None]
    paired = [o for o in scored if o.reference_err is not None]
    return {
        "mliqae.theta_abs_err_p50": statistics.median(o.theta_err for o in scored),
        "mliqae.a_abs_err_p50": statistics.median(o.a_err for o in scored),
        "mliqae.mc_err_ratio": statistics.median(o.reference_err for o in paired)
        / statistics.median(o.err for o in paired),
    }


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    notes: list


def end_to_end(workload: str, seed: int, seconds: float, root: Path) -> Result:
    """End-to-end metrics, tracing off.

    Every timing is rescaled by the speed gauge around the moment it was
    taken (see ``speed``).
    """
    problems: list = []
    setup = SetupTimer(workload, seed, root, problems)
    inputs = setup.build()
    gauge = speed.SpeedGauge()
    outs = measure(inputs, seconds, MIN_LATENCY_SAMPLES, problems, gauge, setup)
    amp = [o for o in outs if o.method == "mliqae"]
    ok = [o for o in outs if not o.failed]
    raw_ms = [o.seconds * 1e3 if not o.failed else math.inf for o in amp]
    latency_ms = [gauge.seconds(o.started, x) for o, x in zip(amp, raw_ms)]
    run_s = sum(o.seconds for o in outs)
    accuracy = _accuracy(amp)
    metrics = {
        "setup_s": setup.seconds(gauge),
        "runs_per_s": len(ok) / sum(gauge.seconds(o.started, o.seconds) for o in outs),
        "run_ms_p50": percentile(latency_ms, 50),
        "run_ms_p90": percentile(latency_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": len(ok) / len(outs),
        "coverage": sum(o.covered for o in amp) / len(amp),
    }
    notes = [
        f"runs {len(outs)} ({len(amp)} mliqae), latency samples {len(latency_ms)}, "
        f"beyond p90 {sum(x > metrics['run_ms_p90'] for x in latency_ms)}",
        f"host slowdown {gauge.slowdown:.4f} (median of {len(gauge.samples)} reference-kernel "
        f"timings over {speed.NOMINAL_S} s); each timing is divided by the slowdown around it",
        f"raw: setup_s {setup.seconds(None):.6g}, runs_per_s {len(ok) / run_s:.6g}, "
        f"run_ms_p50 {percentile(raw_ms, 50):.6g}, run_ms_p90 {percentile(raw_ms, 90):.6g}, "
        f"timed run time {run_s:.3f} s",
        f"a_bounds coverage (known defect, not a metric) "
        f"{sum(o.a_bounds_covered for o in amp)}/{len(amp)}",
        "accuracy (the traced run reports these): "
        + ", ".join(f"{name.split('.')[1]} {accuracy[name]:.6g}" for name in ACCURACY_DETAIL),
    ]
    return Result(metrics, len(outs), len(outs) - len(ok), problems, notes)


END_TO_END = (
    "setup_s",
    "runs_per_s",
    "run_ms_p50",
    "run_ms_p90",
    "peak_rss_mb",
    "ok_frac",
    "coverage",
)
LEDGER_COUNTS = (
    "mliqae.batches",
    "mliqae.batches.disambig",
    "mliqae.batches.restart",
    "mliqae.restarts",
    "mliqae.k_max_reached",
    "mliqae.useful_call_frac",
)
# Accuracy figures whose seed-to-seed spread comes close to or exceeds the
# widest end-to-end bound (they follow each seed's ensemble, and statevector
# has only about 110 runs), so the traced run reports them without a bound.
ACCURACY_DETAIL = ("mliqae.theta_abs_err_p50", "mliqae.a_abs_err_p50", "mliqae.mc_err_ratio")
TRACE_OVERHEAD = "trace.overhead_s"


def _ledger_counts(reports) -> dict:
    n = len(reports)
    kinds = [b.kind for r in reports for b in r.ledger]
    calls = sum(b.cost for r in reports for b in r.ledger)
    round_calls = sum(b.cost for r in reports for b in r.ledger if b.kind == "round")
    return {
        "mliqae.batches": len(kinds) / n,
        "mliqae.batches.disambig": kinds.count("disambig") / n,
        "mliqae.batches.restart": kinds.count("restart") / n,
        "mliqae.restarts": sum(r.restarts for r in reports) / n,
        "mliqae.k_max_reached": sum(max(b.k for b in r.ledger) for r in reports) / n,
        "mliqae.useful_call_frac": round_calls / calls,
    }


def traced(workload: str, seed: int, seconds: float, root: Path, names) -> Result:
    """Per-layer metrics from a traced replay, checked against untraced runs.

    Each run spec runs untraced and then traced, in turn, for ``seconds``;
    alternating cancels the machine's slow drift out of the overhead.  The
    traced set-up is recorded under ``tracing.SETUP``.  Values are one
    set-up plus one average run: set-up spans are summed, run spans are
    summed and divided by the number of runs.  Ledger counts are means per
    mliqae run.
    """
    problems: list = []
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        inputs = make_inputs(workload, seed, tmp, problems)
    tracer = tracing.Tracer()
    with tracer, tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        replay_inputs = make_inputs(workload, seed, tmp, [])
    if fingerprint(replay_inputs) != fingerprint(inputs):
        problems.append("traced set-up gave different inputs")

    sink: list = []
    plain: list[Outcome] = []
    outs: list[Outcome] = []
    start = time.perf_counter()
    with capturing_reports(sink):
        for spec in inputs.runs:
            if time.perf_counter() - start >= seconds:
                break
            plain.extend(execute(inputs, spec, problems, sink))
            tracer.run_id = spec.index
            with tracer:
                outs.extend(execute(replay_inputs, spec, None, sink, references=False))
        if not tracer.restored():
            problems.append("tracer left wrappers installed")
    mismatched = [
        (a.index, a.method)
        for a, b in zip(plain, outs)
        if (a.index, a.method, a.ledger, a.estimate) != (b.index, b.method, b.ledger, b.estimate)
    ]
    if len(plain) != len(outs) or mismatched:
        problems.append(f"traced runs differ from untraced runs: {mismatched[:5]}")

    setup, runs = tracer.totals()
    n = len(outs)
    metrics = {}
    for name in names:
        metrics[name] = setup.get(name, 0.0) + runs.get(name, 0.0) / n
    metrics.update(_ledger_counts([o.report for o in outs if o.report is not None]))
    accuracy = _accuracy([o for o in plain if o.method == "mliqae"])
    metrics.update({name: accuracy[name] for name in ACCURACY_DETAIL})
    traced_s = sum(o.seconds for o in outs)
    plain_s = sum(o.seconds for o in plain)
    metrics[TRACE_OVERHEAD] = traced_s - plain_s

    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    layer_run_s = {layer: runs.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS}
    total = sum(layer_run_s.values()) or 1.0
    in_setup = [s[4] == tracing.SETUP for s in tracer.spans if s[0].startswith("stochfem.")]
    notes = [
        f"traced runs {n}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s",
        "run self-time shares: "
        + ", ".join(f"{k} {v / total:.3f}" for k, v in sorted(layer_run_s.items(), key=lambda kv: -kv[1])),
        f"stochfem spans in set-up {sum(in_setup)}, in runs {len(in_setup) - sum(in_setup)}",
        f"spans written to {spans_path.relative_to(root)}",
    ]
    failed = sum(o.failed for o in plain) + sum(o.failed for o in outs)
    return Result(metrics, len(plain) + len(outs), failed, problems, notes)

