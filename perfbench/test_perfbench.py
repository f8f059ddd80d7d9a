"""Tests of the benchmark's own code: inputs, tracer, percentile rule, metric names.

    python3 -m pytest perfbench
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from tailamp import intervals, mliqae, qsim, stats

import speed
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _inputs(workload, seed, tmp_path):
    problems = []
    inputs = workloads.make_inputs(workload, seed, tempfile.mkdtemp(dir=tmp_path), problems)
    assert problems == []
    return inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_another_seed_different(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path)
    again = _inputs(workload, 5, tmp_path)
    other = _inputs(workload, 6, tmp_path)
    budgets = [r.budget for r in first.runs]
    amplitudes = [r.a for r in first.runs]
    assert budgets == [r.budget for r in again.runs]
    assert amplitudes == [r.a for r in again.runs]
    assert workloads.fingerprint(first) == workloads.fingerprint(again)
    assert workloads.fingerprint(first) != workloads.fingerprint(other)
    assert [r.seeds for r in first.runs] != [r.seeds for r in other.runs]
    if workload == "operating":
        assert budgets != [r.budget for r in other.runs]
    if workload == "saturated":
        assert amplitudes != [r.a for r in other.runs]
    if first.ensembles:
        assert amplitudes[0] != other.runs[0].a


def test_operating_inputs_match_the_workload_definition(tmp_path):
    inputs = _inputs("operating", 3, tmp_path)
    budgets = np.array([r.budget for r in inputs.runs])
    assert budgets.min() >= workloads.BUDGET_LO and budgets.max() <= workloads.BUDGET_HI
    # Log-uniform: each octave of budgets gets its share of the runs.
    octaves = np.floor(np.log2(budgets / workloads.BUDGET_LO)).clip(max=6)
    assert np.bincount(octaves.astype(int)).min() > len(budgets) / 7 * 0.8
    assert [r.pair for r in inputs.runs[:5]] == list(workloads.OPERATING_PAIRS)
    assert inputs.truths[("bar1d", "vmmax")].tail.a == 0.0
    for pair in workloads.OPERATING_PAIRS[:4]:
        assert 0.005 < inputs.truths[pair].tail.a < 0.05


def test_saturated_amplitudes_lie_in_the_band_and_include_one(tmp_path):
    amps = np.array([r.a for r in _inputs("saturated", 3, tmp_path).runs])
    assert np.all((amps >= 1.0 - workloads.SATURATED_GAP) & (amps <= 1.0))
    assert np.count_nonzero(amps == 1.0) >= len(amps) // workloads.EXACT_ONE_EVERY


def test_tracer_patches_every_lookup_site_and_restores_originals():
    originals = {
        (stats, "clopper_pearson"): stats.clopper_pearson,
        (mliqae, "clopper_pearson"): mliqae.clopper_pearson,
        (mliqae, "log_likelihood_terms"): mliqae.log_likelihood_terms,
        (mliqae, "theta_preimage"): mliqae.theta_preimage,
        (mliqae, "sample_shots"): mliqae.sample_shots,
        (intervals.IntervalUnion, "intersect"): intervals.IntervalUnion.intersect,
        (qsim.AnalyticOracle, "success_probability"): qsim.AnalyticOracle.success_probability,
    }
    tracer = tracing.Tracer()
    with tracer:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        assert mliqae.clopper_pearson is stats.clopper_pearson
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
    assert tracer.restored()


def test_tracer_restores_originals_when_the_traced_code_raises():
    original = stats.clopper_pearson
    with pytest.raises(ValueError):
        with tracing.Tracer() as tracer:
            mliqae.clopper_pearson(5, 3, 0.1)  # h > m
    assert stats.clopper_pearson is original and mliqae.clopper_pearson is original
    assert [s[0] for s in tracer.spans] == ["stats.clopper_pearson"]


def test_capturing_reports_restores_run():
    original, sink = mliqae.run, []
    with workloads.capturing_reports(sink):
        assert mliqae.run is not original
    assert mliqae.run is original


def test_traced_run_keeps_the_ledger_and_self_times_add_up():
    cfg = mliqae.ControllerConfig(budget=4000)
    plain = mliqae.run(qsim.AnalyticOracle(0.2), cfg, np.random.default_rng(9))
    with tracing.Tracer() as tracer:
        tracer.run_id = 0
        traced = mliqae.run(qsim.AnalyticOracle(0.2), cfg, np.random.default_rng(9))
    assert traced.ledger == plain.ledger
    setup, runs = tracer.totals()
    assert not setup
    assert runs["mliqae.run.calls"] == 1
    layer_self = sum(runs.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(runs["mliqae.run.s"], rel=1e-9)
    assert runs["intervals.theta_preimage.bands"] == sum(2 * b.k + 2 for b in plain.ledger)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["mliqae.run"]


def test_percentile_needs_ten_samples_beyond_it():
    assert workloads.percentile(np.arange(100.0), 90) == pytest.approx(89.1)
    assert workloads.percentile(np.arange(92.0), 90) == pytest.approx(81.9)
    with pytest.raises(ValueError):
        workloads.percentile(np.arange(91.0), 90)
    with pytest.raises(ValueError):
        workloads.percentile(np.full(500, 3.0), 90)  # ties: nothing lies beyond
    assert workloads.percentile(np.arange(20.0), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        workloads.percentile(np.arange(19.0), 50)
    assert workloads.MIN_LATENCY_SAMPLES * 0.1 >= workloads.MIN_TAIL


def test_spread_is_uniform_on_every_prefix():
    u = workloads.spread(np.random.default_rng(0), 1000)
    assert np.all((u >= 0.0) & (u < 1.0))
    for n in (50, 100, 1000):
        assert np.histogram(u[:n], bins=5, range=(0, 1))[0].min() >= n / 5 - 2


def test_speed_gauge_rescales_by_the_kernel_time_around_each_moment():
    gauge = speed.SpeedGauge()
    gauge.times = [float(t) for t in range(100)]
    gauge.samples = [speed.NOMINAL_S * (1.0 if t < 50 else 3.0) for t in range(100)]
    assert gauge.slowdown_at(10.5) == pytest.approx(1.0)
    assert gauge.slowdown_at(-5.0) == pytest.approx(1.0)
    assert gauge.slowdown_at(90.5) == pytest.approx(3.0)
    assert gauge.slowdown_at(1e9) == pytest.approx(3.0)
    assert gauge.seconds(90.5, 0.3) == pytest.approx(0.1)
    gauge.samples[:] = [speed.NOMINAL_S * f for f in (1.0, 3.0, 2.0)]
    gauge.times[:] = [0.0, 1.0, 2.0]
    assert gauge.slowdown == pytest.approx(2.0)
    assert gauge.seconds(1.0, 0.5) == pytest.approx(0.25)
    assert gauge.after_run(speed.EVERY_S / 2) == 0.0 and len(gauge.samples) == 3
    assert gauge.after_run(speed.EVERY_S) > 0.0 and len(gauge.samples) == 4


def test_reference_kernel_is_fixed_work():
    assert speed.reference_kernel() == speed.reference_kernel()


def test_benchmark_json_names_exactly_the_metrics_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(workloads.END_TO_END)
    extra = set(workloads.LEDGER_COUNTS) | set(workloads.ACCURACY_DETAIL) | {workloads.TRACE_OVERHEAD}
    producible = tracing.metric_names() | extra
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(per_layer) <= producible
    assert extra <= set(per_layer)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
