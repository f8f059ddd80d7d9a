"""Command line and benchmark harness tests."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailamp import cli, riskmodel, stochfem
from tailamp.cli import (
    AGG_COLUMNS,
    RAW_COLUMNS,
    BenchConfig,
    estimate_once,
    format_row,
    main,
    run_bench,
    run_seed,
    truth_sidecar,
)

TINY = dict(
    benchmark="bar1d",
    qoi="compliance",
    budgets=(300, 600),
    repetitions=3,
    seed=1,
    n_scenarios=64,
)

# sha256 over the raw then the aggregate CSV of `test_bench_csv_bytes_are_pinned`'s sweep.
# A change meant to leave behaviour alone keeps it; any other change re-records it.
BENCH_CSV_DIGEST = "4cf75aef40e249194622f173c976dcc41331c06ad9aef41e4ec86e0788496fd4"

# sha256 over the ensemble file then the truth sidecar of `tailamp generate` at seed 4,
# per (benchmark, n_scenarios); pins the field draw, the meshes, the solves and the writer.
GENERATE_DIGESTS = {
    ("bar1d", 64): "8b221d151104396d50acff9585ca207fde30b1262c9408aa75a946e4c697cc2a",
    ("cantilever", 32): "08818414d7921fead094b7266e7ae949f84cd8597895b4546328a838b1842206",
    ("lbracket", 32): "e9a735d1bd3a94decf3fadd1a584ed92f8496c71d3f42caa7cb61db9cc985f52",
    # Not a whole number of plane-stress solve blocks: the last block is partial.
    ("lbracket", 50): "ec74142e6d065bda23de5fd963e3c016213b88d4724186047c0cdbbae08d0452",
}


@pytest.fixture(scope="module")
def small_ensemble():
    return stochfem.build_scenario_ensemble("bar1d", 64, seed=1)


class TestRunSeed:
    def test_matches_hash_contract(self):
        digest = hashlib.sha256(b"1:mc:2000:0").digest()
        want = int.from_bytes(digest[:8], "big") >> 1
        assert run_seed(1, "mc", 2000, 0) == want

    def test_cells_get_distinct_seeds(self):
        seeds = {
            run_seed(1, method, budget, rep)
            for method in ("mc", "mliqae")
            for budget in (2000, 4000)
            for rep in range(50)
        }
        assert len(seeds) == 200

    def test_fits_in_signed_64_bits(self):
        for rep in range(100):
            s = run_seed(7, "mliqae", 128000, rep)
            assert 0 <= s < 2**63


class TestEstimateOnce:
    def test_single_sample_monte_carlo(self, small_ensemble):
        row = estimate_once(small_ensemble, "compliance", "mc", 1, seed=5)
        assert row.oracle_calls == 1
        assert not row.failed
        assert np.isfinite(row.cvar_est)

    def test_same_seed_is_identical(self, small_ensemble):
        for method in ("mc", "mliqae"):
            a = estimate_once(small_ensemble, "compliance", method, 2000, seed=9)
            b = estimate_once(small_ensemble, "compliance", method, 2000, seed=9)
            assert a == b

    def test_row_is_internally_consistent(self, small_ensemble):
        row = estimate_once(small_ensemble, "compliance", "mliqae", 4000, seed=2)
        s = riskmodel.ScenarioSet(
            small_ensemble.probs,
            small_ensemble.responses["compliance"],
            small_ensemble.alpha_level,
        )
        assert row.cvar_true == pytest.approx(riskmodel.discrete_cvar(s), rel=1e-15)
        assert row.abs_err == pytest.approx(abs(row.cvar_est - row.cvar_true), rel=1e-15)
        assert row.oracle_calls <= 4000
        assert row.rounds >= 1

    def test_unknown_method_raises(self, small_ensemble):
        with pytest.raises(ValueError):
            estimate_once(small_ensemble, "compliance", "quantum", 100, seed=0)

    def test_unknown_qoi_raises(self, small_ensemble):
        with pytest.raises(ValueError, match=re.escape("unknown qoi 'bogus'")):
            estimate_once(small_ensemble, "bogus", "mc", 100, seed=1)


class TestTailMemo:
    def test_each_qoi_tail_is_derived_once(self, monkeypatch):
        ens = stochfem.build_scenario_ensemble("bar1d", 64, seed=4)  # nothing derived yet
        threshold = riskmodel.var_threshold
        calls = []

        def counted(s):
            calls.append(s.responses)
            return threshold(s)

        monkeypatch.setattr(riskmodel, "var_threshold", counted)
        for qoi in stochfem.QOI_NAMES:
            estimate_once(ens, qoi, "mc", 300, seed=0)
        derived = len(calls)
        assert {id(r) for r in calls} == {id(ens.responses[qoi]) for qoi in stochfem.QOI_NAMES}
        for seed in range(3):
            for qoi in stochfem.QOI_NAMES:
                for method in ("mc", "mliqae"):
                    estimate_once(ens, qoi, method, 300 + seed, seed)
        truth_sidecar(ens)
        run_bench(BenchConfig(**TINY), ens=ens)
        assert len(calls) == derived

    @pytest.mark.parametrize("method", ["mc", "mliqae"])
    def test_rows_equal_those_of_a_freshly_read_copy(self, tmp_path, method):
        path = tmp_path / "bar1d.ensemble.txt"
        stochfem.write_ensemble(path, stochfem.build_scenario_ensemble("bar1d", 64, seed=6))
        kept = stochfem.read_ensemble(path)
        for qoi in stochfem.QOI_NAMES:
            for budget, seed in ((300, 1), (2000, 2), (9000, 3)):
                row = estimate_once(kept, qoi, method, budget, seed)
                fresh = estimate_once(stochfem.read_ensemble(path), qoi, method, budget, seed)
                assert format_row(row) == format_row(fresh)

    def test_ensemble_arrays_are_read_only(self, tmp_path, small_ensemble):
        path = tmp_path / "bar1d.ensemble.txt"
        stochfem.write_ensemble(path, small_ensemble)
        for ens in (small_ensemble, stochfem.read_ensemble(path)):
            with pytest.raises(ValueError, match="read-only"):
                ens.probs[0] = 0.5
            with pytest.raises(TypeError):
                ens.responses["compliance"] = ens.responses["compliance"] * 10
            for qoi in stochfem.QOI_NAMES:
                with pytest.raises(ValueError, match="read-only"):
                    ens.responses[qoi][0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    cli._tail(ens, qoi)[1].gs[0] = 1.0


class TestBenchConfig:
    def test_defaults_are_valid(self):
        cfg = BenchConfig()
        assert cfg.budgets == cli.DEFAULT_BUDGETS

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            BenchConfig(benchmark="torus")
        with pytest.raises(ValueError):
            BenchConfig(qoi="mass")
        with pytest.raises(ValueError):
            BenchConfig(budgets=(4000, 2000))
        with pytest.raises(ValueError):
            BenchConfig(budgets=())
        with pytest.raises(ValueError):
            BenchConfig(methods=("mc", "abacus"))
        with pytest.raises(ValueError):
            BenchConfig(repetitions=0)

    @pytest.mark.parametrize(
        "controller, message",
        [
            ({"spam": 1}, "unknown controller fields"),
            ({"budget": 10}, "unknown controller fields"),
            ({"restart_cap": 101}, "restart_cap"),
            ({"delta_tot": "deep"}, "bad value 'deep' for parameter 'delta_tot'"),
            (["delta_tot"], "mapping"),
            ({"kappa": 0.3}, "unknown controller fields"),
            ({"grid_points": 10.5}, "unknown controller fields"),
            ({"delta_tot": None}, "bad value None for parameter 'delta_tot': must be a finite number in (0, 1)"),
            ({"epsilon_a": "0"}, "bad value '0' for parameter 'epsilon_a': must be a finite number >= 0"),
            ({"delta_tot": "0.05"}, "bad value '0.05' for parameter 'delta_tot': must be a finite number in (0, 1)"),
            ({"epsilon_a": False}, "bad value False for parameter 'epsilon_a': must be a finite number >= 0"),
            ({"epsilon_a": 1e309}, "bad value inf for parameter 'epsilon_a': must be a finite number >= 0"),
            ({"spam": 1, "eggs": 2}, "unknown controller fields: ['eggs', 'spam']"),
        ],
    )
    def test_rejects_bad_controller_overrides(self, controller, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BenchConfig(controller=controller)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"benchmark": ["bar1d"]}, "benchmark must be a string"),
            ({"qoi": 3}, "qoi must be a string"),
            ({"out_dir": 3}, "out_dir must be a string"),
            ({"alpha_level": 1.0}, "alpha_level"),
            ({"alpha_level": 0.0}, "alpha_level"),
            ({"alpha_level": "0.9"}, "alpha_level"),
            ({"alpha_level": True}, "alpha_level"),
            ({"budgets": 2000}, "budgets must be a list of positive integers"),
            ({"budgets": ["2000"]}, "bad value '2000' for parameter 'budget': must be an integer >= 1"),
            ({"budgets": [2000.5]}, "bad value 2000.5 for parameter 'budget': must be an integer >= 1"),
            ({"budgets": [True]}, "bad value True for parameter 'budget': must be an integer >= 1"),
            ({"budgets": [0, 10]}, "bad value 0 for parameter 'budget': must be an integer >= 1"),
            ({"repetitions": "3"}, "bad value '3' for parameter 'repetitions': must be an integer >= 1"),
            ({"repetitions": 2.0}, "bad value 2.0 for parameter 'repetitions': must be an integer >= 1"),
            ({"n_scenarios": "64"},
             "bad value '64' for parameter 'n_scenarios': must be an integer in [1, 1152921504606846974]"),
            ({"n_scenarios": 0},
             "bad value 0 for parameter 'n_scenarios': must be an integer in [1, 1152921504606846974]"),
            ({"seed": "x"}, "bad value 'x' for parameter 'seed': must be an integer >= 0"),
            ({"seed": -1}, "bad value -1 for parameter 'seed': must be an integer >= 0"),
            ({"methods": 5}, "methods must be a nonempty list"),
            ({"methods": "mc"}, "methods must be a nonempty list"),
            ({"ensemble": [1]}, "ensemble must be a mapping"),
            ({"budgets": [2000, 2000]}, "budgets must be nonempty and strictly ascending"),
            ({"methods": ["mc", "mc"]}, "methods must be a nonempty list of distinct names"),
        ],
    )
    def test_rejects_wrong_field_types(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BenchConfig(**fields)

    def test_budget_above_the_controller_ceiling_is_rejected_when_mliqae_runs(self):
        budgets = (1000, 2**53 + 1)
        with pytest.raises(ValueError, match=r"budget 9007199254740993 is too large: .* at most 2\*\*53"):
            BenchConfig(budgets=budgets)
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            BenchConfig(budgets=budgets, methods=("mliqae",), controller={"delta_tot": 0.1})
        assert BenchConfig(budgets=budgets, methods=("mc",)).budgets == budgets

    def test_accepts_numpy_integers_and_lists(self):
        cfg = BenchConfig(budgets=[np.int64(300), 600], methods=["mc"], seed=np.int32(2))
        assert cfg.budgets == (300, 600)
        assert cfg.methods == ("mc",)

    def test_accepts_controller_overrides(self):
        cfg = BenchConfig(controller={"delta_tot": 0.1, "epsilon_a": 0})
        assert cfg.controller == {"delta_tot": 0.1, "epsilon_a": 0}


class TestRunBench:
    def test_row_count_and_sort_order(self, small_ensemble):
        for methods in (("mc", "mliqae"), ("mliqae", "mc")):
            rows, agg = run_bench(BenchConfig(**TINY, methods=methods), ens=small_ensemble)
            assert len(rows) == 2 * 2 * 3
            keys = [(r.method, r.budget) for r in rows]
            assert keys == sorted(keys)
            assert [rec[:2] for rec in agg] == sorted(set(keys))

    def test_aggregates_recompute_from_raw(self, small_ensemble):
        cfg = BenchConfig(**TINY)
        rows, agg = run_bench(cfg, ens=small_ensemble)
        for method, budget, mean_err, med_err, std_err in agg:
            errs = np.array(
                [r.abs_err for r in rows if r.method == method and r.budget == budget]
            )
            assert mean_err == pytest.approx(float(np.mean(errs)), rel=1e-12)
            assert med_err == pytest.approx(float(np.median(errs)), rel=1e-12)
            assert std_err == pytest.approx(float(np.std(errs, ddof=1)), rel=1e-12)

    def test_monte_carlo_error_shrinks_with_budget(self, small_ensemble):
        cfg = BenchConfig(
            benchmark="bar1d",
            budgets=(500, 2000, 8000, 32000),
            repetitions=12,
            methods=("mc",),
            seed=1,
            n_scenarios=64,
        )
        rows, agg = run_bench(cfg, ens=small_ensemble)
        medians = [rec[3] for rec in agg]
        inversions = sum(b > a for a, b in zip(medians, medians[1:]))
        assert inversions <= 1
        assert medians[-1] < medians[0]

    def test_every_row_is_its_cell_rerun_alone(self, small_ensemble):
        controller = {"delta_tot": 0.5}
        cfg = BenchConfig(**TINY, controller=controller)
        rows, _ = run_bench(cfg, ens=small_ensemble)
        alone = [
            estimate_once(small_ensemble, cfg.qoi, method, budget, run_seed(cfg.seed, method, budget, rep), controller)
            for method in ("mc", "mliqae")
            for budget in cfg.budgets
            for rep in range(cfg.repetitions)
        ]
        assert [format_row(r) for r in rows] == [format_row(r) for r in alone]
        # The override reaches the controller: the default delta_tot gives other mliqae rows.
        default_rows, _ = run_bench(BenchConfig(**TINY), ens=small_ensemble)
        assert [r for r in default_rows if r.method == "mliqae"] != [r for r in rows if r.method == "mliqae"]

    def test_bench_csv_bytes_are_pinned(self, tmp_path):
        argv = ["bench", "--benchmark", "bar1d", "--n-scenarios", "256", "--budgets", "2000,8000,32000"]
        argv += ["--reps", "5", "--seed", "3", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        digest = hashlib.sha256()
        for name in ("bar1d_compliance_raw.csv", "bar1d_compliance_agg.csv"):
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == BENCH_CSV_DIGEST

    @pytest.mark.parametrize("name, n_scenarios", sorted(GENERATE_DIGESTS))
    def test_generate_bytes_are_pinned(self, tmp_path, capsys, name, n_scenarios):
        argv = ["generate", "--benchmark", name, "--n-scenarios", str(n_scenarios), "--seed", "4"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        ens_path, truth_path = capsys.readouterr().out.split()
        digest = hashlib.sha256(Path(ens_path).read_bytes() + Path(truth_path).read_bytes())
        assert digest.hexdigest() == GENERATE_DIGESTS[(name, n_scenarios)]

    def test_budget_above_the_controller_ceiling_fails_before_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "X"
        budgets = f"100,{2**53 + 1}"
        argv = ["bench", "--n-scenarios", "8", "--budgets", budgets, "--reps", "1", "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: budget {2**53 + 1} is too large: the controller takes at most 2**53 = {2**53}"]
        assert not out.exists()

    def test_rerun_is_deterministic(self, small_ensemble):
        cfg = BenchConfig(**TINY)
        a = run_bench(cfg, ens=small_ensemble)
        b = run_bench(cfg, ens=small_ensemble)
        assert [format_row(r) for r in a[0]] == [format_row(r) for r in b[0]]


class TestTruthSidecar:
    def test_matches_direct_recomputation(self, small_ensemble):
        side = truth_sidecar(small_ensemble)
        assert set(side["qois"]) == set(stochfem.QOI_NAMES)
        for name in stochfem.QOI_NAMES:
            s = riskmodel.ScenarioSet(
                small_ensemble.probs,
                small_ensemble.responses[name],
                small_ensemble.alpha_level,
            )
            eta = riskmodel.var_threshold(s)
            tn = riskmodel.normalize_hinge(s, eta)
            rec = side["qois"][name]
            assert rec["eta"] == eta
            assert rec["a"] == tn.a
            assert rec["cvar"] == riskmodel.discrete_cvar(s)


class TestCommands:
    def generate(self, tmp_path, seed=3):
        rc = main(
            [
                "generate",
                "--benchmark",
                "bar1d",
                "--seed",
                str(seed),
                "--n-scenarios",
                "64",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        ens_path = tmp_path / f"bar1d_seed{seed}.ensemble.txt"
        truth_path = tmp_path / f"bar1d_seed{seed}.truth.json"
        assert ens_path.exists() and truth_path.exists()
        return ens_path, truth_path

    def test_generate_writes_consistent_pair(self, tmp_path):
        ens_path, truth_path = self.generate(tmp_path)
        ens = stochfem.read_ensemble(ens_path)
        side = json.loads(truth_path.read_text())
        s = riskmodel.ScenarioSet(
            ens.probs, ens.responses["compliance"], ens.alpha_level
        )
        assert side["qois"]["compliance"]["cvar"] == pytest.approx(
            riskmodel.discrete_cvar(s), rel=1e-15
        )
        assert side["n_scenarios"] == 64

    def test_generate_twice_is_byte_identical(self, tmp_path):
        ens_path, truth_path = self.generate(tmp_path)
        first = (ens_path.read_bytes(), truth_path.read_bytes())
        self.generate(tmp_path)
        assert (ens_path.read_bytes(), truth_path.read_bytes()) == first

    def test_estimate_prints_one_row(self, tmp_path, capsys):
        ens_path, _ = self.generate(tmp_path)
        capsys.readouterr()
        rc = main(
            [
                "estimate",
                "--ensemble",
                str(ens_path),
                "--method",
                "mc",
                "--budget",
                "100",
                "--seed",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == ",".join(RAW_COLUMNS)
        cells = out[1].split(",")
        assert len(cells) == len(RAW_COLUMNS)
        assert cells[0] == "mc"
        assert cells[2] == "100"

    def test_mc_estimate_memory_does_not_grow_with_the_budget(self, tmp_path, capsys):
        # As indices, 1e8 draws would take 800 MB; tail counts take at most 64 entries.
        ens_path, _ = self.generate(tmp_path)
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = main(["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == ",".join(RAW_COLUMNS)
        cells = out[1].split(",")
        assert cells[0] == "mc" and cells[2] == "100000000" and cells[7] == "100000000"
        assert math.isfinite(float(cells[4]))
        assert peak < 1_000_000

    def test_estimate_on_a_file_leaves_scipy_linalg_unimported(self, tmp_path):
        # Only building an ensemble needs scipy.linalg (about 6 MB of resident
        # memory); a fresh interpreter that estimates on a file never loads it.
        ens_path, _ = self.generate(tmp_path)
        argv = ["estimate", "--ensemble", str(ens_path), "--method", "mliqae",
                "--budget", "2000", "--seed", "4"]
        code = (
            "import sys\n"
            "from tailamp.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, 'scipy.linalg' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 False"

    def test_bench_writes_both_csv_files(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--benchmark",
                "bar1d",
                "--seed",
                "1",
                "--n-scenarios",
                "64",
                "--reps",
                "2",
                "--budgets",
                "300,600",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        raw = (tmp_path / "bar1d_compliance_raw.csv").read_text().splitlines()
        agg = (tmp_path / "bar1d_compliance_agg.csv").read_text().splitlines()
        # The raw header derives from ResultRow's fields; its bytes are pinned.
        assert raw[0] == "method,qoi,budget,seed,cvar_est,cvar_true,abs_err,oracle_calls,rounds"
        assert raw[0] == ",".join(RAW_COLUMNS)
        assert agg[0] == "method,budget,mean_abs_err,median_abs_err,std_abs_err"
        assert agg[0] == ",".join(AGG_COLUMNS)
        assert len(raw) == 1 + 2 * 2 * 2
        assert len(agg) == 1 + 4

    def test_estimate_missing_file_exits_nonzero(self, tmp_path, capsys):
        rc = main(
            [
                "estimate",
                "--ensemble",
                str(tmp_path / "absent.txt"),
                "--method",
                "mc",
                "--budget",
                "10",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_field_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"benchmark": "bar1d", "spam": 1}))
        rc = main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "unknown config fields" in capsys.readouterr().err
        # Every unknown field is named, sorted.
        cfg_path.write_text(json.dumps({"spam": 1, "eggs": 2}))
        rc = main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: unknown config fields: ['eggs', 'spam']"]

    @pytest.mark.parametrize(
        "controller, message",
        [
            ({"delta_tot": 0}, "bad value 0 for parameter 'delta_tot': must be a finite number in (0, 1)"),
            ({"spam": 1}, "unknown controller fields"),
            ({"restart_cap": 3}, "restart_cap"),
        ],
    )
    def test_bad_controller_override_fails_before_any_cell_runs(
        self, tmp_path, capsys, controller, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"benchmark": "bar1d", "controller": controller}))
        rc = main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"budgets": 2000}, "budgets must be a list of positive integers"),
            ({"repetitions": "3"}, "bad value '3' for parameter 'repetitions': must be an integer >= 1"),
            ({"n_scenarios": "64"},
             "bad value '64' for parameter 'n_scenarios': must be an integer in [1, 1152921504606846974]"),
            ({"seed": "x"}, "bad value 'x' for parameter 'seed': must be an integer >= 0"),
            ({"methods": 5}, "methods must be a nonempty list"),
            ({"ensemble": {"n_elems": [3]}}, "bad value [3] for parameter 'n_elems'"),
            ([{"benchmark": "bar1d"}], "config must be a JSON object"),
            ("bar1d", "config must be a JSON object"),
            # JSON takes any integer; one too large for a float is not a finite number.
            ({"controller": {"epsilon_a": 10**400}},
             "for parameter 'epsilon_a': must be a finite number >= 0"),
            # An integer model parameter takes at most the largest count its arrays can hold.
            ({"ensemble": {"n_levels": 10**400}},
             "for parameter 'n_levels': must be an integer in [1, 1152921504606846974]"),
        ],
    )
    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"ensemble": {"area": 0.0}}, "parameter 'area': must be a finite number > 0"),
            ({"ensemble": {"n_levels": 0}}, "parameter 'n_levels': must be an integer in [1, 1152921504606846974]"),
            ({"ensemble": {"level_hi": math.inf}}, "parameter 'level_hi': must be a finite number"),
            ({"benchmark": "cantilever", "ensemble": {"traction": math.nan}},
             "parameter 'traction': must be a finite number"),
            ({"ensemble": {"n_elems": 2.7}}, "parameter 'n_elems': must be an integer"),
            ({"ensemble": {"n_levels": True}}, "parameter 'n_levels': must be an integer"),
            ({"benchmark": "lbracket", "ensemble": {"n_elems_per_unit": 7}},
             "bad value 7 for parameter 'n_elems_per_unit'"),
            ({"benchmark": "cantilever", "ensemble": {"sigma": 1000.0}},
             "bad value 1000.0 for parameter 'sigma'"),
            # leg_length * n_elems_per_unit overflows to inf, which round() cannot take.
            ({"benchmark": "lbracket", "ensemble": {"leg_length": 1e308}},
             "leg_length * n_elems_per_unit = inf is not a whole number of elements"),
            # A leg whose cell count rounds to 0 would make a mesh with no loaded face.
            ({"benchmark": "lbracket", "ensemble": {"leg_width": 1e-12, "n_elems_per_unit": 1}},
             "leg_width * n_elems_per_unit = 1e-12 is not a whole number of elements in [1, 759250123]"),
            # A cell count past the square grid's side, from a long leg and a count within its own range.
            ({"benchmark": "lbracket", "ensemble": {"leg_length": 2.0**40, "n_elems_per_unit": 2**20}},
             "leg_length * n_elems_per_unit = 1.15292e+18 is not a whole number of elements in [1, 759250123]"),
        ],
    )
    def test_generate_names_a_bad_ensemble_parameter_and_writes_nothing(
        self, tmp_path, capsys, config, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))  # writes Infinity and NaN as JSON allows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["generate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (tmp_path / "out").exists()

    # Each integer parameter, a benchmark that takes it and its ceiling: the
    # largest count whose array of 8-byte entries fits in 2**63 - 1 bytes.  A
    # line of count + 1 entries, the bar's (1024, n_elems) block of level
    # draws, or the side of a (side + 1)**2 grid of 2-coordinate points.
    # n_scenarios is a sweep field.
    LINE, BAR_BLOCK, SQUARE_SIDE = 2**60 - 2, 2**50 - 1, math.isqrt(2**59) - 1
    INTEGER_PARAMETERS = {
        "n_elems": ("bar1d", BAR_BLOCK),
        "n_levels": ("bar1d", LINE),
        "n_scenarios": ("bar1d", LINE),
        "nx": ("cantilever", LINE),
        "ny": ("cantilever", LINE),
        "rank": ("cantilever", LINE),
        "n_sample_grid": ("cantilever", SQUARE_SIDE),
        "n_elems_per_unit": ("lbracket", SQUARE_SIDE),
    }

    # Each value is refused before any array is made.  2**62 and 2**63 - 1 are
    # past every ceiling but within numpy's own count, where numpy would refuse
    # the array without naming the parameter.
    @pytest.mark.parametrize(
        "value", [0, -1, 2**62, 2**63 - 1, 2**63, 10**400], ids=["0", "-1", "2**62", "2**63-1", "2**63", "10**400"]
    )
    @pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
    def test_generate_names_an_integer_parameter_outside_its_range(self, tmp_path, capsys, name, value):
        benchmark, ceiling = self.INTEGER_PARAMETERS[name]
        config = {"benchmark": benchmark, "n_scenarios": 4}
        if name == "n_scenarios":
            config[name] = value
        else:
            config["ensemble"] = {name: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["generate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad value {value} for parameter {name!r}: must be an integer in [1, {ceiling}]"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, config, err",
        [
            # A modulus of 1e-320 makes L_e / E_e overflow: an infinite displacement.
            (["--benchmark", "bar1d"], {"ensemble": {"level_lo": 1e-320}}, ["error: responses must be finite"]),
            # Every distance over 1e-320 overflows, where the kernel is exactly 0.
            (["--benchmark", "cantilever", "--n-scenarios", "4"], {"ensemble": {"length_scale_x": 1e-320}}, []),
        ],
    )
    def test_an_overflow_in_numpy_prints_no_warning(self, tmp_path, capsys, argv, config, err):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["generate", "--config", str(cfg_path), *argv, "--out-dir", str(tmp_path / "out")])
        assert rc == (1 if err else 0)
        assert capsys.readouterr().err.splitlines() == err

    @pytest.mark.parametrize("cut", ["header_only", "truncated", "short_row"])
    def test_malformed_ensemble_is_one_error_line(self, tmp_path, capsys, cut):
        ens_path, _ = self.generate(tmp_path)
        lines = ens_path.read_text().splitlines()
        if cut == "header_only":
            lines = [ln for ln in lines if ln.startswith("#")]
        elif cut == "truncated":
            lines = lines[:-3]
        else:
            lines[-1] = lines[-1].rsplit(" ", 1)[0]
        ens_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "10"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(ens_path) in err[0]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha_level", "1.5", "bad value 1.5 for parameter 'alpha_level': must be a finite number in (0, 1)"),
            ("alpha_level", "0", "bad value 0.0 for parameter 'alpha_level': must be a finite number in (0, 1)"),
            ("params", "[1,2]", "params must be a JSON object, got [1,2]"),
            ("seed", "-7", "bad value -7 for parameter 'seed': must be an integer >= 0"),
            ("seed", "x", "bad value 'x' for parameter 'seed': must be an integer >= 0"),
            ("n_scenarios", "1.0",
             "bad value '1.0' for parameter 'n_scenarios': must be an integer in [1, 1152921504606846974]"),
            ("benchmark", "torus", "unknown benchmark 'torus'"),
            # Columns in another order would be read as the wrong QoIs.
            ("columns", "index p vmmax tipdisp compliance",
             "columns must read 'index p compliance tipdisp vmmax', got 'index p vmmax tipdisp compliance'"),
        ],
    )
    def test_bad_header_value_is_one_error_line_naming_the_file(
        self, tmp_path, capsys, key, value, message
    ):
        ens_path, _ = self.generate(tmp_path)
        lines = [
            f"# {key} {value}" if ln.startswith(f"# {key} ") else ln
            for ln in ens_path.read_text().splitlines()
        ]
        ens_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {ens_path}: {message}"]

    def test_ensemble_without_a_columns_line_is_one_error_line(self, tmp_path, capsys):
        ens_path, _ = self.generate(tmp_path)
        lines = [ln for ln in ens_path.read_text().splitlines() if not ln.startswith("# columns ")]
        ens_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {ens_path}: missing header keys columns"]

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (0, 1, "-0.015625", "probabilities must be nonnegative"),
            (None, 1, "0.07", "probabilities must sum to 1 within 1e-9"),
            (-1, 4, "nan", "vmmax must be finite"),
        ],
    )
    def test_bad_weight_or_response_is_one_error_line_naming_the_file(
        self, tmp_path, capsys, row, column, value, message
    ):
        ens_path, _ = self.generate(tmp_path)
        lines = ens_path.read_text().splitlines()
        data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
        for i in data if row is None else [data[row]]:
            cells = lines[i].split()
            cells[column] = value
            lines[i] = " ".join(cells)
        ens_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["estimate", "--ensemble", str(ens_path), "--qoi", "compliance", "--method", "mc", "--budget", "10"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {ens_path}: {message}"]

    @pytest.mark.parametrize("method", ["mc", "mliqae"])
    def test_nan_probability_in_the_ensemble_is_one_error_line(self, tmp_path, capsys, method):
        ens_path, _ = self.generate(tmp_path)
        lines = ens_path.read_text().splitlines()
        cells = lines[-1].split()
        cells[1] = "nan"
        lines[-1] = " ".join(cells)
        ens_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", method, "--budget", "100"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {ens_path}: probabilities must be finite"]

    @pytest.mark.parametrize("method", ["mc", "mliqae"])
    def test_overflowing_tail_span_in_the_ensemble_is_one_error_line(self, tmp_path, capsys, method):
        rc = main(
            ["generate", "--benchmark", "bar1d", "--n-scenarios", "8", "--alpha-level", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        ens_path = next(tmp_path.glob("*.ensemble.txt"))
        lines = ens_path.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                cells = line.split()
                cells[2] = repr(1.7e308 if int(cells[0]) % 2 else -1.7e308)  # compliance
                lines[i] = " ".join(cells)
        ens_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["estimate", "--ensemble", str(ens_path), "--method", method, "--budget", "1000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: tail span q_max - eta overflows")

    @pytest.mark.parametrize("method", ["mc", "mliqae"])
    @pytest.mark.parametrize("budget", [10**21, 10**23])
    def test_budget_beyond_a_64_bit_draw_is_one_error_line(self, tmp_path, capsys, method, budget):
        # MC's binomial and multinomial draws take a 64-bit count and the controller at most
        # 2**53 calls; both lines name the budget.
        ens_path, _ = self.generate(tmp_path)
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", method, "--budget", str(budget)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "too large" in err[0]
        if method == "mc":
            assert err[0].startswith(f"error: Monte Carlo budget {budget} is too large")
        else:
            assert err[0].startswith(f"error: budget {budget} is too large: the controller takes at most 2**53")

    @pytest.mark.parametrize("budget", [0, -5])
    def test_a_budget_below_one_is_the_same_error_line_for_both_methods(self, tmp_path, capsys, budget):
        ens_path, _ = self.generate(tmp_path)
        for method in ("mc", "mliqae"):
            capsys.readouterr()
            rc = main(["estimate", "--ensemble", str(ens_path), "--method", method, "--budget", str(budget)])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: bad value {budget} for parameter 'budget': must be an integer >= 1"
            ]

    def test_mliqae_budget_just_above_the_ceiling_is_one_error_line(self, tmp_path, capsys):
        budget = 2**53 + 1  # fits numpy's 64-bit counts, so only the ceiling rejects it
        ens_path, _ = self.generate(tmp_path)
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", "mliqae", "--budget", str(budget)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: budget {budget} is too large: the controller takes at most 2**53 = {2**53}"
        ]

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 745. GiB"), "error: Unable to allocate 745. GiB"),
            (MemoryError(), "error: MemoryError"),
        ],
    )
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, exc, line):
        ens_path, _ = self.generate(tmp_path)

        def exhausted(*args):
            raise exc

        monkeypatch.setattr(riskmodel, "mc_estimate_cvar", exhausted)
        capsys.readouterr()
        rc = main(["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "100"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [line]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "benchmark": "bar1d",
                    "n_scenarios": 64,
                    "repetitions": 1,
                    "budgets": [300],
                    "methods": ["mc"],
                }
            )
        )
        rc = main(
            [
                "bench",
                "--config",
                str(cfg_path),
                "--seed",
                "2",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        raw = (tmp_path / "bar1d_compliance_raw.csv").read_text().splitlines()
        assert len(raw) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--alpha-level", "0.5"), ("--benchmark", "lbracket"), ("--n-scenarios", "3"), ("--out-dir", "elsewhere")],
    )
    def test_estimate_rejects_flags_its_ensemble_file_fixes(self, tmp_path, capsys, flag, value):
        ens_path, _ = self.generate(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "10", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    def test_generate_rejects_qoi_since_it_writes_every_qoi(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n-scenarios", "8", "--out-dir", str(tmp_path), "--qoi", "vmmax"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --qoi vmmax" in captured.err
        assert not any(tmp_path.iterdir())
        # A config file may still carry qoi, so one file serves generate and bench.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qoi": "vmmax", "n_scenarios": 8}))
        assert main(["generate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0

    def test_estimate_config_accepts_only_the_fields_it_uses(self, tmp_path, capsys):
        ens_path, _ = self.generate(tmp_path, seed=2)
        cfg_path = tmp_path / "cfg.json"
        args = ["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "500"]
        cfg_path.write_text(json.dumps({"qoi": "compliance", "seed": 4, "controller": {"delta_tot": 0.1}}))
        capsys.readouterr()
        assert main(args + ["--config", str(cfg_path)]) == 0
        from_file = capsys.readouterr().out
        assert main(args + ["--seed", "4"]) == 0
        assert capsys.readouterr().out == from_file
        cfg_path.write_text(
            json.dumps({"alpha_level": 0.5, "n_scenarios": 3, "budgets": [7], "methods": ["mc"], "seed": 4})
        )
        assert main(args + ["--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0] == (
            f"error: {cfg_path}: estimate does not take config fields"
            " ['alpha_level', 'budgets', 'methods', 'n_scenarios']"
        )

    @pytest.mark.parametrize("budgets, entry", [("100,x", "'x'"), ("100,,200", "''"), ("1.5", "'1.5'"), ("", "''")])
    def test_bad_budgets_entry_names_the_flag(self, tmp_path, capsys, budgets, entry):
        rc = main(["bench", "--budgets", budgets, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: bad value {entry} for parameter 'budget': must be an integer >= 1"
        )
        assert not (tmp_path / "out").exists()

    # Each numeric flag: (subcommand, flag, the setting it sets, how the value is
    # written).  --budgets takes each entry, alone or after a good one.
    NUMERIC_FLAGS = [
        ("generate", "--seed", "seed", "{}"),
        ("generate", "--n-scenarios", "n_scenarios", "{}"),
        ("generate", "--alpha-level", "alpha_level", "{}"),
        ("estimate", "--seed", "seed", "{}"),
        ("estimate", "--budget", "budget", "{}"),
        ("bench", "--seed", "seed", "{}"),
        ("bench", "--n-scenarios", "n_scenarios", "{}"),
        ("bench", "--alpha-level", "alpha_level", "{}"),
        ("bench", "--reps", "repetitions", "{}"),
        ("bench", "--budgets", "budget", "{}"),
        ("bench", "--budgets", "budget", "100,{}"),
    ]
    # Each bad value as the message shows it: (for an integer setting, for alpha_level).
    SHOWN = {
        "x": ("'x'", "'x'"), "1.5": ("'1.5'", "1.5"), "nan": ("'nan'", "nan"), "-1": ("-1", "-1.0"), "0": ("0", "0.0")
    }

    @pytest.mark.parametrize(
        "command, flag, setting, written, value",
        [
            pytest.param(*row, value, id=f"{row[0]} {row[1]} {row[3].format(value)}")
            for row, value in itertools.product(NUMERIC_FLAGS, SHOWN)
            if (row[2], value) != ("seed", "0")  # the one value here a setting takes
        ],
    )
    def test_a_bad_flag_value_is_the_error_line_of_its_setting(
        self, tmp_path, capsys, command, flag, setting, written, value
    ):
        argv = [command, flag, written.format(value)]
        if command == "estimate":
            ens_path, _ = self.generate(tmp_path)
            argv += ["--ensemble", str(ens_path), "--method", "mc"]
            argv += [] if flag == "--budget" else ["--budget", "10"]
        else:
            argv += ["--out-dir", str(tmp_path / "out")]
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        shown = self.SHOWN[value][setting == "alpha_level"]
        assert err[0].startswith(f"error: bad value {shown} for parameter {setting!r}: must be ")
        assert sorted(tmp_path.iterdir()) == before
