"""Command line and benchmark harness tests."""

import hashlib
import json
import math
import os
import subprocess
import sys
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
            ({"restart_cap": "deep"}, "bad controller value"),
            (["restart_cap"], "mapping"),
            ({"kappa": 0.3}, "unknown controller fields"),
            ({"grid_points": 10.5}, "unknown controller fields"),
            ({"restart_cap": 1.5}, "bad controller value: restart_cap must be an integer"),
            ({"restart_cap": True}, "bad controller value: restart_cap must be an integer"),
            ({"delta_tot": "0.05"}, "bad controller value: delta_tot must be a real number"),
            ({"epsilon_a": False}, "bad controller value: epsilon_a must be a real number"),
        ],
    )
    def test_rejects_bad_controller_overrides(self, controller, message):
        with pytest.raises(ValueError, match=message):
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
            ({"budgets": ["2000"]}, "budgets must be a list of positive integers"),
            ({"budgets": [2000.5]}, "budgets must be a list of positive integers"),
            ({"budgets": [True]}, "budgets must be a list of positive integers"),
            ({"budgets": [0, 10]}, "budgets must be a list of positive integers"),
            ({"repetitions": "3"}, "repetitions must be an integer"),
            ({"repetitions": 2.0}, "repetitions must be an integer"),
            ({"n_scenarios": "64"}, "n_scenarios must be an integer"),
            ({"n_scenarios": 0}, "n_scenarios must be an integer of at least 1"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"seed": -1}, "seed must be an integer of at least 0"),
            ({"methods": 5}, "methods must be a nonempty list"),
            ({"methods": "mc"}, "methods must be a nonempty list"),
            ({"ensemble": [1]}, "ensemble must be a mapping"),
        ],
    )
    def test_rejects_wrong_field_types(self, fields, message):
        with pytest.raises(ValueError, match=message):
            BenchConfig(**fields)

    def test_accepts_numpy_integers_and_lists(self):
        cfg = BenchConfig(budgets=[np.int64(300), 600], methods=["mc"], seed=np.int32(2))
        assert cfg.budgets == (300, 600)
        assert cfg.methods == ("mc",)

    def test_accepts_controller_overrides(self):
        cfg = BenchConfig(controller={"restart_cap": 5, "delta_tot": 0.1, "epsilon_a": 0})
        assert cfg.controller["restart_cap"] == 5


class TestRunBench:
    def test_row_count_and_sort_order(self, small_ensemble):
        cfg = BenchConfig(**TINY)
        rows, agg = run_bench(cfg, ens=small_ensemble)
        assert len(rows) == 2 * 2 * 3
        keys = [(r.method, r.budget) for r in rows]
        assert keys == sorted(keys)
        assert len(agg) == 4

    def test_aggregates_recompute_from_raw(self, small_ensemble):
        cfg = BenchConfig(**TINY)
        rows, agg = run_bench(cfg, ens=small_ensemble)
        for method, budget, mean_err, med_err, std_err, fail_rate in agg:
            errs = np.array(
                [r.abs_err for r in rows if r.method == method and r.budget == budget]
            )
            fails = np.array(
                [r.failed for r in rows if r.method == method and r.budget == budget]
            )
            assert mean_err == pytest.approx(float(np.mean(errs)), rel=1e-12)
            assert med_err == pytest.approx(float(np.median(errs)), rel=1e-12)
            assert std_err == pytest.approx(float(np.std(errs, ddof=1)), rel=1e-12)
            assert fail_rate == pytest.approx(float(np.mean(fails)), abs=1e-15)

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

    def test_parallel_run_is_byte_identical(self, small_ensemble, monkeypatch):
        cfg = BenchConfig(**TINY)
        serial_rows, serial_agg = run_bench(cfg, ens=small_ensemble)
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        par_rows, par_agg = run_bench(cfg, ens=small_ensemble)
        assert [format_row(r) for r in par_rows] == [format_row(r) for r in serial_rows]
        assert par_agg == serial_agg

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count_is_rejected_before_any_work(self, monkeypatch, value):
        monkeypatch.setenv(cli.WORKERS_ENV, value)

        def no_ensemble(*args, **kwargs):
            raise AssertionError("ensemble built before the worker count was checked")

        monkeypatch.setattr(stochfem, "build_scenario_ensemble", no_ensemble)
        with pytest.raises(ValueError, match=f"{cli.WORKERS_ENV} must be an integer of at least 1, got '{value}'"):
            run_bench(BenchConfig(**TINY))

    def test_bad_worker_count_leaves_no_output_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "abc")
        out = tmp_path / "X"
        argv = ["bench", "--n-scenarios", "8", "--budgets", "100", "--reps", "1", "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{cli.WORKERS_ENV} must be an integer" in err[0]
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
        assert raw[0] == ",".join(RAW_COLUMNS)
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

    @pytest.mark.parametrize(
        "controller, message",
        [
            ({"delta_tot": 0}, "delta_tot must lie in (0, 1)"),
            ({"spam": 1}, "unknown controller fields"),
            ({"restart_cap": 1.5}, "restart_cap must be an integer"),
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
            ({"repetitions": "3"}, "repetitions must be an integer"),
            ({"n_scenarios": "64"}, "n_scenarios must be an integer"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"methods": 5}, "methods must be a nonempty list"),
            ({"ensemble": {"n_elems": [3]}}, "bad value [3] for parameter 'n_elems'"),
            ([{"benchmark": "bar1d"}], "config must be a JSON object"),
            ("bar1d", "config must be a JSON object"),
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
            ({"ensemble": {"n_levels": 0}}, "parameter 'n_levels': must be an integer >= 1"),
            ({"ensemble": {"level_hi": math.inf}}, "parameter 'level_hi': must be a finite number"),
            ({"benchmark": "cantilever", "ensemble": {"traction": math.nan}},
             "parameter 'traction': must be a finite number"),
            ({"ensemble": {"n_elems": 2.7}}, "parameter 'n_elems': must be an integer"),
            ({"ensemble": {"n_levels": True}}, "parameter 'n_levels': must be an integer"),
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

    def test_estimate_config_accepts_only_the_fields_it_uses(self, tmp_path, capsys):
        ens_path, _ = self.generate(tmp_path, seed=2)
        cfg_path = tmp_path / "cfg.json"
        args = ["estimate", "--ensemble", str(ens_path), "--method", "mc", "--budget", "500"]
        cfg_path.write_text(json.dumps({"qoi": "compliance", "seed": 4, "controller": {"restart_cap": 2}}))
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

    @pytest.mark.parametrize("budgets, entry", [("100,x", "'x'"), ("100,,200", "''"), ("1.5", "'1.5'")])
    def test_bad_budgets_entry_names_the_flag(self, tmp_path, capsys, budgets, entry):
        rc = main(["bench", "--budgets", budgets, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: --budgets: {entry} is not an integer"
        assert not (tmp_path / "out").exists()
