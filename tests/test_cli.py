import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ldpmean.cli as cli
import ldpmean.lp as lp
import ldpmean.sim as sim
from ldpmean.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    experiment_config_from_text,
    main,
    parse_kv,
)
from ldpmean.estimators import EstimatorConfig
from ldpmean.mechanisms import privacy_params
from ldpmean.quantized import sign_fisher_info

SMALL_CFG = """\
# lab-scale two-stage sweep
kind = two
epsilon = 1.0
theta_true = 0.0
n = 1500
replicates = 60
sweep = n1
sweep_values = 40,80
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_text(capsys, tmp_path, text, *flags):
    """Run ``simulate`` on config ``text``; return (exit code, stderr, CSV path)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                           "--output", str(out), *flags)
    return code, err, out


def _no_work(*_args, **_kwargs):
    raise AssertionError("a replicate ran before the run was rejected")


def _temporary_files(root):
    return [p for p in root.rglob("*") if p.name.endswith(".tmp")]


def assert_one_line_usage_error(code, err):
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("fisher", "--epsilon=--"),
    ("estimate", "--epsilon=1", "--seed=3", "--synthetic", "--n=50", "--n1=--"),
    ("simulate", "any.cfg", "--seed=--", "--output=o.csv"),
])
def test_double_dash_option_value_is_usage_error(capsys, argv):
    assert_one_line_usage_error(*run_cli(capsys, *argv)[::2])


@pytest.mark.parametrize("argv, message", [
    (("estimate", "--epsilon", "1", "--seed", "3", "--synthetic", "--n", "50",
      "--theta0", "-1e-3"), None),
    (("estimate", "--epsilon", "1", "--seed", "3", "--synthetic", "--n", "50",
      "--theta0", "-1E3"), None),
    (("fisher", "--epsilon", "1", "--sigma", "-1e-3"), "sigma must be > 0"),
    (("fisher", "--epsilon", "-1E-3"), "epsilon must be >= 0"),
    (("fisher", "--epsilon", "-inf"), "epsilon must be >= 0"),
    (("fisher", "--epsilon", "1", "--sigma", "-nan"), "invalid real value"),
])
def test_negative_exponent_value_is_a_number(capsys, argv, message):
    # argparse's own pattern reads "-1e-3" as an option: "expected one argument"
    code, _, err = run_cli(capsys, *argv)
    if message is None:
        assert code == EXIT_OK, err
    else:
        assert_one_line_usage_error(code, err)
        assert message in err


class TestFisher:
    def test_unit_budget(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--epsilon", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        fi = sign_fisher_info(privacy_params(1.0))
        assert payload["sign_fisher_info"] == pytest.approx(fi, abs=1e-9)
        assert payload["optimal_variance"] == pytest.approx(1.0 / fi, abs=1e-6)
        assert payload["t_eps"] == pytest.approx(0.4621171573, abs=1e-9)

    def test_sigma_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--epsilon", "1", "--sigma", "2")
        assert code == EXIT_OK
        assert json.loads(out)["optimal_variance"] == pytest.approx(29.4222365, abs=1e-4)

    def test_zero_budget_inf_sentinel(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--epsilon", "0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sign_fisher_info"] == 0.0
        assert payload["optimal_variance"] == "inf"

    def test_square_of_sigma_underflows(self, capsys):
        code, out, err = run_cli(capsys, "fisher", "--epsilon", "1", "--sigma", "1e-170")
        assert code == EXIT_OK, err
        assert json.loads(out)["optimal_variance"] == 0.0

    @pytest.mark.parametrize("sigma", ["inf", "-inf", "nan"])
    def test_non_finite_sigma_is_usage_error(self, capsys, sigma):
        code, out, err = run_cli(capsys, "fisher", "--epsilon", "1", "--sigma", sigma)
        assert_one_line_usage_error(code, err)
        assert out == ""

    def test_bad_flags(self, capsys):
        assert run_cli(capsys, "fisher", "--epsilon", "-1")[0] == EXIT_USAGE
        assert run_cli(capsys, "fisher")[0] == EXIT_USAGE
        # --k is retired: the sign bit's level-k rows are tested on row_information_many
        assert run_cli(capsys, "fisher", "--epsilon", "1", "--k", "5")[0] == EXIT_USAGE
        assert run_cli(capsys, "fisher", "--epsilon", "1", "--k", "8")[0] == EXIT_USAGE

    def test_repeat_output_identical(self, capsys):
        first = run_cli(capsys, "fisher", "--epsilon", "0.8", "--sigma", "2")
        second = run_cli(capsys, "fisher", "--epsilon", "0.8", "--sigma", "2")
        assert first == second


class TestLpVerify:
    def test_chain_holds(self, capsys):
        code, out, _ = run_cli(capsys, "lp-verify", "--k", "4", "--epsilon", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["primal_value"] == pytest.approx(payload["dual_value"], abs=1e-8)
        assert payload["primal_value"] == pytest.approx(0.1359515956, abs=1e-8)
        assert set(payload) == {"k", "epsilon", "primal_value", "candidate_value",
                                "dual_value", "feasible", "worst_slack", "worst_column",
                                "simplex_pivots"}
        assert type(payload["simplex_pivots"]) is int and payload["simplex_pivots"] >= 1

    def test_certificate_fails_at_large_budget(self, capsys):
        code, out, _ = run_cli(capsys, "lp-verify", "--k", "8", "--epsilon", "3")
        assert code == EXIT_VERIFY
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["worst_slack"] < 0.0

    def test_odd_level_usage_error(self, capsys):
        assert run_cli(capsys, "lp-verify", "--k", "5", "--epsilon", "1")[0] == EXIT_USAGE

    def test_repeat_output_identical(self, capsys):
        first = run_cli(capsys, "lp-verify", "--k", "4", "--epsilon", "0.5")
        second = run_cli(capsys, "lp-verify", "--k", "4", "--epsilon", "0.5")
        assert first == second

    def test_oversized_level_usage_error(self, capsys):
        assert run_cli(capsys, "lp-verify", "--k", "14", "--epsilon", "1")[0] == EXIT_USAGE

    @pytest.mark.parametrize("k", ["14", "16", "20"])
    def test_oversized_level_rejected_before_building(self, capsys, monkeypatch, k):
        def no_columns(k, s):
            raise AssertionError("staircase columns built for an oversized level")

        monkeypatch.setattr("ldpmean.lp._interval_program", no_columns)
        code, out, err = run_cli(capsys, "lp-verify", "--k", k, "--epsilon", "1")
        assert_one_line_usage_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("eps", ["800", "inf"])
    def test_non_finite_staircase_entry_usage_error(self, capsys, eps):
        code, out, err = run_cli(capsys, "lp-verify", "--k", "4", "--epsilon", eps)
        assert code == EXIT_USAGE
        assert out == ""
        assert "epsilon" in err and "Traceback" not in err

    @pytest.mark.parametrize("eps", ["17", "20", "30", "40", "60", "100", "350"])
    def test_sign_bit_certificate_holds_at_large_budgets(self, capsys, eps):
        # at k = 2 the sign bit is the only non-trivial channel and its certificate is
        # tight; the slack's round-off grows like e^eps, not like (2/pi) t_eps^2
        code, out, _ = run_cli(capsys, "lp-verify", "--k", "2", "--epsilon", eps)
        assert code == EXIT_OK
        assert json.loads(out)["feasible"] is True

    def test_chain_gap_is_relative(self, capsys, monkeypatch):
        # at eps = 1e-4 every value is about 1.6e-9, under the absolute gap of 1e-8
        # that CHAIN_TOL once was; a closed form off by 1e-6 relative must still fail
        code, _, _ = run_cli(capsys, "lp-verify", "--k", "8", "--epsilon", "1e-4")
        assert code == EXIT_OK
        monkeypatch.setattr(lp, "sign_fisher_info",
                            lambda params: sign_fisher_info(params) * (1.0 + 1e-6))
        code, out, _ = run_cli(capsys, "lp-verify", "--k", "8", "--epsilon", "1e-4")
        assert code == EXIT_VERIFY
        assert json.loads(out)["feasible"] is True


class TestParserReuse:
    CALLS = [("lp-verify", "--k", "4", "--epsilon", "1"),
             ("fisher", "--epsilon", "0.8", "--sigma", "2"),
             ("lp-verify", "--k", "5", "--epsilon", "1"),
             ("estimate", "--epsilon", "1", "--seed", "42", "--synthetic", "--n", "5000"),
             ("lp-verify", "--k", "4", "--epsilon", "1")]

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        reused = [run_cli(capsys, *argv)[:2] for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv)[:2])
        assert [code for code, _ in reused] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
        assert reused == fresh

    def test_build_parser_returns_a_new_parser(self):
        # perfbench's tracer wraps parse_args on each parser build_parser returns
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [("fisher", "--epsilon", "1"),
                                      ("lp-verify", "--k", "4", "--epsilon", "1")])
    def test_closed_pipe_is_an_io_error(self, argv):
        # the read end is closed before the child starts, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, "-m", "ldpmean", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_IO
        assert proc.stderr.decode().splitlines() == ["error: standard output was closed"]


class TestConfigParsing:
    def test_round_trip(self):
        config = experiment_config_from_text(SMALL_CFG, master_seed=5)
        assert config.kind == "two"
        assert config.sweep_values == (40.0, 80.0)
        assert config.replicates == 60

    def test_replicates_override(self):
        config = experiment_config_from_text(SMALL_CFG, master_seed=5,
                                             replicates_override=10)
        assert config.replicates == 10

    def test_malformed_lines(self):
        with pytest.raises(Exception):
            parse_kv("kind two\n")
        with pytest.raises(Exception):
            parse_kv("kind = two\nkind = one\n")

    def test_unknown_and_missing_keys(self):
        with pytest.raises(Exception):
            experiment_config_from_text(SMALL_CFG + "bogus = 1\n", master_seed=5)
        with pytest.raises(Exception):
            experiment_config_from_text("kind = two\n", master_seed=5)

    def test_infinite_epsilon_accepted(self):
        text = SMALL_CFG.replace("epsilon = 1.0", "epsilon = inf")
        assert experiment_config_from_text(text, master_seed=5).epsilon == math.inf


class TestSimulate:
    @pytest.mark.parametrize("kind, n, n1", [("one", 8, None), ("two", 2000, 8)])
    def test_mean_bit_one_ulp_inside_the_clamp_is_finite(self, tmp_path, capsys, kind, n, n1):
        # eight-sample groups reach z_bar = -0.75, one ulp inside t_eps = 0.7500000000000001
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind = {kind}\nepsilon = 1.9459101490553135\ntheta_true = 0\n"
                       f"theta0 = 0\nn = {n}\nreplicates = 1000\nsweep = n\n"
                       f"sweep_values = {n}\n" + (f"n1 = {n1}\n" if n1 else ""))
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--seed", "1", "--output", str(out))
        assert code == EXIT_OK, err
        row = out.read_text().splitlines()[1].split(",")
        assert all(math.isfinite(float(value)) for value in row[1:])

    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                             "--output", str(out))
        assert code == EXIT_OK
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("sweep_name,sweep_value,n,replicates,scaled_mse")
        assert len(lines) == 3
        manifest = (tmp_path / "out.csv.manifest").read_text()
        assert "# master_seed = 7" in manifest
        assert "sweep_values = 40.0,80.0" in manifest
        # no temporary file is left beside the outputs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest",
                                                              "run.cfg"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(a))
        run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_reproduces_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        first = tmp_path / "first.csv"
        run_cli(capsys, "simulate", str(cfg), "--seed", "11", "--output", str(first))
        manifest = tmp_path / "first.csv.manifest"
        second = tmp_path / "second.csv"
        code, _, _ = run_cli(capsys, "simulate", str(manifest), "--seed", "11",
                             "--output", str(second))
        assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        a, b = tmp_path / "w1.csv", tmp_path / "w3.csv"
        run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(a))
        run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(b),
                "--workers", "3")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_usable_cpu_runs_in_process(self, tmp_path, capsys, monkeypatch, affinity):
        # the pool is capped at the CPUs this process may run on, or, where the
        # platform cannot tell, at the installed ones
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(a))
        if affinity:
            monkeypatch.setattr(sim.os, "sched_getaffinity", lambda _pid: {0})
        else:
            monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(sim.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(sim, "_pool", _no_work)
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(b),
                             "--workers", "2")
        assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_replicates_override_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out.csv"
        run_cli(capsys, "simulate", str(cfg), "--seed", "7", "--output", str(out),
                "--replicates", "20")
        assert ",20," in out.read_text().splitlines()[1]

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "absent.cfg"),
                               "--seed", "7", "--output", str(out))
        assert code == EXIT_IO
        assert not out.exists()

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind two epsilon\n")
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                             "--output", str(tmp_path / "out.csv"))
        assert code == EXIT_USAGE

    def test_budget_exceeded(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(SMALL_CFG + "max_total_draws = 100\n")
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                             "--output", str(out))
        assert code == EXIT_BUDGET
        assert not out.exists()

    def test_seed_is_mandatory(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        code, _, _ = run_cli(capsys, "simulate", str(cfg),
                             "--output", str(tmp_path / "out.csv"))
        assert code == EXIT_USAGE

    def test_zero_sample_size_is_usage_error(self, tmp_path, capsys):
        code, err, out = simulate_text(capsys, tmp_path, SMALL_CFG.replace("n = 1500", "n = 0"))
        assert_one_line_usage_error(code, err)
        assert "n must be >= 1" in err
        assert not out.exists()

    def test_non_integral_sweep_value_is_usage_error(self, tmp_path, capsys):
        text = SMALL_CFG.replace("sweep = n1", "sweep = n").replace(
            "sweep_values = 40,80", "sweep_values = 2000,2000.7")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "2000.7" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        code, err, out = simulate_text(capsys, tmp_path, SMALL_CFG, "--workers", workers)
        assert_one_line_usage_error(code, err)
        assert "workers" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["theta0 = nan", "h = nan", "sigma = nan",
                                      "range_hi = nan"])
    def test_nan_config_float_is_usage_error(self, tmp_path, capsys, line):
        code, err, out = simulate_text(capsys, tmp_path, SMALL_CFG + line + "\n")
        assert_one_line_usage_error(code, err)
        assert repr(line.split(" = ")[0]) in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("theta_true", "inf"), ("theta0", "-inf"),
                                            ("h", "inf"), ("sigma", "inf"),
                                            ("range_lo", "-inf"), ("range_hi", "inf")])
    def test_infinite_config_float_is_usage_error(self, tmp_path, capsys, key, value):
        kept = [line for line in SMALL_CFG.splitlines() if line.split(" = ")[0] != key]
        text = "\n".join(kept + [f"{key} = {value}"]) + "\n"
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "must be finite" in err
        assert not out.exists()

    def test_infinite_sweep_value_is_usage_error(self, tmp_path, capsys):
        text = SMALL_CFG.replace("sweep = n1", "sweep = theta0").replace(
            "sweep_values = 40,80", "sweep_values = 0.0,inf")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [("sweep_values = 40,80", "sweep_values = 40,5000"),
                                      ("kind = two", "kind = three")])
    def test_pilot_too_large_at_a_late_point_is_usage_error(self, tmp_path, capsys, edit):
        # the second point's n1 (or the three-stage n0 = 15000) exceeds n = 1500
        code, err, out = simulate_text(capsys, tmp_path, SMALL_CFG.replace(*edit),
                                       "--workers", "2")
        assert_one_line_usage_error(code, err)
        assert "n1" in err
        assert not out.exists()

    def test_nan_sweep_value_is_usage_error(self, tmp_path, capsys):
        text = SMALL_CFG.replace("sweep = n1", "sweep = theta0").replace(
            "sweep_values = 40,80", "sweep_values = 0.0,nan")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "'sweep_values'" in err
        assert not out.exists()

    def test_replicate_cap_is_usage_error_before_any_work(self, tmp_path, capsys,
                                                          monkeypatch):
        # n = 2 keeps 2**32 + 1 replicates inside the default draw budget
        monkeypatch.setattr(sim, "_run_block", _no_work)
        text = SMALL_CFG.replace("n = 1500", "n = 2\nn1 = 1").replace(
            "sweep = n1", "sweep = theta0").replace("sweep_values = 40,80", "sweep_values = 0")
        code, err, out = simulate_text(capsys, tmp_path, text,
                                       "--replicates", str(2 ** 32 + 1), "--workers", "2")
        assert_one_line_usage_error(code, err)
        assert "replicates" in err
        assert not out.exists()

    def test_empty_sweep_list_is_usage_error(self, tmp_path, capsys):
        text = SMALL_CFG.replace("sweep_values = 40,80", "sweep_values = ,")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "empty list" in err
        assert not out.exists()

    def test_sample_size_beyond_float_range_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "_run_block", _no_work)
        text = SMALL_CFG.replace("n = 1500", f"n = {10 ** 400}")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "float64" in err
        assert not out.exists()

    def test_one_stage_theory_overflows_to_inf_at_tiny_budget(self, tmp_path, capsys):
        # the exact one-stage variance, about 6.3e600, exceeds the largest double
        text = ("kind = two\nepsilon = 1e-300\ntheta_true = 0\nn = 100\nn1 = 10\n"
                "replicates = 2\nsweep = theta0\nsweep_values = 0\n")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert code == EXIT_OK, err
        lines = out.read_text().splitlines()
        assert dict(zip(lines[0].split(","), lines[1].split(",")))["theory_one_stage"] == "inf"

    def test_one_stage_theory_stays_finite_at_tiny_sigma(self, tmp_path, capsys):
        # the unit-scale variance overflows and sigma^2 underflows; a 100-digit
        # mpmath value of the scaled variance is 2.40575e-90
        text = ("kind = two\nepsilon = 1e-8\ntheta_true = 26e-200\nsigma = 1e-200\n"
                "theta0 = 0\nn = 100\nn1 = 10\nreplicates = 2\nsweep = theta0\n"
                "sweep_values = 0\n")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert code == EXIT_OK, err
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["theory_one_stage"]) == pytest.approx(2.40575e-90, rel=1e-6)

    def test_square_of_sigma_underflows(self, tmp_path, capsys):
        code, err, out = simulate_text(capsys, tmp_path, SMALL_CFG + "sigma = 1e-200\n",
                                       "--replicates", "4")
        assert code == EXIT_OK, err
        row = out.read_text().splitlines()[1].split(",")
        assert row[-2:] == ["0", "0"]  # theory_optimal, theory_one_stage: sigma^2 underflows

    def test_overflowing_shifted_mean_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "_run_block", _no_work)
        text = SMALL_CFG.replace("theta_true = 0.0", "theta_true = 1.7e308\nh = 1.7e308").replace(
            "n = 1500", "n = 8\nn1 = 2").replace("sweep = n1", "sweep = theta0").replace(
            "sweep_values = 40,80", "sweep_values = 0")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "overflows" in err
        assert not out.exists()

    def test_tiny_sigma_far_from_zero_runs(self, tmp_path, capsys):
        # theta / sigma and theta0 / sigma would overflow; no estimator forms them
        text = ("epsilon = 1.0\nsweep = n1\nsweep_values = 1\nkind = two\n"
                "theta_true = 1e200\ntheta0 = 1e200\nsigma = 1e-200\nn = 1500\n"
                "replicates = 60\n")
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert code == EXIT_OK, err
        assert err == ""
        row = out.read_text().splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in row[1:])

    @pytest.mark.parametrize("body", [
        # one stage clamps at theta0 = 0: each error is 1e200 and its square overflows
        "kind = one\ntheta_true = 1e200\nn = 1500\nreplicates = 60\n",
        # the three-stage estimator starts inside [range_lo, range_hi] = [0, 128]
        "kind = three\ntheta_true = -1e200\nn = 16000\nreplicates = 60\n",
        # n * (1e152)^2 is finite, but the sum of 10^6 squared errors is not
        "kind = one\ntheta_true = 1e152\nn = 2\nreplicates = 1000000\n",
    ])
    def test_overflowing_error_is_usage_error_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, body):
        monkeypatch.setattr(sim, "_run_block", _no_work)
        text = "epsilon = 1.0\nsweep = n1\nsweep_values = 1\n" + body
        code, err, out = simulate_text(capsys, tmp_path, text)
        assert_one_line_usage_error(code, err)
        assert "overflow" in err
        assert not out.exists()

    def test_far_but_finite_error_runs(self, tmp_path, capsys):
        # a squared error of 1e200 times n = 1500 stays finite, so the run goes ahead
        text = SMALL_CFG.replace("kind = two", "kind = one").replace(
            "theta_true = 0.0", "theta_true = 1e100").replace("sweep = n1", "sweep = n").replace(
            "sweep_values = 40,80", "sweep_values = 1500")
        code, err, out = simulate_text(capsys, tmp_path, text, "--replicates", "4")
        assert code == EXIT_OK, err
        row = out.read_text().splitlines()[1].split(",")
        assert row[4:7] == ["1.5e+203"] * 3  # every estimate clamps at theta0 = 0

    def test_unallocatable_draw_is_budget_error(self, tmp_path, capsys):
        # 8e15 bytes per replicate: beyond any address space, so the allocation fails at once
        text = SMALL_CFG.replace("kind = two", "kind = one").replace(
            "n = 1500", f"n = {10 ** 15}").replace("sweep = n1", "sweep = theta0").replace(
            "sweep_values = 40,80", "sweep_values = 0") + f"max_total_draws = {10 ** 17}\n"
        code, err, out = simulate_text(capsys, tmp_path, text, "--replicates", "2")
        assert code == EXIT_BUDGET
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
        assert _temporary_files(tmp_path) == []

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(SMALL_CFG.encode() + b"# caf\xe9\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                               "--output", str(out))
        assert_one_line_usage_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("brk", ["\n", "\u2028"])
    def test_multi_line_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     brk):
        # the manifest records the path on a comment line: a line break would inject a key
        monkeypatch.setattr(sim, "_run_block", _no_work)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                               "--output", str(tmp_path / f"p{brk}n1 = 7"))
        assert_one_line_usage_error(code, err)
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("layout", ["missing_dir", "csv_is_dir", "manifest_is_dir"])
    def test_unwritable_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     layout):
        monkeypatch.setattr(sim, "_run_block", _no_work)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out" / "out.csv"
        if layout != "missing_dir":
            out.parent.mkdir()
            (out if layout == "csv_is_dir" else out.with_name("out.csv.manifest")).mkdir()
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                               "--output", str(out))
        assert code == EXIT_IO
        assert err.startswith("error: cannot write output")
        assert not out.is_file()
        assert _temporary_files(tmp_path) == []

    def test_failed_rename_leaves_no_csv_and_no_temporary_file(self, tmp_path, capsys,
                                                                monkeypatch):
        replace = os.replace

        def failing_replace(src, dst):
            if str(dst).endswith(".csv"):
                raise PermissionError(f"cannot replace {dst}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        code, err, out = simulate_text(capsys, tmp_path, SMALL_CFG, "--replicates", "4")
        assert code == EXIT_IO
        assert err.startswith("error: cannot write output")
        assert not out.exists()
        assert _temporary_files(tmp_path) == []

    def test_bundled_config_parses(self, capsys):
        import ldpmean
        from pathlib import Path
        for name in ("fig1_left.cfg", "fig1_right.cfg", "fig2.cfg"):
            text = (Path(ldpmean.__file__).parent / "configs" / name).read_text()
            config = experiment_config_from_text(text, master_seed=1)
            assert config.replicates == 50000


class TestEstimate:
    def test_mean_bit_one_ulp_inside_the_clamp_is_finite(self, capsys):
        # seven of eight bits are -1: z_bar = -0.75, one ulp inside t_eps = 0.7500000000000001
        code, out, err = run_cli(capsys, "estimate", "--kind", "one",
                                 "--epsilon", "1.9459101490553135", "--seed", "8",
                                 "--synthetic", "--n", "8")
        assert code == EXIT_OK, err
        assert json.loads(out)["theta_hat"] == pytest.approx(-8.25808370321511, rel=1e-12)

    def test_synthetic_overflow_is_one_usage_line(self, capsys):
        # sigma * x + theta overflows for some draws; no numpy warning may escape
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--synthetic", "--n", "10", "--sigma", "1e308",
                                 "--theta", "1e308")
        assert code == EXIT_USAGE
        assert err == "usage error: data values must be finite\n"
        assert out == ""

    def test_defaults_are_the_config_defaults(self, capsys, monkeypatch):
        # unset config flags parse to None, and the estimate gets the config's own defaults
        args = build_parser().parse_args(["estimate", "--epsilon", "1", "--seed", "1",
                                          "--synthetic"])
        assert [getattr(args, f.name) for f in dataclasses.fields(EstimatorConfig)] == [
            1.0, None, None, None, None, None, None, None]
        configs, estimate = [], cli.estimate

        def recording_estimate(kind, data, cfg, rng):
            configs.append(cfg)
            return estimate(kind, data, cfg, rng)

        monkeypatch.setattr(cli, "estimate", recording_estimate)
        common = ("estimate", "--epsilon", "1", "--seed", "1", "--synthetic", "--n", "900")
        assert run_cli(capsys, *common)[0] == EXIT_OK
        assert run_cli(capsys, *common, "--n1", "30", "--sigma", "2")[0] == EXIT_OK
        assert configs == [EstimatorConfig(epsilon=1.0),
                           EstimatorConfig(epsilon=1.0, n1=30, sigma=2.0)]

    def test_config_flags_are_the_config_fields(self):
        # the parser declares these flags by hand, so that building it loads no dataclasses
        sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices["estimate"]._actions
        fields = dataclasses.fields(EstimatorConfig)
        names = {f.name for f in fields}
        flags = [a for a in actions if a.dest in names]
        assert [a.option_strings for a in flags] == [["--" + f.name.replace("_", "-")]
                                                     for f in fields]
        assert [a.dest for a in actions if a.dest not in names] == [
            "help", "kind", "seed", "input", "synthetic", "theta", "n"]
        for action, f in zip(flags, fields):
            assert action.type is cli._converter(f), f.name
            # a flag is required exactly where its field has no default; unset, it is None
            assert action.required is (f.default is dataclasses.MISSING), f.name
            assert action.default is None, f.name

    def test_unallocatable_draw_is_budget_error(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--kind", "one", "--epsilon", "1",
                                 "--seed", "1", "--synthetic", "--n", str(10 ** 15))
        assert code == EXIT_BUDGET
        assert err.startswith("error:") and err.count("\n") == 1
        assert out == ""

    def test_synthetic_reproducible(self, capsys):
        args = ("estimate", "--epsilon", "1", "--seed", "42", "--synthetic",
                "--theta", "0.5", "--n", "5000")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        payload = json.loads(out1)
        assert abs(payload["theta_hat"] - 0.5) < 0.25
        assert len(payload["stages"]) == 2
        assert len(payload["clamped_flags"]) == 2

    def test_file_input_large_sample(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        values = np.random.default_rng(1234).standard_normal(10 ** 5)
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        code, out, _ = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "9",
                               "--theta0", "0", "--input", str(path))
        assert code == EXIT_OK
        # 3 sigma of sqrt(7.356 / 1e5)
        assert abs(json.loads(out)["theta_hat"]) < 0.03

    def test_three_stage_kind(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--kind", "three", "--epsilon", "1",
                               "--seed", "3", "--synthetic", "--theta", "84.5",
                               "--n", "40000", "--n0", "8000", "--n1", "500")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["stages"]) == 3
        assert abs(payload["theta_hat"] - 84.5) < 0.5

    def test_pilot_larger_than_sample_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                             "--synthetic", "--theta", "0", "--n", "100",
                             "--n1", "100")
        assert code == EXIT_USAGE

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                             "--input", str(tmp_path / "absent.txt"))
        assert code == EXIT_IO

    def test_unparsable_data_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n")
        code, _, _ = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                             "--input", str(path))
        assert code == EXIT_USAGE

    def test_synthetic_requires_n(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                             "--synthetic")
        assert code == EXIT_USAGE

    def test_empty_data_file_is_usage_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("\n  \n")
        monkeypatch.setattr(cli, "estimate", _no_work)
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--input", str(path))
        assert_one_line_usage_error(code, err)
        assert "no data values" in err
        assert out == ""

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_n_is_usage_error(self, monkeypatch, capsys, n):
        monkeypatch.setattr(cli, "synthetic_sample", _no_work)
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--synthetic", "--n", n)
        assert_one_line_usage_error(code, err)
        assert "--n must be >= 1" in err
        assert out == ""

    def test_tiny_sigma_far_from_zero_is_finite(self, capsys):
        # theta0 / sigma would overflow; each stage inverts in data units instead
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--synthetic", "--n", "1000", "--theta", "1e200",
                                 "--theta0", "1e200", "--sigma", "1e-200")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["theta_hat"] == 1e200
        assert all(math.isfinite(s) for s in payload["stages"])

    def test_sigma_for_every_kind(self, capsys):
        for kind in ("one", "three"):
            code, out, err = run_cli(capsys, "estimate", "--kind", kind, "--epsilon", "1",
                                     "--seed", "1", "--synthetic", "--theta", "1",
                                     "--n", "30000", "--sigma", "2")
            assert code == EXIT_OK, err
            # sd of the estimate is about sqrt(4 * 7.4 / 15000) = 0.044 or less
            assert abs(json.loads(out)["theta_hat"] - 1.0) < 0.3

    def test_bisection_near_the_largest_double(self, capsys):
        # (lo + hi) / 2 would overflow to inf at every midpoint
        code, out, err = run_cli(capsys, "estimate", "--kind", "three", "--epsilon", "1",
                                 "--seed", "1", "--synthetic", "--n", "30000",
                                 "--theta", "1.5e308", "--range-lo", "1e308",
                                 "--range-hi", "1.7e308")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert abs(payload["theta_hat"] - 1.5e308) < 1e305
        assert all(math.isfinite(s) for s in payload["stages"])

    @pytest.mark.parametrize("kind", ["one", "two"])
    def test_overflowing_estimate_is_usage_error(self, tmp_path, capsys, kind):
        # a stage moves up to 38 sigmas from its center, past the largest double
        path = tmp_path / "data.txt"
        path.write_text("1.7e308\n" * 2000)
        code, out, err = run_cli(capsys, "estimate", "--kind", kind, "--epsilon", "1",
                                 "--seed", "1", "--input", str(path),
                                 "--sigma", "1.7e307", "--theta0", "1.5e308")
        assert_one_line_usage_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_data_line_is_usage_error(self, tmp_path, capsys, bad):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(["0.5"] * 50 + [bad] + ["-0.5"] * 50) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--input", str(path))
        assert_one_line_usage_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("flag", ["--theta", "--theta0", "--sigma", "--range-lo",
                                      "--range-hi"])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--synthetic", "--n", "5000", f"{flag}={value}")
        assert_one_line_usage_error(code, err)
        assert out == ""
        assert flag in err

    def test_three_stage_sample_below_n0_is_usage_error(self, capsys):
        # the default n0 is 15000; this used to end in a TypeError traceback
        code, out, err = run_cli(capsys, "estimate", "--kind", "three", "--epsilon", "1",
                                 "--seed", "1", "--synthetic", "--n", "100")
        assert_one_line_usage_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("flag", ["--theta", "--theta0"])
    def test_nan_flag_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "estimate", "--epsilon", "1", "--seed", "1",
                                 "--synthetic", "--n", "5000", flag, "nan")
        assert_one_line_usage_error(code, err)
        assert out == ""
        assert flag in err
