import json
import math
import os

import numpy as np
import pytest

import ldpmean.sim as sim
from ldpmean.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    experiment_config_from_text,
    main,
    parse_kv,
)
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

    def test_quantized_check(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--epsilon", "1", "--k", "6")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["quantized_check"] == pytest.approx(
            payload["sign_fisher_info"], abs=1e-12)

    def test_bad_flags(self, capsys):
        assert run_cli(capsys, "fisher", "--epsilon", "-1")[0] == EXIT_USAGE
        assert run_cli(capsys, "fisher")[0] == EXIT_USAGE
        assert run_cli(capsys, "fisher", "--epsilon", "1", "--k", "5")[0] == EXIT_USAGE

    def test_repeat_output_identical(self, capsys):
        first = run_cli(capsys, "fisher", "--epsilon", "0.8", "--k", "4")
        second = run_cli(capsys, "fisher", "--epsilon", "0.8", "--k", "4")
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
                                "dual_value", "feasible", "worst_slack", "worst_column"}

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
        def no_columns(js, k):
            raise AssertionError("staircase columns built for an oversized level")

        monkeypatch.setattr("ldpmean.lp._column_bits", no_columns)
        code, out, err = run_cli(capsys, "lp-verify", "--k", k, "--epsilon", "1")
        assert_one_line_usage_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("eps", ["800", "inf"])
    def test_non_finite_staircase_entry_usage_error(self, capsys, eps):
        code, out, err = run_cli(capsys, "lp-verify", "--k", "4", "--epsilon", eps)
        assert code == EXIT_USAGE
        assert out == ""
        assert "epsilon" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "lp-verify", "--k", "4", "--epsilon", "1",
                                 f"--tol={tol}")
        assert_one_line_usage_error(code, err)
        assert out == ""
        assert "tolerance" in err


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

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(SMALL_CFG.encode() + b"# caf\xe9\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--seed", "7",
                               "--output", str(out))
        assert_one_line_usage_error(code, err)
        assert not out.exists()

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

    def test_sigma_limited_to_two_stage(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--kind", "three", "--epsilon", "1",
                             "--seed", "1", "--synthetic", "--theta", "1", "--n", "30000",
                             "--sigma", "2")
        assert code == EXIT_USAGE

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
