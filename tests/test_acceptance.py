"""Acceptance gate: every release-blocking check, one line of output each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.  The Monte Carlo criteria use frozen master seeds and
pinned replicate counts, so they are deterministic; expected bands come
from the closed-form variance targets, never from previous runs.
"""

import contextlib
import math
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from ldpmean.estimators import (
    EstimatorConfig,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    three_stage,
)
from ldpmean.lp import (
    build_staircase_lp,
    check_dual_feasibility,
    dual_certificate,
    sign_candidate,
    solve_primal,
)
from ldpmean.mechanisms import privacy_params
from ldpmean.numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile
from ldpmean.quantized import build_quantized_model, sign_fisher_info
from ldpmean.sim import ExperimentConfig, _run_block, results_to_csv, run_experiment
from oracles import (
    certificate_margin_lower,
    certificate_margin_upper,
    interior_stationarity,
    staircase_matrix,
)

OPT_VAR = 7.356  # optimal-variance level used for the Monte Carlo bands


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


def test_01_closed_form_information():
    with criterion(1, "closed-form Fisher information"):
        # independent oracle: 50-digit arithmetic on 2/pi ((e-1)/(e+1))^2
        getcontext().prec = 50
        pi = Decimal("3.14159265358979323846264338327950288419716939937511")
        e = Decimal(1).exp()
        t = (e - 1) / (e + 1)
        info_oracle = float(2 / pi * t * t)
        var_oracle = float(pi / 2 * ((e + 1) / (e - 1)) ** 2)
        params = privacy_params(1.0)
        assert abs(sign_fisher_info(params) - info_oracle) <= 1e-6
        assert abs(optimal_asymptotic_variance(params, 1.0) - var_oracle) <= 1e-6
        # far tighter in practice
        assert sign_fisher_info(params) == pytest.approx(info_oracle, abs=1e-14)
        assert optimal_asymptotic_variance(params, 1.0) == pytest.approx(
            var_oracle, abs=1e-12)


def test_02_equality_chain_small_levels():
    with criterion(2, "primal = candidate = dual at small levels"):
        start = time.perf_counter()
        for k in (2, 4, 6, 8):
            for eps in (0.1, 0.5, 1.0):
                params = privacy_params(eps)
                closed_form = (2.0 / math.pi) * params.t_eps ** 2
                lp = build_staircase_lp(k, params)
                assert abs(solve_primal(lp).value - closed_form) <= 1e-8
                cand = sign_candidate(lp)
                assert np.allclose(staircase_matrix(lp) @ cand.alpha, 1.0, atol=1e-12)
                assert abs(cand.value - closed_form) <= 1e-8
                beta = dual_certificate(k, params)
                assert abs(float(beta.sum()) - closed_form) <= 1e-12
                assert check_dual_feasibility(k, params).feasible
        assert time.perf_counter() - start < 10.0


def test_03_dual_certificate_sweep():
    with criterion(3, "dual certificate sweep"):
        start = time.perf_counter()
        for k in range(2, 17, 2):
            for eps in (0.1, 0.25, 0.5, 0.75, 1.0, 1.04):
                assert check_dual_feasibility(k, privacy_params(eps)).feasible, (k, eps)
        report = check_dual_feasibility(8, privacy_params(3.0))
        assert not report.feasible
        assert report.worst_slack < 0.0
        assert time.perf_counter() - start < 30.0


def test_04_inequality_grids():
    with criterion(4, "closed-form inequality grids"):
        start = time.perf_counter()
        # density increments strictly increasing up to level 64
        for k in range(2, 65, 2):
            assert np.all(np.diff(build_quantized_model(k).y) > 0)
        # quadratic lower bound on the central density gap, 501 points
        for x in np.linspace(0.0, 0.5, 501):
            gap = std_normal_pdf(0.0) - std_normal_pdf(std_normal_quantile(0.5 + x))
            assert gap - math.sqrt(math.pi / 2.0) * x * x >= -1e-12
        # certificate margins on their 101 x 101 boundary grids
        x = np.linspace(0.0, 0.5, 101)[:, None]
        y = np.linspace(0.0, 0.5, 101)[None, :]
        disk = math.pi * x ** 2 + math.pi * y ** 2 <= 1.0
        for t in (0.1, 0.3, 0.4808):
            vals = certificate_margin_upper(x, y, t)
            assert vals[np.broadcast_to(disk, vals.shape)].min() >= -1e-12
        for t in (0.1, 0.3, 0.5):
            vals = certificate_margin_lower(x, y, t)
            assert vals[np.broadcast_to(disk, vals.shape)].min() >= -1e-12
        # strict positivity of the stationarity form at the threshold rate
        a = np.linspace(0.0, 0.5, 101)[1:, None]
        b = np.linspace(0.0, 1.0, 201)[None, :]
        g = interior_stationarity(a, b, 0.5)
        assert g[np.broadcast_to(b >= a, g.shape)].min() > 0.0
        assert time.perf_counter() - start < 5.0


@pytest.mark.slow
def test_05_two_stage_efficiency_full():
    with criterion(5, "two-stage efficiency at 50000 replicates"):
        config = ExperimentConfig(
            kind="two", epsilon=1.0, theta_true=0.0, theta0=0.0, n=10 ** 5,
            n1=3000, replicates=50_000, master_seed=50_801,
            sweep_name="n1", sweep_values=(3000.0,))
        result = run_experiment(config, workers=2)[0]
        print(f"  scaled MSE = {result.scaled_mse:.4f}  "
              f"CI [{result.ci_lo:.4f}, {result.ci_hi:.4f}]")
        assert 6.62 <= result.scaled_mse <= 8.09  # +-10% of 7.356
        assert result.clamp_rate == 0.0


def test_05s_two_stage_efficiency_smoke():
    with criterion(5, "two-stage efficiency smoke (2000 replicates)"):
        start = time.perf_counter()
        config = ExperimentConfig(
            kind="two", epsilon=1.0, theta_true=0.0, theta0=0.0, n=10 ** 5,
            n1=3000, replicates=2000, master_seed=50_802,
            sweep_name="n1", sweep_values=(3000.0,))
        result = run_experiment(config, workers=2)[0]
        elapsed = time.perf_counter() - start
        print(f"  scaled MSE = {result.scaled_mse:.4f} in {elapsed:.1f}s")
        assert abs(result.scaled_mse - OPT_VAR) <= 0.25 * OPT_VAR
        assert elapsed < 10.0


@pytest.mark.slow
def test_06_one_stage_variance_formula():
    with criterion(6, "one-stage variance formula vs Monte Carlo"):
        params = privacy_params(1.0)
        predicted = one_stage_asymptotic_variance(0.0, 1.0, params)
        config = ExperimentConfig(
            kind="one", epsilon=1.0, theta_true=0.0, theta0=1.0, n=10 ** 5,
            replicates=20_000, master_seed=50_803,
            sweep_name="theta0", sweep_values=(1.0,))
        result = run_experiment(config, workers=2)[0]
        print(f"  MC {result.scaled_mse:.3f} vs formula {predicted:.3f}")
        assert abs(result.scaled_mse - predicted) <= 0.10 * predicted
        assert result.theory_one_stage == pytest.approx(predicted, rel=1e-12)


@pytest.mark.slow
def test_07_three_stage_pipeline():
    with criterion(7, "three-stage pipeline at reference parameters"):
        n, reps = 200_000, 5000
        theta = 84.5
        cfg = EstimatorConfig(epsilon=1.0, n0=15_000, bits=7, n1=700,
                              range_lo=0.0, range_hi=128.0)
        errors = np.empty(reps)
        prelim_hits = 0
        for r in range(reps):
            rng = np.random.default_rng(
                np.random.SeedSequence(50_804, spawn_key=(0, 0, r)))
            data = rng.standard_normal(n) + theta
            result = three_stage(data, cfg, rng)
            errors[r] = result.theta_hat - theta
            prelim_hits += abs(result.stage_estimates[0] - theta) <= 1.0
        scaled_mse = n * float(np.mean(errors ** 2))
        hit_rate = prelim_hits / reps
        print(f"  scaled MSE = {scaled_mse:.4f}, preliminary hit rate = {hit_rate:.4f}")
        assert abs(scaled_mse - OPT_VAR) <= 0.15 * OPT_VAR
        assert hit_rate >= 0.99


@pytest.mark.slow
def test_08_regularity_normal_limit():
    with criterion(8, "regular normal limit under local shifts"):
        n, reps = 10 ** 5, 2000
        sigma_limit = math.sqrt(7.35555)
        # asymptotic Kolmogorov-Smirnov critical value at level 0.01
        critical = math.sqrt(math.log(2.0 / 0.01) / 2.0) / math.sqrt(reps)
        for h in (0.0, 2.0):
            config = ExperimentConfig(
                kind="two", epsilon=1.0, theta_true=0.0, theta0=0.0, n=n,
                n1=800, replicates=reps, master_seed=50_805,
                sweep_name="n1", sweep_values=(800.0,), h_over_sqrt_n=h)
            _, errors, _ = _run_block(config, 0, 0, reps)
            sample = np.sort(math.sqrt(n) * errors)
            grid = np.arange(reps)
            cdf_vals = np.array([std_normal_cdf(v / sigma_limit) for v in sample])
            d_stat = max(float(np.max(cdf_vals - grid / reps)),
                         float(np.max((grid + 1) / reps - cdf_vals)))
            print(f"  h={h}: KS distance {d_stat:.4f} vs critical {critical:.4f}")
            assert d_stat < critical


@pytest.mark.slow
def test_09_sigma_scaling():
    with criterion(9, "known-scale rescaling"):
        params = privacy_params(1.0)
        for sigma in (0.5, 1.0, 2.0, 5.0):
            assert optimal_asymptotic_variance(params, sigma) / sigma ** 2 == pytest.approx(
                1.0 / sign_fisher_info(params), rel=1e-15)
        config = ExperimentConfig(
            kind="two", epsilon=1.0, theta_true=0.0, theta0=0.0, n=10 ** 5,
            replicates=20_000, master_seed=50_806, sigma=2.0,
            sweep_name="n1", sweep_values=(3162.0,))
        result = run_experiment(config, workers=2)[0]
        target = 4.0 * OPT_VAR
        print(f"  scaled MSE = {result.scaled_mse:.3f} vs target {target:.3f}")
        assert abs(result.scaled_mse - target) <= 0.10 * target


def test_10_determinism():
    with criterion(10, "byte-identical reruns across worker counts"):
        config = ExperimentConfig(
            kind="two", epsilon=1.0, theta_true=0.0, theta0=0.0, n=2000,
            n1=60, replicates=48, master_seed=50_807,
            sweep_name="n1", sweep_values=(60.0, 200.0))
        reference = run_experiment(config, workers=1)
        ref_csv = results_to_csv(reference, config.sweep_name)
        assert run_experiment(config, workers=1) == reference
        for workers in (4, 8):
            repeat = run_experiment(config, workers=workers)
            assert repeat == reference
            assert results_to_csv(repeat, config.sweep_name) == ref_csv
