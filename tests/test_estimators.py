import math
import sys
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ldpmean.estimators import (
    EstimatorConfig,
    default_n1,
    estimate,
    invert_mean,
    layout,
    one_stage,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    released_bits,
    rescaled_estimate,
    stage_rows,
    three_stage,
    two_stage,
)
from ldpmean.mechanisms import privacy_params, sign_mechanism
from ldpmean.numerics import std_normal_cdf
from ldpmean.quantized import sign_fisher_info
from ldpmean.schema import ESTIMATOR_KINDS
from oracles import embed_sign_channel, verify_ldp


class CountingRng:
    """Duck-typed stream wrapper that counts uniform draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.uniforms = 0

    def random(self, shape=None, *, out=None):
        drawn = self._rng.random(shape, out=out)
        self.uniforms += int(np.size(drawn))
        return drawn


class TestInvertMean:
    def test_zero_mean_bit_returns_center(self):
        params = privacy_params(1.0)
        assert invert_mean(0.0, 2.5, params) == 2.5

    def test_clamps_at_threshold(self):
        params = privacy_params(1.0)
        t = params.t_eps
        center = -1.3
        assert invert_mean(t, center, params) == center
        assert invert_mean(-t, center, params) == center
        assert invert_mean(1.0, center, params) == center

    def test_zero_budget_always_clamps(self):
        params = privacy_params(0.0)
        assert invert_mean(0.0, 1.0, params) == 1.0

    @pytest.mark.parametrize("eps, z_bar", [(1.9459101490553135, -0.75),
                                            (2.944438979166441, -0.9)])
    def test_argument_rounding_to_one_inverts_through_the_lower_tail(self, eps, z_bar):
        # t_eps is one ulp above |z_bar|, so 1/2 - z_bar / (2 t) rounds to 1
        mpmath = pytest.importorskip("mpmath")
        params = privacy_params(eps)
        assert abs(z_bar) < params.t_eps and 0.5 - z_bar / (2.0 * params.t_eps) == 1.0
        value = invert_mean(z_bar, 0.0, params)
        with mpmath.workdps(50):
            # -Phi^-1(1/2 - z / (2t)) = -sqrt(2) erfinv(-z / t)
            exact = -mpmath.sqrt(2) * mpmath.erfinv(-mpmath.mpf(z_bar) / mpmath.mpf(params.t_eps))
            assert abs(mpmath.mpf(value) / exact - 1) <= 1e-12, value
        assert invert_mean(z_bar, 1.0, params, sigma=2.0) == 1.0 + 2.0 * value

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    @pytest.mark.parametrize("offset", [-2.0, -1.0, 0.0, 0.5, 2.0])
    def test_population_fixed_point(self, eps, offset):
        # feeding the exact population mean bit recovers the true mean
        params = privacy_params(eps)
        theta = 0.7
        center = theta + offset
        z_bar = params.t_eps * (1.0 - 2.0 * std_normal_cdf(center - theta))
        assert invert_mean(z_bar, center, params) == pytest.approx(theta, abs=1e-9)


class TestOneStage:
    def test_single_sample_clamps_to_guess(self):
        cfg = EstimatorConfig(epsilon=1.0, theta0=3.0)
        result = one_stage([10.0], cfg, np.random.default_rng(0))
        assert result.theta_hat == 3.0
        assert result.clamped == (True,)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            one_stage([], EstimatorConfig(epsilon=1.0), np.random.default_rng(0))

    def test_consistency_at_fixed_guess(self):
        # theta0 one unit off; at n = 1e6 the estimate is within 0.02
        cfg = EstimatorConfig(epsilon=1.0, theta0=1.3)
        rng = np.random.default_rng(101)
        data = rng.standard_normal(10 ** 6) + 0.3
        result = one_stage(data, cfg, rng)
        assert abs(result.theta_hat - 0.3) < 0.02

    def test_scaled_mse_near_optimal_variance(self):
        # matched guess: n * MSE approaches the optimal variance
        cfg = EstimatorConfig(epsilon=1.0, theta0=0.0)
        n, reps = 10 ** 5, 1500
        errs = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(202, spawn_key=(r,)))
            errs[r] = one_stage(rng.standard_normal(n), cfg, rng).theta_hat
        scaled = n * np.mean(errs ** 2)
        assert 6.5 < scaled < 8.2  # 7.356 with a generous Monte Carlo band


class TestOneStageVariance:
    def test_matched_guess_is_optimal(self):
        params = privacy_params(1.0)
        value = one_stage_asymptotic_variance(0.4, 0.4, params)
        assert value == pytest.approx(1.0 / sign_fisher_info(params), rel=1e-12)
        assert value == pytest.approx(
            (math.pi / 2) * ((math.e + 1) / (math.e - 1)) ** 2, rel=1e-12)

    def test_bad_guess_blows_up(self):
        params = privacy_params(1.0)
        base = one_stage_asymptotic_variance(0.0, 0.0, params)
        assert one_stage_asymptotic_variance(0.0, 3.0, params) >= 100.0 * base
        far = one_stage_asymptotic_variance(0.0, 4.0, params)
        assert math.isfinite(far) and far > 1e3

    def test_even_in_the_offset(self):
        params = privacy_params(0.8)
        for d in (0.5, 1.0, 2.5):
            assert one_stage_asymptotic_variance(0.0, d, params) == pytest.approx(
                one_stage_asymptotic_variance(0.0, -d, params), rel=1e-12)

    def test_zero_budget_infinite(self):
        assert one_stage_asymptotic_variance(0.0, 0.0, privacy_params(0.0)) == math.inf

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-155, 1e-150,
                                     0.5, 1.0, 3.0, 30.0, 38.0, 40.0, math.inf])
    def test_against_mpmath(self, eps):
        # The numerator 1 - t^2 (1 - 2 Phi(-d))^2 cancels near t_eps = 1; the
        # oracle evaluates it as written, with digits enough for 1 - b^2 ~ 1e-150.
        # At tiny budgets the exact value can exceed the largest double: then inf.
        mpmath = pytest.importorskip("mpmath")
        params = privacy_params(eps)
        with mpmath.workdps(350):
            t = mpmath.mpf(1) if eps == math.inf else mpmath.tanh(mpmath.mpf(eps) / 2)
            for d in np.arange(0.0, 26.01, 0.25):
                x = mpmath.mpf(float(d))
                b = mpmath.erf(x / mpmath.sqrt(2))
                pdf = mpmath.npdf(x)
                exact = (1 - t * t * b * b) / (4 * t * t * pdf * pdf)
                value = one_stage_asymptotic_variance(float(d), 0.0, params)
                if exact > sys.float_info.max:
                    assert value == math.inf, (eps, d, value)
                else:
                    assert abs(mpmath.mpf(value) / exact - 1) <= 1e-12, (eps, d, value)

    @pytest.mark.parametrize("eps", [0.01, 1.0, 3.0, 30.0])
    def test_tiny_sigma_against_mpmath(self, eps):
        # From |d| = 37.6, t_eps pdf(d) is subnormal while the value at sigma = 1e-200 is
        # a normal double; r is formed from normal factors and keeps its digits there
        mpmath = pytest.importorskip("mpmath")
        sigma = 1e-200
        params = privacy_params(eps)
        with mpmath.workdps(60):
            t = mpmath.tanh(mpmath.mpf(eps) / 2)
            for theta in [38.3e-200, *(float(d) * sigma for d in np.linspace(30.0, 38.5, 69))]:
                x = mpmath.mpf(theta / sigma)
                b = mpmath.erf(abs(x) / mpmath.sqrt(2))
                exact = (1 - t * t * b * b) / 4 * (mpmath.mpf(sigma) / (t * mpmath.npdf(x))) ** 2
                value = one_stage_asymptotic_variance(theta, 0.0, params, sigma)
                assert abs(mpmath.mpf(value) / exact - 1) <= 1e-12, (eps, theta, value)
        if eps == 1.0:  # 6.676027e237 by 60-digit mpmath; a subnormal product gave 6.676049e237
            assert one_stage_asymptotic_variance(38.3e-200, 0.0, params, sigma) == pytest.approx(
                6.67602746630313e237, rel=1e-12)


    @staticmethod
    def _exact(d, eps, sigma, mpmath):
        """50-digit value: (1 - t b) and (1 + t b) formed without cancellation."""
        with mpmath.workdps(50):
            x, s = mpmath.mpf(d), mpmath.mpf(sigma)
            e = mpmath.exp(-mpmath.mpf(eps))  # 0 at eps = inf
            t, tail = (1 - e) / (1 + e), mpmath.ncdf(-x)
            return ((2 * e / (1 + e) + 2 * t * tail) * (1 + t - 2 * t * tail) / 4
                    * (s / (t * mpmath.npdf(x))) ** 2)

    def test_tail_and_budget_both_underflowing(self):
        # e^-eps and Phi(-d) are 0 in float64; the Mills ratio keeps the value finite
        mpmath = pytest.importorskip("mpmath")
        value = one_stage_asymptotic_variance(38.5e-200, 0.0, privacy_params(math.inf), 1e-200)
        assert value == pytest.approx(4.7844784e-80, rel=1e-7)
        assert abs(mpmath.mpf(value) / self._exact(38.5, math.inf, 1e-200, mpmath) - 1) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-8, 1.0, 40.0, 800.0, math.inf])
    def test_grid_against_mpmath(self, eps):
        # |d| up to 60 and sigma from 1e-200 to 1: within 1e-10 of 50 digits, inf only
        # where the exact value exceeds the largest double, tiny where it is subnormal.
        # At eps = 800 e^-eps underflows, yet its term dominates from d = 40 or so
        mpmath = pytest.importorskip("mpmath")
        params = privacy_params(eps)
        for sigma in np.geomspace(1e-200, 1.0, 11):
            for d in np.linspace(0.0, 60.0, 121):
                theta = float(d) * float(sigma)
                exact = self._exact(theta / sigma, eps, float(sigma), mpmath)
                value = one_stage_asymptotic_variance(theta, 0.0, params, float(sigma))
                if exact > sys.float_info.max:
                    assert value == math.inf, (sigma, d, value)
                elif exact < sys.float_info.min:
                    assert value < sys.float_info.min, (sigma, d, value)
                else:
                    assert abs(mpmath.mpf(value) / exact - 1) <= 1e-10, (sigma, d, value)


class TestTwoStage:
    def test_clamped_pilot_falls_back_to_guess(self):
        # n1 = 1 forces |mean bit| = 1 >= t_eps, so stage two re-centers at theta0
        cfg = EstimatorConfig(epsilon=1.0, theta0=0.5, n1=1)
        rng = np.random.default_rng(7)
        result = two_stage(rng.standard_normal(500) + 0.5, cfg, rng)
        assert result.clamped[0]
        assert result.stage_estimates[0] == 0.5
        assert not result.clamped[1]

    def test_group_size_validation(self):
        cfg = EstimatorConfig(epsilon=1.0, n1=10)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            two_stage(np.zeros(10), cfg, rng)
        with pytest.raises(ValueError):
            two_stage(np.zeros(5), EstimatorConfig(epsilon=1.0, n1=0), rng)

    def test_translation_equivariance(self):
        # same seed, all data and the guess shifted by c: estimate shifts by c
        cfg0 = EstimatorConfig(epsilon=1.0, theta0=0.0, n1=200)
        shift = 256.0
        cfg1 = EstimatorConfig(epsilon=1.0, theta0=shift, n1=200)
        data = np.random.default_rng(11).standard_normal(4000)
        r0 = two_stage(data, cfg0, np.random.default_rng(12))
        r1 = two_stage(data + shift, cfg1, np.random.default_rng(12))
        assert r1.theta_hat == pytest.approx(r0.theta_hat + shift, abs=1e-12)
        assert r1.stage_estimates[0] == pytest.approx(
            r0.stage_estimates[0] + shift, abs=1e-12)
        assert r1.clamped == r0.clamped

    def test_default_pilot_size(self):
        assert default_n1(10 ** 5) == 3162  # floor(n^0.7)
        assert default_n1(100) == 25

    @pytest.mark.slow
    def test_consistency_across_sample_sizes(self):
        # median |error| shrinks with n and ends below 3 sqrt(7.356 / n)
        cfg = EstimatorConfig(epsilon=1.0, theta0=0.7)
        theta = 0.2
        medians = []
        for n, reps in ((10 ** 4, 101), (10 ** 5, 101), (10 ** 6, 51)):
            errs = np.empty(reps)
            for r in range(reps):
                rng = np.random.default_rng(np.random.SeedSequence(404, spawn_key=(n, r)))
                data = rng.standard_normal(n) + theta
                errs[r] = two_stage(data, cfg, rng).theta_hat - theta
            medians.append(float(np.median(np.abs(errs))))
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] < 3.0 * math.sqrt(7.356 / 10 ** 6)


class TestThreeStage:
    def test_single_bisection_round(self):
        cfg = EstimatorConfig(epsilon=1.0, n0=2000, bits=1, n1=200,
                              range_lo=0.0, range_hi=128.0)
        rng = np.random.default_rng(13)
        data = rng.standard_normal(6000) + 64.0  # true mean at the midpoint
        result = three_stage(data, cfg, rng)
        assert result.stage_estimates[0] in (32.0, 96.0)

    def test_balanced_round_goes_up(self):
        # noiseless bits +1 and -1 around the midpoint 4 average to 0: ties go up
        cfg = EstimatorConfig(epsilon=math.inf, n0=2, bits=1, n1=2,
                              range_lo=0.0, range_hi=8.0)
        data = np.array([5.0, 3.0, 6.0, 6.0, 6.0, 6.0])
        result = three_stage(data, cfg, np.random.default_rng(0))
        assert result.stage_estimates[0] == 6.0

    def test_preliminary_hits_exact_binary_mean(self):
        # 84.5 is exactly representable by 7 bisections of [0, 128]
        cfg = EstimatorConfig(epsilon=1.0, n0=7000, bits=7, n1=500,
                              range_lo=0.0, range_hi=128.0)
        rng = np.random.default_rng(14)
        data = rng.standard_normal(30000) + 84.5
        result = three_stage(data, cfg, rng)
        assert result.stage_estimates[0] == 84.5
        assert result.clamped[0] is False
        assert abs(result.theta_hat - 84.5) < 0.2

    def test_preliminary_resolution_small_monte_carlo(self):
        cfg = EstimatorConfig(epsilon=1.0, n0=15000, bits=7, n1=500,
                              range_lo=0.0, range_hi=128.0)
        hits = 0
        reps = 200
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(303, spawn_key=(r,)))
            data = rng.standard_normal(16000) + 84.5
            result = three_stage(data, cfg, rng)
            hits += abs(result.stage_estimates[0] - 84.5) <= 1.0
        assert hits == reps

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            three_stage(np.zeros(100), EstimatorConfig(epsilon=1.0, n0=90, n1=20), rng)
        with pytest.raises(ValueError):
            three_stage(np.zeros(100), EstimatorConfig(epsilon=1.0, n0=50, bits=0), rng)
        with pytest.raises(ValueError):
            three_stage(np.zeros(100), EstimatorConfig(
                epsilon=1.0, n0=50, n1=10, range_lo=2.0, range_hi=1.0), rng)


def reference_stage(data, center, params, rng):
    """One stage as the paper states it: materialize the bits, average, invert."""
    z_bar = float(sign_mechanism(data, center, params, rng).mean())
    return invert_mean(z_bar, center, params), not abs(z_bar) < params.t_eps


def reference_two_stage(data, cfg, rng):
    params = privacy_params(cfg.epsilon)
    n1 = cfg.n1 if cfg.n1 is not None else default_n1(data.size)
    pilot, c1 = reference_stage(data[:n1], cfg.theta0, params, rng)
    final, c2 = reference_stage(data[n1:], pilot, params, rng)
    return final, (pilot, final), (c1, c2)


def reference_three_stage(data, cfg, rng):
    params = privacy_params(cfg.epsilon)
    group = cfg.n0 // cfg.bits
    lo, hi = cfg.range_lo, cfg.range_hi
    for b in range(cfg.bits):
        mid = (lo + hi) / 2.0
        z = sign_mechanism(data[b * group:(b + 1) * group], mid, params, rng)
        lo, hi = (mid, hi) if z.mean() >= 0.0 else (lo, mid)
    prelim = (lo + hi) / 2.0
    tail_cfg = EstimatorConfig(epsilon=cfg.epsilon, theta0=prelim, n1=cfg.n1)
    final, stages, clamps = reference_two_stage(data[cfg.n0:], tail_cfg, rng)
    return final, (prelim,) + stages, (False,) + clamps


class TestCountedStagesMatchMaterializedBits:
    """The estimators count released bits; a materializing reference must agree exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, math.inf])
    def test_one_stage(self, seed, eps):
        cfg = EstimatorConfig(epsilon=eps, theta0=0.3)
        data = np.random.default_rng(50 + seed).standard_normal(1999)
        result = one_stage(data, cfg, np.random.default_rng(seed))
        est, clamped = reference_stage(data, 0.3, privacy_params(eps),
                                       np.random.default_rng(seed))
        assert (result.theta_hat, result.stage_estimates, result.clamped) == (
            est, (est,), (clamped,))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n1", [None, 1, 7, 100])
    def test_two_stage(self, seed, eps, n1):
        cfg = EstimatorConfig(epsilon=eps, theta0=-0.4, n1=n1)
        data = np.random.default_rng(60 + seed).standard_normal(2000) + 0.1
        result = two_stage(data, cfg, np.random.default_rng(seed))
        assert (result.theta_hat, result.stage_estimates, result.clamped) == \
            reference_two_stage(data, cfg, np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_stage(self, seed):
        cfg = EstimatorConfig(epsilon=1.0, n0=700, bits=7, n1=150, range_lo=-8.0, range_hi=8.0)
        data = np.random.default_rng(70 + seed).standard_normal(3000) + 2.7
        result = three_stage(data, cfg, np.random.default_rng(seed))
        assert (result.theta_hat, result.stage_estimates, result.clamped) == \
            reference_three_stage(data, cfg, np.random.default_rng(seed))

    def test_data_on_the_center(self):
        # every sample ties with the guess: all bits +1 before flipping
        cfg = EstimatorConfig(epsilon=math.inf, theta0=0.5)
        result = one_stage(np.full(50, 0.5), cfg, np.random.default_rng(0))
        assert result.clamped == (True,)


def reference_one_stage(data, cfg, rng):
    est, clamped = reference_stage(data, cfg.theta0, privacy_params(cfg.epsilon), rng)
    return est, (est,), (clamped,)


class TestStageRows:
    """The stage loop runs each row on its own: row i equals the reference on row i alone."""

    SHIFTS = (-3.0, -0.4, 0.0, 0.5, 2.0, 6.5, 40.0)
    CASES = {
        "one": (EstimatorConfig(epsilon=1.0, theta0=0.3), 40, reference_one_stage),
        "two": (EstimatorConfig(epsilon=1.0, theta0=0.0, n1=40), 1500, reference_two_stage),
        "three": (EstimatorConfig(epsilon=1.0, n0=703, bits=7, n1=5, range_lo=-8.0,
                                  range_hi=8.0), 2500, reference_three_stage),
    }

    def rows(self, n):
        x = np.stack([np.random.default_rng(80 + i).standard_normal(n) + shift
                      for i, shift in enumerate(self.SHIFTS)])
        u = np.stack([np.random.default_rng(90 + i).random(n) for i in range(len(x))])
        return x, u

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_stage_rows(self, kind):
        cfg, n, reference = self.CASES[kind]
        x, u = self.rows(n)
        estimates, clamped = stage_rows(kind, x, u < privacy_params(cfg.epsilon).p_eps, cfg)
        for i, row in enumerate(x):
            got = (estimates[-1][i], tuple(e[i] for e in estimates), tuple(c[i] for c in clamped))
            assert got == reference(row, cfg, np.random.default_rng(90 + i)), i
        flags = np.array(clamped)
        assert flags.any() and not flags.all()
        assert len(set(estimates[0])) >= 4  # the rows' first stages differ

    def test_unknown_kind(self):
        x, u = self.rows(40)
        with pytest.raises(ValueError, match="kind must be one of"):
            stage_rows("four", x, u < 0.5, EstimatorConfig(epsilon=1.0))


def width(cols):
    return cols.stop - cols.start


def pilot_size(kind, n, cfg):
    """Samples in the first stage of the ``kind`` plan on n samples."""
    return width(layout(kind, n, cfg)[1][0][0])


class TestPilotSizes:
    def test_two_stage_pilot(self):
        assert pilot_size("two", 10 ** 5, EstimatorConfig(epsilon=1.0)) == 3162
        assert pilot_size("two", 100, EstimatorConfig(epsilon=1.0, n1=99)) == 99
        for n1, n in ((0, 100), (100, 100), (-1, 100)):
            with pytest.raises(ValueError, match="n1"):
                layout("two", n, EstimatorConfig(epsilon=1.0, n1=n1))

    def test_three_stage_pilot(self):
        cfg = EstimatorConfig(epsilon=1.0, n0=1000, bits=7)
        assert pilot_size("three", 1100, cfg) == default_n1(100)
        assert pilot_size("three", 1100, EstimatorConfig(epsilon=1.0, n0=1000, n1=99)) == 99

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001])
    def test_three_stage_sample_too_small(self, n):
        # below n0 the default pilot size used to be int() of a complex power
        with pytest.raises(ValueError, match="n0 \\+ n1 < n"):
            layout("three", n, EstimatorConfig(epsilon=1.0, n0=1000))
        with pytest.raises(ValueError, match="n0 \\+ n1 < n"):
            three_stage(np.zeros(n), EstimatorConfig(epsilon=1.0, n0=1000),
                        np.random.default_rng(0))

    def test_three_stage_explicit_zero_pilot(self):
        with pytest.raises(ValueError, match="1 <= n1"):
            layout("three", 5000, EstimatorConfig(epsilon=1.0, n0=1000, n1=0))


class TestPlan:
    """``layout`` states every bit group's columns; each check recomputes them from n, n0, bits, n1."""

    # n0 = 10, 50 and 703 leave samples the bisection never queries; n1 = None is the default
    GRID = [(n, n0, bits, n1) for n in (60, 1000, 10 ** 5) for n0, bits in
            ((7, 7), (10, 3), (50, 7), (51, 1), (703, 7)) for n1 in (None, 1, 9) if n0 + 9 < n]

    def plans(self):
        for n, n0, bits, n1 in self.GRID:
            cfg = EstimatorConfig(epsilon=1.0, n0=n0, bits=bits, n1=n1)
            for kind in ESTIMATOR_KINDS:
                yield kind, n, cfg, layout(kind, n, cfg)

    def test_x_groups_cover_every_queried_sample_in_order(self):
        for kind, n, cfg, (rounds, stages) in self.plans():
            cols = [c for xs, _ in rounds + stages for c in range(xs.start, xs.stop)]
            leftover = cfg.n0 % cfg.bits if kind == "three" else 0
            expect = [c for c in range(n) if not cfg.n0 - leftover <= c < cfg.n0]
            assert cols == expect, (kind, n, cfg)

    def test_u_groups_tile_the_released_bits(self):
        for kind, n, cfg, (rounds, stages) in self.plans():
            cols = [c for _, us in rounds + stages for c in range(us.start, us.stop)]
            assert cols == list(range(released_bits(kind, n, cfg))), (kind, n, cfg)

    def test_each_group_reads_one_uniform_per_sample(self):
        for kind, n, cfg, (rounds, stages) in self.plans():
            assert all(width(xs) == width(us) for xs, us in rounds + stages), (kind, n, cfg)

    def test_round_and_stage_sizes(self):
        for kind, n, cfg, (rounds, stages) in self.plans():
            sizes = [width(xs) for xs, _ in stages]
            n1 = cfg.n1
            if kind == "one":
                assert (rounds, sizes) == ([], [n])
            elif kind == "two":
                n1 = default_n1(n) if n1 is None else n1
                assert (rounds, sizes) == ([], [n1, n - n1])
            else:
                n1 = default_n1(n - cfg.n0) if n1 is None else n1
                assert [width(xs) for xs, _ in rounds] == [cfg.n0 // cfg.bits] * cfg.bits
                assert sizes == [n1, n - cfg.n0 - n1]


class TestPrivacyAudit:
    """Each sample is sanitized exactly once, by an epsilon-valid channel."""

    def test_one_stage_draw_count(self):
        rng = CountingRng(1)
        data = np.random.default_rng(2).standard_normal(500)
        cfg = EstimatorConfig(epsilon=1.0)
        one_stage(data, cfg, rng)
        assert rng.uniforms == 500 == released_bits("one", 500, cfg)

    def test_two_stage_draw_count(self):
        rng = CountingRng(3)
        data = np.random.default_rng(4).standard_normal(700)
        cfg = EstimatorConfig(epsilon=1.0, n1=100)
        two_stage(data, cfg, rng)
        assert rng.uniforms == 700 == released_bits("two", 700, cfg)

    def test_three_stage_draw_count(self):
        rng = CountingRng(5)
        n, n0, bits, n1 = 5000, 1000, 7, 300
        data = np.random.default_rng(6).standard_normal(n)
        cfg = EstimatorConfig(epsilon=1.0, n0=n0, bits=bits, n1=n1, range_lo=-4.0, range_hi=4.0)
        three_stage(data, cfg, rng)
        # bisection leftovers (n0 mod bits) are never queried
        assert rng.uniforms == bits * (n0 // bits) + (n - n0) == released_bits("three", n, cfg)

    @pytest.mark.parametrize("kind, cfg, match", [
        ("two", EstimatorConfig(epsilon=1.0, n1=500), "n1"),
        ("three", EstimatorConfig(epsilon=1.0, n0=400, bits=0), "bits"),
        ("three", EstimatorConfig(epsilon=1.0, n0=450, n1=60), "n0 \\+ n1 < n"),
        ("four", EstimatorConfig(epsilon=1.0), "kind"),
    ])
    def test_rejected_layout_draws_nothing(self, kind, cfg, match):
        rng = CountingRng(7)
        with pytest.raises(ValueError, match=match):
            estimate(kind, np.zeros(500), cfg, rng)
        assert rng.uniforms == 0

    @pytest.mark.parametrize("run", [partial(estimate, "two"), one_stage, two_stage, three_stage])
    @pytest.mark.parametrize("data, match", [
        ([math.nan] * 1000, "data values must be finite"),
        ([0.0] * 500 + [math.inf] + [0.0] * 499, "data values must be finite"),
        ([], "no data values"),
    ])
    def test_rejected_data_draws_nothing(self, run, data, match):
        # the data checks precede the layout check: 1000 samples are too few for three
        rng = CountingRng(7)
        with pytest.raises(ValueError, match=match):
            run(data, EstimatorConfig(epsilon=1.0), rng)
        assert rng.uniforms == 0

    @pytest.mark.parametrize("kind", ["one", "two"])
    def test_overflowing_estimate_is_rejected(self, kind):
        # a stage moves up to 38 sigmas from its center, past the largest double
        cfg = EstimatorConfig(epsilon=1.0, theta0=1.5e308, sigma=1.7e307)
        with pytest.raises(ValueError, match="an estimate overflows float64"):
            estimate(kind, [1.7e308] * 2000, cfg, np.random.default_rng(1))

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_channel_is_epsilon_valid(self, eps):
        assert verify_ldp(embed_sign_channel(privacy_params(eps), 2), eps)


class TestKeepBitMemory:
    """``estimate`` keeps each uniform only as its keep bit, drawn as one stream."""

    CONFIGS = {"one": EstimatorConfig(epsilon=1.0), "two": EstimatorConfig(epsilon=1.0),
               "three": EstimatorConfig(epsilon=1.0, n0=700, range_hi=8.0)}

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_estimate_keeps_one_byte_per_uniform(self, kind):
        # the keep bits (n), one sign test (at most n) and one float piece of 2**14
        # uniforms; all m uniforms drawn as floats would take another 8 n
        n, cfg = 2 ** 17, self.CONFIGS[kind]
        data = np.random.default_rng(11).standard_normal(n) + 0.5
        tracemalloc.start()
        try:
            result = estimate(kind, data, cfg, np.random.default_rng(12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n + 2 ** 14 * 8
        # the same estimate from the keep tests of one draw of all m uniforms
        keep = np.random.default_rng(12).random((1, released_bits(kind, n, cfg))) < \
            privacy_params(cfg.epsilon).p_eps
        estimates, clamped = stage_rows(kind, data.reshape(1, -1), keep, cfg)
        assert result.stage_estimates == tuple(stage[0] for stage in estimates)
        assert result.clamped == tuple(stage[0] for stage in clamped)


class TestRescaledEstimate:
    def test_unit_scale_matches_two_stage_exactly(self):
        cfg = EstimatorConfig(epsilon=1.0, theta0=0.3, n1=150)
        data = np.random.default_rng(21).standard_normal(3000) + 0.9
        a = two_stage(data, cfg, np.random.default_rng(22))
        b = rescaled_estimate(data, 1.0, cfg, np.random.default_rng(22))
        assert a == b

    def test_scale_equivariance_exact_for_power_of_two(self):
        cfg1 = EstimatorConfig(epsilon=1.0, theta0=0.5, n1=150)
        cfg2 = EstimatorConfig(epsilon=1.0, theta0=1.0, n1=150)
        data = np.random.default_rng(23).standard_normal(3000) + 0.8
        base = two_stage(data, cfg1, np.random.default_rng(24))
        scaled = rescaled_estimate(2.0 * data, 2.0, cfg2, np.random.default_rng(24))
        assert scaled.theta_hat == 2.0 * base.theta_hat
        assert scaled.stage_estimates == tuple(2.0 * s for s in base.stage_estimates)
        assert scaled.clamped == base.clamped

    def test_consistency_for_scaled_data(self):
        cfg = EstimatorConfig(epsilon=1.0, theta0=0.0, n1=800)
        rng = np.random.default_rng(25)
        data = 3.0 + 2.0 * rng.standard_normal(60000)
        result = rescaled_estimate(data, 2.0, cfg, rng)
        # sd of the estimate is about sqrt(4 * 7.4 / 6e4) = 0.022
        assert abs(result.theta_hat - 3.0) < 0.1

    def test_rejects_bad_sigma(self):
        cfg = EstimatorConfig(epsilon=1.0, n1=10)
        with pytest.raises(ValueError):
            rescaled_estimate(np.zeros(100), 0.0, cfg, np.random.default_rng(0))


class TestKnownScale:
    @pytest.mark.parametrize("eps, guess, lo, hi", [
        pytest.param(1.0, 0.5, -3.0, 5.0, id="near"),
        # noiseless bits all point one way: the first stage must clamp
        pytest.param(math.inf, 40.0, 40.0, 48.0, id="far"),
    ])
    @pytest.mark.parametrize("estimator", [one_stage, two_stage, three_stage])
    def test_exact_for_power_of_two(self, estimator, eps, guess, lo, hi):
        # doubling the data, the guess, the range and sigma doubles every stage exactly
        unit = EstimatorConfig(epsilon=eps, theta0=guess, n1=150, n0=800, bits=5,
                               range_lo=lo, range_hi=hi)
        doubled = replace(unit, theta0=2.0 * guess, range_lo=2.0 * lo, range_hi=2.0 * hi,
                          sigma=2.0)
        data = np.random.default_rng(26).standard_normal(4000) + 0.8
        base = estimator(data, unit, np.random.default_rng(27))
        scaled = estimator(2.0 * data, doubled, np.random.default_rng(27))
        assert scaled.theta_hat == 2.0 * base.theta_hat
        assert scaled.stage_estimates == tuple(2.0 * s for s in base.stage_estimates)
        assert scaled.clamped == base.clamped
        assert any(base.clamped) == (guess == 40.0)

    @pytest.mark.parametrize("sigma", [0.0, -2.0, math.nan, math.inf])
    def test_config_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be > 0"):
            EstimatorConfig(epsilon=1.0, sigma=sigma)


class TestOptimalVariance:
    def test_unit_values(self):
        params = privacy_params(1.0)
        assert optimal_asymptotic_variance(params, 1.0) == pytest.approx(
            1.0 / sign_fisher_info(params), rel=1e-15)
        assert optimal_asymptotic_variance(params, 2.0) == pytest.approx(
            4.0 / sign_fisher_info(params), rel=1e-15)

    def test_limits(self):
        assert optimal_asymptotic_variance(privacy_params(0.0), 1.0) == math.inf
        assert optimal_asymptotic_variance(privacy_params(math.inf), 1.0) == pytest.approx(
            math.pi / 2, rel=1e-12)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            optimal_asymptotic_variance(privacy_params(1.0), -2.0)
