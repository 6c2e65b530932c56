import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import EXTRA_QUEUED_CALLS

import numpy as np
import pytest

import ldpmean.sim as sim
from ldpmean.estimators import (
    EstimatorConfig,
    estimate,
    one_stage,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    released_bits,
    rescaled_estimate,
    three_stage,
    two_stage,
)
from ldpmean.mechanisms import privacy_params
from ldpmean.schema import ESTIMATOR_KINDS
from ldpmean.sim import (
    BudgetError,
    ExperimentConfig,
    MseResult,
    bootstrap_ci,
    results_to_csv,
    run_experiment,
    _bootstrap,
    _replicate_states,
    _run_block,
    synthetic_sample,
)


def small_config(**overrides):
    base = dict(kind="two", epsilon=1.0, theta_true=0.0, n=2000, replicates=64,
                master_seed=99, sweep_name="n1", sweep_values=(30.0, 100.0))
    base.update(overrides)
    return ExperimentConfig(**base)


def _no_work(*_args, **_kwargs):
    raise AssertionError("a pool started or a replicate ran before validation failed")


def _held_block(tmp, config, sweep_index, r_lo, r_hi):
    """``_run_block`` that marks each start and end in ``tmp``.

    The first span fails at once.  Every other span holds its worker
    until the pool has been shut down (the ``released`` file), so no
    worker can take a span while the failure is on its way.
    """
    (tmp / "started" / f"{sweep_index}-{r_lo}").touch()
    if sweep_index == 0 and r_lo == 0:
        raise RuntimeError("block failed")
    deadline = time.monotonic() + 60.0
    while not (tmp / "released").exists():
        if time.monotonic() > deadline:
            raise TimeoutError("the pool was never shut down")
        time.sleep(0.005)
    result = _run_block(config, sweep_index, r_lo, r_hi)
    (tmp / "ended" / f"{sweep_index}-{r_lo}").touch()
    return result


def _bootstrap_failing_at_point_1(master_seed, s, sq):
    if s == 1:
        raise FloatingPointError("bootstrap failed")
    return _bootstrap(master_seed, s, sq)


def _usable_cpus(monkeypatch, count):
    """Make ``count`` CPUs the ones this process may run on."""
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda _pid: set(range(count)))


class _ReleasingPool(ProcessPoolExecutor):
    """Pool that releases the held spans when it is shut down.

    A shutdown that cancels does so before the release, so a cancelled
    span can never start; one that does not cancel lets every span run.
    """

    def __init__(self, tmp, **kwargs):
        super().__init__(**kwargs)
        self._release = tmp / "released"
        self._futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self._futures.append(future)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:
            for future in self._futures:
                future.cancel()  # fails for the spans already handed to a worker
        self._release.touch()
        super().shutdown(wait, cancel_futures=cancel_futures)


class TestBootstrap:
    def test_degenerate_inputs(self):
        rng = np.random.default_rng(0)
        lo, hi = bootstrap_ci([2.0, 2.0, 2.0], rng=rng)
        assert lo == hi == 2.0
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], rng=rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], level=1.5, rng=rng)

    def test_interval_contains_sample_mean(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(size=200)
        lo, hi = bootstrap_ci(values, level=0.95, resamples=1000, rng=rng)
        assert lo <= values.mean() <= hi
        assert lo < hi

    def test_coverage_at_desk_scale(self):
        # squared standard normals: true mean 1; 95% interval should cover
        # the truth in at least 90% of 500 trials
        outer = np.random.default_rng(2)
        covered = 0
        for _ in range(500):
            sample = outer.standard_normal(40) ** 2
            lo, hi = bootstrap_ci(sample, level=0.95, resamples=400, rng=outer)
            covered += lo <= 1.0 <= hi
        assert covered >= 450

    def test_deterministic_given_stream(self):
        values = np.random.default_rng(3).random(50)
        a = bootstrap_ci(values, rng=np.random.default_rng(7))
        b = bootstrap_ci(values, rng=np.random.default_rng(7))
        assert a == b

    @pytest.mark.parametrize("values, kwargs", [
        pytest.param([1.0, 2.0], dict(resamples=0), id="no-resamples"),
        pytest.param([1.0, 2.0], dict(resamples=-3), id="negative-resamples"),
        pytest.param([1.0, 2.0], dict(resamples=2.5), id="fractional-resamples"),
        pytest.param([[1.0, 2.0], [3.0, 4.0]], {}, id="two-dimensional"),
        pytest.param([1.0, math.nan, 2.0], {}, id="nan-value"),
        pytest.param([1.0, math.inf], {}, id="infinite-value"),
    ])
    def test_bad_input_is_value_error(self, values, kwargs):
        with pytest.raises(ValueError):
            bootstrap_ci(values, rng=np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize("n", [2, 3, 9999, 10_000, 65_537])
    def test_index_blocks_match_one_resample_per_call(self, monkeypatch, n):
        # numpy draws each index from 32 bits and PCG64 buffers the spare half of a
        # word, so no split of the resamples into calls can change the stream;
        # resamples * n stays at or below 2**21 to keep the single-block case small
        values = np.random.default_rng(n).exponential(size=n)
        resamples = min(1000, 2 ** 21 // n)
        reference_rng = np.random.default_rng(5)
        means = [values[reference_rng.integers(0, n, size=n)].mean() for _ in range(resamples)]
        expected = tuple(np.quantile(means, [0.025, 0.975]).tolist())
        for block in [1, 2 ** 16, 2 ** 30]:
            monkeypatch.setattr(sim, "_BLOCK_ELEMS", block)
            rng = np.random.default_rng(5)
            assert bootstrap_ci(values, resamples=resamples, rng=rng) == expected, block
            assert rng.bit_generator.state == reference_rng.bit_generator.state, block

    @pytest.mark.parametrize("n", [10_000, 50_000])
    def test_index_block_memory_is_bounded(self, n):
        # an index block holds about 2**16 indices (one resample when n is larger);
        # a block sized by the resample count alone grows with n and fails here
        values = np.random.default_rng(4).exponential(size=n)
        tracemalloc.start()
        try:
            bootstrap_ci(values, resamples=1000, rng=np.random.default_rng(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 16 * 8 + values.nbytes


class TestSortedQuantile:
    """``bootstrap_ci``'s percentiles against ``np.quantile``, bit for bit."""

    LEVELS = [1e-9, 0.5, 0.95, 1 - 1e-9]

    @staticmethod
    def _bits(x):
        return np.float64(x).tobytes()

    @pytest.mark.parametrize("level", LEVELS)
    def test_matches_np_quantile(self, level):
        rng = np.random.default_rng(int(level * 1e9))
        tail = (1.0 - level) / 2.0
        for case in range(200):
            size = int(rng.integers(2, 5001))
            if case % 2:  # ties, negatives included; no -0.0, whose order np.partition leaves open
                values = rng.integers(-5, 6, size=size).astype(float) * 10.0 ** rng.uniform(-5, 5)
            else:
                values = rng.standard_normal(size) * 10.0 ** rng.uniform(-5, 5)
            expected = np.quantile(values, [tail, 1.0 - tail])
            values.sort()
            got = [sim._sorted_quantile(values, q) for q in (tail, 1.0 - tail)]
            assert list(map(self._bits, got)) == list(map(self._bits, expected)), (case, size)

    @pytest.mark.parametrize("level", LEVELS)
    def test_bootstrap_ends_are_np_quantile_of_the_means(self, level):
        values = np.random.default_rng(8).standard_normal(301) - 0.5
        reference_rng = np.random.default_rng(9)
        means = reference_rng.integers(0, values.size, size=(777, values.size))
        means = values[means].mean(axis=1)
        tail = (1.0 - level) / 2.0
        expected = np.quantile(means, [tail, 1.0 - tail])
        got = bootstrap_ci(values, level=level, resamples=777, rng=np.random.default_rng(9))
        assert list(map(self._bits, got)) == list(map(self._bits, expected))


class TestTheoreticalReference:
    """The CSV's theory columns: the variance functions, called directly."""

    def test_optimal(self):
        params = privacy_params(1.0)
        assert optimal_asymptotic_variance(params) == pytest.approx(7.3555591266, abs=1e-9)

    def test_one_stage_matches_optimal_at_true_guess(self):
        params = privacy_params(1.0)
        assert one_stage_asymptotic_variance(1.2, 1.2, params) == pytest.approx(
            optimal_asymptotic_variance(params), rel=1e-12)

    def test_one_stage_far_guess(self):
        params = privacy_params(1.0)
        value = one_stage_asymptotic_variance(0.0, 4.0, params)
        assert math.isfinite(value) and value > 1e3

    def test_one_stage_guess_past_density_underflow(self):
        # pdf(84.5)^2 underflows to 0: the fig2 guess/true-mean distance
        value = one_stage_asymptotic_variance(84.5, 0.0, privacy_params(1.0))
        assert value == math.inf

    def test_sigma_scaling(self):
        params = privacy_params(1.0)
        assert optimal_asymptotic_variance(params, 2.0) == pytest.approx(
            4.0 * optimal_asymptotic_variance(params), rel=1e-12)
        # sigma^2 times the unit-scale value at the scaled distance, up to round-off
        for theta, theta0, sigma in [(2.0, 3.0, 2.0), (0.3, -1.1, 3.0), (5.0, 4.2, 0.7)]:
            assert one_stage_asymptotic_variance(theta, theta0, params, sigma) == pytest.approx(
                sigma * sigma * one_stage_asymptotic_variance((theta - theta0) / sigma, 0.0,
                                                              params), rel=1e-15)

    def test_tiny_sigma_far_from_zero(self):
        # theta / sigma and theta0 / sigma would both overflow; their distance does not
        params = privacy_params(1.0)
        assert one_stage_asymptotic_variance(1e200, 1e200, params, 1e-200) == 0.0

    def test_small_sigma_keeps_a_finite_value(self):
        # the unit-scale value overflows and sigma^2 underflows; the scaled value is
        # finite (2.40575e-90 by 100-digit mpmath)
        value = one_stage_asymptotic_variance(26e-200, 0.0, privacy_params(1e-8), 1e-200)
        assert value == pytest.approx(2.4057452387982172e-90, rel=1e-12)

    @pytest.mark.parametrize("eps", [800.0, math.inf])
    def test_no_nan_where_the_tail_underflows(self, eps):
        # e^-eps is 0 and Phi(-|d|) underflows at |d| = 38.48, before pdf(d) does at 38.6:
        # there the numerator is 0 and r overflows, yet the exact value is above any double
        for d in [38.3, 38.47, 38.5, 38.55, 38.6]:
            assert one_stage_asymptotic_variance(d, 0.0, privacy_params(eps)) == math.inf, d

    def test_square_of_sigma_underflows(self):
        # sigma^2 underflows to 0: the variances are 0 (or inf past the density
        # underflow), never a ZeroDivisionError or NaN
        params = privacy_params(1.0)
        assert optimal_asymptotic_variance(params, 1e-170) == 0.0
        assert one_stage_asymptotic_variance(0.0, 0.0, params, 1e-200) == 0.0
        assert one_stage_asymptotic_variance(0.0, 1e-197, params, 1e-200) == math.inf


class TestValidation:
    def test_replicates(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(replicates=1))

    def test_replicate_cap_before_any_work(self, monkeypatch):
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _no_work)
        monkeypatch.setattr(sim, "_run_block", _no_work)
        config = small_config(n=2, n1=1, sweep_name="theta0", sweep_values=(0.0,))
        sim._validate(dataclasses.replace(config, replicates=2 ** 32))
        with pytest.raises(ValueError, match="replicates"):
            run_experiment(dataclasses.replace(config, replicates=2 ** 32 + 1), workers=2)

    def test_kind_and_sweep(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(kind="four"))
        with pytest.raises(ValueError):
            run_experiment(small_config(sweep_name="bits"))
        with pytest.raises(ValueError):
            run_experiment(small_config(sweep_values=()))

    @pytest.mark.parametrize("kind", ["one", "three"])
    def test_sigma_runs_for_every_kind(self, kind):
        config = small_config(kind=kind, sigma=2.0, n=3000, n0=400, bits=4, range_hi=8.0,
                              replicates=8)
        assert all(math.isfinite(r.scaled_mse) for r in run_experiment(config))

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            run_experiment(small_config(max_total_draws=1000))

    def test_sample_size_at_least_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            run_experiment(small_config(n=0))
        with pytest.raises(ValueError, match="n must be >= 1"):
            run_experiment(small_config(sweep_name="n", sweep_values=(2000.0, 0.0)))

    @pytest.mark.parametrize("sweep_name", ["n", "n1"])
    def test_non_integral_sweep_value(self, sweep_name):
        with pytest.raises(ValueError, match="integers"):
            run_experiment(small_config(sweep_name=sweep_name, sweep_values=(30.0, 200.7)))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_at_least_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(small_config(), workers=workers)

    @pytest.mark.parametrize("overrides, match", [
        (dict(sweep_values=(30.0, 2000.0)), "n1"),
        (dict(sweep_values=(30.0, 0.0)), "n1"),
        (dict(sweep_name="n", sweep_values=(2000.0, 100.0), n1=100), "n1"),
        (dict(sweep_name="theta0", sweep_values=(0.0,), n1=5000), "n1"),
        (dict(kind="three", sweep_name="theta0", sweep_values=(0.0,)), "n0"),
        (dict(kind="three", sweep_name="n", sweep_values=(3000.0, 1000.0), n0=1000,
              n1=100), "n0"),
        (dict(kind="three", n0=500, bits=0), "bits"),
        (dict(kind="three", n0=5, bits=7), "bits"),
        (dict(kind="three", n0=500, range_lo=1.0, range_hi=1.0), "range"),
    ])
    def test_pilot_sizes_before_any_work(self, monkeypatch, overrides, match):
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _no_work)
        monkeypatch.setattr(sim, "_run_block", _no_work)
        config = small_config(**overrides)
        with pytest.raises(ValueError, match=match) as raised:
            run_experiment(config, workers=2)
        # the message is the estimator's own, from the first point that does not fit
        for value in config.sweep_values:
            n, _, est_cfg = sim._point_setup(config, value)
            try:
                released_bits(config.kind, n, est_cfg)
            except ValueError as exc:
                assert str(raised.value) == str(exc)
                break
        else:
            pytest.fail("every sweep point fits its estimator")

    @pytest.mark.parametrize("sigma", [0.0, -2.0])
    def test_sigma_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be > 0"):
            run_experiment(small_config(sigma=sigma))

    def test_infinite_epsilon_runs(self):
        results = run_experiment(small_config(epsilon=math.inf, replicates=8))
        assert all(math.isfinite(r.scaled_mse) for r in results)


class TestEstimate:
    def test_dispatch_matches_estimators(self):
        cfg = EstimatorConfig(epsilon=1.0, n1=100, n0=400, bits=4, range_hi=8.0)
        for kind, fn in (("one", one_stage), ("two", two_stage), ("three", three_stage)):
            data = synthetic_sample(3000, 3.0, 1.0, np.random.default_rng(5))
            expected = fn(data, cfg, np.random.default_rng(6))
            assert estimate(kind, data, cfg, np.random.default_rng(6)) == expected

    def test_sigma_routes_to_rescaled(self):
        cfg = EstimatorConfig(epsilon=1.0)
        data = synthetic_sample(3000, 1.0, 2.0, np.random.default_rng(5))
        expected = rescaled_estimate(data, 2.0, cfg, np.random.default_rng(6))
        scaled = dataclasses.replace(cfg, sigma=2.0)
        assert estimate("two", data, scaled, np.random.default_rng(6)) == expected

    def test_synthetic_sample_order(self):
        # standard normals, then the scale, then the shift
        draws = np.random.default_rng(3).standard_normal(50)
        sample = synthetic_sample(50, 0.25, 3.0, np.random.default_rng(3))
        assert np.array_equal(sample, draws * 3.0 + 0.25)
        assert np.array_equal(synthetic_sample(50, 0.0, 1.0, np.random.default_rng(3)), draws)


_THREE = dict(n0=300, bits=4, range_lo=-8.0, range_hi=8.0)
# sample sizes whose blocks hold 72 rows, two rows and one row
_MANY, _TWO, _ONE = sim._BLOCK_ELEMS // 72, sim._BLOCK_ELEMS // 2, sim._BLOCK_ELEMS + 1000
BLOCK_CASES = [
    pytest.param("one", _MANY, (3, 150), {}, "any", id="one-many-rows"),
    pytest.param("two", _MANY, (3, 150), dict(n1=30, sigma=2.5, theta_true=0.7), "any",
                 id="two-many-rows-scaled"),
    pytest.param("three", _MANY, (3, 150), dict(_THREE, sigma=2.5, theta_true=0.7), "any",
                 id="three-many-rows-scaled"),
    pytest.param("two", _TWO, (0, 5), dict(n1=300), "any", id="two-two-rows-odd-span"),
    pytest.param("three", _TWO, (1, 6), dict(_THREE, n1=300, theta_true=2.5), "any",
                 id="three-two-rows-odd-span"),
    pytest.param("one", _ONE, (0, 2), dict(theta_true=0.3), "any", id="one-one-row"),
    pytest.param("two", _ONE, (5, 7), dict(sigma=0.37, theta_true=-1.5), "any",
                 id="two-one-row-scaled"),
    pytest.param("three", _ONE, (0, 2), dict(n0=15_000, range_hi=128.0, theta_true=84.3),
                 "any", id="three-one-row"),
    # n0 mod bits = 3 unqueried samples: m = 2**14 + 7 keep bits cross a piece boundary
    pytest.param("three", 2 ** 14 + 10, (1, 6), dict(_THREE, n0=303, n1=50, theta_true=-2.5),
                 "any", id="three-three-rows-piece-boundary"),
    pytest.param("one", _MANY, (0, 80), dict(theta_true=3.0), "some", id="one-clamps-often"),
    pytest.param("two", _MANY, (0, 80), dict(n1=3), "some", id="two-clamps-often"),
    pytest.param("three", _MANY, (0, 80), dict(_THREE, n1=3, theta_true=2.5), "some",
                 id="three-clamps-often"),
    *(pytest.param(kind, _MANY, (0, 80), dict(_THREE, epsilon=0.0), "all",
                   id=f"{kind}-eps-zero") for kind in ESTIMATOR_KINDS),
    *(pytest.param(kind, _MANY, (0, 80), dict(_THREE, epsilon=math.inf, n1=5), "any",
                   id=f"{kind}-eps-inf") for kind in ESTIMATOR_KINDS),
]


def _oracle_state(seed, s, r):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(s, 0, r))).state


def _state_of(seed, s, r):
    (state,) = _replicate_states(seed, s, r, r + 1)
    return state


class TestReplicateStates:
    """The vectorized seeding against numpy's own SeedSequence and PCG64."""

    SAMPLED = [int(r) for r in np.random.default_rng(2024).integers(0, 2 ** 32, size=6)]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize("s", [0, 1, 7])
    def test_states_match_seed_sequence(self, seed, s):
        for r in [0, 1, 2 ** 31, 2 ** 32 - 1, *self.SAMPLED]:
            assert _state_of(seed, s, r) == _oracle_state(seed, s, r), r

    def test_span_across_hash_chunks(self):
        lo, hi = sim._SEED_CHUNK - 3, 2 * sim._SEED_CHUNK + 2
        states = list(_replicate_states(12345, 2, lo, hi))
        assert len(states) == hi - lo
        for r in [lo, sim._SEED_CHUNK - 1, sim._SEED_CHUNK, 2 * sim._SEED_CHUNK, hi - 1]:
            assert states[r - lo] == _oracle_state(12345, 2, r), r

    def test_empty_span_and_cap(self):
        assert list(_replicate_states(1, 0, 5, 5)) == []
        assert _state_of(3, 0, 2 ** 32 - 1) == _oracle_state(3, 0, 2 ** 32 - 1)
        with pytest.raises(ValueError, match="32-bit"):
            next(_replicate_states(3, 0, 2 ** 32 - 1, 2 ** 32 + 1))

    def test_reseeded_generator_draws_like_a_fresh_one(self):
        bitgen = np.random.PCG64(0)
        rng = np.random.default_rng(bitgen)
        for r, state in enumerate(_replicate_states(99, 1, 0, 4)):
            bitgen.state = state
            fresh = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(1, 0, r)))
            assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5))
            assert np.array_equal(rng.random(5), fresh.random(5))
            # an odd count of 32-bit draws leaves half a word buffered
            rng.integers(0, 10, size=3, dtype=np.uint32)
            assert bitgen.state["has_uint32"] == 1
        bitgen.state = _state_of(99, 1, 4)
        fresh = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(1, 0, 4)))
        assert np.array_equal(rng.integers(0, 10, size=5, dtype=np.uint32),
                              fresh.integers(0, 10, size=5, dtype=np.uint32))

    @pytest.mark.parametrize("kind, n, span, overrides, flags", BLOCK_CASES)
    def test_block_matches_per_replicate_seed_sequences(self, kind, n, span, overrides, flags):
        # oracle: a fresh generator per replicate, synthetic_sample, the public estimator
        config = small_config(kind=kind, n=n, replicates=span[1], sweep_name="theta0",
                              sweep_values=(0.0, 1.0), **overrides)
        n, theta_n, est_cfg = sim._point_setup(config, 1.0)
        expected_errors, expected_flags = [], []
        for r in range(*span):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(1, 0, r)))
            data = synthetic_sample(n, theta_n, config.sigma, rng)
            result = estimate(kind, data, est_cfg, rng)
            expected_errors.append(result.theta_hat - theta_n)
            expected_flags.append(any(result.clamped))
        lo, errors, clamps = _run_block(config, 1, *span)
        assert lo == span[0]
        assert errors.tolist() == expected_errors
        assert clamps.tolist() == expected_flags
        if flags == "all":
            assert clamps.all()
        elif flags == "some":
            assert clamps.any() and not clamps.all()

    @pytest.mark.parametrize("kind, n, reps", [("two", 2000, 70), ("three", 2000, 70),
                                               ("two", 100_000, 2)])
    def test_block_memory_is_bounded(self, kind, n, reps):
        # a block holds about max(n, 2**16) normals and as many uniforms; the bound is
        # pinned, so a block that grows fails here before the benchmark's RSS bound
        config = small_config(kind=kind, n=n, n0=700, range_hi=8.0, replicates=reps)
        tracemalloc.start()
        try:
            _run_block(config, 0, 0, reps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * max(n, 2 ** 16) * 8

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_long_row_keeps_one_byte_per_uniform(self, kind):
        # x (8 n bytes), the keep bits (n), one sign test (at most n) and one float piece
        # of 2**14 uniforms; a row that also held its n uniforms as floats takes 18 n
        n = 2 ** 17
        config = small_config(kind=kind, n=n, n0=700, range_hi=8.0, replicates=2)
        tracemalloc.start()
        try:
            _run_block(config, 0, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * n + 2 ** 14 * 8

    @pytest.mark.parametrize("m", [1, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 3 * 2 ** 14 + 5])
    @pytest.mark.parametrize("eps", [0.0, 1.0, math.inf])
    def test_piecewise_keep_bits_match_one_draw(self, monkeypatch, m, eps):
        # the one-stage kind reads m = n uniforms; two replicates share a block when m is short
        config = small_config(kind="one", n=m, epsilon=eps, replicates=2)
        p_eps = privacy_params(eps).p_eps
        expected = []
        for r in (3, 4):
            reference = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0, 0, r)))
            reference.standard_normal(m)
            expected.append(reference.random(m) < p_eps)
        kept, generators = [], []
        default_rng, stage_rows = np.random.default_rng, sim.stage_rows

        def recording_rng(*args):
            generators.append(default_rng(*args))
            return generators[-1]

        def recording_stage_rows(kind, x, keep, cfg):
            kept.extend(keep.copy())
            return stage_rows(kind, x, keep, cfg)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        monkeypatch.setattr(sim, "stage_rows", recording_stage_rows)
        _run_block(config, 0, 3, 5)
        assert len(kept) == 2 and all(row.dtype == bool for row in kept)
        assert all(np.array_equal(got, want) for got, want in zip(kept, expected))
        (rng,) = generators
        assert rng.bit_generator.state == reference.bit_generator.state


class TestDeterminism:
    def test_identical_runs(self):
        config = small_config()
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second
        assert results_to_csv(first, "n1") == results_to_csv(second, "n1")

    def test_worker_count_invariance(self):
        config = small_config(replicates=40)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=2)
        assert serial == parallel

    def test_seed_changes_output(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(master_seed=100))
        assert a != b


class TestPool:
    def test_worker_counts_agree_on_three_points(self, monkeypatch):
        # 30 replicates cut into spans of 8, 4 and 3 for 1, 2 and 3 workers
        _usable_cpus(monkeypatch, 3)
        config = small_config(replicates=30, sweep_values=(30.0, 60.0, 100.0))
        reference = run_experiment(config, workers=1)
        assert len(reference) == 3
        for workers in (2, 3):
            assert run_experiment(config, workers=workers) == reference

    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch):
        # a fake executor runs every span inline, so no process is ever forked
        sizes = []

        class InlinePool(contextlib.AbstractContextManager):
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
        _usable_cpus(monkeypatch, 2)
        config = small_config(replicates=8, sweep_values=(30.0,))
        assert run_experiment(config, workers=10**6) == run_experiment(config, workers=1)
        assert sizes == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_block_propagates_and_cancels_the_rest(self, tmp_path, monkeypatch,
                                                           workers):
        for name in ("started", "ended"):
            (tmp_path / name).mkdir()
        monkeypatch.setattr(sim, "_run_block", functools.partial(_held_block, tmp_path))
        monkeypatch.setattr(sim, "ProcessPoolExecutor",
                            functools.partial(_ReleasingPool, tmp_path))
        config = small_config(replicates=32, sweep_values=(30.0, 60.0, 100.0))
        with pytest.raises(RuntimeError, match="block failed"):
            run_experiment(config, workers=workers)
        started = {p.name for p in (tmp_path / "started").iterdir()}
        ended = {p.name for p in (tmp_path / "ended").iterdir()}
        # every span that started has ended: nothing is left running
        assert ended == started - {"0-0"}
        # only the failed span, one held span per worker and the spans the
        # executor had already queued for its workers may start; at 2
        # workers that is 6 of the 24 spans
        assert len(started) <= 1 + workers + (workers + EXTRA_QUEUED_CALLS)
        if workers == 1:
            assert started == {"0-0"}

    def test_coordinator_runs_no_bootstrap(self, monkeypatch):
        # forked workers inherit the wrapper but run under their own pids
        config = small_config(replicates=30, sweep_values=(30.0, 60.0, 100.0))
        reference = run_experiment(config, workers=1)
        coordinator, bootstrap = os.getpid(), sim.bootstrap_ci

        def in_workers_only(*args, **kwargs):
            if os.getpid() == coordinator:
                raise AssertionError("the coordinating process ran a bootstrap")
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(sim, "bootstrap_ci", in_workers_only)
        _usable_cpus(monkeypatch, 2)
        assert run_experiment(config, workers=2) == reference

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_bootstrap_propagates(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "_bootstrap", _bootstrap_failing_at_point_1)
        _usable_cpus(monkeypatch, 2)
        config = small_config(replicates=16, sweep_values=(30.0, 60.0, 100.0))
        with pytest.raises(FloatingPointError, match="bootstrap failed"):
            run_experiment(config, workers=workers)
        assert multiprocessing.active_children() == []


class TestCsv:
    def test_header_and_formatting(self):
        results = [MseResult(sweep_value=100.0, n=2000, replicates=64,
                             scaled_mse=7.123456789012, ci_lo=6.5, ci_hi=8.5,
                             clamp_rate=0.015625, theory_optimal=7.3555591266,
                             theory_one_stage=math.inf)]
        text = results_to_csv(results, "n1")
        lines = text.splitlines()
        assert lines[0] == ("sweep_name,sweep_value,n,replicates,scaled_mse,"
                            "ci_lo,ci_hi,clamp_rate,theory_optimal,theory_one_stage")
        fields = lines[1].split(",")
        assert fields[0] == "n1"
        assert fields[4] == "7.12345679"  # 9 significant digits
        assert fields[9] == "inf"
        assert text.endswith("\n")

    def test_row_per_sweep_value(self):
        results = run_experiment(small_config())
        text = results_to_csv(results, "n1")
        assert len(text.splitlines()) == 3


class TestSweepBehavior:
    def test_result_invariants(self):
        for r in run_experiment(small_config(replicates=128)):
            assert r.ci_lo <= r.scaled_mse <= r.ci_hi
            assert r.scaled_mse >= 0.0
            assert 0.0 <= r.clamp_rate <= 1.0

    def test_local_alternative_shift(self):
        # same seed with and without the local shift must differ
        base = run_experiment(small_config())
        shifted = run_experiment(small_config(h_over_sqrt_n=2.0))
        assert base != shifted

    def test_n_sweep_changes_sample_size(self):
        config = small_config(sweep_name="n", sweep_values=(500.0, 1000.0), n1=50)
        results = run_experiment(config)
        assert [r.n for r in results] == [500, 1000]

    @pytest.mark.slow
    def test_pilot_size_sweep_is_u_shaped(self):
        # full-size run: the minimum sits at an interior pilot size and
        # lands within 10% of the optimal variance 7.356
        config = ExperimentConfig(
            kind="two", epsilon=1.0, theta_true=0.0, n=10 ** 5, replicates=3000,
            master_seed=515, sweep_name="n1",
            sweep_values=(50.0, 1000.0, 5000.0, 30000.0))
        results = run_experiment(config, workers=2)
        mses = [r.scaled_mse for r in results]
        best = int(np.argmin(mses))
        assert best in (1, 2)
        assert mses[0] > mses[best]
        assert mses[3] > mses[best]
        assert abs(mses[best] - 7.356) <= 0.1 * 7.356
        # pilot sizes of 1000 and up essentially never clamp
        assert results[1].clamp_rate < 0.001
        assert results[2].clamp_rate < 0.001

    @pytest.mark.slow
    def test_guess_sweep_is_monotone(self):
        # scaled MSE grows as the initial guess moves away, up to CI overlap
        config = ExperimentConfig(
            kind="two", epsilon=1.0, theta_true=0.0, n=10 ** 5, replicates=1200,
            master_seed=616, sweep_name="theta0", sweep_values=(0.0, 1.0, 2.0, 4.0),
            n1=1000)
        results = run_experiment(config, workers=2)
        for prev, cur in zip(results, results[1:]):
            assert cur.ci_hi >= prev.ci_lo
        assert results[3].scaled_mse > results[0].scaled_mse
        # the one-stage reference line explodes with the guess offset
        assert results[3].theory_one_stage > results[0].theory_one_stage * 100
