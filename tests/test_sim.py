import dataclasses
import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import EXTRA_QUEUED_CALLS

import numpy as np
import pytest

import ldpmean.sim as sim
from ldpmean.estimators import (
    EstimatorConfig,
    one_stage,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    rescaled_estimate,
    three_stage,
    two_stage,
)
from ldpmean.mechanisms import privacy_params
from ldpmean.sim import (
    BudgetError,
    ExperimentConfig,
    MseResult,
    bootstrap_ci,
    estimate,
    results_to_csv,
    run_experiment,
    _replicate_states,
    _run_block,
    synthetic_sample,
    theoretical_reference,
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


class TestTheoreticalReference:
    def test_optimal(self):
        params = privacy_params(1.0)
        assert theoretical_reference("optimal", 0.0, 0.0, params) == pytest.approx(
            7.3555591266, abs=1e-9)

    def test_one_stage_matches_optimal_at_true_guess(self):
        params = privacy_params(1.0)
        assert theoretical_reference("one", 1.2, 1.2, params) == pytest.approx(
            theoretical_reference("optimal", 1.2, 1.2, params), rel=1e-12)

    def test_one_stage_far_guess(self):
        params = privacy_params(1.0)
        value = theoretical_reference("one", 0.0, 4.0, params)
        assert math.isfinite(value) and value > 1e3

    def test_one_stage_guess_past_density_underflow(self):
        # pdf(84.5)^2 underflows to 0: the fig2 guess/true-mean distance
        value = theoretical_reference("one", 84.5, 0.0, privacy_params(1.0))
        assert value == math.inf

    def test_two_kind_and_sigma(self):
        params = privacy_params(1.0)
        assert theoretical_reference("two", 0.0, 0.0, params, sigma=2.0) == pytest.approx(
            4.0 * optimal_asymptotic_variance(params, 1.0), rel=1e-12)
        assert theoretical_reference("one", 2.0, 3.0, params, sigma=2.0) == pytest.approx(
            4.0 * one_stage_asymptotic_variance(1.0, 1.5, params), rel=1e-12)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            theoretical_reference("three", 0.0, 0.0, privacy_params(1.0))


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

    def test_sigma_requires_two_stage(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(kind="one", sigma=2.0))

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
        with pytest.raises(ValueError, match=match):
            run_experiment(small_config(**overrides), workers=2)

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
            assert estimate(kind, data, cfg, 1.0, np.random.default_rng(6)) == expected

    def test_sigma_routes_to_rescaled(self):
        cfg = EstimatorConfig(epsilon=1.0)
        data = synthetic_sample(3000, 1.0, 2.0, np.random.default_rng(5))
        expected = rescaled_estimate(data, 2.0, cfg, np.random.default_rng(6))
        assert estimate("two", data, cfg, 2.0, np.random.default_rng(6)) == expected

    @pytest.mark.parametrize("kind", ["one", "three"])
    def test_sigma_requires_two_stage(self, kind):
        cfg = EstimatorConfig(epsilon=1.0)
        with pytest.raises(ValueError, match="two-stage"):
            estimate(kind, np.zeros(100), cfg, 2.0, np.random.default_rng(0))

    def test_synthetic_sample_order(self):
        # standard normals, then the scale, then the shift
        draws = np.random.default_rng(3).standard_normal(50)
        sample = synthetic_sample(50, 0.25, 3.0, np.random.default_rng(3))
        assert np.array_equal(sample, draws * 3.0 + 0.25)
        assert np.array_equal(synthetic_sample(50, 0.0, 1.0, np.random.default_rng(3)), draws)


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

    def test_block_matches_per_replicate_seed_sequences(self):
        config = small_config(replicates=12, kind="three", n=900, n0=300, bits=4,
                              range_hi=8.0, theta_true=2.5, sweep_name="theta0",
                              sweep_values=(0.0, 1.0))
        n, theta_n, est_cfg = sim._point_setup(config, 1.0)
        expected = []
        for r in range(3, 11):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(1, 0, r)))
            data = synthetic_sample(n, theta_n, 1.0, rng)
            result = estimate("three", data, est_cfg, 1.0, rng)
            expected.append(result.theta_hat - theta_n)
        lo, errors, _ = _run_block(config, 1, 3, 11)
        assert lo == 3
        assert errors.tolist() == expected


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
    def test_worker_counts_agree_on_three_points(self):
        # 30 replicates cut into spans of 8, 4 and 3 for 1, 2 and 3 workers
        config = small_config(replicates=30, sweep_values=(30.0, 60.0, 100.0))
        reference = run_experiment(config, workers=1)
        assert len(reference) == 3
        for workers in (2, 3):
            assert run_experiment(config, workers=workers) == reference

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
