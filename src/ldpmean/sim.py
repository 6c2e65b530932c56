"""Seeded Monte Carlo harness with bootstrap intervals and CSV output.

A run sweeps one named parameter (n1, theta0 or n) and, for each sweep
value, draws ``replicates`` independent datasets, runs the configured
estimator and reports the scaled mean squared error n * mean((estimate -
truth)^2) with a percentile-bootstrap confidence interval.

Replicate r of sweep point s derives its random stream from
SeedSequence(master_seed, spawn_key=(s, 0, r)) and the bootstrap of
sweep point s from spawn_key=(s, 1), so results are bit-identical
regardless of how replicates are scheduled across worker processes.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    EstimateResult,
    EstimatorConfig,
    one_stage,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    rescaled_estimate,
    three_stage,
    three_stage_pilot,
    two_stage,
    two_stage_pilot,
)
from .mechanisms import PrivacyParams, privacy_params

CSV_HEADER = ("sweep_name,sweep_value,n,replicates,scaled_mse,ci_lo,ci_hi,"
              "clamp_rate,theory_optimal,theory_one_stage")

ESTIMATOR_KINDS = ("one", "two", "three")
SWEEP_NAMES = ("n1", "theta0", "n")
_BOOTSTRAP_BLOCK = 64  # resamples drawn per index matrix


class BudgetError(RuntimeError):
    """Raised when a run would exceed the configured draw budget."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    ``h_over_sqrt_n`` shifts the data-generating mean to theta_true +
    h / sqrt(n) (local alternatives); errors are measured against the
    shifted mean.  ``max_total_draws`` guards against accidentally
    gigantic runs (sum over sweep points of replicates * n).

    Every field but ``master_seed`` is a config-file key, named by the
    field or by its ``key`` metadata, and the field order is the key
    order of a run manifest.
    """

    kind: str
    epsilon: float
    theta_true: float
    theta0: float = 0.0
    h_over_sqrt_n: float = field(default=0.0, metadata={"key": "h"})
    n: int
    n1: int | None = None
    n0: int = 15_000
    bits: int = 7
    range_lo: float = 0.0
    range_hi: float = 128.0
    sigma: float = 1.0
    replicates: int
    sweep_name: str = field(metadata={"key": "sweep"})
    sweep_values: tuple[float, ...]
    max_total_draws: int = 20_000_000_000
    master_seed: int


@dataclass(frozen=True)
class MseResult:
    """One output row: the sweep value and its error summary."""

    sweep_value: float
    n: int
    replicates: int
    scaled_mse: float
    ci_lo: float
    ci_hi: float
    clamp_rate: float
    theory_optimal: float
    theory_one_stage: float


def _check_kind(kind: str, sigma: float) -> None:
    """Only the two-stage estimator has a known-scale path (``rescaled_estimate``)."""
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    if sigma != 1.0 and kind != "two":
        raise ValueError("sigma != 1 is supported for the two-stage estimator only")


def estimate(kind: str, data, cfg: EstimatorConfig, sigma: float,
             rng: np.random.Generator) -> EstimateResult:
    """Run the ``kind`` estimator on data of known scale ``sigma``."""
    _check_kind(kind, sigma)
    if kind == "one":
        return one_stage(data, cfg, rng)
    if kind == "three":
        return three_stage(data, cfg, rng)
    if sigma != 1.0:
        return rescaled_estimate(data, sigma, cfg, rng)
    return two_stage(data, cfg, rng)


def _check_pilot(kind: str, n: int, cfg: EstimatorConfig) -> None:
    """Raise the ValueError the ``kind`` estimator would raise on n samples."""
    if kind == "two":
        two_stage_pilot(n, cfg)
    elif kind == "three":
        three_stage_pilot(n, cfg)


def synthetic_sample(n: int, theta: float, sigma: float,
                     rng: np.random.Generator) -> np.ndarray:
    """n draws of N(theta, sigma^2): standard normals, scaled, then shifted."""
    data = rng.standard_normal(n)
    if sigma != 1.0:
        data *= sigma
    if theta != 0.0:
        data += theta
    return data


def _validate(config: ExperimentConfig) -> None:
    """Reject a config that would fail at any sweep point, before any work."""
    _check_kind(config.kind, config.sigma)
    if config.sweep_name not in SWEEP_NAMES:
        raise ValueError(f"sweep must be one of {SWEEP_NAMES}, got {config.sweep_name!r}")
    if not config.sweep_values:
        raise ValueError("sweep_values must be non-empty")
    if not config.sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {config.sigma!r}")
    if config.replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {config.replicates}")
    if not 0 <= config.master_seed < 2 ** 64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    total = 0
    for value in config.sweep_values:
        if config.sweep_name != "theta0" and not float(value).is_integer():
            raise ValueError(f"{config.sweep_name} sweep values must be integers, got {value!r}")
        n, _, est_cfg = _point_setup(config, value)
        _check_pilot(config.kind, n, est_cfg)
        total += n * config.replicates
    if total > config.max_total_draws:
        raise BudgetError(
            f"run would draw {total} samples, over the budget of {config.max_total_draws}")


def _point_setup(config: ExperimentConfig, value: float):
    """Resolve one sweep point to (n, theta_n, estimator config)."""
    n = config.n
    n1 = config.n1
    theta0 = config.theta0
    if config.sweep_name == "n":
        n = int(value)
    elif config.sweep_name == "n1":
        n1 = int(value)
    else:
        theta0 = float(value)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    theta_n = config.theta_true + config.h_over_sqrt_n / math.sqrt(n)
    est_cfg = EstimatorConfig(
        epsilon=config.epsilon, theta0=theta0, n1=n1, n0=config.n0,
        bits=config.bits, range_lo=config.range_lo, range_hi=config.range_hi,
    )
    return n, theta_n, est_cfg


def _run_block(config: ExperimentConfig, sweep_index: int,
               r_lo: int, r_hi: int):
    """Run replicates [r_lo, r_hi) of one sweep point; returns errors and clamp flags."""
    n, theta_n, est_cfg = _point_setup(config, config.sweep_values[sweep_index])
    errors = np.empty(r_hi - r_lo)
    clamps = np.empty(r_hi - r_lo, dtype=bool)
    for r in range(r_lo, r_hi):
        seq = np.random.SeedSequence(entropy=config.master_seed,
                                     spawn_key=(sweep_index, 0, r))
        rng = np.random.default_rng(seq)
        data = synthetic_sample(n, theta_n, config.sigma, rng)
        result = estimate(config.kind, data, est_cfg, config.sigma, rng)
        errors[r - r_lo] = result.theta_hat - theta_n
        clamps[r - r_lo] = any(result.clamped)
    return r_lo, errors, clamps


def bootstrap_ci(values, level: float = 0.95, resamples: int = 1000,
                 rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of ``values``.

    Resampling happens at the entry (replicate) level.  Identical inputs
    give a zero-width interval; fewer than two entries are an error.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise ValueError("bootstrap needs at least two values")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    if vals.min() == vals.max():
        v = float(vals[0])
        return v, v
    if rng is None:
        rng = np.random.default_rng()
    means = np.empty(resamples)
    n = vals.size
    for start in range(0, resamples, _BOOTSTRAP_BLOCK):
        stop = min(start + _BOOTSTRAP_BLOCK, resamples)
        idx = rng.integers(0, n, size=(stop - start, n))
        means[start:stop] = vals[idx].mean(axis=1)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)


def theoretical_reference(kind: str, theta: float, theta0: float,
                          params: PrivacyParams, sigma: float = 1.0) -> float:
    """Reference variance line for a given estimator kind.

    "optimal" and "two" return the inverse released information; "one"
    evaluates the delta-method one-stage variance at the configured
    guess (rescaled for general sigma).
    """
    if kind in ("optimal", "two"):
        return optimal_asymptotic_variance(params, sigma)
    if kind == "one":
        return sigma * sigma * one_stage_asymptotic_variance(
            theta / sigma, theta0 / sigma, params)
    raise ValueError(f"kind must be 'one', 'two' or 'optimal', got {kind!r}")


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[MseResult]:
    """Run the full sweep; the result is independent of ``workers``.

    Each point's replicates are cut into spans, pre-assigned by index, so
    any partition across processes reduces to the same output.  One pool
    serves the whole run: every span of every point is submitted up
    front, and this process reduces and bootstraps point s while the
    workers run later points.  With one worker the same spans run inline.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _validate(config)
    params = privacy_params(config.epsilon)
    reps = config.replicates
    step = max(1, math.ceil(reps / (workers * 4)))
    spans = [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]
    tasks = [(s, lo, hi) for s in range(len(config.sweep_values)) for lo, hi in spans]
    results = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        if pool is None:
            blocks = (_run_block(config, *task) for task in tasks)
        else:
            futures = [pool.submit(_run_block, config, *task) for task in tasks]
            blocks = (future.result() for future in futures)
        try:
            for s, value in enumerate(config.sweep_values):
                n, theta_n, est_cfg = _point_setup(config, value)
                errors = np.empty(reps)
                clamps = np.empty(reps, dtype=bool)
                for _ in spans:
                    lo, errs, flags = next(blocks)
                    errors[lo:lo + errs.size] = errs
                    clamps[lo:lo + flags.size] = flags
                sq = errors ** 2
                boot_rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=config.master_seed, spawn_key=(s, 1)))
                lo_mean, hi_mean = bootstrap_ci(sq, level=0.95, resamples=1000, rng=boot_rng)
                results.append(MseResult(
                    sweep_value=float(value),
                    n=n,
                    replicates=reps,
                    scaled_mse=float(n * sq.mean()),
                    ci_lo=float(n * lo_mean),
                    ci_hi=float(n * hi_mean),
                    clamp_rate=float(clamps.mean()),
                    theory_optimal=theoretical_reference("optimal", theta_n, est_cfg.theta0,
                                                         params, config.sigma),
                    theory_one_stage=theoretical_reference("one", theta_n, est_cfg.theta0,
                                                           params, config.sigma),
                ))
        except BaseException:
            if pool is not None:  # drop the spans no worker has taken, wait for the rest
                pool.shutdown(cancel_futures=True)
            raise
    return results


def _fmt(x: float) -> str:
    """Reals with 9 significant digits; the format spells inf, -inf and nan."""
    return f"{x:.9g}"


def results_to_csv(results: list[MseResult], sweep_name: str) -> str:
    """Render results as the delimited report (header row mandatory)."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(",".join([
            sweep_name, _fmt(r.sweep_value), str(r.n), str(r.replicates),
            _fmt(r.scaled_mse), _fmt(r.ci_lo), _fmt(r.ci_hi),
            _fmt(r.clamp_rate), _fmt(r.theory_optimal), _fmt(r.theory_one_stage),
        ]))
    return "\n".join(lines) + "\n"
