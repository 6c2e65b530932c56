"""Seeded Monte Carlo harness with bootstrap intervals and CSV output.

A run sweeps one named parameter (n1, theta0 or n) and, for each sweep
value, draws ``replicates`` independent datasets, runs the configured
estimator and reports the scaled mean squared error n * mean((estimate -
truth)^2) with a percentile-bootstrap confidence interval.

Replicate r of sweep point s derives its random stream from
SeedSequence(master_seed, spawn_key=(s, 0, r)) and the bootstrap of
sweep point s from spawn_key=(s, 1), so results are bit-identical
regardless of how replicates are scheduled across worker processes.  A
span of replicates starts from numpy's SeedSequence pool for spawn_key
(s, 0), hashes only r itself and re-seeds one generator in place.  One
stage loop, ``estimators.stage_rows``, runs a block of replicates of any
kind at once, each on its own stream; ``estimators.layout`` checks the
kind and its layout at every sweep point before any work.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .estimators import (
    layout,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    stage_rows,
)
# Not called here: perfbench/layertrace.py rebinds these four names of sim.
from .estimators import one_stage, rescaled_estimate, three_stage, two_stage  # noqa: F401
from .mechanisms import privacy_params
from .schema import EstimatorConfig

SWEEP_NAMES = ("n1", "theta0", "n")
_BLOCK_ELEMS = 2 ** 16  # samples per replicate block, and indices per bootstrap block
_STAGE_REACH = 77.0  # sigmas two stages can move an estimate from its first center

# numpy's SeedSequence hash and PCG64 seeding, for _replicate_states
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_SEED_CHUNK = 4096  # replicates hashed per numpy pass

# concurrent.futures.ProcessPoolExecutor, imported by the first pooled run
# (``_pool``), so one-worker runs never load multiprocessing; looked up at
# call time, so perfbench/layertrace.py and the tests may rebind it.
ProcessPoolExecutor = None


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
    theta0: float = EstimatorConfig.theta0
    h_over_sqrt_n: float = field(default=0.0, metadata={"key": "h"})
    n: int
    n1: int | None = EstimatorConfig.n1
    n0: int = EstimatorConfig.n0
    bits: int = EstimatorConfig.bits
    range_lo: float = EstimatorConfig.range_lo
    range_hi: float = EstimatorConfig.range_hi
    sigma: float = EstimatorConfig.sigma
    replicates: int
    sweep_name: str = field(metadata={"key": "sweep"})
    sweep_values: tuple[float, ...]
    max_total_draws: int = 20_000_000_000
    master_seed: int


@dataclass(frozen=True)
class MseResult:
    """One output row: the sweep value and its error summary.

    The CSV columns are ``sweep_name`` and then these fields, in order.
    """

    sweep_value: float
    n: int
    replicates: int
    scaled_mse: float
    ci_lo: float
    ci_hi: float
    clamp_rate: float
    theory_optimal: float
    theory_one_stage: float


def _fmt(x: float) -> str:
    """Reals with 9 significant digits; the format spells inf, -inf and nan."""
    return f"{x:.9g}"


CSV_HEADER = ",".join(["sweep_name", *(f.name for f in fields(MseResult))])
_CSV_FORMATS = [(f.name, str if f.type == "int" else _fmt) for f in fields(MseResult)]


def _to_data_units(x: np.ndarray, theta: float, sigma: float) -> np.ndarray:
    """Scale standard normals ``x`` by sigma, then shift them by theta, in place.

    The CSV bytes at a pinned seed depend on this order.  The skips save two
    passes over the block; the bytes do not depend on them.
    """
    if sigma != 1.0:
        x *= sigma
    if theta != 0.0:
        x += theta
    return x


def synthetic_sample(n: int, theta: float, sigma: float,
                     rng: np.random.Generator) -> np.ndarray:
    """n draws of N(theta, sigma^2): standard normals, scaled, then shifted."""
    return _to_data_units(rng.standard_normal(n), theta, sigma)


def _validate(config: ExperimentConfig) -> None:
    """Reject a config that would fail at any sweep point, before any work."""
    if config.sweep_name not in SWEEP_NAMES:
        raise ValueError(f"sweep must be one of {SWEEP_NAMES}, got {config.sweep_name!r}")
    if not config.sweep_values:
        raise ValueError("sweep_values must be non-empty")
    if not 2 <= config.replicates <= 2 ** 32:  # r is one SeedSequence word
        raise ValueError(f"replicates must be in [2, 2**32], got {config.replicates}")
    if not 0 <= config.master_seed < 2 ** 64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    total = 0
    for value in config.sweep_values:
        if config.sweep_name != "theta0" and not float(value).is_integer():
            raise ValueError(f"{config.sweep_name} sweep values must be integers, got {value!r}")
        n, theta_n, est_cfg = _point_setup(config, value)
        rounds, _ = layout(config.kind, n, est_cfg)
        _check_overflow(config, n, theta_n, est_cfg, bool(rounds))
        total += n * config.replicates
    if total > config.max_total_draws:
        raise BudgetError(
            f"run would draw {total} samples, over the budget of {config.max_total_draws}")


def _check_overflow(config: ExperimentConfig, n: int, theta_n: float,
                    est_cfg: EstimatorConfig, in_range: bool) -> None:
    """Reject a point whose squared errors would overflow float64.

    A stage moves its center by at most ``_STAGE_REACH`` / 2 sigmas, since
    |Phi^-1(p)| <= 38.47 for every double p in (0, 1).  So an estimate
    lies within ``_STAGE_REACH`` sigmas of its first center: theta0, or a
    point of [range_lo, range_hi] if the estimator bisects that range
    first (``in_range``).  The scaled MSE sums ``replicates`` squared
    errors and multiplies their mean by n; both must stay finite.
    """
    if in_range:
        far = max(abs(theta_n - est_cfg.range_lo), abs(theta_n - est_cfg.range_hi))
    else:
        far = abs(theta_n - est_cfg.theta0)
    reach = far + _STAGE_REACH * config.sigma
    if not math.isfinite(max(n, config.replicates) * reach * reach):
        raise ValueError(f"squared errors overflow at n = {n}: theta is {far!r} "
                         "from where the estimator starts")


def _point_setup(config: ExperimentConfig, value: float):
    """Resolve one sweep point to (n, theta_n, estimator config)."""
    n = config.n
    est = {f.name: getattr(config, f.name) for f in fields(EstimatorConfig)}
    if config.sweep_name == "n":
        n = int(value)
    elif config.sweep_name == "n1":
        est["n1"] = int(value)
    else:
        est["theta0"] = float(value)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > sys.float_info.max:  # a config n; a sweep value is a finite float
        raise ValueError(f"n has {len(str(n))} digits, beyond the float64 range")
    theta_n = config.theta_true + config.h_over_sqrt_n / math.sqrt(n)
    if not math.isfinite(theta_n):
        raise ValueError(f"theta_true + h / sqrt(n) overflows at n = {n}")
    return n, theta_n, EstimatorConfig(**est)


def _replicate_states(master_seed: int, sweep_index: int, r_lo: int, r_hi: int):
    """Yield the PCG64 state of each replicate r in [r_lo, r_hi) of one sweep point.

    Each state equals ``np.random.PCG64(np.random.SeedSequence(master_seed,
    spawn_key=(sweep_index, 0, r))).state``.  numpy's SeedSequence for
    spawn_key (sweep_index, 0) mixes the L words the replicates share; its
    pool and the hash constant it reached, _INIT_A * _MULT_A**(4 L) (four
    hashmix calls per word; a master seed below 2**64 pads to the 4-word
    pool), are the start for the last word r (r < 2**32), hashed for a chunk
    of replicates at a time in uint64 arithmetic masked to 32 bits.  Then
    come ``generate_state(4, uint64)`` and PCG64's seeding,
    pcg_setseq_128_srandom_r, in Python ints.
    """
    if r_hi > 2 ** 32:
        raise ValueError("replicate indices must fit in one 32-bit word")
    pool = np.random.SeedSequence(master_seed, spawn_key=(sweep_index, 0)).pool.tolist()
    shared_words = len(pool) + max(1, (sweep_index.bit_length() + 31) // 32) + 1
    r_const = _INIT_A * pow(_MULT_A, 4 * shared_words, 1 << 32) & _MASK32

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _MASK32
        return x ^ (x >> 16)

    for lo in range(r_lo, r_hi, _SEED_CHUNK):
        hash_const = r_const
        r = np.arange(lo, min(lo + _SEED_CHUNK, r_hi), dtype=np.uint64)
        mixed = [mix(p, hashmix(r)) for p in pool]
        out, out_const = [], _INIT_B
        for i in range(8):  # generate_state(4, uint64): 8 words, cycling over the pool
            value = mixed[i % len(pool)] ^ out_const
            out_const = (out_const * _MULT_B) & _MASK32
            value = (value * out_const) & _MASK32
            out.append(value ^ (value >> 16))
        seed_hi, seed_lo, seq_hi, seq_lo = ((out[i] | out[i + 1] << 32).tolist()
                                            for i in range(0, 8, 2))
        for a, b, c, d in zip(seed_hi, seed_lo, seq_hi, seq_lo):
            inc = (((c << 64 | d) << 1) | 1) & _MASK128
            state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}


def _run_block(config: ExperimentConfig, sweep_index: int,
               r_lo: int, r_hi: int):
    """Run replicates [r_lo, r_hi) of one sweep point; returns errors and clamp flags.

    One generator, re-seeded in place, draws each replicate's n normals and
    then n uniforms (at least those its estimator consumes, and nothing
    follows) into one row; a block of rows runs through ``stage_rows``.
    """
    n, theta_n, est_cfg = _point_setup(config, config.sweep_values[sweep_index])
    reps, rows = r_hi - r_lo, max(1, _BLOCK_ELEMS // n)
    errors = np.empty(reps)
    clamps = np.empty(reps, dtype=bool)
    block = np.empty((2, rows, n))  # normals and uniforms, a replicate per row
    bitgen = np.random.PCG64(0)
    rng = np.random.default_rng(bitgen)
    states = _replicate_states(config.master_seed, sweep_index, r_lo, r_hi)
    for lo in range(0, reps, rows):
        x, u = block[:, :reps - lo]  # the last block may hold fewer rows
        for x_row, u_row, state in zip(x, u, states):  # states last: zip stops at the rows
            bitgen.state = state
            rng.standard_normal(out=x_row)
            rng.random(out=u_row)
        _to_data_units(x, theta_n, config.sigma)
        estimates, clamped = stage_rows(config.kind, x, u, est_cfg)
        errors[lo:lo + rows] = np.subtract(estimates[-1], theta_n)
        clamps[lo:lo + rows] = np.any(clamped, axis=0)
    return r_lo, errors, clamps


def bootstrap_ci(values, level: float = 0.95, resamples: int = 1000, *,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of ``values``.

    Resampling happens at the entry (replicate) level.  ``values`` must be
    1-D and finite with at least two entries, and ``resamples`` an integer
    >= 1, or this raises ValueError.  Identical inputs give a zero-width
    interval.

    Each ``rng.integers`` call draws max(1, 2**16 // n) resamples of the n
    entries, about 2**16 indices.  The split cannot change the result:
    numpy draws an index below 2**32 from 32 bits and PCG64 keeps the spare
    half of a 64-bit word for the next call, so every split draws the same
    indices, and each mean is the same pairwise sum over one row.

    The ends are the q = tail and 1 - tail quantiles, tail = (1 - level) /
    2, of the R sorted resample means s by numpy's default "linear" rule
    (Hyndman-Fan type 7), which ``np.quantile`` gives bit for bit: with pos
    = q (R - 1), i = floor(pos), g = pos - i, a = s[i] and b = s[min(i + 1,
    R - 1)], the end is b - (b - a)(1 - g) when g >= 0.5 and a + (b - a) g
    otherwise.  ``np.quantile`` itself would load numpy.ma (via np.unique).
    """
    if not isinstance(resamples, numbers.Integral) or resamples < 1:
        raise ValueError(f"resamples must be an integer >= 1, got {resamples!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError(f"bootstrap needs two or more values in 1-D, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("bootstrap values must be finite")
    if vals.min() == vals.max():
        v = float(vals[0])
        return v, v
    means = np.empty(resamples)
    n = vals.size
    rows = max(1, _BLOCK_ELEMS // n)
    for start in range(0, resamples, rows):
        idx = rng.integers(0, n, size=(min(rows, resamples - start), n))
        means[start:start + rows] = vals[idx].mean(axis=1)
    means.sort()
    tail = (1.0 - level) / 2.0
    return _sorted_quantile(means, tail), _sorted_quantile(means, 1.0 - tail)


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """``np.quantile(s, q)`` of the sorted 1-D ``s``: the rule in ``bootstrap_ci``."""
    last = s.size - 1
    pos = q * last
    i = math.floor(pos)
    a, b = float(s[i]), float(s[min(i + 1, last)])
    g = pos - i
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def _pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers``, importing the class on first use."""
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[MseResult]:
    """Run the full sweep; the result is independent of ``workers``.

    Each point's replicates are cut into spans, pre-assigned by index, so
    any partition across processes reduces to the same output.  One pool
    serves the whole run: every span of every point is submitted up
    front, and this process reduces and bootstraps point s while the
    workers run later points.  The pool has at most one worker per CPU;
    with one worker the same spans run inline.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _validate(config)
    workers = min(workers, os.cpu_count() or 1)
    params = privacy_params(config.epsilon)
    reps = config.replicates
    step = max(1, math.ceil(reps / (workers * 4)))
    spans = [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]
    tasks = [(s, lo, hi) for s in range(len(config.sweep_values)) for lo, hi in spans]
    results = []
    with (_pool(workers) if workers > 1 else contextlib.nullcontext()) as pool:
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
                    theory_optimal=optimal_asymptotic_variance(params, config.sigma),
                    theory_one_stage=one_stage_asymptotic_variance(
                        theta_n, est_cfg.theta0, params, config.sigma),
                ))
        except BaseException:
            if pool is not None:  # drop the spans no worker has taken, wait for the rest
                pool.shutdown(cancel_futures=True)
            raise
    return results


def results_to_csv(results: list[MseResult], sweep_name: str) -> str:
    """Render results as the delimited report (header row mandatory)."""
    lines = [CSV_HEADER]
    for r in results:
        cells = (fmt(getattr(r, name)) for name, fmt in _CSV_FORMATS)
        lines.append(",".join([sweep_name, *cells]))
    return "\n".join(lines) + "\n"
