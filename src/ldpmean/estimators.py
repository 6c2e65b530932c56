"""Staged locally private estimators of a Gaussian mean.

Every estimator releases exactly one randomized-response-privatized sign
bit per data holder; stages differ only in where the comparison center
comes from.  The one-stage estimator inverts the mean of all bits taken
at a fixed initial guess.  The two-stage estimator spends a vanishing
fraction of the sample on a pilot estimate and centers the remaining
bits there, which restores full asymptotic efficiency.  The three-stage
estimator prepends an adaptive bisection over a known range to produce
the pilot's initial guess when none is available.

Data enters in caller order: the first n1 samples form stage one, and
for the three-stage variant the first n0 samples feed the bisection.
Callers shuffle if their data is not exchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mechanisms import PrivacyParams, privacy_params, sign_mechanism
from .numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile
from .quantized import scaled_fisher_info


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs shared by the staged estimators.

    n1 is the pilot group size for the two- and three-stage procedures
    (None selects the floor(n^0.7) heuristic); n0 and bits configure the
    three-stage bisection over [range_lo, range_hi].
    """

    epsilon: float
    theta0: float = 0.0
    n1: int | None = None
    n0: int = 15_000
    bits: int = 7
    range_lo: float = 0.0
    range_hi: float = 128.0


@dataclass(frozen=True)
class EstimateResult:
    """Final estimate plus the per-stage trace.

    ``clamped[s]`` records that stage s saw |mean bit| at or above t_eps
    and fell back to its center, in which case stage_estimates[s] equals
    the previous stage's value (or the initial guess).
    """

    theta_hat: float
    stage_estimates: tuple[float, ...]
    clamped: tuple[bool, ...]


def default_n1(n: int) -> int:
    """Pilot size heuristic floor(n^0.7); a convenience, not an optimum."""
    return max(1, int(n ** 0.7))


def invert_mean(z_bar: float, center: float, params: PrivacyParams) -> float:
    """Invert the expected released bit around ``center``.

    Returns center - quantile(1/2 - z_bar / (2 t_eps)) when |z_bar| <
    t_eps and the center itself otherwise; the guard keeps the quantile
    argument strictly inside (0, 1), so the map is total.
    """
    t = params.t_eps
    if abs(z_bar) < t:
        return center - std_normal_quantile(0.5 - z_bar / (2.0 * t))
    return center


def _stage(data: np.ndarray, center: float, params: PrivacyParams,
           rng: np.random.Generator) -> tuple[float, bool]:
    """Sanitize one group at ``center`` and invert its mean bit."""
    z = sign_mechanism(data, center, params, rng)
    z_bar = float(z.mean())
    clamped = not abs(z_bar) < params.t_eps
    return invert_mean(z_bar, center, params), clamped


def one_stage(data, config: EstimatorConfig,
              rng: np.random.Generator) -> EstimateResult:
    """Invert the mean bit of the whole sample at the initial guess."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("one_stage requires at least one sample")
    est, clamped = _stage(data, config.theta0, privacy_params(config.epsilon), rng)
    return EstimateResult(theta_hat=est, stage_estimates=(est,), clamped=(clamped,))


def two_stage(data, config: EstimatorConfig,
              rng: np.random.Generator) -> EstimateResult:
    """Pilot on the first n1 samples, then re-center the remaining bits.

    Each sample is sanitized exactly once; stage two's mechanism is
    centered at the stage-one estimate (or at theta0 when stage one
    clamped).
    """
    data = np.asarray(data, dtype=float)
    n = data.size
    n1 = config.n1 if config.n1 is not None else default_n1(n)
    if not 1 <= n1 < n:
        raise ValueError(f"need 1 <= n1 < n, got n1={n1}, n={n}")
    params = privacy_params(config.epsilon)
    pilot, clamped1 = _stage(data[:n1], config.theta0, params, rng)
    final, clamped2 = _stage(data[n1:], pilot, params, rng)
    return EstimateResult(theta_hat=final,
                          stage_estimates=(pilot, final),
                          clamped=(clamped1, clamped2))


def three_stage(data, config: EstimatorConfig,
                rng: np.random.Generator) -> EstimateResult:
    """Bisection over a known range, then the two-stage procedure.

    The preliminary stage runs ``bits`` rounds, each consuming
    floor(n0 / bits) fresh samples: round b releases sign bits at the
    current interval midpoint and recurses toward the half the mean bit
    points at (ties go up, matching sgn(0) := 1).  Any n0 - bits *
    floor(n0 / bits) leftover samples are never queried.  The final
    midpoint, whose resolution is (range width) / 2^bits, seeds the
    two-stage run on the remaining n - n0 samples.
    """
    data = np.asarray(data, dtype=float)
    n = data.size
    n0, rounds = config.n0, config.bits
    if rounds < 1:
        raise ValueError(f"bits must be >= 1, got {rounds}")
    if n0 < rounds:
        raise ValueError(f"need n0 >= bits, got n0={n0}, bits={rounds}")
    if not config.range_lo < config.range_hi:
        raise ValueError("need range_lo < range_hi")
    n1 = config.n1 if config.n1 is not None else default_n1(n - n0)
    if n0 + n1 >= n:
        raise ValueError(f"need n0 + n1 < n, got n0={n0}, n1={n1}, n={n}")
    params = privacy_params(config.epsilon)

    group = n0 // rounds
    lo, hi = config.range_lo, config.range_hi
    for b in range(rounds):
        mid = (lo + hi) / 2.0
        chunk = data[b * group:(b + 1) * group]
        z = sign_mechanism(chunk, mid, params, rng)
        if float(z.mean()) >= 0.0:
            lo = mid
        else:
            hi = mid
    prelim = (lo + hi) / 2.0

    tail = two_stage(data[n0:], replace(config, theta0=prelim, n1=n1), rng)
    return EstimateResult(theta_hat=tail.theta_hat,
                          stage_estimates=(prelim,) + tail.stage_estimates,
                          clamped=(False,) + tail.clamped)


def one_stage_asymptotic_variance(theta: float, theta0: float,
                                  params: PrivacyParams) -> float:
    """Delta-method variance of the one-stage estimator.

    (1/4) (1/t_eps)^2 * (1 - t_eps^2 (1 - 2 Phi(theta0 - theta))^2)
    / pdf(theta - theta0)^2.  Matches the optimal variance at theta0 =
    theta and deteriorates exponentially as the guess drifts; depends on
    the arguments only through |theta - theta0|.  Infinite at t_eps = 0
    and once pdf(theta - theta0)^2 underflows to 0 (|theta - theta0|
    above about 27.3).
    """
    t = params.t_eps
    if t == 0.0:
        return math.inf
    d = theta - theta0
    bias_factor = 1.0 - 2.0 * std_normal_cdf(theta0 - theta)
    num = 1.0 - t * t * bias_factor * bias_factor
    den = std_normal_pdf(d) ** 2
    if den == 0.0:
        return math.inf
    return 0.25 * num / (t * t * den)


def optimal_asymptotic_variance(params: PrivacyParams, sigma: float = 1.0) -> float:
    """Inverse of the per-sample released information; inf at epsilon = 0."""
    info = scaled_fisher_info(params, sigma)
    if info == 0.0:
        return math.inf
    return 1.0 / info


def rescaled_estimate(data, sigma: float, config: EstimatorConfig,
                      rng: np.random.Generator) -> EstimateResult:
    """Two-stage estimation for a known scale ``sigma``.

    Runs the unit-variance procedure on data / sigma with the guess
    theta0 / sigma and scales the resulting estimates back by sigma.
    With sigma = 1 this reproduces ``two_stage`` bit for bit.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    scaled = np.asarray(data, dtype=float) / sigma
    inner = two_stage(scaled, replace(config, theta0=config.theta0 / sigma), rng)
    return EstimateResult(
        theta_hat=sigma * inner.theta_hat,
        stage_estimates=tuple(sigma * s for s in inner.stage_estimates),
        clamped=inner.clamped,
    )
