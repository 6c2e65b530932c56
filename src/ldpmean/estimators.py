"""Staged locally private estimators of a Gaussian mean.

Every estimator releases exactly one randomized-response-privatized sign
bit per data holder; stages differ only in where the comparison center
comes from.  The one-stage estimator inverts the mean of all bits taken
at a fixed initial guess.  The two-stage estimator spends a vanishing
fraction of the sample on a pilot estimate and centers the remaining
bits there, which restores full asymptotic efficiency.  The three-stage
estimator prepends an adaptive bisection over a known range to produce
the pilot's initial guess when none is available.

Data enters in caller order, as ``layout`` plans it: the first n1
samples form stage one, and for the three-stage variant the first bits *
floor(n0 / bits) samples feed the bisection and the pilot starts at n0.
Callers shuffle if their data is not exchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mechanisms import PrivacyParams, privacy_params, released_bit_sums
# Not called here: perfbench/layertrace.py rebinds estimators.sign_mechanism.
from .mechanisms import sign_mechanism  # noqa: F401
from .numerics import SQRT_2PI, std_normal_cdf, std_normal_quantile
from .quantized import sign_fisher_info
from .schema import ESTIMATOR_KINDS, EstimatorConfig


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


def invert_mean(z_bar: float, center: float, params: PrivacyParams,
                sigma: float = 1.0) -> float:
    """Invert the expected released bit around ``center`` for data of scale ``sigma``.

    Returns center - sigma * quantile(1/2 - z_bar / (2 t_eps)) when
    |z_bar| < t_eps and the center itself otherwise.  Where the argument
    rounds to 1 although z_bar > -t_eps, it is center + sigma * quantile((t_eps
    + z_bar) / (2 t_eps)), whose sum is exact by Sterbenz; 1/2 - x is exact
    near x = 1/2, so the argument never rounds to 0 and the value is finite.
    At sigma = 1 the product is the quantile itself, bit for bit.
    """
    t = params.t_eps
    if not abs(z_bar) < t:
        return center
    p = 0.5 - z_bar / (2.0 * t)
    if p < 1.0:
        return center - sigma * std_normal_quantile(p)
    return center + sigma * std_normal_quantile((t + z_bar) / (2.0 * t))


def layout(kind: str, n: int, config: EstimatorConfig) -> tuple[list, list]:
    """The plan of ``kind`` on n samples: ``(rounds, stages)``, its bit groups in order.

    Each group is a pair of slices, its samples' columns of x and its uniforms'
    columns of u, and enters the estimate only through its count of released
    +1 bits.  ``rounds`` holds the bisection, empty but for ``three``: ``bits``
    rounds of floor(n0 / bits) fresh samples each, round b releasing sign bits
    at the current interval midpoint and recursing toward the half the count
    points at (ties go up, matching sgn(0) := 1).  The n0 - bits * floor(n0 /
    bits) leftover samples are never queried and draw no uniforms, so from
    there on the x columns run that many ahead of the u columns.
    The final midpoint, whose resolution is (range width) / 2^bits, is the
    first center of ``stages``: the whole sample for ``one``, else a pilot of
    n1 samples and the rest of the sample, centered at the pilot's estimate.

    The only function that knows each kind, so the only layout check: a
    ValueError names an unknown kind or a layout that does not fit n.
    """
    if kind == "one":
        if n < 1:
            raise ValueError("one_stage requires at least one sample")
        return [], [(slice(0, n),) * 2]
    if kind == "two":
        n1 = config.n1 if config.n1 is not None else default_n1(n)
        if not 1 <= n1 < n:
            raise ValueError(f"need 1 <= n1 < n, got n1={n1}, n={n}")
        return [], [(slice(0, n1),) * 2, (slice(n1, n),) * 2]
    if kind != "three":
        raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    n0, bits = config.n0, config.bits
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if n0 < bits:
        raise ValueError(f"need n0 >= bits, got n0={n0}, bits={bits}")
    if not config.range_lo < config.range_hi:
        raise ValueError("need range_lo < range_hi")
    # default_n1 of a non-positive count would be complex; such n fail below
    n1 = config.n1 if config.n1 is not None else default_n1(max(1, n - n0))
    if not 1 <= n1 or n0 + n1 >= n:
        raise ValueError(f"need 1 <= n1 and n0 + n1 < n, got n0={n0}, n1={n1}, n={n}")
    group = n0 // bits
    bisected = bits * group
    rounds = [(slice(b * group, (b + 1) * group),) * 2 for b in range(bits)]
    return rounds, [(slice(n0, n0 + n1), slice(bisected, bisected + n1)),
                    (slice(n0 + n1, n), slice(bisected + n1, bisected + n - n0))]


def stage_rows(kind: str, x: np.ndarray, u: np.ndarray, config: EstimatorConfig):
    """Run ``kind`` on each row of ``x`` (one dataset) and ``u``, at least the uniforms it reads.

    Walks the plan: each group is counted (``released_bit_sums``) at the
    rows' centers, and the counts alone move the centers.  A round goes up
    where its count is >= 0; a stage of m samples inverts count / m, the
    mean of its bits (``invert_mean``), and flags |z_bar| >= t_eps.  Returns
    per stage, the bisection's last midpoint first, all rows' estimates and flags.
    """
    rounds, stages = layout(kind, x.shape[1], config)
    params = privacy_params(config.epsilon)
    centers = [config.theta0] * len(x)
    estimates, clamped = [], []
    if rounds:
        lo, hi = (np.full(len(x), end, dtype=float) for end in (config.range_lo, config.range_hi))
        for xs, us in rounds:
            mid = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 would overflow near the largest double
            up = np.array(released_bit_sums(x[:, xs], u[:, us], mid, params.p_eps)) >= 0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        centers = (lo / 2.0 + hi / 2.0).tolist()
        estimates.append(centers)
        clamped.append([False] * len(x))
    for xs, us in stages:
        # count / m is the mean of the materialized +/-1 bits: exact integers summed, one division
        z_bars = [count / (xs.stop - xs.start)
                  for count in released_bit_sums(x[:, xs], u[:, us], centers, params.p_eps)]
        centers = [invert_mean(z, c, params, config.sigma) for z, c in zip(z_bars, centers)]
        estimates.append(centers)
        clamped.append([not abs(z) < params.t_eps for z in z_bars])
    return estimates, clamped


def released_bits(kind: str, n: int, config: EstimatorConfig) -> int:
    """Uniforms the ``kind`` estimator draws on n samples: the end of its plan's last u slice."""
    _, stages = layout(kind, n, config)
    return stages[-1][1].stop


def estimate(kind: str, data, config: EstimatorConfig,
             rng: np.random.Generator) -> EstimateResult:
    """Run the ``kind`` estimator on ``data`` as one row; nothing is drawn before its checks."""
    x = np.asarray(data, dtype=float).reshape(1, -1)
    u = rng.random((1, released_bits(kind, x.shape[1], config)))
    estimates, clamped = ([stage[0] for stage in part] for part in stage_rows(kind, x, u, config))
    return EstimateResult(estimates[-1], tuple(estimates), tuple(clamped))


def one_stage(data, config: EstimatorConfig,
              rng: np.random.Generator) -> EstimateResult:
    """Invert the mean bit of the whole sample at the initial guess."""
    return estimate("one", data, config, rng)


def two_stage(data, config: EstimatorConfig,
              rng: np.random.Generator) -> EstimateResult:
    """Pilot on the first n1 samples, then re-center the remaining bits.

    Each sample is sanitized exactly once; stage two's mechanism is
    centered at the stage-one estimate (or at theta0 when stage one
    clamped).
    """
    return estimate("two", data, config, rng)


def three_stage(data, config: EstimatorConfig,
                rng: np.random.Generator) -> EstimateResult:
    """Bisection over a known range, then the two-stage procedure (see ``layout``)."""
    return estimate("three", data, config, rng)


def _mills_ratio(d: float) -> float:
    """Phi(-d) / pdf(d) for d >= 0, finite where both underflow (d above 38.5).

    The quotient itself below d = 5; from there 40 terms of Laplace's continued
    fraction 1 / (d + 1 / (d + 2 / (d + ...))).  Within 3e-15 of 50-digit values.
    """
    if d < 5.0:
        return std_normal_cdf(-d) * SQRT_2PI * math.exp(0.5 * d * d)
    f = d
    for k in range(40, 0, -1):
        f = d + k / f
    return 1.0 / f


def one_stage_asymptotic_variance(theta: float, theta0: float,
                                  params: PrivacyParams, sigma: float = 1.0) -> float:
    """Delta-method variance of the one-stage estimator for known scale ``sigma``.

    (1/4) (1 - t b)(1 + t b) R^2 at the scaled distance d = |theta - theta0| /
    sigma, with t = t_eps, b = 1 - 2 Phi(-d) and R = sigma / (t pdf(d)).  Matches
    the optimal variance at theta0 = theta and deteriorates exponentially as the
    guess drifts.  Infinite at t = 0 and where the value exceeds the largest
    double (for every sigma once d is above 75).

    1 - t b = 2 e^-eps / (1 + e^-eps) + 2 t Phi(-d) keeps its digits as t b
    nears 1.  Its first term is multiplied by R^2 as 2 pi k^2 / (1 + e^-eps),
    k = sigma e^((d^2 - eps)/2) / t, its second as Phi(-d) R^2 = sqrt(2 pi)
    M(d) q^2 (M the Mills ratio), q = sigma e^(d^2/4) / t.  k and q are sigma
    / t times a power of one exponential that cannot overflow below d = 75,
    so nothing underflows where e^-eps, Phi(-d) or t pdf(d) would, and a
    small sigma never meets an overflowing unit-scale value as 0 * inf.
    """
    t = params.t_eps
    d = abs(theta - theta0) / sigma
    if t == 0.0 or d > 75.0:
        return math.inf
    eighth = math.exp(0.125 * d * d)
    kept = math.exp(0.125 * (d * d - params.epsilon))  # 0 at eps = inf
    q = sigma / t * eighth * eighth
    k = sigma / t * kept * kept * kept * kept
    upper = 1.0 + t * (1.0 - 2.0 * std_normal_cdf(-d))
    # left to right: q * q or k * k alone may overflow where the value does not
    return (math.pi / (1.0 + math.exp(-params.epsilon)) * upper * k * k
            + 0.5 * t * upper * SQRT_2PI * _mills_ratio(d) * q * q)


def optimal_asymptotic_variance(params: PrivacyParams, sigma: float = 1.0) -> float:
    """sigma^2 over the sign bit's information; inf at epsilon = 0.

    sigma^2 is a numerator, never a divisor, so a sigma whose square
    underflows gives 0 rather than an error.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    info = sign_fisher_info(params)
    if info == 0.0:
        return math.inf
    return sigma * sigma / info


def rescaled_estimate(data, sigma: float, config: EstimatorConfig,
                      rng: np.random.Generator) -> EstimateResult:
    """Two-stage estimation for a known scale ``sigma``: ``two_stage`` with that config.sigma."""
    return two_stage(data, replace(config, sigma=sigma), rng)
