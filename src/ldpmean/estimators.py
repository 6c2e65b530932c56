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

from .mechanisms import PrivacyParams, privacy_params, released_bit_sums
# Not called here: perfbench/layertrace.py rebinds estimators.sign_mechanism.
from .mechanisms import sign_mechanism  # noqa: F401
from .numerics import SQRT_2PI, std_normal_cdf, std_normal_quantile
from .quantized import sign_fisher_info


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs shared by the staged estimators.

    n1 is the pilot group size for the two- and three-stage procedures
    (None selects the floor(n^0.7) heuristic); n0 and bits configure the
    three-stage bisection over [range_lo, range_hi].  sigma is the known
    standard deviation of the data: every stage inverts its mean bit in
    data units (``invert_mean``), so theta0 and the range are data units
    too.  A sigma that is not finite and positive is a ValueError.
    """

    epsilon: float
    theta0: float = 0.0
    n1: int | None = None
    n0: int = 15_000
    bits: int = 7
    range_lo: float = 0.0
    range_hi: float = 128.0
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be > 0 and finite, got {self.sigma!r}")


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
    |z_bar| < t_eps and the center itself otherwise; the guard keeps the
    quantile argument strictly inside (0, 1), so the map is total.  At
    sigma = 1 the product is the quantile itself, bit for bit.
    """
    t = params.t_eps
    if abs(z_bar) < t:
        return center - sigma * std_normal_quantile(0.5 - z_bar / (2.0 * t))
    return center


def _stage(x: np.ndarray, u: np.ndarray, centers, params: PrivacyParams,
           sigma: float) -> tuple[list, list[bool]]:
    """Sanitize one group per row, row i at ``centers[i]``, and invert each mean bit.

    S / m is the same float as the mean of the materialized +/-1 bits:
    that mean sums exact integers in float64 and divides once.
    """
    estimates, clamped = [], []
    for total, center in zip(released_bit_sums(x, u, centers, params.p_eps), centers):
        z_bar = total / x.shape[1]
        estimates.append(invert_mean(z_bar, center, params, sigma))
        clamped.append(not abs(z_bar) < params.t_eps)
    return estimates, clamped


ESTIMATOR_KINDS = ("one", "two", "three")


def layout(kind: str, n: int, config: EstimatorConfig) -> tuple[int, int]:
    """Samples the bisection queries and pilot size, ``(bisected, n1)``, of ``kind`` on n samples.

    The only function that knows each kind, so the only layout check: a
    ValueError names an unknown kind or a layout that does not fit n.
    """
    if kind == "one":
        if n < 1:
            raise ValueError("one_stage requires at least one sample")
        return 0, 0
    if kind == "two":
        n1 = config.n1 if config.n1 is not None else default_n1(n)
        if not 1 <= n1 < n:
            raise ValueError(f"need 1 <= n1 < n, got n1={n1}, n={n}")
        return 0, n1
    if kind != "three":
        raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    n0, rounds = config.n0, config.bits
    if rounds < 1:
        raise ValueError(f"bits must be >= 1, got {rounds}")
    if n0 < rounds:
        raise ValueError(f"need n0 >= bits, got n0={n0}, bits={rounds}")
    if not config.range_lo < config.range_hi:
        raise ValueError("need range_lo < range_hi")
    # default_n1 of a non-positive count would be complex; such n fail below
    n1 = config.n1 if config.n1 is not None else default_n1(max(1, n - n0))
    if not 1 <= n1 or n0 + n1 >= n:
        raise ValueError(f"need 1 <= n1 and n0 + n1 < n, got n0={n0}, n1={n1}, n={n}")
    return rounds * (n0 // rounds), n1


def stage_rows(kind: str, x: np.ndarray, u: np.ndarray, config: EstimatorConfig):
    """Run ``kind`` on each row of ``x`` (one dataset) with its ``released_bits`` uniforms ``u``.

    Any bisection rounds run first; each later stage is centered at the
    previous one's estimates.  Returns per stage all rows' estimates and flags.
    """
    n = x.shape[1]
    bisected, n1 = layout(kind, n, config)
    params = privacy_params(config.epsilon)
    centers = [config.theta0] * len(x)
    estimates, clamped = [], []
    if bisected:
        group = bisected // config.bits
        lo, hi = (np.full(len(x), end, dtype=float) for end in (config.range_lo, config.range_hi))
        for b in range(config.bits):
            mid = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 would overflow near the largest double
            cols = slice(b * group, (b + 1) * group)
            up = np.array(released_bit_sums(x[:, cols], u[:, cols], mid, params.p_eps)) >= 0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        centers = (lo / 2.0 + hi / 2.0).tolist()
        estimates.append(centers)
        clamped.append([False] * len(x))
        x, u = x[:, config.n0:], u[:, bisected:bisected + n - config.n0]
    for cut in (slice(n1), slice(n1, None)) if n1 else (slice(None),):
        centers, flags = _stage(x[:, cut], u[:, cut], centers, params, config.sigma)
        estimates.append(centers)
        clamped.append(flags)
    return estimates, clamped


def released_bits(kind: str, n: int, config: EstimatorConfig) -> int:
    """Uniforms the ``kind`` estimator draws on n samples, after checking its ``layout``."""
    bisected, _ = layout(kind, n, config)
    return n - config.n0 + bisected if bisected else n


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
    """Bisection over a known range, then the two-stage procedure.

    The preliminary stage runs ``bits`` rounds, each consuming
    floor(n0 / bits) fresh samples: round b releases sign bits at the
    current interval midpoint and recurses toward the half the mean bit
    points at (ties go up, matching sgn(0) := 1).  Any n0 - bits *
    floor(n0 / bits) leftover samples are never queried.  The final
    midpoint, whose resolution is (range width) / 2^bits, seeds the
    two-stage run on the remaining n - n0 samples.
    """
    return estimate("three", data, config, rng)


def one_stage_asymptotic_variance(theta: float, theta0: float,
                                  params: PrivacyParams, sigma: float = 1.0) -> float:
    """Delta-method variance of the one-stage estimator for known scale ``sigma``.

    (1/4) (1 - t_eps^2 (1 - 2 Phi(-d))^2) r^2 at the scaled distance d =
    (theta - theta0) / sigma, with r = sigma / (t_eps pdf(d)), formed as
    (sigma / t_eps) sqrt(2 pi) e^(d^2/4) e^(d^2/4): no factor is subnormal
    where t_eps pdf(d) would be, and a small sigma never meets an
    overflowing unit-scale value as 0 * inf.  Matches the optimal variance
    at theta0 = theta and deteriorates exponentially as the guess drifts.
    Infinite at t_eps = 0, where the value overflows (for every |d| above
    53.3 once sigma is above 1e-300), and where e^-eps and Phi(-|d|) both
    underflow (eps above about 745, |d| above about 38.5).

    The numerator is the product (1 - t b)(1 + t b), b = 1 - 2 Phi(-|d|),
    with 1 - t b = 2 e^-eps / (1 + e^-eps) + 2 t Phi(-|d|), so it keeps
    its digits as t b nears 1 (large budgets, far guesses).
    """
    t = params.t_eps
    d = (theta - theta0) / sigma
    tail = std_normal_cdf(-abs(d))
    e = math.exp(-params.epsilon)
    num = (2.0 * e / (1.0 + e) + 2.0 * t * tail) * (1.0 + t * (1.0 - 2.0 * tail))
    if t == 0.0 or num == 0.0:
        return math.inf
    try:
        root = math.exp(0.25 * d * d)  # e^(d^2/2) alone overflows from |d| = 37.7
    except OverflowError:  # |d| above 53.3
        return math.inf
    r = sigma / t * SQRT_2PI * root * root
    return 0.25 * num * r * r  # left to right: r * r alone may overflow where the value does not


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
