"""Binary privacy channels: randomized response and the sign mechanism.

Randomized response keeps a +/-1 bit with probability p_eps and flips it
otherwise, so any two inputs release the same output with odds at most
e^epsilon: the epsilon-LDP bound.

Randomization is driven by a caller-supplied ``numpy.random.Generator``;
nothing in this module touches global random state, so deterministic
replay only requires replaying the stream.  A single stream must not be
shared across concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and the two derived constants used everywhere.

    p_eps = e^eps / (1 + e^eps) is the keep-probability of randomized
    response; t_eps = (e^eps - 1) / (e^eps + 1) = 2 * p_eps - 1 is the
    attenuation factor of the released bit's expectation.
    """

    epsilon: float
    p_eps: float
    t_eps: float


def privacy_params(epsilon: float) -> PrivacyParams:
    """Build ``PrivacyParams`` from a budget epsilon >= 0.

    epsilon = 0 yields a fair coin (p = 1/2, t = 0); epsilon = inf is
    accepted and yields the noiseless channel (p = 1, t = 1).  t_eps =
    tanh(eps / 2) keeps its digits at small budgets, where 2p - 1 would not.
    """
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    # 1 / (1 + e^-eps) avoids overflow for large eps
    p = 1.0 / (1.0 + math.exp(-epsilon))
    return PrivacyParams(epsilon=epsilon, p_eps=p, t_eps=math.tanh(epsilon / 2.0))


def randomized_response(bits, params: PrivacyParams, rng: np.random.Generator):
    """Keep each +/-1 bit with probability p_eps, flip it otherwise.

    ``bits`` may be a scalar or an array of values in {-1, +1}; the
    output has the same shape.  Consumes exactly one uniform draw per
    bit.
    """
    arr = np.asarray(bits)
    u = rng.random(arr.shape)
    if arr.ndim == 0:
        bit = int(arr)
        return bit if u < params.p_eps else -bit
    # keep_sign = 2 * (u < p) - 1 in int8; cheaper than np.where
    keep_sign = (u < params.p_eps).astype(np.int8)
    keep_sign += keep_sign
    keep_sign -= 1
    return arr * keep_sign


def sign_mechanism(x, center: float, params: PrivacyParams,
                   rng: np.random.Generator):
    """Release randomized-response-privatized signs of ``x - center``.

    The sign convention is sgn(0) := 1, so a sample exactly at the
    center reports +1 before flipping.  Scalar in, scalar out; array in,
    array out (dtype int8).
    """
    arr = np.asarray(x)
    if arr.ndim == 0:
        return randomized_response(1 if float(arr) >= center else -1, params, rng)
    signs = (arr >= center).astype(np.int8)
    signs += signs
    signs -= 1
    return randomized_response(signs, params, rng)


def released_bit_sums(x: np.ndarray, keep: np.ndarray, centers) -> list[int]:
    """Sum of each row's bits ``sign_mechanism`` would release, given its keep bits.

    Row i of ``x`` is tested against ``centers[i]``; ``keep[i]`` holds the keep
    tests u < p_eps of the uniforms u the mechanism would draw.  A released bit
    is +1 exactly when the sign test (x >= center) agrees with the keep test, so
    a row of m samples sums to 2 * (agreements) - m without materializing the bits.
    Rows are counted one by one: ``count_nonzero`` along an axis falls back to a
    much slower bool sum.
    """
    agree = x >= np.asarray(centers, dtype=float)[:, None]
    np.equal(agree, keep, out=agree)
    return [2 * int(np.count_nonzero(row)) - row.size for row in agree]
