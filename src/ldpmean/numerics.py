"""Standard-normal primitives shared by every other module.

All three functions use extended-real conventions: the pdf is 0 at +/-inf,
the cdf is 0 at -inf and 1 at +inf, and the quantile maps 0 and 1 to
-inf and +inf.  No caller passes the quantile 0 or 1: the quantizer writes
its +/-inf breakpoints itself, and a clamped estimator stage never calls
it.  The pdf and cdf get theirs from IEEE arithmetic (exp(-inf) = 0,
erfc(-inf) = 2, erfc(inf) = 0); the quantile maps the two endpoints
itself, because the standard library's inverse cdf rejects them.
"""

from __future__ import annotations

import math
from statistics import NormalDist

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / SQRT_2PI
_SQRT_2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def std_normal_pdf(x: float) -> float:
    """Density of N(0, 1) at ``x``; 0 at +/-inf."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """Distribution function of N(0, 1) at ``x``.

    Computed via erfc for full double precision in both tails
    (absolute error well below 1e-12 on |x| <= 8).
    """
    return 0.5 * math.erfc(-x / _SQRT_2)


def std_normal_quantile(p: float) -> float:
    """Inverse of ``std_normal_cdf``.

    p must lie in [0, 1]; p = 0 and p = 1 return -inf and +inf.  Inside,
    this is Wichura's AS241 algorithm (``statistics.NormalDist.inv_cdf``).
    Against a 50-digit reference it stays within 8 ulp on geometric grids
    from the smallest subnormal p up to 0.49, and from 1 - 2^-53 down to
    0.51.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p!r}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return _STD_NORMAL.inv_cdf(p)
