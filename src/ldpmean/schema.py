"""What the command line needs to know before any numeric module loads.

The estimator kinds and their knobs (``estimators``), and the largest
level the simplex solves (``lp``), on the standard library alone, so
``import ldpmean.cli`` and its parser load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ESTIMATOR_KINDS = ("one", "two", "three")
MAX_SOLVE_K = 12  # simplex over the materialized 2^k columns


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
