"""What the command line needs to know before any numeric module loads.

The estimator kinds (``estimators``), the largest level the simplex
solves (``lp``), ``real``, the float converter of the CLI flags and the
config file (``sim``), and ``BudgetError``, which ``sim`` raises and
``cli.main`` maps to exit 4, on the standard library alone, so ``import
ldpmean.cli`` and its parser load no numpy.
"""

import math

ESTIMATOR_KINDS = ("one", "two", "three")
MAX_SOLVE_K = 12  # where tests check the interval optimum against the 2^k program


class BudgetError(RuntimeError):
    """A run over its resources: the configured draw budget, or a pool worker killed."""


def real(raw: str) -> float:
    """float() that refuses NaN and +-inf.

    Every config float, every float flag of ``estimate`` and ``fisher
    --sigma`` go through here, but no epsilon: epsilon = inf is the
    noiseless channel, and ``privacy_params`` rejects a NaN or negative
    budget.
    """
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value
