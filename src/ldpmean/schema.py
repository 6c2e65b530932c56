"""What the command line needs to know before any numeric module loads.

The estimator kinds (``estimators``) and the largest level the simplex
solves (``lp``), on the standard library alone, so ``import ldpmean.cli``
and its parser load no numpy.
"""

ESTIMATOR_KINDS = ("one", "two", "three")
MAX_SOLVE_K = 12  # where tests check the interval optimum against the 2^k program
