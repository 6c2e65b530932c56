"""Locally differentially private estimation of a Gaussian mean.

The package covers the full pipeline: standard-normal primitives
(``numerics``), binary privacy channels (``mechanisms``), the
quantized-Gaussian information calculus (``quantized``), exact
verification that the sign mechanism maximizes the released Fisher
information in the high-privacy regime (``lp``), staged estimators that
attain the matching variance (``estimators``), and a reproducible Monte
Carlo harness (``sim``) fronted by a CLI (``cli``).  Each public name is
imported from its module; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
