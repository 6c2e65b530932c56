"""Quantized Gaussian model and the Fisher information of staircase channel rows.

A level-k quantizer cuts the real line at the standard-normal quantiles
x_j = Phi^-1(j/k), j = 0..k, so that each cell carries mass 1/k under
N(center, 1).  The Fisher information about the mean that survives a
discrete privacy channel Q applied to the quantized sample depends on
the model only through the density increments y_j = pdf(x_{j-1}) -
pdf(x_j), which makes it independent of the true mean.  The package
evaluates it only on staircase rows, in ``row_information_many``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mechanisms import PrivacyParams
from .numerics import std_normal_pdf, std_normal_quantile

MAX_LEVEL = 2 ** 16


@dataclass(frozen=True)
class QuantizedModel:
    """Breakpoints and density increments of a level-k quantizer.

    breakpoints has length k + 1 with breakpoints[0] = -inf and
    breakpoints[k] = +inf; y has length k with y[j-1] = pdf(x_{j-1}) -
    pdf(x_j).  Both arrays are treated as immutable after construction.
    Antisymmetry (y_j = -y_{k-j+1}) holds exactly because the upper half
    of the breakpoints mirrors the lower half.
    """

    k: int
    breakpoints: np.ndarray
    y: np.ndarray


@lru_cache(maxsize=1)
def build_quantized_model(k: int) -> QuantizedModel:
    """Build the level-k model; k must be even, 2 <= k <= 2^16.

    The last model built is cached: it is frozen with read-only arrays, so
    the steps of one LP chain share it instead of rebuilding it.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"quantizer level must be an even integer >= 2, got {k!r}")
    if k > MAX_LEVEL:
        raise ValueError(f"quantizer level capped at {MAX_LEVEL}, got {k}")
    bps = np.empty(k + 1)
    bps[0] = -math.inf
    bps[k] = math.inf
    bps[k // 2] = 0.0
    for j in range(1, k // 2):
        x = std_normal_quantile(j / k)
        bps[j] = x
        bps[k - j] = -x
    pdf_vals = np.array([std_normal_pdf(b) for b in bps])
    y = pdf_vals[:-1] - pdf_vals[1:]
    bps.setflags(write=False)
    y.setflags(write=False)
    return QuantizedModel(k=k, breakpoints=bps, y=y)


def row_information_many(bits, base: float, step: float, model: QuantizedModel) -> np.ndarray:
    """Information k (v . y)^2 / (v . 1) of each row v = base + step * b, over step^2.

    The rows are the LP's columns and the sign bit's two rows; b runs over
    the 0/1 columns of the (k, m) array ``bits``.  As sum(y) = 0, v . y =
    step (y . b), so this is k (y . b)^2 / (base k + step |b|), and no digit
    of a small step cancels.  An all-zero row contributes exactly 0.
    """
    bits = np.asarray(bits, dtype=float)
    if bits.ndim != 2 or bits.shape[0] != model.k:
        raise ValueError(f"expected shape ({model.k}, m), got {bits.shape}")
    totals = base * model.k + step * bits.sum(axis=0)
    out = np.zeros(bits.shape[1])
    return np.divide(model.k * (model.y @ bits) ** 2, totals, out=out, where=totals > 0.0)


def sign_fisher_info(params: PrivacyParams) -> float:
    """Fisher information (2/pi) * t_eps^2 of the privatized sign bit.

    Increases from 0 at eps = 0 to 2/pi as eps -> inf; always below the
    non-private information 1 of a unit-variance Gaussian sample.
    """
    t = params.t_eps
    return (2.0 / math.pi) * t * t
