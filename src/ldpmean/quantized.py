"""Quantized Gaussian model and the Fisher information of discrete channels.

A level-k quantizer cuts the real line at the standard-normal quantiles
x_j = Phi^-1(j/k), j = 0..k, so that each cell carries mass 1/k under
N(center, 1).  The Fisher information about the mean that survives a
discrete privacy channel Q applied to the quantized sample depends on
the model only through the density increments y_j = pdf(x_{j-1}) -
pdf(x_j), which makes it independent of the true mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import PrivacyParams
from .numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile

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


def build_quantized_model(k: int) -> QuantizedModel:
    """Build the level-k model; k must be even, 2 <= k <= 2^16."""
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


def quantize(x: float, center: float, model: QuantizedModel) -> int:
    """Cell index j in 1..k with x - center in (x_{j-1}, x_j].

    Cells are half-open on the left; the last cell extends to +inf.
    """
    v = x - center
    interior = model.breakpoints[1:-1]
    return int(np.searchsorted(interior, v, side="left")) + 1


def cell_probabilities(theta: float, center: float,
                       model: QuantizedModel) -> np.ndarray:
    """Cell masses of N(theta, 1) under a quantizer anchored at ``center``.

    Entry j-1 is cdf(x_j + center - theta) - cdf(x_{j-1} + center - theta);
    the entries are nonnegative and sum to 1 up to round-off.
    """
    shift = center - theta
    cdf_vals = np.array([std_normal_cdf(b + shift) for b in model.breakpoints])
    return cdf_vals[1:] - cdf_vals[:-1]


def row_information_many(V, model: QuantizedModel) -> np.ndarray:
    """Information k * (v . y)^2 / (v . 1) of each column v of a (k, m) array.

    Each column holds the nonnegative channel weights one output row
    assigns to the k input cells.  A zero column contributes exactly 0
    (explicit branch, never 0/0): that output symbol is never emitted.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != model.k:
        raise ValueError(f"expected shape ({model.k}, m), got {V.shape}")
    dots = model.y @ V
    totals = V.sum(axis=0)
    out = np.zeros(V.shape[1])
    nz = totals > 0.0
    out[nz] = model.k * dots[nz] ** 2 / totals[nz]
    return out


def row_information(v, model: QuantizedModel) -> float:
    """``row_information_many`` of one nonnegative weight vector of length k."""
    vec = np.asarray(v, dtype=float)
    if vec.shape != (model.k,):
        raise ValueError(f"weight vector must have length {model.k}, got shape {vec.shape}")
    if np.any(vec < 0.0):
        raise ValueError("weight vector must be componentwise nonnegative")
    return float(row_information_many(vec[:, None], model)[0])


def fisher_info_quantized(Q, model: QuantizedModel) -> float:
    """Fisher information about the mean released by channel ``Q``.

    ``Q`` is an (m, k) column-stochastic matrix acting on the k quantizer
    cells; m may be smaller than k when all-zero output rows were
    dropped.  The value is the sum of ``row_information_many`` over the
    rows of Q, so all-zero rows contribute 0.  It does not depend on the
    true mean, so no location argument exists.
    """
    mat = np.asarray(Q, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != model.k:
        raise ValueError(f"channel must be 2-d with {model.k} columns, got shape {mat.shape}")
    col_sums = mat.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > 1e-6):
        raise ValueError("channel matrix must be column-stochastic")
    return float(row_information_many(mat.T, model).sum())


def embed_sign_channel(params: PrivacyParams, k: int) -> np.ndarray:
    """Sign mechanism as a level-k channel (k x k, two live output rows).

    Output row 0 aggregates the lower half of the input cells with
    keep-probability p_eps and row 1 its complement; the remaining k - 2
    output symbols are never emitted.  Its information equals
    ``sign_fisher_info`` for every even k.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"embedding requires an even k >= 2, got {k!r}")
    p = params.p_eps
    half = k // 2
    mat = np.zeros((k, k))
    mat[0, :half] = p
    mat[0, half:] = 1.0 - p
    mat[1, :half] = 1.0 - p
    mat[1, half:] = p
    return mat


def sign_fisher_info(params: PrivacyParams) -> float:
    """Fisher information (2/pi) * t_eps^2 of the privatized sign bit.

    Increases from 0 at eps = 0 to 2/pi as eps -> inf; always below the
    non-private information 1 of a unit-variance Gaussian sample.
    """
    t = params.t_eps
    return (2.0 / math.pi) * t * t


def scaled_fisher_info(params: PrivacyParams, sigma: float) -> float:
    """Per-sample information for known standard deviation ``sigma`` > 0."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    return sign_fisher_info(params) / (sigma * sigma)
