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


def fisher_info_quantized(Q, model: QuantizedModel) -> float:
    """Fisher information about the mean released by channel ``Q``.

    ``Q`` is an (m, k) nonnegative, column-stochastic matrix acting on the
    k quantizer cells (a negative or NaN entry is a ValueError); m may be
    smaller than k when all-zero output rows were dropped.  The value is
    the sum of ``row_information_many`` over the rows of Q, so all-zero
    rows contribute 0.  It does not depend on the true mean, so no
    location argument exists.
    """
    mat = np.asarray(Q, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != model.k:
        raise ValueError(f"channel must be 2-d with {model.k} columns, got shape {mat.shape}")
    if not np.all(mat >= 0.0):
        raise ValueError("channel matrix must be entrywise nonnegative")
    if not np.all(np.abs(mat.sum(axis=0) - 1.0) <= 1e-6):
        raise ValueError("channel matrix must be column-stochastic")
    return float(row_information_many(mat.T, model).sum())


def embed_sign_channel(params: PrivacyParams, k: int) -> np.ndarray:
    """Sign mechanism as a level-k channel: its two live output rows, shape (2, k).

    Output row 0 aggregates the lower half of the input cells with
    keep-probability p_eps and row 1 its complement; a level-k channel's
    other k - 2 output symbols would never be emitted, so they are left
    out.  Its information equals ``sign_fisher_info`` for every even k.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"embedding requires an even k >= 2, got {k!r}")
    p = params.p_eps
    half = k // 2
    mat = np.empty((2, k))
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
