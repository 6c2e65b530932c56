"""Reference forms that only the tests use, one import path each.

No command runs these, so they live beside the tests rather than in
``ldpmean``; the file name keeps pytest from collecting it.

* ``verify_ldp``: the epsilon-LDP ratio bound of a channel matrix.
* ``dense_row_information``, ``fisher_info_quantized`` and
  ``embed_sign_channel``: the information k (v . y)^2 / (v . 1) of channel
  rows in probability form, the information of a whole channel, and the
  sign mechanism as a level-k channel.  They are the independent reference
  for the bit form ``quantized.row_information_many``.
* ``staircase_matrix`` and ``mechanism_from_solution``: the dense staircase
  matrix S = 1 + s * bits of a bit-form program, and the channel a primal
  solution encodes.
* ``simplex_max`` and ``column_bits``: the all-numpy revised simplex
  (min-ratio test and lexicographic tie-break by ``np.lexsort``, starting
  basis inverted by ``np.linalg.inv``) and the shift-and-mask word matrix,
  the slow references for ``lp._simplex_max`` and ``lp._interval_program``.
* ``full_staircase_lp``, ``prefix_words`` and ``full_primal``: the staircase
  program over all 2^k words, its starting basis and its optimum, the
  reference that the interval program of ``lp.build_staircase_lp`` is
  checked against.
* ``interval_partition_optimum``: the interval program's optimum from
  total unimodularity, the best partition of the k cells into intervals,
  an independent reference for ``lp.solve_primal``'s value.
* ``certificate_margin`` with its ``_upper`` and ``_lower`` boundary forms,
  and ``interior_stationarity``: the closed-form margins whose grid
  nonnegativity proves the dual certificate feasible for eps <= 1.048.

A mechanism here is a column-stochastic matrix Q: Q[i, j] is the
probability of releasing output symbol i when the private input is symbol
j.  The epsilon-LDP constraint bounds the ratio of any two entries within
the same row by e^epsilon.
"""

from __future__ import annotations

import math

import numpy as np

from ldpmean.lp import PrimalSolution, StaircaseLp
from ldpmean.mechanisms import PrivacyParams
from ldpmean.quantized import QuantizedModel, build_quantized_model, row_information_many


def verify_ldp(Q, epsilon: float, tol: float = 1e-12) -> bool:
    """Check the epsilon-LDP ratio bound row by row.

    Returns True iff every row satisfies max entry <= e^epsilon * min
    entry + tol.  Rows containing a zero next to a positive entry fail
    for any finite epsilon.  The absolute tolerance absorbs column
    normalization round-off.
    """
    mat = np.asarray(Q, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"mechanism matrix must be 2-d and non-empty, got shape {mat.shape}")
    if np.any(mat < 0.0):
        return False
    bound = math.exp(epsilon)
    row_max = mat.max(axis=1)
    row_min = mat.min(axis=1)
    return bool(np.all(row_max <= bound * row_min + tol))


def dense_row_information(V, model: QuantizedModel) -> np.ndarray:
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
    the sum of ``dense_row_information`` over the rows of Q, so all-zero
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
    return float(dense_row_information(mat.T, model).sum())


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


def staircase_matrix(lp: StaircaseLp) -> np.ndarray:
    """The dense matrix S = 1 + s * bits of the program, one column per word, read-only."""
    S = 1.0 + lp.s * lp.bits
    S.setflags(write=False)
    return S


def mechanism_from_solution(solution: PrimalSolution, lp: StaircaseLp,
                            weight_tol: float = 1e-12) -> np.ndarray:
    """Recover the channel [S diag(alpha)]^T, dropping zero-weight rows.

    The rows of the result are the supported columns of S scaled by
    their weights; feasibility S alpha = 1 makes it column-stochastic,
    and every row is proportional to a {1, e^eps} pattern, so the
    epsilon-LDP ratio bound holds with equality.
    """
    support = np.where(solution.alpha > weight_tol)[0]
    return (staircase_matrix(lp)[:, support] * solution.alpha[support]).T


def simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
                tol: float = 1e-9, max_iter: int = 100_000):
    """Maximize c @ x subject to A x = b, x >= 0, from a feasible ``basis``.

    The same pivoting rules as ``lp._simplex_max`` (Dantzig's entering
    column above ``tol`` times the largest |c|, the min-ratio test with
    lexicographic ties), each step a numpy call.  Returns (x, value,
    pivots).
    """
    m, n = A.shape
    basis = np.array(basis)
    inverse = np.linalg.inv(A[:, basis])
    table = np.hstack([np.reshape(inverse @ b, (m, 1)), inverse])  # [x_B | B^-1]
    x_basic, inverse = table[:, 0], table[:, 1:]
    cost_tol = tol * float(np.abs(c).max())
    for pivots in range(max_iter):
        reduced = c - (c[basis] @ inverse) @ A
        reduced[basis] = 0.0
        entering = int(np.argmax(reduced))
        if not reduced[entering] > cost_tol:
            x = np.zeros(n)
            x[basis] = np.maximum(x_basic, 0.0)
            return x, float(c @ x), pivots
        col = inverse @ A[:, entering]
        rows = np.where(col > tol)[0]
        if rows.size == 0:
            raise RuntimeError("unbounded program")
        ratios = x_basic[rows] / col[rows]
        best = ratios.min()
        cand = rows[ratios <= best + tol * (1.0 + abs(best))]
        lex = inverse[cand] / col[cand, None]
        row = cand[np.lexsort(lex.T[::-1])[0]]
        table[row] /= col[row]
        col[row] = 0.0
        table -= col[:, None] * table[row]
        basis[row] = entering
    raise RuntimeError("simplex iteration limit exceeded")


def column_bits(js: np.ndarray, k: int) -> np.ndarray:
    """Binary words (MSB first) of the integers ``js`` as the columns of a (k, len) array."""
    shifts = np.arange(k - 1, -1, -1)
    return ((js[None, :] >> shifts[:, None]) & 1).astype(float)


def full_staircase_lp(k: int, params: PrivacyParams) -> StaircaseLp:
    """The bit form over all 2^k words, column j the word of j (``column_bits``).

    The same rows [bits, -1; 1, s] and information as the interval program
    of ``lp.build_staircase_lp``, with s = expm1(eps).
    """
    n = 1 << k
    s = math.expm1(params.epsilon)
    bits = column_bits(np.arange(n), k)
    program = np.zeros((k + 1, n + 1))
    program[:k, :n], program[:k, n], program[k, :n], program[k, n] = bits, -1.0, 1.0, s
    unit = row_information_many(bits, 1.0, s, build_quantized_model(k))
    return StaircaseLp(k, program, s, unit, s * s * unit)


def prefix_words(k: int) -> list[int]:
    """The integers of the words 1^j 0^(k-j), j = 0..k: the prefixes [0, j) among all 2^k words."""
    return [((1 << j) - 1) << (k - j) for j in range(k + 1)]


def full_primal(lp: StaircaseLp) -> PrimalSolution:
    """Optimum of a ``full_staircase_lp`` by ``simplex_max`` from the prefix words, alpha over 2^k."""
    k, n = lp.bits.shape
    x, _, pivots = simplex_max(lp.program, np.eye(k + 1)[k], np.append(lp.unit, 0.0),
                               prefix_words(k))
    return PrimalSolution(alpha=x[:n], value=float(lp.mu_vec @ x[:n]), pivots=pivots)


def interval_partition_optimum(k: int, params: PrivacyParams) -> float:
    """Optimum of the interval program, max(0, max_P sum_(I in P) mu_I / (|P| + s)).

    P runs over the partitions of the k cells into intervals, s = expm1(eps) and
    mu_I = s^2 k (sum_(i in I) y_i)^2 / (k + s |I|) is the information of the
    interval's column.  Every cell of S alpha = 1 is covered by the same weight w
    = (1 - 1 . alpha) / s, so alpha / w is an exact fractional cover of the cells
    by intervals and the value is linear-fractional in it; interval columns are
    totally unimodular, so the optimum sits at an integral cover, a partition, with
    w = 1 / (|P| + s), or at alpha = e_0 with value 0.  best[p][j] is the largest
    sum of mu over partitions of cells [0, j) into p intervals: O(k^3).
    """
    s = math.expm1(params.epsilon)
    y = build_quantized_model(k).y.tolist()

    def mu(a, b):
        return s * s * k * math.fsum(y[a:b]) ** 2 / (k + s * (b - a))

    best = [[0.0] + [-math.inf] * k]
    for p in range(1, k + 1):
        best.append([max((best[p - 1][a] + mu(a, j) for a in range(p - 1, j)), default=-math.inf)
                     for j in range(k + 1)])
    return max(0.0, max(best[p][k] / (p + s) for p in range(1, k + 1)))


def certificate_margin(a1, a2, x, y, t):
    """Normalized feasibility margin of one dual constraint.

    a1 and a2 aggregate the |y| mass picked up by the low-entry lower
    half and the high-entry upper half of a staircase column; x and y
    are the matching index fractions m1/k and m2/k.  Nonnegativity of
    this form over the admissible region is exactly dual feasibility.
    Accepts scalars or broadcastable arrays.
    """
    diff = y - x
    return ((a2 - a1) * (2.0 * t + 4.0 * t * t * diff)
            - 4.0 * t * t * diff * diff
            - (a1 + a2 - 1.0) ** 2 + 1.0)


def certificate_margin_upper(x, y, t):
    """Margin along the upper a1 boundary: a1 = 1 - pi y^2, a2 = pi y^2."""
    a2 = math.pi * np.asarray(y, dtype=float) ** 2
    return certificate_margin(1.0 - a2, a2, x, y, t)


def certificate_margin_lower(x, y, t):
    """Margin along the lower boundary: a1 = pi x^2, a2 = pi y^2."""
    a1 = math.pi * np.asarray(x, dtype=float) ** 2
    a2 = math.pi * np.asarray(y, dtype=float) ** 2
    return certificate_margin(a1, a2, x, y, t)


def interior_stationarity(a, b, t):
    """Stationarity form t a (2a^2 - 4b^2 + (4/pi) b) + b^2 - a^2.

    Written in the difference/sum variables a = x - y, b = x + y.  Strict
    positivity on 0 < a <= min(b, 1/2), a <= b <= 1 rules out interior
    critical points of the lower-boundary margin for t <= 1/2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    val = t * a * (2.0 * a * a - 4.0 * b * b + (4.0 / math.pi) * b) + b * b - a * a
    if val.ndim == 0:
        return float(val)
    return val
