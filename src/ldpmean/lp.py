"""Staircase linear program for the best discrete privacy channel.

Extreme points of the epsilon-LDP polytope are staircase columns whose
entries take only the values {1, e^epsilon}.  Maximizing the released
Fisher information over level-k channels therefore reduces to a linear
program over mixtures of the 2^k staircase columns:

    max  mu . alpha   s.t.   S alpha = 1,  alpha >= 0,

where column j of S (0-based) encodes the binary word of the integer j,
most significant bit first, via 1 + s * bit with s = e^eps - 1, and mu_j
is that column's information.  This module materializes the program for
small even k in bit form (S itself is never built), solves it exactly with
a revised simplex, constructs the explicit dual certificate whose objective
equals the sign mechanism's information, and checks that certificate
against every column with an exact structured sweep in O(k^2) (any even k
up to 2^16, no enumeration of the 2^k columns).  ``equality_chain`` runs
those public steps in order: build_staircase_lp, solve_primal,
sign_candidate, dual_certificate (which returns beta) and
check_dual_feasibility.  They share one quantizer model per k, cached by
``build_quantized_model``.

The grid proof in ``tests/oracles.py`` shows the certificate feasible for
eps <= 1.048.  It stays feasible well beyond that bound: its threshold is
about eps = 1.98 at k = 8 and falls to about 1.71 for k >= 1024.  Above it
the sweep reports a column with negative slack.

Every verdict is one rule, ``_agree``: the chain's three values must each
match (2/pi) t_eps^2, and the sweep's worst column its own two terms, to
within ROUND_OFF (1e-9) of the larger magnitude or the smallest normal double.

Budgets whose staircase arithmetic would overflow float64, that is with
k e^(2 eps) beyond the largest double (eps above about 354.9 - ln(k) / 2,
and inf), are rejected with ValueError.

Index convention: columns are identified everywhere by the integer whose
binary word generates them (0 .. 2^k - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import PrivacyParams
from .quantized import build_quantized_model, row_information_many, sign_fisher_info
from .schema import MAX_SOLVE_K

_SWEEP_BLOCK = 1 << 18    # corner slacks evaluated per block of the sweep grid
ROUND_OFF = 1e-9          # relative gap that every comparison of lp-verify forgives


@dataclass(frozen=True)
class StaircaseLp:
    """Staircase program in bit form: the dense S = 1 + s * bits is never built.

    bits is (k, 2^k), s = e^eps - 1, and unit_j = k (y . b_j)^2 / (k + s |b_j|)
    is column j's information mu_j over s^2 (``row_information_many`` at base 1).
    """

    k: int
    bits: np.ndarray
    s: float
    unit: np.ndarray
    mu_vec: np.ndarray


@dataclass(frozen=True)
class PrimalSolution:
    """Column weights alpha (length 2^k) and their objective value.

    ``pivots`` counts the simplex's pivots; a point built in closed form
    took none.
    """

    alpha: np.ndarray
    value: float
    pivots: int = 0


@dataclass(frozen=True)
class DualFeasibilityReport:
    """Outcome of the exact certificate sweep over all 2^k columns.

    worst_slack is the minimum of (S_col . beta) - mu(col) over every
    staircase column, evaluated directly on worst_column, the integer
    whose binary word (MSB first) generates a column attaining it.
    Mirror-image columns often tie; either may be reported.
    """

    feasible: bool
    worst_slack: float
    worst_column: int


def _staircase_step(params: PrivacyParams, k: int) -> float:
    """s = e^eps - 1, by expm1: a staircase entry is 1 + s * bit.

    A column's information k (v . y)^2 / (v . 1) squares entries up to
    e^eps, and the simplex multiplies them pairwise, so a budget with
    k e^(2 eps) beyond float64 is a ValueError: past it the program's
    values turn inf and NaN.
    """
    try:
        s = math.expm1(params.epsilon)
    except OverflowError:
        s = math.inf
    if not math.isfinite(k * (1.0 + s) * (1.0 + s)):
        raise ValueError(f"staircase arithmetic overflows float64 at epsilon={params.epsilon!r}, "
                         f"k={k}: need k e^(2 epsilon) finite")
    return s


def _column_bits(js: np.ndarray, k: int) -> np.ndarray:
    """Binary words (MSB first) of the integers ``js`` as the columns of a (k, len) array."""
    shifts = np.arange(k - 1, -1, -1)
    return ((js[None, :] >> shifts[:, None]) & 1).astype(float)


def _agree(a: float, b: float) -> bool:
    """Whether a and b differ by round-off: ROUND_OFF * max(|a|, |b|) or the smallest normal."""
    gap = abs(a - b)
    return bool(gap <= ROUND_OFF * max(abs(a), abs(b)) or gap < np.finfo(float).tiny)


def build_staircase_lp(k: int, params: PrivacyParams) -> StaircaseLp:
    """Materialize the bit form for even 2 <= k <= 12 (4096 columns)."""
    if k > MAX_SOLVE_K:
        raise ValueError(f"k must satisfy 2 <= k <= {MAX_SOLVE_K}, got {k!r}")
    model = build_quantized_model(k)
    s = _staircase_step(params, k)
    bits = _column_bits(np.arange(1 << k, dtype=np.int64), k)
    unit = row_information_many(bits, 1.0, s, model)
    mu_vec = (s * s) * unit
    for array in (bits, unit, mu_vec):
        array.setflags(write=False)
    return StaircaseLp(k, bits, s, unit, mu_vec)


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
                 tol: float = 1e-9, max_iter: int = 100_000):
    """Maximize c @ x subject to A x = b, x >= 0, from a feasible ``basis``.

    Revised simplex: it keeps only [x_B | B^-1] (m by m + 1), starting
    from B^-1 = inv(A[:, basis]), and prices with y = c_B B^-1 as c - y A.
    The entering column is the one with the largest reduced cost
    (Dantzig's rule), if that cost exceeds ``tol`` times the largest
    |c|: an absolute threshold would stop at the first vertex for tiny
    objectives.  Ties in the min-ratio test on B^-1 a_e are broken
    lexicographically: among the tied rows the leaving one has the
    smallest row of B^-1 divided by its pivot entry.  That rule keeps
    every row of [x_B | B^-1] lexicographically positive, which the
    caller's basis must make true at the start, so no basis repeats: the
    heavily degenerate staircase programs cannot cycle.  Returns (x,
    value, pivots).
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
            x[basis] = np.maximum(x_basic, 0.0)  # scrub -1e-17 style pivot noise
            return x, float(c @ x), pivots
        col = inverse @ A[:, entering]
        rows = np.where(col > tol)[0]
        if rows.size == 0:
            raise RuntimeError("unbounded program (cannot happen: feasible set is bounded)")
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


def _prefix_basis(k: int) -> list[int]:
    """Columns of the prefix words 1^j 0^(k-j), j = 0..k: word 0 ignores its input."""
    return [((1 << j) - 1) << (k - j) for j in range(k + 1)]


def solve_primal(lp: StaircaseLp) -> PrimalSolution:
    """Solve the staircase program exactly with the revised simplex.

    It runs on the bit form: with c = (1 - 1 . alpha) / s >= 0, the k rows
    S alpha = 1 are bits alpha - c 1 = 0 and 1 . alpha + s c = 1, and the
    objective is unit . alpha = mu . alpha / s^2.  The simplex starts at
    the channel that ignores its input, alpha = e_0, with the k + 1 prefix
    words as its basis: c is not among them, so B^-1 does not depend on
    eps, its rows are e_k - e_0, e_(j-1) - e_j (j = 1..k-1) and e_(k-1),
    and every row of [x_B | B^-1] = [e_0 | B^-1] is lexicographically
    positive.  At the vertex it returns, c is basic unless alpha sits on
    column 0 alone, so at most k weights are nonzero.
    """
    k, n = lp.bits.shape
    A = np.empty((k + 1, n + 1))
    A[:k, :n], A[:k, n], A[k, :n], A[k, n] = lp.bits, -1.0, 1.0, lp.s
    x, _, pivots = _simplex_max(A, np.eye(k + 1)[k], np.append(lp.unit, 0.0),
                                _prefix_basis(k))
    return PrimalSolution(alpha=x[:n], value=float(lp.mu_vec @ x[:n]), pivots=pivots)


def sign_candidate(lp: StaircaseLp) -> PrimalSolution:
    """Feasible point that encodes randomized response on the half split.

    Weight 1/(2 + s) = 1/(1 + e^eps) sits on exactly two columns: the word
    with ones on the upper half of the indices (0..01..1) and its
    complement (1..10..0).  The two columns sum to 2 + s in every row, so
    S alpha = 1 holds by construction, and the objective equals the sign
    mechanism's Fisher information.
    """
    half = lp.k // 2
    lower_ones = int("0" * half + "1" * half, 2)
    upper_ones = int("1" * half + "0" * half, 2)
    alpha = np.zeros(1 << lp.k)
    weight = 1.0 / (2.0 + lp.s)
    alpha[lower_ones] = weight
    alpha[upper_ones] = weight
    return PrimalSolution(alpha=alpha, value=float(lp.mu_vec @ alpha))


def dual_certificate(k: int, params: PrivacyParams) -> np.ndarray:
    """Closed-form dual vector beta, a read-only array of length k summing to (2/pi) t_eps^2.

    beta_j = -2 t^2 / (pi k) + |y_j| t^2 sqrt(8/pi).  Because the |y_j|
    sum telescopes to 2 * pdf(0), the total is exactly the sign
    mechanism's information; beta is symmetric under j -> k + 1 - j.
    """
    model = build_quantized_model(k)
    t2 = params.t_eps * params.t_eps
    beta = -2.0 * t2 / (math.pi * k) + np.abs(model.y) * t2 * math.sqrt(8.0 / math.pi)
    beta.setflags(write=False)
    return beta


def check_dual_feasibility(k: int, params: PrivacyParams) -> DualFeasibilityReport:
    """Exact minimum slack of the certificate over all 2^k staircase columns.

    With ones on the index set B, a column's slack (S_col . beta) -
    mu(col) depends only on the counts (m1, m2) of B in the lower and
    upper halves and on the |y| mass (A1, A2) that B picks up there:
    sum(y) = 0 and beta_j is affine in |y_j|.  For fixed (m1, m2) the
    slack is concave in (A1, A2), so its minimum sits at one of the four
    corners built from the m smallest or m largest |y| values of each
    half.  The sweep evaluates those (k/2 + 1)^2 * 4 corners from prefix
    sums, a block of m1 rows at a time, then rebuilds the worst corner as
    its column word and reports that column's directly evaluated slack.
    The certificate is feasible when that slack is >= 0 or its two terms,
    S_col . beta and the information, agree (``_agree``): both grow like
    s = e^eps - 1, and so does their round-off.
    """
    beta = dual_certificate(k, params)
    model = build_quantized_model(k)
    scale = _staircase_step(params, k)
    half = k // 2
    # Per half: index orders by ascending and by descending |y|, shape (2, half).
    orders = []
    for offset in (0, half):
        asc = offset + np.argsort(np.abs(model.y[offset:offset + half]), kind="stable")
        orders.append(np.stack([asc, asc[::-1]]))

    def prefix(order: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Scaled sums over the first m indices of each order, m = 0..half."""
        out = np.zeros((2, half + 1))
        np.cumsum(values[order], axis=1, out=out[:, 1:])
        return scale * out

    lower, upper = orders
    lower_beta = prefix(lower, beta) + float(beta.sum())
    lower_dot = prefix(lower, model.y) + float(model.y.sum())
    upper_beta = prefix(upper, beta)
    upper_dot = prefix(upper, model.y)
    counts = scale * np.arange(half + 1)

    rows = max(1, _SWEEP_BLOCK // (4 * (half + 1)))
    worst = (math.inf, 0, 0, 0, 0)  # (slack, lower order, m1, upper order, m2)
    for start in range(0, half + 1, rows):
        m1 = np.arange(start, min(start + rows, half + 1))
        # (lower order, m1, upper order, m2) grid of corner slacks
        info = lower_dot[:, m1, None, None] + upper_dot
        np.square(info, out=info)
        info *= (k / (k + counts[m1, None] + counts))[:, None, :]
        slack = lower_beta[:, m1, None, None] + upper_beta
        slack -= info
        flat = int(np.argmin(slack))
        if slack.flat[flat] < worst[0]:
            a, i, b, m2 = np.unravel_index(flat, slack.shape)
            worst = (float(slack.flat[flat]), int(a), int(m1[i]), int(b), int(m2))
    _, a, m1, b, m2 = worst
    bits = np.zeros(k, dtype=np.uint8)
    bits[lower[a, :m1]] = 1
    bits[upper[b, :m2]] = 1
    # The column 1 + s * bits in bit form: 1 + s would drop the digits of s.
    info = scale * scale * float(row_information_many(bits[:, None], 1.0, scale, model)[0])
    weight = float(beta.sum()) + scale * float(bits @ beta)
    worst_slack = weight - info
    worst_column = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-k % 8)
    return DualFeasibilityReport(feasible=worst_slack >= 0.0 or _agree(weight, info),
                                 worst_slack=worst_slack, worst_column=worst_column)


def equality_chain(k: int, params: PrivacyParams) -> dict:
    """Run build -> solve -> candidate -> certificate -> sweep and report.

    The chain holds when the certificate is feasible and the candidate
    value, the primal optimum and the certificate sum each agree with
    (2/pi) t_eps^2 (``_agree``).  Keys match the JSON report emitted by
    the command-line front end.
    """
    lp = build_staircase_lp(k, params)
    primal = solve_primal(lp)
    candidate = sign_candidate(lp)
    dual_value = float(dual_certificate(k, params).sum())
    sweep = check_dual_feasibility(k, params)
    closed_form = sign_fisher_info(params)
    holds = sweep.feasible and all(_agree(value, closed_form)
                                   for value in (primal.value, candidate.value, dual_value))
    return {
        "k": k,
        "epsilon": params.epsilon,
        "primal_value": primal.value,
        "candidate_value": candidate.value,
        "dual_value": dual_value,
        "feasible": sweep.feasible,
        "worst_slack": sweep.worst_slack,
        "worst_column": sweep.worst_column,
        "simplex_pivots": primal.pivots,
        "chain_holds": holds,
    }
