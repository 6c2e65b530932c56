"""Staircase linear program for the best discrete privacy channel.

Extreme points of the epsilon-LDP polytope are staircase columns whose
entries take only the values {1, e^epsilon}.  Maximizing the released
Fisher information over level-k channels therefore reduces to a linear
program over mixtures of the 2^k staircase columns:

    max  mu . alpha   s.t.   S alpha = 1,  alpha >= 0,

where column j of S (0-based) encodes the binary word of the integer j,
most significant bit first, via bit * (e^eps - 1) + 1, and mu_j is the
information contribution of that column.  This module materializes the
program for small even k, solves it exactly with a dense two-phase simplex,
constructs the explicit dual certificate whose objective equals the sign
mechanism's information, checks that certificate against every column
with an exact structured sweep in O(k^2) (any even k up to 2^16, no
enumeration of the 2^k columns), and exposes the closed-form margin
functions of the grid proof of feasibility for eps <= 1.048.

The certificate itself stays feasible well beyond that proven bound: its
threshold is about eps = 1.98 at k = 8 and falls to about 1.71 for
k >= 1024.  Above it the sweep reports a column with negative slack.

Budgets with a non-finite e^eps (eps above about 709.78, or inf) are
rejected with ValueError: the staircase entries would overflow.

Index convention: columns are identified everywhere by the integer whose
binary word generates them (0 .. 2^k - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import PrivacyParams
from .quantized import (QuantizedModel, build_quantized_model, row_information,
                        row_information_many, sign_fisher_info)

MAX_BUILD_K = 20          # S materialization: 2^k columns
MAX_SOLVE_K = 12          # dense simplex
_SWEEP_BLOCK = 1 << 18    # corner slacks evaluated per block of the sweep grid


@dataclass(frozen=True)
class StaircaseLp:
    """Materialized staircase program: S is (k, 2^k), mu_vec is (2^k,)."""

    k: int
    epsilon: float
    S: np.ndarray
    mu_vec: np.ndarray
    model: QuantizedModel


@dataclass(frozen=True)
class PrimalSolution:
    """Column weights alpha (length 2^k) and their objective value."""

    alpha: np.ndarray
    value: float


@dataclass(frozen=True)
class DualCertificate:
    """Dual vector beta (length k); its sum is the certified optimum."""

    beta: np.ndarray


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


def _exp_epsilon(params: PrivacyParams) -> float:
    """e^eps, the high staircase entry; a non-finite value is a ValueError."""
    try:
        value = math.exp(params.epsilon)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"staircase entries need a finite e^epsilon, got epsilon={params.epsilon!r}")
    return value


def _column_bits(js: np.ndarray, k: int) -> np.ndarray:
    """Binary words (MSB first) of the integers ``js`` as a (len, k) array."""
    shifts = np.arange(k - 1, -1, -1)
    return ((js[:, None] >> shifts[None, :]) & 1).astype(float)


def _check_tol(tol: float) -> None:
    """A NaN or negative tolerance would turn every check into a failure."""
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")


def build_staircase_lp(k: int, params: PrivacyParams) -> StaircaseLp:
    """Materialize S and mu for even 2 <= k <= 20."""
    if k > MAX_BUILD_K:
        raise ValueError(f"k must satisfy 2 <= k <= {MAX_BUILD_K}, got {k!r}")
    model = build_quantized_model(k)
    js = np.arange(1 << k, dtype=np.int64)
    S = _column_bits(js, k).T * (_exp_epsilon(params) - 1.0) + 1.0
    mu_vec = row_information_many(S, model)
    S.setflags(write=False)
    mu_vec.setflags(write=False)
    return StaircaseLp(k=k, epsilon=params.epsilon, S=S, mu_vec=mu_vec, model=model)


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 tol: float = 1e-9, max_iter: int = 100_000):
    """Maximize c @ x subject to A x = b, x >= 0, with b >= 0.

    Dense two-phase tableau simplex using Bland's rule for both the
    entering and the leaving variable, which rules out cycling on the
    (heavily degenerate) staircase programs.  Returns (x, value).
    """
    m, n = A.shape
    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)]).astype(float)
    basis = np.arange(n, n + m)

    def iterate(costs: np.ndarray, n_allowed: int) -> None:
        for _ in range(max_iter):
            reduced = costs[:n_allowed] - costs[basis] @ T[:, :n_allowed]
            improving = np.nonzero(reduced > tol)[0]
            basic = set(basis.tolist())
            entering = -1
            for j in improving:  # Bland: lowest improving nonbasic index
                if int(j) not in basic:
                    entering = int(j)
                    break
            if entering < 0:
                return
            col = T[:, entering]
            rows = np.where(col > tol)[0]
            if rows.size == 0:
                raise RuntimeError("unbounded program (cannot happen: feasible set is bounded)")
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            cand = rows[ratios <= best + tol * (1.0 + abs(best))]
            leave_row = cand[np.argmin(basis[cand])]
            pivot(leave_row, entering)
        raise RuntimeError("simplex iteration limit exceeded")

    def pivot(row: int, col: int) -> None:
        T[row] /= T[row, col]
        for i in range(m):
            if i != row and T[i, col] != 0.0:
                T[i] -= T[i, col] * T[row]
        basis[row] = col

    # Phase 1: drive the artificial variables out.
    phase1 = np.concatenate([np.zeros(n), -np.ones(m)])
    iterate(phase1, n + m)
    if -float(phase1[basis] @ T[:, -1]) > math.sqrt(tol):
        raise RuntimeError("phase-1 simplex reports infeasibility on a feasible program")
    for i in range(m):
        if basis[i] >= n:
            # Degenerate artificial still basic at level ~0: swap it for
            # any structural column with a nonzero entry in this row.
            structural = np.where(np.abs(T[i, :n]) > tol)[0]
            if structural.size == 0:
                raise RuntimeError("rank-deficient constraint matrix")
            pivot(i, int(structural[0]))

    # Phase 2 on the original objective, artificials barred from entering.
    phase2 = np.concatenate([c, np.zeros(m)])
    iterate(phase2, n)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    np.maximum(x, 0.0, out=x)  # scrub -1e-17 style pivot noise
    return x, float(c @ x)


def solve_primal(lp: StaircaseLp) -> PrimalSolution:
    """Solve the staircase program exactly; k is capped at 12 (4096 columns).

    The result is a vertex, hence carries at most k strictly positive
    weights.
    """
    if lp.k > MAX_SOLVE_K:
        raise ValueError(f"solve_primal supports k <= {MAX_SOLVE_K}, got {lp.k}")
    alpha, value = _simplex_max(lp.S, np.ones(lp.k), lp.mu_vec)
    return PrimalSolution(alpha=alpha, value=value)


def sign_candidate(lp: StaircaseLp) -> PrimalSolution:
    """Feasible point that encodes randomized response on the half split.

    Weight 1/(1 + e^eps) sits on exactly two columns: the word with ones
    on the upper half of the indices (0..01..1) and its complement
    (1..10..0).  The two columns sum to (1 + e^eps) in every row, so
    S alpha = 1 holds by construction, and the objective equals the sign
    mechanism's Fisher information.
    """
    half = lp.k // 2
    lower_ones = int("0" * half + "1" * half, 2)
    upper_ones = int("1" * half + "0" * half, 2)
    alpha = np.zeros(1 << lp.k)
    weight = 1.0 / (1.0 + math.exp(lp.epsilon))
    alpha[lower_ones] = weight
    alpha[upper_ones] = weight
    return PrimalSolution(alpha=alpha, value=float(lp.mu_vec @ alpha))


def mechanism_from_solution(solution: PrimalSolution, lp: StaircaseLp,
                            weight_tol: float = 1e-12) -> np.ndarray:
    """Recover the channel [S diag(alpha)]^T, dropping zero-weight rows.

    The rows of the result are the supported columns of S scaled by
    their weights; feasibility S alpha = 1 makes it column-stochastic,
    and every row is proportional to a {1, e^eps} pattern, so the
    epsilon-LDP ratio bound holds with equality.
    """
    support = np.where(solution.alpha > weight_tol)[0]
    return (lp.S[:, support] * solution.alpha[support]).T


def dual_certificate(k: int, params: PrivacyParams) -> DualCertificate:
    """Closed-form dual vector whose sum is (2/pi) * t_eps^2.

    beta_j = -2 t^2 / (pi k) + |y_j| t^2 sqrt(8/pi).  Because the |y_j|
    sum telescopes to 2 * pdf(0), the total is exactly the sign
    mechanism's information; beta is symmetric under j -> k + 1 - j.
    """
    model = build_quantized_model(k)
    t2 = params.t_eps * params.t_eps
    beta = -2.0 * t2 / (math.pi * k) + np.abs(model.y) * t2 * math.sqrt(8.0 / math.pi)
    beta.setflags(write=False)
    return DualCertificate(beta=beta)


def check_dual_feasibility(k: int, params: PrivacyParams,
                           tol: float = 1e-9) -> DualFeasibilityReport:
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
    """
    _check_tol(tol)
    scale = _exp_epsilon(params) - 1.0
    model = build_quantized_model(k)
    beta = dual_certificate(k, params).beta
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
    col = bits * scale + 1.0
    worst_slack = float(col @ beta) - row_information(col, model)
    worst_column = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-k % 8)
    return DualFeasibilityReport(feasible=worst_slack >= -tol,
                                 worst_slack=worst_slack,
                                 worst_column=worst_column)


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


def equality_chain(k: int, params: PrivacyParams, tol: float = 1e-8) -> dict:
    """Run build -> solve -> candidate -> certificate -> sweep and report.

    The chain holds when the candidate value, the primal optimum and the
    certificate sum all coincide with (2/pi) t_eps^2 within ``tol`` and
    the certificate is feasible.  Keys match the JSON report emitted by
    the command-line front end.  A NaN or negative ``tol`` is a ValueError.
    """
    _check_tol(tol)
    lp = build_staircase_lp(k, params)
    primal = solve_primal(lp)
    candidate = sign_candidate(lp)
    cert = dual_certificate(k, params)
    sweep = check_dual_feasibility(k, params)
    dual_value = float(cert.beta.sum())
    closed_form = sign_fisher_info(params)
    holds = (sweep.feasible
             and abs(primal.value - closed_form) <= tol
             and abs(candidate.value - closed_form) <= tol
             and abs(dual_value - closed_form) <= tol)
    return {
        "k": k,
        "epsilon": params.epsilon,
        "primal_value": primal.value,
        "candidate_value": candidate.value,
        "dual_value": dual_value,
        "feasible": sweep.feasible,
        "worst_slack": sweep.worst_slack,
        "worst_column": sweep.worst_column,
        "chain_holds": holds,
    }
