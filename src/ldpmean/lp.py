"""Staircase linear program for the best discrete privacy channel.

Extreme points of the epsilon-LDP polytope are staircase columns whose
entries take only the values {1, e^epsilon} (Kairouz, Oh & Viswanath,
"Extremal mechanisms for local differential privacy", JMLR 2016).
Maximizing the released Fisher information over level-k channels
therefore reduces to a linear program over mixtures of staircase columns:

    max  mu . alpha   s.t.   S alpha = 1,  alpha >= 0,

where a column of S is 1 + s * bits over a 0/1 word of the k cells, s =
e^eps - 1, and mu is that column's information.  Of the 2^k words the
program keeps the k(k+1)/2 + 1 intervals: the all-zero word and the ones
on [a, b), 0 <= a < b <= k.  The verdict is the one all 2^k columns would
give: the sign mechanism's two columns are intervals, so candidate <=
interval optimum <= full optimum, and when the certificate beta is
feasible on all 2^k columns, weak duality caps the full optimum at
sum(beta) = (2/pi) t_eps^2, the candidate's value.  This module
materializes the program for small even k in bit form (S itself is never
built), solves it exactly with a revised simplex, constructs the explicit
dual certificate whose objective equals the sign mechanism's information,
and checks that certificate against all 2^k columns with an exact
structured sweep in O(k^2) (any even k up to 2^16, no enumeration of the
columns).  ``equality_chain`` runs those public steps in order:
build_staircase_lp, solve_primal, sign_candidate, dual_certificate (which
returns beta) and check_dual_feasibility.  They share one quantizer model
per k, cached by ``build_quantized_model``.

The grid proof in ``tests/oracles.py`` shows the certificate feasible for
eps <= 1.048.  It stays feasible well beyond that bound: its threshold is
about eps = 1.98 at k = 8 and falls to about 1.71 for k >= 1024.  Above it
the sweep reports a column with negative slack.

Every verdict is one rule, ``_agree``: the chain's three values must each
match (2/pi) t_eps^2, and the sweep's worst column its own two terms, to
within ROUND_OFF (1e-9) of the larger magnitude or the smallest normal double.
ROUND_OFF is the module's one tolerance: the simplex prices and pivots by it too.

Budgets whose staircase arithmetic would overflow float64, that is with
k e^(2 eps) beyond the largest double (eps above about 354.9 - ln(k) / 2,
and inf), are rejected with ValueError.

Index convention: a program column is its position in ``StaircaseLp.bits``;
the sweep's ``worst_column`` is the integer whose binary word (MSB first)
generates the column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import PrivacyParams
from .quantized import build_quantized_model, row_information_many, sign_fisher_info
from .schema import MAX_SOLVE_K

_SWEEP_BLOCK = 1 << 18    # corner slacks evaluated per block of the sweep grid
_MAX_PIVOTS = 100_000     # the simplex's iteration cap
ROUND_OFF = 1e-9          # relative gap that every comparison of lp-verify forgives


@dataclass(frozen=True)
class StaircaseLp:
    """Interval program in bit form: the dense S = 1 + s * bits is never built.

    program is the (k + 1, k(k+1)/2 + 2) matrix [bits, -1; 1, s] of the
    equality rows that ``solve_primal`` hands to the simplex, and bits, its
    read-only view, holds the interval words: column 0 is all-zero, column
    j <= k the prefix [0, j), then [a, b) for 1 <= a < b <= k, by a, then b.
    s = e^eps - 1, and unit_j = k (y . b_j)^2 / (k + s |b_j|) is column j's
    information mu_j over s^2 (``row_information_many`` at base 1).
    """

    k: int
    program: np.ndarray
    s: float
    unit: np.ndarray
    mu_vec: np.ndarray

    @property
    def bits(self) -> np.ndarray:
        return self.program[:self.k, :-1]


@dataclass(frozen=True)
class PrimalSolution:
    """Column weights alpha, one per column of ``StaircaseLp.bits``, and their objective value.

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


def _interval_program(k: int, s: float) -> np.ndarray:
    """The equality rows [bits, -1; 1, s] over the interval words, in ``StaircaseLp`` order.

    The word [a, b) has ones on the cells a <= i < b; taking a, then b, in
    increasing order puts the prefixes [0, b) right after the all-zero word.
    """
    n = k * (k + 1) // 2 + 1
    program = np.zeros((k + 1, n + 1))
    col = 1
    for a in range(k):
        for b in range(a + 1, k + 1):
            program[a:b, col] = 1.0
            col += 1
    program[:k, n] = -1.0
    program[k, :n] = 1.0
    program[k, n] = s
    return program


def _agree(a: float, b: float) -> bool:
    """Whether a and b differ by round-off: ROUND_OFF * max(|a|, |b|) or the smallest normal."""
    gap = abs(a - b)
    return bool(gap <= ROUND_OFF * max(abs(a), abs(b)) or gap < np.finfo(float).tiny)


def build_staircase_lp(k: int, params: PrivacyParams) -> StaircaseLp:
    """Materialize the bit form for even 2 <= k <= 12 (79 interval columns at k = 12)."""
    if k > MAX_SOLVE_K:
        raise ValueError(f"k must satisfy 2 <= k <= {MAX_SOLVE_K}, got {k!r}")
    model = build_quantized_model(k)
    s = _staircase_step(params, k)
    program = _interval_program(k, s)
    unit = row_information_many(program[:k, :-1], 1.0, s, model)
    mu_vec = (s * s) * unit
    for array in (program, unit, mu_vec):
        array.setflags(write=False)
    return StaircaseLp(k, program, s, unit, mu_vec)


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
                 inverse: np.ndarray):
    """Maximize c @ x subject to A x = b, x >= 0, from a feasible ``basis``.

    Revised simplex: it keeps only [x_B | B^-1] (m by m + 1), starting
    from the caller's ``inverse`` = inv(A[:, basis]), and prices with
    y = c_B B^-1 as c - y A.  The entering column is the one with the
    largest reduced cost (Dantzig's rule), if that cost exceeds ROUND_OFF
    times the largest |c|: an absolute threshold would stop at the first
    vertex for tiny objectives.  The min-ratio test on B^-1 a_e reads only
    pivot entries above ROUND_OFF, and the ratios within ROUND_OFF (1 +
    |least|) of the least one tie.  Ties are broken lexicographically:
    among the tied rows the leaving one has the smallest row of B^-1
    divided by its pivot entry, the first such row on equal rows.  That
    rule keeps every row of [x_B | B^-1] lexicographically positive,
    which the caller's basis must make true at the start, so no basis
    repeats: the heavily degenerate staircase programs cannot cycle.  The
    ratio test runs on Python floats, as its m rows are too few to repay
    numpy's per-call cost.  Returns (x, value, pivots).
    """
    m, n = A.shape
    basis = np.array(basis)
    table = np.hstack([np.reshape(inverse @ b, (m, 1)), inverse])  # [x_B | B^-1]
    x_basic, inverse = table[:, 0], table[:, 1:]
    cost_tol = ROUND_OFF * float(np.abs(c).max())
    for pivots in range(_MAX_PIVOTS):
        reduced = c - (c[basis] @ inverse) @ A
        reduced[basis] = 0.0
        entering = int(np.argmax(reduced))
        if not reduced[entering] > cost_tol:
            x = np.zeros(n)
            x[basis] = np.maximum(x_basic, 0.0)  # scrub -1e-17 style pivot noise
            return x, float(c @ x), pivots
        col = inverse @ A[:, entering]
        pivot_col, x_list = col.tolist(), x_basic.tolist()
        ratios = {i: x_list[i] / a for i, a in enumerate(pivot_col) if a > ROUND_OFF}
        if not ratios:
            raise RuntimeError("unbounded program (cannot happen: feasible set is bounded)")
        cutoff = min(ratios.values())
        cutoff += ROUND_OFF * (1.0 + abs(cutoff))
        row = min((i for i, ratio in ratios.items() if ratio <= cutoff),
                  key=lambda i: [v / pivot_col[i] for v in inverse[i].tolist()])
        table[row] /= col[row]
        col[row] = 0.0
        table -= col[:, None] * table[row]
        basis[row] = entering
    raise RuntimeError("simplex iteration limit exceeded")


def _prefix_inverse(k: int) -> np.ndarray:
    """B^-1 of the prefix basis: rows e_k - e_0, e_(j-1) - e_j (j = 1..k-1) and e_(k-1)."""
    inverse = np.eye(k + 1, k=-1) - np.eye(k + 1)
    inverse[0, k] = 1.0
    inverse[k, k] = 0.0
    return inverse


def solve_primal(lp: StaircaseLp) -> PrimalSolution:
    """Solve the interval program exactly with the revised simplex.

    It runs on the bit form: with c = (1 - 1 . alpha) / s >= 0, the k rows
    S alpha = 1 are bits alpha - c 1 = 0 and 1 . alpha + s c = 1 (the rows
    of ``lp.program``), and the objective is unit . alpha = mu . alpha /
    s^2.  The simplex starts at the channel that ignores its input, alpha =
    e_0, with the k + 1 prefix words, columns 0..k, as its basis: c is not
    among them, so B^-1 does not depend on eps (``_prefix_inverse``), and
    every row of [x_B | B^-1] = [e_0 | B^-1] is lexicographically positive.
    At the vertex it returns, c is basic unless alpha sits on column 0
    alone, so at most k weights are nonzero.
    """
    k, n = lp.bits.shape
    x, _, pivots = _simplex_max(lp.program, np.eye(k + 1)[k], np.append(lp.unit, 0.0),
                                list(range(k + 1)), _prefix_inverse(k))
    return PrimalSolution(alpha=x[:n], value=float(lp.mu_vec @ x[:n]), pivots=pivots)


def sign_candidate(lp: StaircaseLp) -> PrimalSolution:
    """Feasible point that encodes randomized response on the half split.

    Weight 1/(2 + s) = 1/(1 + e^eps) sits on exactly two columns: the
    intervals [0, k/2) and [k/2, k).  The two columns sum to 2 + s in every
    row, so S alpha = 1 holds by construction, and the objective equals the
    sign mechanism's Fisher information.
    """
    half = lp.k // 2
    n = lp.bits.shape[1]
    alpha = np.zeros(n)
    weight = 1.0 / (2.0 + lp.s)
    alpha[half] = weight  # the prefix [0, k/2)
    alpha[n - 1 - half * (half - 1) // 2] = weight  # [k/2, k): later intervals start above k/2
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
