import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ldpmean.lp as lp_module
import ldpmean.quantized as quantized_module
from ldpmean.lp import (
    build_staircase_lp,
    certificate_margin,
    certificate_margin_lower,
    certificate_margin_upper,
    check_dual_feasibility,
    dual_certificate,
    equality_chain,
    interior_stationarity,
    mechanism_from_solution,
    sign_candidate,
    solve_primal,
)
from ldpmean.mechanisms import privacy_params, rr_matrix, verify_ldp
from ldpmean.quantized import (
    MAX_LEVEL,
    build_quantized_model,
    fisher_info_quantized,
    row_information,
)


def brute_force_optimum(lp):
    """Enumerate every basis of the k x 2^k program and keep the best vertex.

    Independent of the simplex path: solves each k x k system directly and
    checks feasibility by hand.  Only viable for tiny k.
    """
    k, n = lp.S.shape
    best = -math.inf
    for cols in itertools.combinations(range(n), k):
        B = lp.S[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        x = np.linalg.solve(B, np.ones(k))
        if np.all(x >= -1e-10):
            best = max(best, float(lp.mu_vec[list(cols)] @ np.maximum(x, 0.0)))
    return best


def enumerated_worst_slack(k, params):
    """Minimum certificate slack over all 2^k columns, enumerated directly.

    Reference for the structured sweep: builds every staircase column from
    its binary word and evaluates (S_col . beta) - k (S_col . y)^2 /
    (S_col . 1) on each.
    """
    model = build_quantized_model(k)
    beta = dual_certificate(k, params)
    js = np.arange(1 << k, dtype=np.int64)
    bits = (js[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1
    cols = bits * (math.exp(params.epsilon) - 1.0) + 1.0
    slack = cols @ beta - k * (cols @ model.y) ** 2 / cols.sum(axis=1)
    return float(slack.min())


def direct_slack(column, k, params):
    """Certificate slack of one column word, evaluated from its bits."""
    bits = np.array([(column >> (k - 1 - i)) & 1 for i in range(k)])
    col = bits * (math.exp(params.epsilon) - 1.0) + 1.0
    beta = dual_certificate(k, params)
    return float(col @ beta) - row_information(col, build_quantized_model(k))


class TestBuildStaircase:
    def test_level_four_structure(self):
        # 4 x 16 staircase: column j encodes the binary word of j, MSB first
        lp = build_staircase_lp(4, privacy_params(1.0))
        e = math.e
        expected = np.array([
            [1] * 8 + [e] * 8,
            ([1] * 4 + [e] * 4) * 2,
            ([1] * 2 + [e] * 2) * 4,
            [1, e] * 8,
        ])
        assert np.allclose(lp.S, expected, atol=1e-15)

    @pytest.mark.parametrize("k", [3, 5])
    def test_odd_level_rejected(self, k):
        with pytest.raises(ValueError):
            build_staircase_lp(k, privacy_params(1.0))

    def test_level_two_columns(self):
        lp = build_staircase_lp(2, privacy_params(1.0))
        e = math.e
        assert np.allclose(lp.S.T, [[1, 1], [1, e], [e, 1], [e, e]], atol=1e-15)

    def test_all_ones_column_has_zero_weight(self):
        # mu(ones) = (sum y)^2 which cancels to round-off
        for k in (2, 4, 6):
            lp = build_staircase_lp(k, privacy_params(0.7))
            assert abs(lp.mu_vec[0]) <= 1e-30

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_mu_vector_matches_scalar_form(self, k):
        lp = build_staircase_lp(k, privacy_params(0.9))
        model = build_quantized_model(k)
        each = [row_information(lp.S[:, j], model) for j in range(2 ** k)]
        assert np.allclose(lp.mu_vec, each, atol=1e-15)

    @pytest.mark.parametrize("eps", [1e-12, 0.5, 3.0])
    def test_dense_matrix_is_derived_from_the_bits(self, eps):
        lp = build_staircase_lp(6, privacy_params(eps))
        assert "S" not in vars(lp)  # derived on first access only
        assert lp.s == math.expm1(eps)
        assert np.array_equal(lp.S, 1.0 + lp.s * lp.bits)
        assert not lp.S.flags.writeable
        assert np.array_equal(lp.mu_vec, lp.s * lp.s * lp.unit)

    def test_chain_never_builds_the_dense_matrix(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("S built")

        monkeypatch.setattr(lp_module.StaircaseLp, "S", property(no_dense))
        assert equality_chain(12, privacy_params(1.0))["chain_holds"]

    def test_caps(self):
        params = privacy_params(1.0)
        for bad in (1, 21):
            with pytest.raises(ValueError):
                build_staircase_lp(bad, params)


class TestSolvePrimal:
    def test_level_two_against_basis_enumeration(self):
        params = privacy_params(1.0)
        lp = build_staircase_lp(2, params)
        sol = solve_primal(lp)
        assert sol.value == pytest.approx(brute_force_optimum(lp), abs=1e-10)
        assert sol.value == pytest.approx((2 / math.pi) * params.t_eps ** 2, abs=1e-9)

    def test_level_four_against_basis_enumeration(self):
        lp = build_staircase_lp(4, privacy_params(0.6))
        assert solve_primal(lp).value == pytest.approx(brute_force_optimum(lp), abs=1e-10)

    def test_level_four_half_budget(self):
        sol = solve_primal(build_staircase_lp(4, privacy_params(0.5)))
        assert sol.value == pytest.approx((2 / math.pi) * math.tanh(0.25) ** 2, abs=1e-9)

    def test_level_independence(self):
        params = privacy_params(1.0)
        v2 = solve_primal(build_staircase_lp(2, params)).value
        v6 = solve_primal(build_staircase_lp(6, params)).value
        assert v6 == pytest.approx(v2, abs=1e-9)

    @pytest.mark.parametrize("k,eps", [(2, 1.0), (4, 0.5), (6, 1.0), (8, 0.25)])
    def test_vertex_properties(self, k, eps):
        lp = build_staircase_lp(k, privacy_params(eps))
        sol = solve_primal(lp)
        assert np.all(sol.alpha >= 0.0)
        assert np.allclose(lp.S @ sol.alpha, 1.0, atol=1e-9)
        assert int((sol.alpha > 1e-9).sum()) <= k  # vertex sparsity

    def test_cap(self):
        # the simplex cap is enforced when the program is built
        with pytest.raises(ValueError):
            build_staircase_lp(14, privacy_params(1.0))

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
    def test_against_highs(self, k):
        # independent oracle: HiGHS shares no code with the revised simplex and
        # reads the dense S and mu;
        # from about eps = 2 the optimum exceeds the sign mechanism's value
        linprog = pytest.importorskip("scipy.optimize").linprog
        for eps in (0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.8):
            lp = build_staircase_lp(k, privacy_params(eps))
            ref = linprog(-lp.mu_vec, A_eq=lp.S, b_eq=np.ones(k), bounds=(0, None),
                          method="highs")
            assert ref.status == 0
            assert solve_primal(lp).value == pytest.approx(-ref.fun, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    def test_pivot_budget_at_top_level(self, eps):
        # Bland's lowest-index entering rule needs 362 to 1035 pivots here
        sol = solve_primal(build_staircase_lp(12, privacy_params(eps)))
        assert 1 <= sol.pivots <= 2 * 12

    @pytest.mark.parametrize("k", range(2, 13, 2))
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1.0, 8.8, 353.0])
    def test_prefix_basis_starts_lexicographically_positive(self, k, eps):
        # the channel that ignores its input is a vertex: B^-1 is exact and
        # eps-free, B^-1 b = e_0, and the lexicographic rule may start there
        lp = build_staircase_lp(k, privacy_params(eps))
        n = 1 << k
        A = np.empty((k + 1, n + 1))
        A[:k, :n], A[:k, n], A[k, :n], A[k, n] = lp.bits, -1.0, 1.0, lp.s
        basis = lp_module._prefix_basis(k)
        assert basis[0] == 0 and n not in basis
        B = A[:, basis]
        assert np.linalg.matrix_rank(B) == k + 1
        inverse = np.linalg.inv(B)
        assert set(np.unique(inverse)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(inverse @ B, np.eye(k + 1))
        x_basic = inverse @ np.eye(k + 1)[k]
        assert np.array_equal(x_basic, np.eye(k + 1)[0])
        for row in np.column_stack([x_basic, inverse]):
            assert row[np.flatnonzero(row)[0]] > 0.0

    @pytest.mark.parametrize("k", [2, 8, 12])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_small_budgets_reach_the_optimum(self, k, eps):
        # the objective is about eps^2 / (2 pi): an absolute reduced-cost
        # threshold of 1e-9 ended the simplex at its first vertex from eps = 1e-5,
        # and the default abs=1e-12 of approx would exceed every value here
        lp = build_staircase_lp(k, privacy_params(eps))
        assert solve_primal(lp).value == pytest.approx(sign_candidate(lp).value,
                                                       rel=1e-14, abs=0)


    def test_no_tableau_is_allocated(self):
        # a dense m x (n + m + 1) tableau would take more memory than A itself
        lp = build_staircase_lp(12, privacy_params(1.0))
        k, n = lp.bits.shape
        A = np.vstack([np.hstack([lp.bits, -np.ones((k, 1))]), np.append(np.ones(n), lp.s)])
        rhs = np.append(np.zeros(k), 1.0)
        costs = np.append(lp.unit, 0.0)
        tracemalloc.start()
        try:
            _, value, _ = lp_module._simplex_max(A, rhs, costs, lp_module._prefix_basis(k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value * lp.s ** 2 == pytest.approx(solve_primal(lp).value, rel=1e-14)
        assert peak < A.nbytes / 2


class TestMpmathOracle:
    """Every value of the chain against 50-digit (2/pi) tanh(eps/2)^2."""

    @pytest.mark.parametrize("k", range(2, 13, 2))
    def test_chain_values_at_every_budget(self, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 1.5):
                exact = 2 / mpmath.pi * mpmath.tanh(mpmath.mpf(eps) / 2) ** 2
                report = equality_chain(k, privacy_params(eps))
                assert report["chain_holds"], (k, eps)
                for key in ("primal_value", "candidate_value", "dual_value"):
                    rel = abs(mpmath.mpf(report[key]) / exact - 1)
                    assert rel <= 1e-14, (k, eps, key, float(rel))


# Beale (1955): max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 over three slack rows;
# the optimum is 5/4 at x4 = x6 = 1 (columns: slacks x1..x3, then x4..x7).
BEALE_A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.0, 0.0, 0.0, 0.75, -20.0, 0.5, -6.0])


class TestAntiCycling:
    @pytest.mark.parametrize("rows", [[0, 1, 2], [1, 0, 2]])
    def test_beale_reaches_optimum(self, rows):
        # From the slack basis, in either row order, a min-ratio tie broken
        # by the lowest basic index cycles through six bases forever; the
        # lexicographic rule leaves the cycle.
        x, value, pivots = lp_module._simplex_max(BEALE_A[rows], BEALE_B[rows], BEALE_C,
                                                  rows, max_iter=1000)
        assert value == pytest.approx(1.25, abs=1e-12)
        assert np.allclose(x, [0.75, 0, 0, 1, 0, 1, 0], atol=1e-12)
        assert pivots <= 10


class TestSignCandidate:
    def test_level_two_support(self):
        lp = build_staircase_lp(2, privacy_params(1.0))
        cand = sign_candidate(lp)
        w = 1.0 / (1.0 + math.e)
        assert cand.alpha[1] == pytest.approx(w, abs=1e-15)  # column (1, e)
        assert cand.alpha[2] == pytest.approx(w, abs=1e-15)  # column (e, 1)
        assert np.count_nonzero(cand.alpha) == 2
        assert cand.alpha[1] == pytest.approx(0.2689414, abs=1e-7)

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_feasible_with_sign_value(self, k, eps):
        params = privacy_params(eps)
        lp = build_staircase_lp(k, params)
        cand = sign_candidate(lp)
        assert np.allclose(lp.S @ cand.alpha, 1.0, atol=1e-14)
        expected = (2 / math.pi) * params.t_eps ** 2
        assert cand.value == pytest.approx(expected, abs=1e-12)

    def test_never_beats_the_optimum(self):
        for k, eps in ((2, 0.4), (6, 1.0)):
            lp = build_staircase_lp(k, privacy_params(eps))
            assert sign_candidate(lp).value <= solve_primal(lp).value + 1e-10

    def test_odd_level_rejected(self):
        with pytest.raises(ValueError):
            sign_candidate(build_staircase_lp(3, privacy_params(1.0)))


class TestMechanismFromSolution:
    def test_candidate_reconstructs_randomized_response(self):
        params = privacy_params(1.0)
        lp = build_staircase_lp(2, params)
        Q = mechanism_from_solution(sign_candidate(lp), lp)
        # same channel up to output relabeling (rows in support order)
        assert np.allclose(Q[::-1], rr_matrix(params), atol=1e-15)

    def test_optimal_vertex_round_trip(self):
        params = privacy_params(1.0)
        lp = build_staircase_lp(4, params)
        sol = solve_primal(lp)
        Q = mechanism_from_solution(sol, lp)
        assert Q.shape[0] <= 4
        assert verify_ldp(Q, 1.0, tol=1e-9)
        info = fisher_info_quantized(Q, build_quantized_model(4))
        assert info == pytest.approx(sol.value, abs=1e-9)

    def test_zero_weight_columns_absent(self):
        lp = build_staircase_lp(2, privacy_params(1.0))
        cand = sign_candidate(lp)
        assert mechanism_from_solution(cand, lp).shape == (2, 2)


class TestDualCertificate:
    def test_level_two_closed_form(self):
        beta = dual_certificate(2, privacy_params(1.0))
        assert np.allclose(beta, [0.0679758, 0.0679758], atol=1e-7)
        assert beta.sum() == pytest.approx(0.1359516, abs=1e-7)
        assert not beta.flags.writeable

    @pytest.mark.parametrize("k", [2, 4, 10, 16])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 1.04])
    def test_sum_is_sign_information(self, k, eps):
        params = privacy_params(eps)
        beta = dual_certificate(k, params)
        assert beta.sum() == pytest.approx(
            (2 / math.pi) * params.t_eps ** 2, abs=1e-12)

    def test_symmetry_exact(self):
        beta = dual_certificate(4, privacy_params(1.0))
        assert beta[0] == beta[3]
        assert beta[1] == beta[2]

    def test_odd_level_rejected(self):
        with pytest.raises(ValueError):
            dual_certificate(3, privacy_params(1.0))


class TestDualFeasibility:
    def test_feasible_in_high_privacy_regime(self):
        report = check_dual_feasibility(8, privacy_params(1.0))
        assert report.feasible
        assert report.worst_slack >= -1e-9

    def test_all_ones_column_has_positive_slack(self):
        params = privacy_params(1.0)
        beta = dual_certificate(2, params)
        # column (1, 1) contributes no information, so its slack is the sum
        assert beta.sum() > 0.0

    def test_infeasible_at_large_budget(self):
        report = check_dual_feasibility(8, privacy_params(3.0))
        assert not report.feasible
        assert report.worst_slack < 0.0
        assert 0 <= report.worst_column < 2 ** 8

    def test_worst_column_matches_direct_evaluation(self):
        params = privacy_params(3.0)
        k = 6
        report = check_dual_feasibility(k, params)
        model = build_quantized_model(k)
        beta = dual_certificate(k, params)
        bits = np.array([(report.worst_column >> (k - 1 - i)) & 1 for i in range(k)])
        col = bits * (math.exp(3.0) - 1.0) + 1.0
        slack = float(col @ beta) - row_information(col, model)
        assert slack == pytest.approx(report.worst_slack, abs=1e-12)

    @pytest.mark.parametrize("k", range(2, 17, 2))
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 1.04, 1.5, 1.9, 2.0, 3.0, 8.0])
    def test_matches_column_enumeration(self, k, eps):
        # Mirror-image columns tie, so the reported column may differ from
        # the enumeration's; its own slack must still be the minimum.
        params = privacy_params(eps)
        report = check_dual_feasibility(k, params)
        worst = enumerated_worst_slack(k, params)
        assert report.feasible == (worst >= -1e-9)
        assert report.worst_slack == pytest.approx(worst, abs=1e-12)
        assert 0 <= report.worst_column < 2 ** k
        assert direct_slack(report.worst_column, k, params) == pytest.approx(
            report.worst_slack, abs=1e-12)

    @pytest.mark.parametrize("k,feasible_eps,infeasible_eps",
                             [(8, 1.95, 2.0), (16, 1.80, 1.87), (1024, 1.70, 1.73)])
    def test_feasibility_threshold_brackets(self, k, feasible_eps, infeasible_eps):
        assert check_dual_feasibility(k, privacy_params(feasible_eps)).feasible
        params = privacy_params(infeasible_eps)
        report = check_dual_feasibility(k, params)
        assert not report.feasible
        assert direct_slack(report.worst_column, k, params) == pytest.approx(
            report.worst_slack, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-10])
    def test_scaled_down_certificate_is_infeasible_at_small_budgets(self, monkeypatch, eps):
        # slacks scale like t^2, so an absolute bound passes any shortfall at small eps
        certificate = lp_module.dual_certificate
        monkeypatch.setattr(lp_module, "dual_certificate",
                            lambda k, params: certificate(k, params) * (1 - 1e-3))
        report = check_dual_feasibility(8, privacy_params(eps))
        assert not report.feasible
        assert report.worst_slack < 0.0

    @pytest.mark.parametrize("k", range(2, 23, 2))
    def test_feasible_down_to_tiny_budgets(self, k):
        for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 1.5):
            assert check_dual_feasibility(k, privacy_params(eps)).feasible, (k, eps)

    @pytest.mark.parametrize("k", [2, 8, 22])
    def test_worst_slack_against_mpmath(self, k):
        # the reported column's slack, evaluated in 50 digits from the same beta
        mpmath = pytest.importorskip("mpmath")
        model = build_quantized_model(k)
        with mpmath.workdps(50):
            for eps in (1e-12, 1e-10, 1e-6, 0.5, 3.0):
                params = privacy_params(eps)
                report = check_dual_feasibility(k, params)
                beta = dual_certificate(k, params)
                s = mpmath.expm1(mpmath.mpf(eps))
                col = [1 + s * ((report.worst_column >> (k - 1 - i)) & 1) for i in range(k)]
                dot = mpmath.fsum(c * mpmath.mpf(y) for c, y in zip(col, model.y))
                exact = (mpmath.fsum(c * mpmath.mpf(b) for c, b in zip(col, beta))
                         - k * dot ** 2 / mpmath.fsum(col))
                scale = 2 / mpmath.pi * mpmath.tanh(mpmath.mpf(eps) / 2) ** 2
                assert abs(report.worst_slack - exact) <= 1e-13 * scale, (eps, report)

    def test_large_level_in_bounded_memory(self):
        tracemalloc.start()
        try:
            report = check_dual_feasibility(4096, privacy_params(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.feasible
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("eps", [800.0, math.inf])
    def test_non_finite_staircase_entry_rejected(self, eps):
        with pytest.raises(ValueError):
            check_dual_feasibility(4, privacy_params(eps))
        with pytest.raises(ValueError):
            build_staircase_lp(4, privacy_params(eps))

    def test_cap(self):
        with pytest.raises(ValueError):
            check_dual_feasibility(MAX_LEVEL + 2, privacy_params(1.0))


# Budgets from the largest the guard leaves alone (300) to the last finite
# e^eps (709), denser where k e^(2 eps) leaves float64 (eps about 353.6 to
# 354.9 for k = 2..12) and where the unguarded programs turned NaN or inf.
LARGE_BUDGETS = [300.0, 340.0, 349.0, 352.0, 353.0, 353.6, 353.7, 354.0, 354.5, 354.6,
                 354.8, 355.0, 360.0, 395.3, 400.0, 500.0, 709.0]


def _finite_reals(values):
    return all(math.isfinite(v) for v in values if isinstance(v, float))


class TestLargeBudgets:
    """Every large budget gives all-finite reals or a ValueError, never NaN or inf."""

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
    def test_equality_chain(self, k):
        for eps in LARGE_BUDGETS:
            try:
                report = equality_chain(k, privacy_params(eps))
            except ValueError:
                assert eps > 353.0
                continue
            assert _finite_reals(report.values()), (k, eps, report)

    def test_certificate_sweep(self):
        for eps in LARGE_BUDGETS:
            try:
                report = check_dual_feasibility(22, privacy_params(eps))
            except ValueError:
                assert eps > 300.0
                continue
            assert math.isfinite(report.worst_slack), (eps, report)


class TestWeakDualityChain:
    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("eps", [0.0, 1e-300])
    def test_zero_information_budget(self, k, eps):
        # e^eps = 1: every staircase column is all ones, so the k rows are one constraint
        report = equality_chain(k, privacy_params(eps))
        assert report["chain_holds"] and report["feasible"]
        assert report["primal_value"] == report["candidate_value"] == report["dual_value"] == 0.0

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_chain(self, k, eps):
        params = privacy_params(eps)
        lp = build_staircase_lp(k, params)
        cand = sign_candidate(lp).value
        primal = solve_primal(lp).value
        dual = float(dual_certificate(k, params).sum())
        closed_form = (2 / math.pi) * params.t_eps ** 2
        assert cand <= primal + 1e-9
        assert primal <= dual + 1e-8
        for value in (cand, primal, dual):
            assert value == pytest.approx(closed_form, abs=1e-8)

    def test_equality_chain_report(self):
        report = equality_chain(4, privacy_params(1.0))
        assert report["chain_holds"]
        assert report["feasible"]
        assert report["primal_value"] == pytest.approx(report["dual_value"], abs=1e-8)

    @pytest.mark.parametrize("k, eps", [(6, 1.0), (8, 3.0)])
    def test_one_model_per_chain(self, monkeypatch, k, eps):
        # each model built calls the quantile k/2 - 1 times; the cache serves the rest
        quantile = quantized_module.std_normal_quantile
        calls = []

        def counting_quantile(p):
            calls.append(p)
            return quantile(p)

        build_quantized_model.cache_clear()
        monkeypatch.setattr(quantized_module, "std_normal_quantile", counting_quantile)
        params = privacy_params(eps)
        report = equality_chain(k, params)
        sweep = check_dual_feasibility(k, params)
        assert len(calls) == k // 2 - 1
        assert (report["feasible"], report["worst_slack"], report["worst_column"]) == (
            sweep.feasible, sweep.worst_slack, sweep.worst_column)
        assert report["dual_value"] == float(dual_certificate(k, params).sum())


class TestCertificateMargin:
    def test_origin_is_tight(self):
        assert certificate_margin(0.0, 0.0, 0.0, 0.0, 0.4) == 0.0

    def test_point_value(self):
        # (a2 - a1) * 2t - (a1 + a2 - 1)^2 + 1 = -0.8 - 0 + 1
        assert certificate_margin(1.0, 0.0, 0.0, 0.0, 0.4) == pytest.approx(0.2, abs=1e-15)

    def test_upper_boundary_reductions(self):
        for t in (0.1, 0.3, 0.5):
            assert certificate_margin_upper(0.0, 0.0, t) == pytest.approx(1 - 2 * t, abs=1e-15)
            assert certificate_margin_upper(0.5, 0.0, t) == pytest.approx((t - 1) ** 2, abs=1e-15)

    def test_upper_boundary_tangent_point(self):
        t_star = 4 * math.pi / (1 + 8 * math.pi)
        y_star = 1 / (4 * math.pi)
        assert abs(certificate_margin_upper(0.0, y_star, t_star)) <= 1e-12

    def test_lower_boundary_origin(self):
        assert certificate_margin_lower(0.0, 0.0, 0.5) == 0.0

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.4808])
    def test_nonnegative_on_constraint_region(self, t):
        # 101^3 grid: x, y in [0, 1/2]; a2 = pi y^2; a1 from pi x^2 to 1 - a2
        x = np.linspace(0.0, 0.5, 101)[:, None, None]
        y = np.linspace(0.0, 0.5, 101)[None, :, None]
        frac = np.linspace(0.0, 1.0, 101)[None, None, :]
        a2 = math.pi * y ** 2
        lo = math.pi * x ** 2
        hi = 1.0 - a2
        a1 = lo + frac * (hi - lo)
        values = certificate_margin(a1, a2, x, y, t)
        valid = lo <= hi
        assert values[np.broadcast_to(valid, values.shape)].min() >= -1e-12

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.4808])
    def test_upper_boundary_nonnegative(self, t):
        x = np.linspace(0.0, 0.5, 101)[:, None]
        y = np.linspace(0.0, 0.5, 101)[None, :]
        values = certificate_margin_upper(x, y, t)
        mask = math.pi * x ** 2 + math.pi * y ** 2 <= 1.0
        assert values[np.broadcast_to(mask, values.shape)].min() >= -1e-12

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5])
    def test_lower_boundary_nonnegative(self, t):
        x = np.linspace(0.0, 0.5, 101)[:, None]
        y = np.linspace(0.0, 0.5, 101)[None, :]
        values = certificate_margin_lower(x, y, t)
        mask = math.pi * x ** 2 + math.pi * y ** 2 <= 1.0
        assert values[np.broadcast_to(mask, values.shape)].min() >= -1e-12


class TestInteriorStationarity:
    def test_diagonal_closed_form(self):
        for a in (0.05, 0.2, 0.5):
            t = 0.5
            assert interior_stationarity(a, a, t) == pytest.approx(
                t * a * a * (4 / math.pi - 2 * a), rel=1e-12)
            assert interior_stationarity(a, a, t) > 0.0

    def test_zero_difference(self):
        assert interior_stationarity(0.0, 0.7, 0.5) == pytest.approx(0.49, abs=1e-15)

    def test_point_value(self):
        assert interior_stationarity(0.2, 0.5, 0.5) == pytest.approx(0.1816620, abs=1e-7)

    def test_strictly_positive_on_grid(self):
        a = np.linspace(0.0, 0.5, 101)[1:, None]  # a > 0
        b = np.linspace(0.0, 1.0, 201)[None, :]
        values = interior_stationarity(a, b, 0.5)
        mask = np.broadcast_to(b >= a, values.shape)
        assert values[mask].min() > 0.0
