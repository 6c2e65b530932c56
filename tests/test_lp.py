import itertools
import math
import tracemalloc

import numpy as np
import pytest

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
    beta = dual_certificate(k, params).beta
    js = np.arange(1 << k, dtype=np.int64)
    bits = (js[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1
    cols = bits * (math.exp(params.epsilon) - 1.0) + 1.0
    slack = cols @ beta - k * (cols @ model.y) ** 2 / cols.sum(axis=1)
    return float(slack.min())


def direct_slack(column, k, params):
    """Certificate slack of one column word, evaluated from its bits."""
    bits = np.array([(column >> (k - 1 - i)) & 1 for i in range(k)])
    col = bits * (math.exp(params.epsilon) - 1.0) + 1.0
    beta = dual_certificate(k, params).beta
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
        each = [row_information(lp.S[:, j], lp.model) for j in range(2 ** k)]
        assert np.allclose(lp.mu_vec, each, atol=1e-15)

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
        lp = build_staircase_lp(14, privacy_params(1.0))
        with pytest.raises(ValueError):
            solve_primal(lp)


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
        cert = dual_certificate(2, privacy_params(1.0))
        assert np.allclose(cert.beta, [0.0679758, 0.0679758], atol=1e-7)
        assert cert.beta.sum() == pytest.approx(0.1359516, abs=1e-7)

    @pytest.mark.parametrize("k", [2, 4, 10, 16])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 1.04])
    def test_sum_is_sign_information(self, k, eps):
        params = privacy_params(eps)
        cert = dual_certificate(k, params)
        assert cert.beta.sum() == pytest.approx(
            (2 / math.pi) * params.t_eps ** 2, abs=1e-12)

    def test_symmetry_exact(self):
        cert = dual_certificate(4, privacy_params(1.0))
        assert cert.beta[0] == cert.beta[3]
        assert cert.beta[1] == cert.beta[2]

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
        cert = dual_certificate(2, params)
        # column (1, 1) contributes no information, so its slack is the sum
        assert cert.beta.sum() > 0.0

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
        cert = dual_certificate(k, params)
        bits = np.array([(report.worst_column >> (k - 1 - i)) & 1 for i in range(k)])
        col = bits * (math.exp(3.0) - 1.0) + 1.0
        slack = float(col @ cert.beta) - row_information(col, model)
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


class TestWeakDualityChain:
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_chain(self, k, eps):
        params = privacy_params(eps)
        lp = build_staircase_lp(k, params)
        cand = sign_candidate(lp).value
        primal = solve_primal(lp).value
        dual = float(dual_certificate(k, params).beta.sum())
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

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tol_rejected(self, tol):
        params = privacy_params(1.0)
        with pytest.raises(ValueError):
            equality_chain(4, params, tol=tol)
        with pytest.raises(ValueError):
            check_dual_feasibility(8, params, tol=tol)


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
