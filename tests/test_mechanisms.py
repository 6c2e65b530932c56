import math

import numpy as np
import pytest

from ldpmean.mechanisms import (
    privacy_params,
    randomized_response,
    released_bit_sums,
    sign_mechanism,
)
from ldpmean.numerics import std_normal_cdf
from oracles import embed_sign_channel, verify_ldp


class TestPrivacyParams:
    def test_zero_budget_is_fair_coin(self):
        p = privacy_params(0.0)
        assert p.p_eps == 0.5
        assert p.t_eps == 0.0

    def test_unit_budget(self):
        p = privacy_params(1.0)
        assert p.p_eps == pytest.approx(math.e / (1 + math.e), abs=1e-15)
        assert p.p_eps == pytest.approx(0.7310585786, abs=1e-10)
        assert p.t_eps == pytest.approx((math.e - 1) / (math.e + 1), abs=1e-15)
        assert p.t_eps == pytest.approx(0.4621171573, abs=1e-10)

    def test_threshold_budget(self):
        assert privacy_params(1.04822).t_eps == pytest.approx(0.4808, abs=1e-4)

    def test_t_within_two_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for eps in np.geomspace(1e-10, 40.0, 600):
                exact = mpmath.tanh(mpmath.mpf(float(eps)) / 2)
                err = abs(mpmath.mpf(privacy_params(float(eps)).t_eps) - exact)
                assert err <= 2 * math.ulp(float(exact)), eps

    def test_invariants(self):
        for eps in (1e-10, 1e-5, 0.01, 0.3, 1.0, 2.5, 10.0):
            p = privacy_params(eps)
            assert abs(p.t_eps - (2.0 * p.p_eps - 1.0)) <= 2.0 ** -51
            assert 0.5 <= p.p_eps <= 1.0
            assert 0.0 <= p.t_eps < 1.0

    def test_infinite_budget(self):
        p = privacy_params(math.inf)
        assert p.p_eps == 1.0
        assert p.t_eps == 1.0

    def test_rejects_negative(self):
        for bad in (-1e-9, -1.0, math.nan):
            with pytest.raises(ValueError):
                privacy_params(bad)


class TestRandomizedResponse:
    def test_no_privacy_never_flips(self):
        p = privacy_params(math.inf)
        rng = np.random.default_rng(0)
        assert randomized_response(1, p, rng) == 1
        out = randomized_response(np.ones(1000, dtype=np.int8), p, rng)
        assert np.all(out == 1)

    def test_fair_coin_at_zero_budget(self):
        p = privacy_params(0.0)
        rng = np.random.default_rng(1)
        out = randomized_response(np.ones(10 ** 6, dtype=np.int8), p, rng)
        # mean of a fair +/-1 coin, 3 sigma band = 3 / sqrt(N) = 0.003
        assert abs(out.mean()) < 0.004

    def test_flip_probability_at_unit_budget(self):
        p = privacy_params(1.0)
        rng = np.random.default_rng(2)
        out = randomized_response(np.full(10 ** 6, -1, dtype=np.int8), p, rng)
        frac_kept = np.mean(out == -1)
        # binomial 3 sigma band: 3 sqrt(p(1-p)/N) = 0.00133
        assert frac_kept == pytest.approx(0.7310586, abs=0.0014)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_keep_rate_matches_p_eps(self, eps):
        p = privacy_params(eps)
        rng = np.random.default_rng(3)
        n = 10 ** 6
        bits = np.where(rng.random(n) < 0.5, np.int8(1), np.int8(-1))
        out = randomized_response(bits, p, rng)
        kept = np.mean(out == bits)
        band = 3.0 * math.sqrt(p.p_eps * (1 - p.p_eps) / n)
        assert abs(kept - p.p_eps) < band

    def test_scalar_matches_array_stream(self):
        p = privacy_params(0.7)
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        scalars = [randomized_response(1, p, r1) for _ in range(50)]
        arrays = [int(randomized_response(np.array([1], dtype=np.int8), p, r2)[0])
                  for _ in range(50)]
        assert scalars == arrays


class TestSignMechanism:
    def test_sign_of_zero_is_plus_one(self):
        p = privacy_params(math.inf)  # no flipping, expose the raw sign
        rng = np.random.default_rng(0)
        assert sign_mechanism(2.0, 2.0, p, rng) == 1

    def test_noiseless_sign(self):
        p = privacy_params(math.inf)
        rng = np.random.default_rng(0)
        assert sign_mechanism(5.0, 2.0, p, rng) == 1
        assert sign_mechanism(-1.0, 2.0, p, rng) == -1

    def test_centered_data_has_zero_mean_bit(self):
        p = privacy_params(1.0)
        rng = np.random.default_rng(4)
        theta = 0.7
        data = rng.standard_normal(10 ** 6) + theta
        z = sign_mechanism(data, theta, p, rng)
        assert abs(z.mean()) < 0.004  # E[Z] = t (1 - 2 Phi(0)) = 0, 3 sigma band

    @pytest.mark.parametrize("offset", [-1.0, 0.5])
    def test_population_mean_bit(self, offset):
        # E[Z] = t_eps (1 - 2 Phi(center - theta))
        p = privacy_params(1.0)
        rng = np.random.default_rng(5)
        n = 10 ** 6
        data = rng.standard_normal(n)
        z = sign_mechanism(data, offset, p, rng)
        expected = p.t_eps * (1.0 - 2.0 * std_normal_cdf(offset))
        band = 3.0 / math.sqrt(n)
        assert abs(z.mean() - expected) < band

    def test_composition_matches_rr_matrix(self):
        # transition frequencies conditioned on the raw sign reproduce the
        # 2x2 randomized-response channel
        p = privacy_params(1.0)
        rng = np.random.default_rng(6)
        n = 10 ** 6
        data = rng.standard_normal(n)
        center = 0.2
        raw = np.where(data >= center, 1, -1)
        z = np.asarray(sign_mechanism(data, center, p, rng))
        mat = embed_sign_channel(p, 2)
        for j, s in enumerate((1, -1)):  # column order: input +1, input -1
            mask = raw == s
            m = mask.sum()
            for i, out_sym in enumerate((1, -1)):
                freq = np.mean(z[mask] == out_sym)
                band = 3.0 * math.sqrt(mat[i, j] * (1 - mat[i, j]) / m)
                assert abs(freq - mat[i, j]) < band


class TestReleasedBitSum:
    """Oracle: the sum of the bits ``sign_mechanism`` materializes from the same uniforms."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 7, 2000])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, math.inf])
    def test_matches_materialized_bits(self, seed, m, eps):
        params = privacy_params(eps)
        x = np.random.default_rng(100 + seed).standard_normal(m)
        x[::3] = 0.25  # exact ties with the center
        u = np.random.default_rng(seed).random((1, m))
        (total,) = released_bit_sums(x[None], u < params.p_eps, [0.25])
        assert type(total) is int
        assert total == int(sign_mechanism(x, 0.25, params, np.random.default_rng(seed)).sum())

    @pytest.mark.parametrize("m", [1, 2, 7, 2000])
    def test_ties_release_plus_one(self, m):
        center = 1.5
        x = np.stack([np.full(m, center), np.full(m, center - 1.0)])
        u = np.random.default_rng(4).random((2, m))
        assert released_bit_sums(x, u < privacy_params(math.inf).p_eps, [center, center]) == [m, -m]

    def test_scalar_input(self):
        # a one-sample row counts like the scalar mechanism
        params = privacy_params(1.0)
        for seed in range(20):
            u = np.random.default_rng(seed).random((1, 1))
            assert released_bit_sums(np.zeros((1, 1)), u < params.p_eps, [0.0]) == [
                sign_mechanism(0.0, 0.0, params, np.random.default_rng(seed))]

    def test_each_row_at_its_own_center(self):
        params = privacy_params(0.7)
        gen = np.random.default_rng(9)
        x, u = gen.standard_normal((6, 301)), gen.random((6, 301))
        keep = u < params.p_eps
        centers = [-1.0, 0.0, 0.3, 2.0, -0.2, 9.0]
        expected = [released_bit_sums(x[i:i + 1], keep[i:i + 1], centers[i:i + 1])[0]
                    for i in range(6)]
        assert released_bit_sums(x, keep, centers) == expected
        assert released_bit_sums(x[:, 100:], keep[:, 100:], np.array(centers)) == [
            released_bit_sums(x[i:i + 1, 100:], keep[i:i + 1, 100:], centers[i:i + 1])[0]
            for i in range(6)]


class TestRrMatrix:
    """The 2x2 randomized-response channel is the sign mechanism embedded at level 2."""

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1.0, math.inf])
    def test_level_two_embedding_is_the_rr_matrix(self, eps):
        # rows: released +1, -1; columns: input +1, -1; entries exactly p and 1 - p
        params = privacy_params(eps)
        p = params.p_eps
        assert np.array_equal(embed_sign_channel(params, 2), [[p, 1.0 - p], [1.0 - p, p]])

    def test_unit_budget_entries(self):
        mat = embed_sign_channel(privacy_params(1.0), 2)
        expected = np.array([[0.7310586, 0.2689414], [0.2689414, 0.7310586]])
        assert np.allclose(mat, expected, atol=1e-7)

    def test_zero_budget_is_uniform(self):
        assert np.array_equal(embed_sign_channel(privacy_params(0.0), 2), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("eps", [0.2, 1.0, 3.0])
    def test_column_sums_and_ratio(self, eps):
        mat = embed_sign_channel(privacy_params(eps), 2)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-15)
        ratios = mat.max(axis=1) / mat.min(axis=1)
        assert np.allclose(ratios, math.exp(eps), rtol=1e-12)


class TestVerifyLdp:
    def test_rr_matrix_valid_at_its_own_budget(self):
        assert verify_ldp(embed_sign_channel(privacy_params(1.0), 2), 1.0)

    def test_rr_matrix_invalid_at_smaller_budget(self):
        assert not verify_ldp(embed_sign_channel(privacy_params(1.0), 2), 0.5)

    def test_identity_channel_never_private(self):
        for eps in (0.5, 1.0, 5.0, 20.0):
            assert not verify_ldp(np.eye(2), eps)

    def test_malformed_matrix(self):
        with pytest.raises(ValueError):
            verify_ldp(np.ones(4), 1.0)
        with pytest.raises(ValueError):
            verify_ldp(np.empty((0, 0)), 1.0)

    def test_negative_entries_rejected(self):
        assert not verify_ldp(np.array([[1.1, -0.1], [-0.1, 1.1]]), 1.0)
