import inspect
import math
import tracemalloc

import numpy as np
import pytest

from ldpmean.mechanisms import privacy_params
from ldpmean.numerics import std_normal_pdf, std_normal_quantile
from ldpmean.quantized import (
    MAX_LEVEL,
    build_quantized_model,
    row_information_many,
    sign_fisher_info,
)
from oracles import dense_row_information, embed_sign_channel, fisher_info_quantized

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def sign_rows_information(params, model):
    """Information of the sign bit's two level-k rows: (1 - t)/2, plus t on the lower or upper half."""
    t = params.t_eps
    halves = np.repeat(np.eye(2), model.k // 2, axis=0)
    return t * t * float(row_information_many(halves, (1.0 - t) / 2.0, t, model).sum())


class TestBuildModel:
    def test_level_two(self):
        model = build_quantized_model(2)
        assert model.breakpoints[0] == -math.inf
        assert model.breakpoints[1] == 0.0
        assert model.breakpoints[2] == math.inf
        assert np.allclose(model.y, [-PHI0, PHI0], atol=1e-15)

    def test_half_sum_is_minus_pdf_at_zero(self):
        for k in (2, 4, 8, 32):
            model = build_quantized_model(k)
            assert model.y[:k // 2].sum() == pytest.approx(-PHI0, abs=1e-12)
            assert model.y.sum() == pytest.approx(0.0, abs=1e-12)

    def test_breakpoints_match_quantiles(self):
        model = build_quantized_model(6)
        for j in range(7):
            assert model.breakpoints[j] == pytest.approx(std_normal_quantile(j / 6), abs=1e-9)
        assert np.all(np.diff(model.breakpoints) > 0)

    def test_antisymmetry_exact(self):
        for k in (2, 4, 10, 64):
            model = build_quantized_model(k)
            assert np.array_equal(model.y, -model.y[::-1])

    def test_increments_increasing(self):
        # y_1 < y_2 < ... < y_k for every even k up to 64
        for k in range(2, 65, 2):
            model = build_quantized_model(k)
            assert np.all(np.diff(model.y) > 0)

    def test_rejects_bad_levels(self):
        for bad in (0, -2, 3, 7):
            with pytest.raises(ValueError):
                build_quantized_model(bad)
        with pytest.raises(ValueError):
            build_quantized_model(2 ** 16 + 2)

    def test_pdf_gap_quadratic_lower_bound(self):
        # pdf(0) - pdf(quantile(1/2 + x)) >= sqrt(pi/2) x^2 on [0, 1/2]
        for x in np.linspace(0.0, 0.5, 501):
            lhs = PHI0 - std_normal_pdf(std_normal_quantile(0.5 + x))
            assert lhs - math.sqrt(math.pi / 2.0) * x * x >= -1e-12


class TestRowInformation:
    def test_uniform_and_zero_rows(self):
        # rows 1 (all bits set at base 0, step 1) and 0 (none set)
        model = build_quantized_model(6)
        bits = np.stack([np.ones(6), np.zeros(6)], axis=1)
        assert row_information_many(bits, 0.0, 1.0, model).tolist() == [0.0, 0.0]  # sum(y) = 0

    def test_level_two_closed_form(self):
        # the row (e, 1) is 1 + (e - 1) * (1, 0)
        model = build_quantized_model(2)
        e = math.e
        (unit,) = row_information_many(np.array([[1.0], [0.0]]), 1.0, e - 1.0, model)
        expected = 2.0 * (PHI0 * (e - 1.0)) ** 2 / (e + 1.0)
        assert expected == pytest.approx(0.2527531738, abs=1e-9)
        assert (e - 1.0) ** 2 * unit == pytest.approx(expected, abs=1e-14)

    def test_vectorized_rejects_a_wrong_level(self):
        with pytest.raises(ValueError, match="expected shape"):
            row_information_many(np.ones((5, 3)), 1.0, 1.0, build_quantized_model(4))

    def test_vectorized_agrees(self):
        # each column against the scalar form k (v . y)^2 / (v . 1) of v = base + step * b,
        # over step^2; the zero row (base 0, no bit set) gives 0
        model = build_quantized_model(6)
        rng = np.random.default_rng(11)
        bits = (rng.random((6, 40)) < 0.5).astype(float)
        bits[:, 0] = 0.0
        for base, step in ((0.0, 0.7), (0.3, 2.5)):
            many = row_information_many(bits, base, step, model)
            each = []
            for j in range(40):
                v = base + step * bits[:, j]
                each.append(6 * math.fsum(v * model.y) ** 2 / math.fsum(v) / step ** 2
                            if v.any() else 0.0)
            assert np.allclose(many, each, rtol=1e-13, atol=1e-15)
        assert row_information_many(bits, 0.0, 0.7, model)[0] == 0.0

    @pytest.mark.parametrize("eps", [0.1, 1.0, 3.0])
    def test_matches_the_dense_oracle(self, eps):
        # s^2 times the bit form against the probability form of the rows 1 + s * b
        model = build_quantized_model(10)
        s = math.expm1(eps)
        bits = (np.random.default_rng(5).random((10, 300)) < 0.5).astype(float)
        bit_form = s * s * row_information_many(bits, 1.0, s, model)
        dense = dense_row_information(1.0 + s * bits, model)
        # a mirror-symmetric word carries exactly 0, where the dense form keeps ~1e-32 of round-off
        mirrored = (bits == bits[::-1]).all(axis=0)
        assert mirrored.any() and not bit_form[mirrored].any()
        assert np.allclose(bit_form, dense, rtol=1e-12, atol=1e-30)

    @pytest.mark.parametrize("k", [2, 8, 1024, MAX_LEVEL])
    def test_sign_rows_keep_their_digits(self, k):
        # the budget sits in the step t of the sign bit's rows, not in the last bits of p_eps
        mpmath = pytest.importorskip("mpmath")
        model = build_quantized_model(k)
        for eps in (1e-15, 1e-12, 1e-8, 1.0, 40.0, 800.0, math.inf):
            value = sign_rows_information(privacy_params(eps), model)
            with mpmath.workdps(50):
                exact = 2 / mpmath.pi * mpmath.tanh(mpmath.mpf(eps) / 2) ** 2
                assert abs(mpmath.mpf(value) / exact - 1) <= 1e-13, (eps, value)
        assert sign_rows_information(privacy_params(0.0), model) == 0.0

    def test_largest_level_in_bounded_memory(self):
        # the sign bit's rows are (k, 2): a dense k x k channel would be 32 GiB here
        build_quantized_model.cache_clear()
        tracemalloc.start()
        try:
            value = sign_rows_information(privacy_params(1.0), build_quantized_model(MAX_LEVEL))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(sign_fisher_info(privacy_params(1.0)), abs=1e-12)
        assert peak < 32 * 2 ** 20

    def test_dense_oracle_rejects_a_wrong_level(self):
        with pytest.raises(ValueError, match="expected shape"):
            dense_row_information(np.ones((5, 3)), build_quantized_model(4))


class TestFisherInfo:
    def test_rr_channel_level_two(self):
        params = privacy_params(1.0)
        model = build_quantized_model(2)
        value = fisher_info_quantized(embed_sign_channel(params, 2), model)
        assert value == pytest.approx(sign_fisher_info(params), abs=1e-12)

    def test_uniform_channel_is_uninformative(self):
        model = build_quantized_model(4)
        assert fisher_info_quantized(np.full((4, 4), 0.25), model) == 0.0

    def test_identity_channel(self):
        model = build_quantized_model(4)
        expected = float((4 * model.y ** 2).sum())
        assert fisher_info_quantized(np.eye(4), model) == pytest.approx(expected, abs=1e-12)
        # non-private upper bound dominates every epsilon-private value here
        for eps in (0.5, 1.0, 3.0):
            assert expected > sign_fisher_info(privacy_params(eps))

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_embedded_sign_channel_is_level_free(self, k):
        params = privacy_params(1.0)
        value = fisher_info_quantized(embed_sign_channel(params, k),
                                      build_quantized_model(k))
        assert value == pytest.approx(sign_fisher_info(params), abs=1e-12)

    def test_zero_rows_contribute_zero(self):
        params = privacy_params(0.8)
        model = build_quantized_model(8)
        live = embed_sign_channel(params, 8)
        mat = np.vstack([live, np.zeros((6, 8))])  # six all-zero output rows
        value = fisher_info_quantized(mat, model)
        assert math.isfinite(value)
        assert value == pytest.approx(fisher_info_quantized(live, model), abs=1e-15)

    def test_embedded_sign_channel_has_two_rows(self):
        mat = embed_sign_channel(privacy_params(1.0), 8)
        assert mat.shape == (2, 8)
        assert np.array_equal(mat.sum(axis=0), np.ones(8))

    def test_validation(self):
        model = build_quantized_model(4)
        with pytest.raises(ValueError):
            fisher_info_quantized(np.eye(3), model)
        with pytest.raises(ValueError):
            fisher_info_quantized(np.full((4, 4), 0.3), model)

    @pytest.mark.parametrize("channel", [
        [[1.5, 1.0, 0.0, 0.0], [-0.5, 0.0, 1.0, 1.0]],  # would give 1.33 > 1
        [[math.nan, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
    ])
    def test_negative_or_nan_entry_is_rejected(self, channel):
        with pytest.raises(ValueError):
            fisher_info_quantized(np.array(channel), build_quantized_model(4))

    def test_no_location_argument(self):
        # information is location-free by construction
        assert "theta" not in inspect.signature(fisher_info_quantized).parameters


class TestSignFisherInfo:
    def test_endpoints(self):
        assert sign_fisher_info(privacy_params(0.0)) == 0.0
        assert sign_fisher_info(privacy_params(math.inf)) == pytest.approx(
            2.0 / math.pi, abs=1e-15)

    def test_unit_budget(self):
        t = (math.e - 1.0) / (math.e + 1.0)
        assert sign_fisher_info(privacy_params(1.0)) == pytest.approx(
            (2.0 / math.pi) * t * t, abs=1e-15)

    def test_binary_ceiling(self):
        for eps in (0.1, 1.0, 5.0, 50.0):
            value = sign_fisher_info(privacy_params(eps))
            assert 0.0 <= value < 2.0 / math.pi + 1e-15
            assert value <= 1.0
