import inspect
import math

import numpy as np
import pytest

from ldpmean.mechanisms import privacy_params, rr_matrix
from ldpmean.numerics import std_normal_pdf, std_normal_quantile
from ldpmean.quantized import (
    build_quantized_model,
    embed_sign_channel,
    fisher_info_quantized,
    row_information,
    row_information_many,
    sign_fisher_info,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


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
        model = build_quantized_model(6)
        assert row_information(np.ones(6), model) == 0.0  # increments sum to zero
        assert row_information(np.zeros(6), model) == 0.0

    def test_level_two_closed_form(self):
        model = build_quantized_model(2)
        e = math.e
        value = row_information(np.array([e, 1.0]), model)
        expected = 2.0 * (PHI0 * (e - 1.0)) ** 2 / (e + 1.0)
        assert expected == pytest.approx(0.2527531738, abs=1e-9)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_validation(self):
        model = build_quantized_model(4)
        with pytest.raises(ValueError):
            row_information(np.array([1.0, -0.1, 0.0, 0.0]), model)
        with pytest.raises(ValueError):
            row_information(np.ones(3), model)

    def test_nan_weight_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            row_information(np.array([1.0, math.nan, 0.0, 0.0]), build_quantized_model(4))

    def test_vectorized_rejects_a_wrong_level(self):
        with pytest.raises(ValueError, match="expected shape"):
            row_information_many(np.ones((5, 3)), build_quantized_model(4))

    def test_vectorized_agrees(self):
        model = build_quantized_model(6)
        rng = np.random.default_rng(11)
        V = rng.random((6, 40))
        V[:, 0] = 0.0
        many = row_information_many(V, model)
        each = [row_information(V[:, j], model) for j in range(40)]
        assert np.allclose(many, each, atol=1e-15)


class TestFisherInfo:
    def test_rr_channel_level_two(self):
        params = privacy_params(1.0)
        model = build_quantized_model(2)
        value = fisher_info_quantized(rr_matrix(params), model)
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
