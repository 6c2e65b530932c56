import math

import numpy as np
import pytest

from ldpmean.numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile


class TestPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)
        assert std_normal_pdf(0.0) == pytest.approx(0.39894228040143267, abs=1e-15)

    def test_infinite_arguments_are_zero(self):
        assert std_normal_pdf(math.inf) == 0.0
        assert std_normal_pdf(-math.inf) == 0.0

    def test_at_one(self):
        # exp(-1/2) / sqrt(2 pi), evaluated independently
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert expected == pytest.approx(0.24197072451914337, abs=1e-16)
        assert std_normal_pdf(1.0) == pytest.approx(expected, abs=1e-16)

    def test_derivative_identity(self):
        # d/dx pdf(x) = -x pdf(x); central differences on [-5, 5]
        h = 1e-5
        for x in np.linspace(-5.0, 5.0, 201):
            fd = (std_normal_pdf(x + h) - std_normal_pdf(x - h)) / (2 * h)
            expected = -x * std_normal_pdf(x)
            if abs(expected) > 1e-8:
                assert fd == pytest.approx(expected, rel=1e-6)
            else:
                assert fd == pytest.approx(expected, abs=1e-8)


class TestCdf:
    def test_core_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_cdf(math.inf) == 1.0

    def test_975_quantile_point(self):
        # 1.959964 is the 97.5% point rounded to 6 decimals
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-8)

    def test_monotone(self):
        # strictly increasing wherever doubles can resolve the increment
        grid = np.linspace(-7.5, 7.5, 1501)
        values = [std_normal_cdf(x) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        # non-strict out to the saturated tails
        wide = np.linspace(-9.0, 9.0, 721)
        wide_values = [std_normal_cdf(x) for x in wide]
        assert all(a <= b for a, b in zip(wide_values, wide_values[1:]))

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-15)


class TestQuantile:
    def test_median_and_quartiles(self):
        assert std_normal_quantile(0.5) == 0.0
        # bisection oracle value for the lower quartile: -0.6744897501960817
        assert std_normal_quantile(0.25) == pytest.approx(-0.6744897501960817, abs=1e-12)
        assert std_normal_quantile(0.5 + 0.25) == pytest.approx(0.6744897501960817, abs=1e-12)

    def test_edges_and_domain(self):
        assert std_normal_quantile(0.0) == -math.inf
        assert std_normal_quantile(1.0) == math.inf
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)

    def test_forward_roundtrip(self):
        # |cdf(quantile(p)) - p| <= 1e-10 across the working range
        ps = np.concatenate([
            np.geomspace(1e-10, 0.02, 200),
            np.linspace(0.02, 0.98, 400),
            1.0 - np.geomspace(1e-10, 0.02, 200),
        ])
        for p in ps:
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-10

    def test_inverse_roundtrip(self):
        # quantile(cdf(x)) = x within 1e-8 on [-6, 6]
        for x in np.linspace(-6.0, 6.0, 1201):
            assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-8)


class TestQuantileTails:
    def test_within_eight_ulp_of_mpmath(self):
        # reference: the 50-digit root of ncdf(x) = p, solved on the log
        # scale of the nearer tail so that tiny tail masses keep their digits
        mpmath = pytest.importorskip("mpmath")

        @mpmath.workdps(50)
        def reference(p):
            p = mpmath.mpf(p)
            tail, sign = (p, -1) if p <= 0.5 else (1 - p, 1)
            z0 = mpmath.sqrt(-2 * mpmath.log(tail)) if tail < 0.3 else mpmath.mpf("0.1")
            return sign * mpmath.findroot(
                lambda z: mpmath.log(mpmath.ncdf(-z)) - mpmath.log(tail), z0)

        ps = np.concatenate([
            np.geomspace(5e-324, 0.49, 300),
            1.0 - np.geomspace(2.0 ** -53, 0.49, 300),
            [1.0 - 1e-10],
        ])
        for p in ps:
            exact = reference(float(p))
            err = abs(mpmath.mpf(std_normal_quantile(float(p))) - exact)
            assert err <= 8 * math.ulp(float(exact)), p
