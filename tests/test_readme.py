"""The README's numbers that the code fixes, recomputed.

Each test derives a number from the package (or from a test oracle) and
checks that the README states it as written, so the prose cannot drift
from the code.  Line breaks in the README count as spaces.
"""

import math
import sys
from pathlib import Path

import pytest

import oracles
from ldpmean import sim
from ldpmean.lp import build_staircase_lp, solve_primal
from ldpmean.mechanisms import privacy_params
from ldpmean.numerics import std_normal_quantile

README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


def test_interval_columns_at_k12():
    program = build_staircase_lp(12, privacy_params(1.0))
    assert f"{program.bits.shape[1]} columns at `k = 12` where all `2^k` words are " \
           f"{1 << 12}" in README


def test_simplex_pivots_at_k12():
    budgets = (0.5, 1.0, 3.0)
    interval = [solve_primal(build_staircase_lp(12, privacy_params(eps))).pivots
                for eps in budgets]
    full = [oracles.full_primal(oracles.full_staircase_lp(12, privacy_params(eps))).pivots
            for eps in budgets]
    assert (f"({interval[0]}, {interval[1]} and {interval[2]} pivots at `k = 12` for `eps` = "
            f"0.5, 1 and 3; {full[0]}, {full[1]} and {full[2]} over all `2^k` columns)"
            in README)


def test_overflow_edge_at_k12():
    # k e^(2 eps) passes the largest double at eps = (ln DBL_MAX - ln k) / 2
    edge = (math.log(sys.float_info.max) - math.log(12)) / 2
    build_staircase_lp(12, privacy_params(edge - 1e-9))
    with pytest.raises(ValueError, match="overflows float64"):
        build_staircase_lp(12, privacy_params(edge + 1e-9))
    assert f"about epsilon > {edge:.1f} at k = 12" in README


def test_largest_normal_quantile():
    # the smallest double p gives the quantile of largest magnitude
    reach = -std_normal_quantile(math.ulp(0.0))
    assert reach > abs(std_normal_quantile(1.0 - 2.0 ** -53))
    assert 2 * reach <= sim._STAGE_REACH
    assert f"{reach:.2f} sigma" in README
    assert f"(d + {sim._STAGE_REACH:g} sigma)^2" in README


def test_bootstrap_level_and_resamples():
    assert f"{sim._LEVEL:.0%} percentile bootstrap from {sim._RESAMPLES} resamples" in README
