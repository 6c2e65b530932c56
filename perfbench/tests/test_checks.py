"""Tests of the benchmark's output checks on malformed outputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import workloads  # noqa: E402


def simulate_op(tmp_path, csv: str) -> dict:
    (tmp_path / "out.csv").write_text(csv)
    (tmp_path / "out.csv.manifest").write_text("manifest\n")
    return {"kind": "cli", "check": "simulate", "output": "out.csv", "points": 1,
            "replicates": 10, "epsilon": 1.0}


def lp_op(eps: float = 1.0) -> dict:
    return {"kind": "cli", "check": "lp_verify", "k": 8, "epsilon": eps}


@pytest.mark.parametrize("csv", [
    "",
    workloads.CSV_HEADER + "\nn1,100,100000\n",
    workloads.CSV_HEADER + "\nn1,100,100000,10,x,1,2,0,3,4\n",
])
def test_malformed_csv_is_a_problem_not_an_exception(tmp_path, csv):
    op = simulate_op(tmp_path, csv)
    problem, _ = workloads.check(op, {"exit": 0}, tmp_path)
    assert problem is not None


@pytest.mark.parametrize("stdout", [
    json.dumps({"primal_value": 0.1}),
    json.dumps([1, 2]),
    json.dumps({"primal_value": "x", "candidate_value": 0, "dual_value": 0}),
])
def test_malformed_lp_report_is_a_problem_not_an_exception(stdout):
    problem, _ = workloads.check(lp_op(), {"exit": 0, "stdout": stdout}, Path("."))
    assert problem is not None


def test_sweep_result_without_feasible_is_a_problem():
    problem, _ = workloads.check({"kind": "sweep", "check": "sweep", "k": 22},
                                 {"result": {}}, Path("."))
    assert problem is not None


def test_lp_report_at_the_closed_form_passes():
    t = math.tanh(0.5)
    value = (2 / math.pi) * t * t
    stdout = json.dumps({"primal_value": value, "candidate_value": value,
                         "dual_value": value, "feasible": True})
    problem, fingerprint = workloads.check(lp_op(), {"exit": 0, "stdout": stdout}, Path("."))
    assert problem is None and fingerprint


def test_small_n_pool_states_its_replicate_count_once(tmp_path):
    [op] = workloads.build("small_n_pool", 5, tmp_path, tmp_path / "work")
    argv = op["argv"]
    flag = int(argv[argv.index("--replicates") + 1])
    config = (tmp_path / "work" / "small_n_pool.cfg").read_text()
    assert flag == op["replicates"] == workloads.SMALL_N_POOL_REPLICATES
    assert f"replicates = {flag}\n" in config
