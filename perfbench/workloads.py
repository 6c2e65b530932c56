"""Workloads of the ldpmean benchmark: their inputs and their output checks.

A workload is a list of ops run in order by one pass.  An op is one call
into a public entry point: ``ldpmean.cli.main(argv)`` ("cli") or
``ldpmean.lp.check_dual_feasibility`` ("sweep").  Inputs depend only on the
benchmark seed, which becomes the ``simulate`` master seed (and the order of
the ``lp_verify`` chains), so the same seed gives the same bytes.

Why each workload exists is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

# The CSV header documented in README.md ("CSV schema"), kept here as the
# benchmark's own copy so that a changed header fails the check.
CSV_HEADER = ("sweep_name,sweep_value,n,replicates,scaled_mse,ci_lo,ci_hi,"
              "clamp_rate,theory_optimal,theory_one_stage")

DEFAULT_SEED = 1
# CSV sha256 per workload at DEFAULT_SEED, recorded from the seed commit.
GOLDEN = Path(__file__).resolve().parent / "golden.json"
CHAIN_TOL = 1e-8

FIG1_LEFT_REPLICATES = 40
FIG2_REPLICATES = 20
SMALL_N_POOL_REPLICATES = 10000
# The config format requires a replicate count; --replicates sets the same one.
SMALL_N_POOL_CONFIG = f"""\
# Small-n two-stage sweep over the initial guess: per-replicate fixed costs
# (seeding, stage dispatch, quantile inversion) and the pool dominate.
kind = two
epsilon = 1.0
theta_true = 0.0
n = 2000
n1 = 100
replicates = {SMALL_N_POOL_REPLICATES}
sweep = theta0
sweep_values = 0.0,1.0
"""
LP_CHAINS = [(k, eps) for k in (8, 10, 12) for eps in (0.5, 1.0, 3.0)]
LP_SWEEP = (22, 1.0)

NAMES = ("fig1_left", "small_n_pool", "lp_verify", "fig2")


def _simulate(name: str, config: str, out: str, seed: int, workers: int,
              replicates: int, points: int) -> dict:
    argv = ["simulate", config, "--seed", str(seed), "--output", out,
            "--workers", str(workers), "--replicates", str(replicates)]
    op = {"kind": "cli", "argv": argv, "check": "simulate", "output": out,
          "points": points, "replicates": replicates, "epsilon": 1.0}
    golden = json.loads(GOLDEN.read_text()).get(name)
    if golden and golden["seed"] == seed and golden["replicates"] == replicates:
        op["csv_sha256"] = golden["csv_sha256"]
    return op


def build(name: str, seed: int, root: Path, work: Path) -> list[dict]:
    """Write the workload's generated inputs under ``work``; return its ops.

    Paths in the ops are relative to ``root``, the directory passes run in.
    """
    work.mkdir(parents=True, exist_ok=True)
    rel = work.relative_to(root).as_posix()
    configs = "src/ldpmean/configs"
    if name == "fig1_left":
        return [_simulate(name, f"{configs}/fig1_left.cfg", f"{rel}/fig1_left.csv", seed,
                          workers=1, replicates=FIG1_LEFT_REPLICATES, points=6)]
    if name == "small_n_pool":
        (work / "small_n_pool.cfg").write_text(SMALL_N_POOL_CONFIG)
        return [_simulate(name, f"{rel}/small_n_pool.cfg", f"{rel}/small_n_pool.csv", seed,
                          workers=2, replicates=SMALL_N_POOL_REPLICATES, points=2)]
    if name == "lp_verify":
        chains = list(LP_CHAINS)
        random.Random(seed).shuffle(chains)
        ops = [{"kind": "cli", "check": "lp_verify", "k": k, "epsilon": eps,
                "argv": ["lp-verify", "--k", str(k), "--epsilon", repr(eps)]}
               for k, eps in chains]
        k, eps = LP_SWEEP
        ops.append({"kind": "sweep", "check": "sweep", "k": k, "epsilon": eps})
        return ops
    if name == "fig2":
        return [_simulate(name, f"{configs}/fig2.cfg", f"{rel}/fig2.csv", seed,
                          workers=1, replicates=FIG2_REPLICATES, points=4)]
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def released_bits(ops: list[dict], root: Path) -> int:
    """Bits released by one pass of the simulate ops: sum of n x replicates."""
    total = 0
    for op in ops:
        if op.get("check") == "simulate":
            csv = (root / op["output"]).read_text().splitlines()[1:]
            total += sum(int(row.split(",")[2]) * int(row.split(",")[3]) for row in csv)
    return total


def _sign_info(eps: float) -> float:
    t = math.tanh(eps / 2.0)  # (e^eps - 1) / (e^eps + 1)
    return (2.0 / math.pi) * t * t


def _check_simulate(op: dict, record: dict, root: Path) -> tuple[str | None, str]:
    """Return (problem or None, output fingerprint)."""
    if record.get("exit") != 0:
        return f"exit code {record.get('exit')}: {record.get('stderr', '')[-300:]}", ""
    csv_path = root / op["output"]
    try:
        csv = csv_path.read_bytes()
        manifest = Path(f"{csv_path}.manifest").read_bytes()
    except OSError as exc:
        return f"missing output: {exc}", ""
    lines = csv.decode().splitlines()
    fingerprint = hashlib.sha256(csv).hexdigest() + ":" + hashlib.sha256(manifest).hexdigest()
    if lines[0] != CSV_HEADER:
        return f"CSV header {lines[0]!r} is not the documented one", fingerprint
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != op["points"]:
        return f"{len(rows)} CSV rows, expected {op['points']}", fingerprint
    if "csv_sha256" in op and fingerprint.split(":")[0] != op["csv_sha256"]:
        return "CSV sha256 differs from the one recorded at the seed commit", fingerprint
    for row in rows:
        if int(row[3]) != op["replicates"]:
            return f"row reports {row[3]} replicates, expected {op['replicates']}", fingerprint
        mse, lo, hi = float(row[4]), float(row[5]), float(row[6])
        if not (math.isfinite(mse) and 0.0 < lo <= mse <= hi):
            return f"scaled MSE {mse} outside its interval [{lo}, {hi}]", fingerprint
        optimal = 1.0 / _sign_info(op["epsilon"])
        if not abs(float(row[8]) - optimal) <= 1e-7 * optimal:
            return f"theory_optimal {row[8]} differs from 1/((2/pi) t_eps^2)={optimal!r}", fingerprint
    return None, fingerprint


def _check_lp(op: dict, record: dict) -> tuple[str | None, str]:
    stdout = record.get("stdout", "")
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"stdout is not JSON (exit {record.get('exit')})", ""
    fingerprint = hashlib.sha256(stdout.encode()).hexdigest()
    if op["epsilon"] > 1.0:
        if record.get("exit") != 2 or report.get("feasible") is not False:
            return (f"eps={op['epsilon']}: expected exit 2 with feasible=false, got exit "
                    f"{record.get('exit')} feasible={report.get('feasible')}"), fingerprint
        return None, fingerprint
    if record.get("exit") != 0:
        return f"exit code {record.get('exit')}, expected 0", fingerprint
    closed = _sign_info(op["epsilon"])
    for key in ("primal_value", "candidate_value", "dual_value"):
        if not abs(report[key] - closed) <= CHAIN_TOL:
            return f"{key}={report[key]!r} differs from (2/pi) t_eps^2={closed!r}", fingerprint
    return None, fingerprint


def _check_sweep(op: dict, record: dict) -> tuple[str | None, str]:
    result = record["result"]
    fingerprint = json.dumps(result, sort_keys=True)
    if result["feasible"] is not True:
        return f"k={op['k']} sweep reports feasible={result['feasible']}", fingerprint
    return None, fingerprint


def check(op: dict, record: dict, root: Path) -> tuple[str | None, str]:
    """Check one op's outcome; return (problem or None, output fingerprint).

    Equal fingerprints mean byte-identical outputs.  Output too malformed
    to check (an empty CSV, a short row, a missing key) is a problem too.
    """
    if "error" in record:
        return f"{record['error']['type']}: {record['error']['message']}", ""
    try:
        if op["check"] == "simulate":
            return _check_simulate(op, record, root)
        if op["check"] == "lp_verify":
            return _check_lp(op, record)
        return _check_sweep(op, record)
    except (LookupError, ValueError, TypeError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", ""

