"""ldpmean benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The runner writes the workload's
inputs from the seed, times interpreter cold start (``setup_s``), then runs
passes for S seconds, each in a fresh interpreter (``passrun.py``) that
calls the package's public entry points.  One parent process runs one pass
at a time; only ``small_n_pool`` starts a pool, of two workers.  Every op's
output is checked (``workloads.check``); a pass with a failed op contributes
no timings.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  The next-to-last line of
stdout is the full report (metadata, every metric with its sample count,
failures); the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
op passed its checks, 1 when one failed, 2 when the checkout holds no
ldpmean sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 15
MIN_PASSES = 3
PASS_TIMEOUT_S = 90
COLD_START = "import sys; sys.path.insert(0, 'src'); import ldpmean.cli as c; c.build_parser()"

def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_q")):
        return "ratio"
    return "count"


def _metadata(replicates, pass_records) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    first = pass_records[0] if pass_records else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "replicates": replicates,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # a checkout without .git: src_sha256 identifies the code


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ldpmean").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _run_child(argv: list[str], timeout: float) -> int:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -signal.SIGKILL
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Cold start: fresh interpreter to ldpmean imported and the CLI parser built.

    Returns the cold-start times and, for each, the reference time taken
    just before it.
    """
    argv = [sys.executable, "-c", COLD_START]
    _run_child(argv, 60)  # untimed: fills __pycache__, as any installed copy has
    times, reference = [], []
    for _ in range(samples):
        reference.append(speed.reference(speed.samples(runs=1)))
        t0 = time.perf_counter()
        code = _run_child(argv, 60)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cold-start import exited with {code}")
        times.append(elapsed)
    return times, reference


def run_pass(ops, pass_id: int, trace: bool, work: Path) -> dict:
    spec_path = work / f"pass{pass_id}.spec.json"
    result_path = work / f"pass{pass_id}.result.json"
    spec = {"src": str(SRC), "ops": ops, "pass_id": pass_id, "trace": trace,
            "spans": str(work / f"spans-pass{pass_id}.jsonl.gz")}
    spec_path.write_text(json.dumps(spec))
    code = _run_child([sys.executable, str(HERE / "passrun.py"), str(spec_path),
                       str(result_path)], PASS_TIMEOUT_S)
    if code != 0 or not result_path.exists():
        error = {"type": "PassProcessError", "message": f"pass process exited with {code}"}
        return {"ops": [{"error": error} for _ in ops], "trace": trace}
    record = json.loads(result_path.read_text())
    record["trace"] = trace
    return record


def _median(values):
    return statistics.median(values) if values else None


def _scaled_median(values, reference, power: int) -> float:
    """Median of values[i] in reference units (speed.py); ``power`` 1 for times, -1 for rates.

    ``reference[i]`` is the reference time measured next to ``values[i]``.
    """
    return _median([v * (speed.REF_NOMINAL_S / ref) ** power
                    for v, ref in zip(values, reference)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ldpmean" / "__init__.py").is_file():
        print(f"error: no ldpmean sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, ROOT, work)
    trace = bool(args.trace)

    setup, setup_ref = ([], []) if trace else measure_setup(SETUP_SAMPLES)

    passes = []
    failures = []
    failed = 0
    fingerprints = None
    bits = None
    deadline = time.monotonic() + args.seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        plain_count = sum(1 for p in passes if not p["trace"])
        if trace:
            enough = min(plain_count, len(passes) - plain_count) >= MIN_PASSES - 1
        else:
            enough = len(passes) >= MIN_PASSES
        if enough and time.monotonic() >= deadline:
            break
        pass_id = len(passes)
        record = run_pass(ops, pass_id, traced, work)
        record["failed"] = False
        prints = []
        for i, (op, outcome) in enumerate(zip(ops, record["ops"])):
            problem, fingerprint = workloads.check(op, outcome, ROOT)
            prints.append(fingerprint)
            if problem is None and fingerprints is not None and fingerprint != fingerprints[i]:
                problem = "output bytes differ from the first passing pass"
            if problem is not None:
                failed += 1
                record["failed"] = True
                error = {k: v for k, v in outcome.get("error", {}).items() if k != "traceback"}
                failures.append({"pass": pass_id, "op": i, "traced": traced,
                                 "argv": op.get("argv", [op["kind"], op.get("k")]),
                                 "problem": problem, **error})
        if not record["failed"]:
            fingerprints = fingerprints or prints
            bits = bits if bits is not None else workloads.released_bits(ops, ROOT)
        passes.append(record)

    attempted = len(ops) * len(passes)
    good = [p for p in passes if not p["failed"]]
    plain = [p for p in good if not p["trace"]]
    traced_passes = [p for p in good if p["trace"]]

    report = {}

    def put(name, values, reference, unit=None):
        if not values:
            return
        unit = unit or _unit(name)
        power = {"s": 1, "us": 1, "1/s": -1}.get(unit, 0)
        report[name] = {"value": _scaled_median(values, reference, power), "unit": unit,
                        "samples": len(values)}
        if power:
            report[name]["raw"] = _median(values)

    def refs(group):
        return [speed.reference(p["reference_s"]) for p in group]

    if not trace and plain:  # a workload whose every pass failed reports no timings
        walls = [p["wall_s"] for p in plain]
        put("setup_s", setup, setup_ref, "s")
        put("wall_s", walls, refs(plain), "s")
        if bits:
            put("bits_per_s", [bits / w for w in walls], refs(plain), "1/s")
        put("cpu_s", [p["cpu_s"] for p in plain], refs(plain), "s")
        put("peak_rss_mib", [p["peak_rss_mib"] for p in plain], refs(plain), "MiB")
    elif traced_passes:
        for name in traced_passes[0]["layers"]:
            put(name, [p["layers"][name] for p in traced_passes], refs(traced_passes))
        # Passes 2i (untraced) and 2i + 1 (traced) ran back to back: one
        # wall-time ratio per pair whose passes both passed their checks.
        ratios = [(b["wall_s"] / speed.reference(b["reference_s"]))
                  / (a["wall_s"] / speed.reference(a["reference_s"]))
                  for a, b in zip(passes[::2], passes[1::2])
                  if not (a["failed"] or b["failed"])]
        put("trace.wall_ratio", ratios, [1.0] * len(ratios), "ratio")
        put("trace.overhead_frac", [r - 1.0 for r in ratios], [1.0] * len(ratios), "ratio")
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                             "samples": attempted}

    correct = failed == 0
    # The result line carries exactly the metrics BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
               for m in declared["per_layer" if trace else "end_to_end"]
               if m["name"] in report}
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "passes_traced":
        sum(1 for p in passes if p["trace"]), "ops_per_pass": len(ops),
        "released_bits_per_pass": bits,
        "reference_s": {"nominal": speed.REF_NOMINAL_S,
                        "passes_median": _median(refs(good)),
                        "setup_median": _median(setup_ref)},
        "metadata": _metadata([op.get("replicates") for op in ops if "replicates" in op],
                              passes),
        "metrics": report, "failures": failures[:20],
        "pass_samples": [{"trace": p["trace"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                          "reference_s": p["reference_s"]} for p in good],
    }
    print(json.dumps({"report": full}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
