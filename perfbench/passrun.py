"""Run one benchmark pass in a fresh interpreter.

Usage: python3 perfbench/passrun.py SPEC.json RESULT.json

SPEC holds the source directory, the ops, the pass id and whether to
trace.  The pass imports ldpmean (untimed), runs the ops in order and writes
RESULT: wall and CPU time of the ops (pool children included), peak resident
memory, the reference-kernel runs around the ops (``speed.py``), each op's
exit code and captured output or the exception it raised, and, for a traced
pass, the per-layer metrics.  A traced pass also writes its
spans, one JSON array per line, to SPEC's ``spans`` path (gzip).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _describe(exc: BaseException) -> dict:
    """Exception type, message, innermost package frame and sweep point reached."""
    info = {"type": type(exc).__name__, "message": str(exc)[:500]}
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        module = frame.f_globals.get("__name__", "")
        if module.startswith("ldpmean"):
            info["where"] = f"{module}.{frame.f_code.co_name}:{tb.tb_lineno}"
            if module == "ldpmean.sim" and frame.f_code.co_name == "run_experiment":
                info["sweep_index"] = frame.f_locals.get("s")
                value = frame.f_locals.get("value")
                info["sweep_value"] = None if value is None else float(value)
        tb = tb.tb_next
    info["traceback"] = "".join(traceback.format_exception(exc))[-2000:]
    return info


def _run_op(op: dict, cli_main, lp) -> dict:
    from ldpmean.mechanisms import privacy_params

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                return {"exit": cli_main(op["argv"]), "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:]}
            report = lp.check_dual_feasibility(op["k"], privacy_params(op["epsilon"]))
            return {"result": {"feasible": bool(report.feasible),
                               "worst_slack": float(report.worst_slack),
                               "worst_column": int(report.worst_column)}}
    except Exception as exc:  # one failed op must not hide the others
        return {"error": _describe(exc)}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np

    import ldpmean.cli as cli
    import ldpmean.lp as lp
    import speed

    cli_main = cli.main
    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer(spec["pass_id"])
        layertrace.install(tracer)
        cli_main = tracer.wrap("cli.main", cli.main)

    reference = speed.samples()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    records = [_run_op(op, cli_main, lp) for op in spec["ops"]]
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_rss = _peak_rss_mib()  # before the reference forks a child the size of this process
    reference += speed.samples()

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss,
        "reference_s": reference,
        "ops": records,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer.spans, tracer.counters)
        result["spans"] = len(tracer.spans)
        with gzip.open(spec["spans"], "wt", compresslevel=1) as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
