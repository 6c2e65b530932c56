"""The traced benchmark pass rebinds names that ldpmean modules import.

``perfbench/layertrace.py`` wraps module attributes such as
``estimators.sign_mechanism``, ``sim.rescaled_estimate`` and
``lp.dual_certificate``.  A refactor that drops one of those names breaks
every traced pass, so installing the tracer must keep working.  It also
replaces ``sim.np`` and the process pool, so a traced run must give the
untraced run's results and send its tasks, spans and bootstraps, through
the traced pool, whose workers' spans and counters are merged back.
``lp.equality_chain`` calls its steps, and they call the row-information
kernel, by their module-level names, so a traced chain records a span for
each of them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """\
import sys
sys.path[:0] = ["perfbench", "src"]
import layertrace
layertrace.install(layertrace.Tracer(0))
"""


def test_tracer_installs_on_the_package():
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """\
import os
import sys
sys.path[:0] = ["perfbench", "src"]
import layertrace
import ldpmean.sim as sim
cfg = sim.ExperimentConfig(kind="two", epsilon=1.0, theta_true=0.0, n=500, replicates=40,
                           master_seed=3, sweep_name="n1", sweep_values=(50.0, 100.0))
plain = sim.run_experiment(cfg, workers=2)
tracer = layertrace.Tracer(0)
layertrace.install(tracer)
traced = sim.run_experiment(cfg, workers=2)
if traced != plain:
    sys.exit("traced results differ")
# the pool is looked up as sim.ProcessPoolExecutor, so the traced pool ran every task:
# 8 spans of 5 replicates per point, then the point's bootstrap
if tracer.counters["sim.pool_tasks"] != 2 * 8 + 2:
    sys.exit(f"the traced pool ran {tracer.counters['sim.pool_tasks']} tasks, not 18")
# the workers' bootstrap spans and counters are merged into the tracer
if tracer.counters["sim.bootstrap_calls"] != 2:
    sys.exit(f"{tracer.counters['sim.bootstrap_calls']} bootstrap calls were merged, not 2")
boot_pids = [span[0] >> 32 for span in tracer.spans if span[2] == "sim.bootstrap"]
if len(boot_pids) != 2 or os.getpid() in boot_pids:
    sys.exit(f"bootstrap spans came from pids {boot_pids}, not from two worker tasks")
"""


def test_traced_pool_run_matches_the_untraced_run():
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_CHAIN = """\
import sys
sys.path[:0] = ["perfbench", "src"]
import layertrace
import ldpmean.lp as lp
from ldpmean.mechanisms import privacy_params
tracer = layertrace.Tracer(0)
layertrace.install(tracer)
assert lp.equality_chain(8, privacy_params(1.0))["chain_holds"]
print(" ".join(sorted({span[2] for span in tracer.spans})))
"""


def test_traced_chain_records_every_step():
    proc = subprocess.run([sys.executable, "-c", TRACED_CHAIN], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    assert {"lp.build", "lp.simplex", "lp.cert", "lp.sweep",
            "quantized.row_information_many"} <= names, names
