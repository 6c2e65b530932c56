"""The traced benchmark pass rebinds names that ldpmean modules import.

``perfbench/layertrace.py`` wraps module attributes such as
``estimators.sign_mechanism``, ``sim.rescaled_estimate`` and
``lp.dual_certificate``.  A refactor that drops one of those names breaks
every traced pass, so installing the tracer must keep working.
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
