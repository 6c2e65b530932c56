"""Each public name has one import path, ``ldpmean.<module>.<name>``.

The package itself exports only ``__version__``, so importing the LP half
of the paper (``ldpmean.lp``) loads none of the Monte Carlo half.  The
package runs on numpy and the standard library alone.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """\
import json, sys, types
sys.path.insert(0, sys.argv[1])
import ldpmean.lp
after_lp = sorted(m for m in sys.modules if m.startswith("ldpmean"))
import ldpmean, ldpmean.cli
public = {n for n in vars(ldpmean) if not n.startswith("_")} | {"__all__", "__getattr__"}
not_submodules = sorted(n for n in public & vars(ldpmean).keys()
                        if not (isinstance(getattr(ldpmean, n), types.ModuleType)
                                and getattr(ldpmean, n).__name__ == "ldpmean." + n))
print(json.dumps({"after_lp": after_lp, "not_submodules": not_submodules,
                  "version": getattr(ldpmean, "__version__", None)}))
"""


def _probe():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_lp_loads_no_monte_carlo_module():
    loaded = set(_probe()["after_lp"])
    assert loaded.isdisjoint({"ldpmean.sim", "ldpmean.estimators", "ldpmean.cli"})
    assert "ldpmean.lp" in loaded


def test_package_exports_only_version_and_submodules():
    report = _probe()
    assert report["not_submodules"] == []
    assert isinstance(report["version"], str)


NUMPY_ONLY = """\
import importlib.abc, sys
BLOCKED = {"scipy", "mpmath", "hypothesis"}

class Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, Blocker())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("the blocker let scipy in")
sys.path.insert(0, sys.argv[1])
from ldpmean.cli import main
out = sys.argv[2]
runs = [["lp-verify", "--k", "8", "--epsilon", "1"],
        ["fisher", "--epsilon", "1", "--k", "8"],
        ["estimate", "--synthetic", "--n", "2000", "--epsilon", "1", "--seed", "3"],
        ["simulate", sys.argv[1] + "/ldpmean/configs/fig1_left.cfg", "--seed", "1",
         "--replicates", "2", "--output", out]]
codes = [main(argv) for argv in runs]
print(codes, file=sys.stderr)
sys.exit(any(codes))
"""


def test_runs_without_scipy_mpmath_or_hypothesis(tmp_path):
    out = tmp_path / "fig1_left.csv"
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(SRC), str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().count("\n") == 7  # header and six sweep points
