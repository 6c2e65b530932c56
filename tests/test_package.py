"""Each public name has one import path, ``ldpmean.<module>.<name>``.

The package itself exports only ``__version__``, so importing the LP half
of the paper (``ldpmean.lp``) loads none of the Monte Carlo half.
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
