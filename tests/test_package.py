"""Each public name has one import path, ``ldpmean.<module>.<name>``.

The package itself exports only ``__version__``, so importing the LP half
of the paper (``ldpmean.lp``) loads none of the Monte Carlo half.  The
package runs on numpy and the standard library alone, and only a run with
more than one worker imports the process pool.  ``import ldpmean.cli`` and
its parser load no numpy and no ``dataclasses`` (whose import loads
``inspect``): each command loads the modules it calls, through names it
looks up on ``ldpmean.cli``.  The reference forms that only the tests use
have theirs in ``tests/oracles.py``.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import oracles

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
pool_or_ma = sorted(m for m in sys.modules
                    if m in {"multiprocessing", "concurrent.futures.process", "numpy.ma"})
import importlib, pkgutil
modules = [importlib.import_module("ldpmean." + info.name)
           for info in pkgutil.iter_modules(ldpmean.__path__)]
defined = sorted(f"{module.__name__}.{name}" for module in [ldpmean, *modules]
                 for name in json.loads(sys.argv[2]) if hasattr(module, name))
if hasattr(ldpmean.lp.StaircaseLp, "S"):
    defined.append("ldpmean.lp.StaircaseLp.S")
homes = {name: sorted(m.__name__ for m in modules
                      if getattr(vars(m).get(name), "__module__", None) == m.__name__)
         for name in json.loads(sys.argv[3])}
print(json.dumps({"after_lp": after_lp, "not_submodules": not_submodules,
                  "version": getattr(ldpmean, "__version__", None), "pool_or_ma": pool_or_ma,
                  "modules": sorted(m.__name__ for m in modules), "defined": defined,
                  "homes": homes}))
"""

# Reference forms that only the tests use live in tests/oracles.py, among them the
# probability form of the row information that quantized.row_information_many computes
# in bit form; two duplicates are gone (rr_matrix is embed_sign_channel(params, 2),
# row_information is one column of the dense form).  The all-numpy simplex and the
# shift-form word matrix are the references for lp's; lp._column_bits is gone.  The program
# over all 2^k words is the reference for lp's interval program; lp._program_matrix and
# lp._prefix_basis, which built it in lp, are gone.  No ldpmean module may define any of them.
ORACLES = ["verify_ldp", "staircase_matrix", "mechanism_from_solution", "certificate_margin",
           "certificate_margin_upper", "certificate_margin_lower", "interior_stationarity",
           "dense_row_information", "fisher_info_quantized", "embed_sign_channel",
           "simplex_max", "column_bits", "full_staircase_lp", "prefix_words", "full_primal",
           "interval_partition_optimum"]
# The config file format has one owner, sim, beside ExperimentConfig; cli's exception
# class for it and its cached field builder are gone, and cli imports the float converter
# from schema.  cli.main maps every failure to its exit code: cli's own usage exception
# is gone (a usage error is a ValueError), and it catches BudgetError from schema.
DELETED = ["rr_matrix", "row_information", "_column_bits", "_program_matrix", "_prefix_basis",
           "ConfigError", "_config_fields", "_UsageError"]
HOMES = {"parse_kv": "ldpmean.sim", "experiment_config_from_text": "ldpmean.sim",
         "manifest_text": "ldpmean.sim", "_converter": "ldpmean.sim", "real": "ldpmean.schema",
         "BudgetError": "ldpmean.schema"}


def _probe():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), json.dumps(ORACLES + DELETED),
                           json.dumps(list(HOMES))], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_lp_loads_no_monte_carlo_module():
    loaded = set(_probe()["after_lp"])
    assert loaded.isdisjoint({"ldpmean.sim", "ldpmean.estimators", "ldpmean.cli"})
    assert "ldpmean.lp" in loaded


def test_test_only_forms_have_one_import_path():
    report = _probe()
    assert "ldpmean.lp" in report["modules"] and "ldpmean.cli" in report["modules"]
    assert report["defined"] == []
    assert [name for name in ORACLES if not callable(getattr(oracles, name, None))] == []
    assert [name for name in DELETED if hasattr(oracles, name)] == []


def test_moved_names_are_defined_in_one_module():
    assert _probe()["homes"] == {name: [home] for name, home in HOMES.items()}


def test_fixed_settings_are_constants_not_parameters():
    # every command calls these with one level, resample count, tolerance and pivot cap,
    # so those are module constants (sim._LEVEL, sim._RESAMPLES, lp.ROUND_OFF and
    # lp._MAX_PIVOTS), not parameters
    from ldpmean import lp, sim
    assert list(inspect.signature(sim.bootstrap_ci).parameters) == ["values", "rng"]
    assert list(inspect.signature(lp._simplex_max).parameters) == ["A", "b", "c", "basis",
                                                                  "inverse"]


def test_package_exports_only_version_and_submodules():
    report = _probe()
    assert report["not_submodules"] == []
    assert isinstance(report["version"], str)


BLOCKER = """\
import importlib, importlib.abc, sys
BLOCKED = [name for name in sys.argv[3].split(",") if name]

class Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in BLOCKED):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, Blocker())
for name in BLOCKED:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        pass
    else:
        sys.exit(f"the blocker let {name} in")
sys.path.insert(0, sys.argv[1])
"""

BLOCKED_RUN = BLOCKER + """\
from ldpmean.cli import main
out = sys.argv[2]
runs = [["lp-verify", "--k", "8", "--epsilon", "1"],
        ["fisher", "--epsilon", "1", "--sigma", "2"],
        ["estimate", "--synthetic", "--n", "2000", "--epsilon", "1", "--seed", "3"],
        ["simulate", sys.argv[1] + "/ldpmean/configs/fig1_left.cfg", "--seed", "1",
         "--replicates", "2", "--output", out]]
codes = [main(argv) for argv in runs]
print(codes, file=sys.stderr)
sys.exit(any(codes))
"""


def _blocked_run(out, blocked):
    """Run the four subcommands with ``blocked`` modules unimportable; stdout and CSV."""
    proc = subprocess.run([sys.executable, "-c", BLOCKED_RUN, str(SRC), str(out),
                           ",".join(blocked)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out.read_text()


def test_runs_without_scipy_mpmath_or_hypothesis(tmp_path):
    _, csv = _blocked_run(tmp_path / "fig1_left.csv", ["scipy", "mpmath", "hypothesis"])
    assert csv.count("\n") == 7  # header and six sweep points


POOL_AND_MA = ["multiprocessing", "concurrent.futures.process", "numpy.ma"]


def test_one_worker_runs_never_import_the_pool_or_numpy_ma(tmp_path):
    # only a run with --workers > 1 imports the process pool; the bootstrap's
    # percentiles do without np.quantile, whose np.unique loads numpy.ma
    blocked = _blocked_run(tmp_path / "blocked.csv", POOL_AND_MA)
    assert blocked == _blocked_run(tmp_path / "plain.csv", [])


def test_cli_import_loads_no_pool_or_numpy_ma():
    assert _probe()["pool_or_ma"] == []


PARSE_ONLY = BLOCKER + """\
import contextlib, io, json
from ldpmean.cli import build_parser, main
build_parser()
COLD = ("numpy", "dataclasses", "inspect")
loaded = [[name for name in COLD if name in sys.modules]]
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
loaded.append([name for name in COLD if name in sys.modules])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def _parse_only(argvs, blocked):
    proc = subprocess.run([sys.executable, "-c", PARSE_ONLY, str(SRC), json.dumps(argvs),
                           ",".join(blocked)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_parses_and_rejects_without_numpy(tmp_path):
    # every case ends before a command computes, so none needs numpy or dataclasses
    cases = [(["--version"], 0, "ldpmean "), (["--help"], 0, "usage: ldpmean"),
             (["bogus"], 1, "invalid choice: 'bogus'"),
             (["fisher"], 1, "the following arguments are required: --epsilon"),
             (["fisher", "--epsilon=--"], 1, "'--'"),
             (["estimate", "--epsilon", "1", "--seed", "1", "--synthetic"], 1,
              "--synthetic requires --n"),
             (["estimate", "--epsilon", "1", "--seed", "1", "--synthetic", "--n", "9",
               "--theta0", "-nan"], 1, "argument --theta0: invalid real value: '-nan'"),
             (["simulate", str(tmp_path / "missing.cfg"), "--seed", "1", "--output",
               str(tmp_path / "out.csv")], 3, "error: cannot read config: ")]
    argvs = [argv for argv, _, _ in cases]
    blocked = _parse_only(argvs, ["numpy"])
    plain = _parse_only(argvs, [])
    assert blocked == plain
    assert _parse_only(argvs, ["numpy", "dataclasses", "inspect"]) == plain
    # all importable: a fresh import and build_parser() leave them unloaded, as do the cases
    assert plain["loaded"] == [[], []]
    for (argv, code, message), (got, out, err) in zip(cases, blocked["runs"]):
        assert got == code, argv
        assert message in out + err, argv
        assert len((out + err).splitlines()) == 1 or argv == ["--help"], argv


LP_VERIFY_LOADS = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import ldpmean.cli as cli, ldpmean.lp
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["lp-verify", "--k", "8", "--epsilon", "1"])
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before),
                  "unknown": [hasattr(cli, name) for name in ("ExperimentConfig", "layout")],
                  "cached": sorted(n for n in ("np", "equality_chain", "privacy_params")
                                   if n in vars(cli))}))
"""


def test_lp_verify_loads_nothing_after_cli_and_lp():
    # perfbench/passrun.py imports ldpmean.cli and ldpmean.lp before its clock starts
    proc = subprocess.run([sys.executable, "-c", LP_VERIFY_LOADS, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert report["added"] == []  # lp-verify calls only lp and mechanisms, loaded with lp
    assert report["unknown"] == [False, False]
    assert report["cached"] == ["equality_chain", "privacy_params"]


STUBBED = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import ldpmean.cli as cli
calls = []
cli.run_experiment = lambda config, workers: calls.append(["run_experiment", workers]) or []
cli.equality_chain = lambda k, params: calls.append(["equality_chain", k]) or {"chain_holds": True}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["simulate", sys.argv[2], "--seed", "1", "--output", sys.argv[3]]),
             cli.main(["lp-verify", "--k", "4", "--epsilon", "1"])]
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_commands_call_the_names_rebound_before_them(tmp_path):
    # perfbench/layertrace.py rebinds cli.run_experiment and cli.equality_chain
    config = SRC / "ldpmean" / "configs" / "fig1_left.cfg"
    proc = subprocess.run([sys.executable, "-c", STUBBED, str(SRC), str(config),
                           str(tmp_path / "out.csv")], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "calls": [["run_experiment", 1],
                                                                  ["equality_chain", 4]]}
