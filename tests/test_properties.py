"""Property tests over the CLI: every input ends in a documented exit code.

``simulate`` runs on generated config files (known keys with edge and junk
values, unknown keys, missing keys) at tiny replicate counts, and
``estimate``, ``fisher`` and ``lp-verify`` on generated flag sets.  Each run
happens in process through ``cli.main``; it must return one of the exit
codes 0-4, and no exception may escape.  Sample sizes are drawn small so
every case finishes fast; the examples are derandomized so the suite is
stable.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ldpmean.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}
PROPERTY_SETTINGS = settings(max_examples=600, deadline=None, derandomize=True,
                             database=None)

JUNK = st.sampled_from(["", "abc", "1,2", "0x10", "1e999", "--", "1 2", "é"])
EDGE_REALS = st.sampled_from(["-1", "-0.0", "1e300", "-1e300", "1e-300", "nan", "inf",
                              "-inf"])


def _mostly(valid, bad):
    """``valid`` nine times in ten, else ``bad`` or junk."""
    return st.integers(0, 9).flatmap(lambda i: st.one_of(bad, JUNK) if i == 0 else valid)


def _reals(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), EDGE_REALS)


def _ints(lo, hi, bad=(-2, 0)):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from([*map(str, bad), "2.5"]))


# Each config key: values inside its domain, sometimes past its edges.
CONFIG_VALUES = {
    "kind": _mostly(st.sampled_from(["one", "two", "three"]), st.just("four")),
    "epsilon": _mostly(st.sampled_from(["0", "0.5", "1", "3", "inf"]), EDGE_REALS),
    "theta_true": _reals(-5, 5),
    "theta0": _reals(-5, 5),
    "h": _reals(-3, 3),
    "n": _ints(1, 2500),
    "n1": _ints(1, 300),
    "n0": _ints(1, 400),
    "bits": _ints(1, 8, bad=(-1, 0, 40)),
    "range_lo": _reals(-10, 10),
    "range_hi": _reals(0, 200),
    "sigma": _reals(0.1, 5),
    "replicates": _ints(2, 4, bad=(-1, 1, 2 ** 32 + 1)),
    "sweep": _mostly(st.sampled_from(["n1", "theta0", "n"]), st.just("bits")),
    "sweep_values": _mostly(st.lists(st.integers(1, 2500).map(str), min_size=1, max_size=3)
                            .map(",".join), EDGE_REALS),
    "max_total_draws": _ints(1000, 20_000_000_000, bad=(0, -5)),
    "color": st.just("blue"),
}
BASE_CONFIG = {"kind": "two", "epsilon": "1.0", "theta_true": "0.0", "n": "600", "n0": "200",
               "bits": "4", "replicates": "3", "sweep": "n1", "sweep_values": "40,80"}


def _run(argv):
    """Run one command in process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@PROPERTY_SETTINGS
@given(edits=st.dictionaries(st.sampled_from(sorted(CONFIG_VALUES)), st.none(), max_size=4)
       .flatmap(lambda keys: st.fixed_dictionaries({key: CONFIG_VALUES[key] for key in keys})),
       missing=st.sampled_from([None] * 9 + sorted(BASE_CONFIG)),
       seed=_ints(0, 2 ** 64 - 1, bad=(-1, 2 ** 64)),
       replicates=st.sampled_from([None, None, "2", "3", "1", "0"]),
       workers=_ints(1, 1))
def test_simulate_ends_in_an_exit_code(edits, missing, seed, replicates, workers):
    config = {**BASE_CONFIG, **edits}
    config.pop(missing, None)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        argv = ["simulate", str(cfg), "--seed", seed, "--output", str(Path(tmp) / "o.csv"),
                "--workers", workers]
        if replicates is not None:
            argv += ["--replicates", replicates]
        code, _ = _run(argv)
        if code == 0:
            assert (Path(tmp) / "o.csv").is_file()
    assert code in EXIT_CODES


ESTIMATE_FLAGS = {
    "--kind": _mostly(st.sampled_from(["one", "two", "three"]), st.just("four")),
    "--epsilon": CONFIG_VALUES["epsilon"],
    "--theta0": _reals(-5, 5),
    "--n1": _ints(1, 300),
    "--n0": _ints(1, 400),
    "--bits": _ints(1, 8, bad=(-1, 0, 40)),
    "--range-lo": _reals(-10, 10),
    "--range-hi": _reals(0, 200),
    "--sigma": _reals(0.1, 5),
    "--theta": _reals(-5, 5),
    "--n": _ints(1, 2500),
}


@PROPERTY_SETTINGS
@given(flags=st.dictionaries(st.sampled_from(sorted(ESTIMATE_FLAGS)), st.none(), max_size=5)
       .flatmap(lambda keys: st.fixed_dictionaries({key: ESTIMATE_FLAGS[key] for key in keys})),
       source=st.sampled_from(["--synthetic"] * 3 + ["--input", None]),
       data=st.lists(_reals(-5, 5), max_size=30))
def test_estimate_ends_in_an_exit_code(flags, source, data):
    flags = {"--epsilon": "1", "--n": "500", "--n0": "200", "--bits": "4", **flags}
    argv = ["estimate", "--seed", "3", *(f"{flag}={value}" for flag, value in flags.items())]
    with tempfile.TemporaryDirectory() as tmp:
        if source == "--input":
            path = Path(tmp) / "data.txt"
            path.write_text("".join(f"{value}\n" for value in data))
            argv += ["--input", str(path)]
        elif source is not None:
            argv.append(source)
        code, out = _run(argv)
    assert code in EXIT_CODES
    if code == 0:
        payload = json.loads(out)
        assert all(isinstance(v, float) and math.isfinite(v)
                   for v in [payload["theta_hat"], *payload["stages"]]), out


# Budgets up to 800 and inf: past about 354 the staircase arithmetic overflows
EPSILONS = _mostly(st.one_of(st.floats(0, 800).map(repr), st.sampled_from(["inf", "0"])),
                   EDGE_REALS)
LEVELS = _mostly(st.one_of(st.integers(1, 16), st.integers(1, 65536)).map(str),
                 st.sampled_from(["-2", "0", "65537", "65538", "2.5"]))


@PROPERTY_SETTINGS
@given(epsilon=EPSILONS,
       sigma=st.one_of(st.none(), st.floats(-300, 300).map(lambda e: repr(10.0 ** e)),
                       st.sampled_from(["0", "-0.0", "-1", "-1e-300"]), EDGE_REALS, JUNK))
def test_fisher_ends_in_an_exit_code(epsilon, sigma):
    argv = ["fisher", f"--epsilon={epsilon}"]
    if sigma is not None:
        argv.append(f"--sigma={sigma}")
    code, out = _run(argv)
    assert code in EXIT_CODES
    assert "nan" not in out


@PROPERTY_SETTINGS
@given(epsilon=EPSILONS, k=LEVELS)
def test_lp_verify_ends_in_an_exit_code(epsilon, k):
    code, out = _run(["lp-verify", f"--k={k}", f"--epsilon={epsilon}"])
    assert code in EXIT_CODES
    assert "nan" not in out


@PROPERTY_SETTINGS
@given(epsilon=st.floats(0, 354))
def test_sign_bit_chain_holds_at_every_budget(epsilon):
    # k = 2 admits no channel but the sign bit, so its chain holds wherever the
    # staircase arithmetic stays finite
    code, out = _run(["lp-verify", "--k=2", f"--epsilon={epsilon!r}"])
    assert code == 0, out
    assert json.loads(out)["feasible"] is True
