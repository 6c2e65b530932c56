"""Command-line front end.

Subcommands:
    fisher     closed-form information and variance for a budget
    lp-verify  build and solve the staircase program, check the certificate
    simulate   run a Monte Carlo config file, write CSV plus manifest
    estimate   run one estimator on file or synthetic data, print JSON

Exit codes are a stable contract: 0 success, 1 usage, 2 verification
failure, 3 I/O, 4 budget.  A command parses, calls and prints its result,
and returns 0 or 2; ``main`` alone turns a failure into its code and one
line on stderr: a ValueError into 1, an OSError into 3, a ``BudgetError``
or a MemoryError into 4.  All randomness flows from the --seed flag;
``simulate`` refuses to run without one.  ``simulate`` reads and writes
the config file format of ``sim``: the manifest written next to every CSV
is itself a valid config file (metadata lives in comments), so re-running
it with the recorded seed reproduces the CSV byte for byte.

Importing this module and building its parser loads no numpy and no
``dataclasses``: a command loads the modules it calls when it first calls
them (``__getattr__``).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import locale  # noqa: F401  argparse's gettext imports it at the first parse; load it with the CLI
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .schema import ESTIMATOR_KINDS, MAX_SOLVE_K, BudgetError, real

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_BUDGET = 4


# The names the commands call, each loaded from its module on first use.  A
# command looks each up on this module (``_cli``) at call time, so a name
# rebound here (perfbench/layertrace.py, the tests) is the one that runs.
_LAZY = {
    "np": "numpy",
    **dict.fromkeys(["experiment_config_from_text", "manifest_text", "results_to_csv",
                     "run_experiment", "synthetic_sample"], ".sim"),
    **dict.fromkeys(["EstimatorConfig", "estimate", "optimal_asymptotic_variance"],
                    ".estimators"),
    "equality_chain": ".lp",
    "privacy_params": ".mechanisms",
    "sign_fisher_info": ".quantized",
}


def __getattr__(name: str):
    """Import a name of ``_LAZY`` and keep it in the module globals (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_LAZY[name], __package__)
    value = globals()[name] = module if name == "np" else getattr(module, name)
    return value


_cli = sys.modules[__name__]

_NEGATIVE_NUMBER = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)\Z", re.I)


class _Exit(Exception):
    """argparse's exit after --help or --version; ``main`` returns its status."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads a value such as "-1e-3" or "-nan" as an option
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # argparse would sys.exit(2); keep code 1
        raise ValueError(message)

    def exit(self, status=0, message=None):  # only --help and --version reach it
        raise _Exit(status)

    def _print_message(self, message, file=None):  # only --help and --version text reaches it
        _write(message)  # argparse's own would swallow a failed write and exit 0


def _json_ready(obj):
    """Make a payload JSON-safe, spelling non-finite floats as strings."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan"
    return obj


def _write(text: str) -> None:
    """Write ``text`` to standard output, the only code that does; a failed write is an OSError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full device; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OSError("standard output was closed" if isinstance(exc, BrokenPipeError)
                      else f"cannot write standard output: {exc}") from None


def _emit(payload: dict) -> None:
    _write(json.dumps(_json_ready(payload), indent=2) + "\n")


# --- subcommands ------------------------------------------------------------

def _cmd_fisher(args) -> int:
    params = _cli.privacy_params(args.epsilon)
    _emit({
        "epsilon": args.epsilon,
        "t_eps": params.t_eps,
        "sign_fisher_info": _cli.sign_fisher_info(params),
        "optimal_variance": _cli.optimal_asymptotic_variance(params, args.sigma),
    })
    return EXIT_OK


def _cmd_lp_verify(args) -> int:
    params = _cli.privacy_params(args.epsilon)
    report = _cli.equality_chain(args.k, params)
    holds = report.pop("chain_holds")
    _emit(report)
    return EXIT_OK if holds else EXIT_VERIFY


def _cmd_simulate(args) -> int:
    if len(args.output.splitlines()) > 1:  # the manifest records the path on one line
        raise ValueError(f"--output must be one line, got {args.output!r}")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from None
    config = _cli.experiment_config_from_text(text, master_seed=args.seed,
                                              replicates_override=args.replicates)
    out = Path(args.output)
    manifest = Path(f"{out}.manifest")
    if not out.parent.is_dir() or out.is_dir() or manifest.is_dir():
        raise OSError(f"cannot write output {out}: its directory is missing, "
                      "or it or its manifest is a directory")
    results = _cli.run_experiment(config, workers=args.workers)
    try:
        _write_atomically([(manifest, _cli.manifest_text(config, str(out))),
                           (out, _cli.results_to_csv(results, config.sweep_name))])
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from None
    return EXIT_OK


def _write_atomically(files: list[tuple[Path, str]]) -> None:
    """Write each (path, text) to a temporary file beside it, then rename them in order.

    Every file is written before the first rename, and no temporary file
    outlives the call; ``simulate`` renames the CSV last, so a CSV is never
    left without the manifest of its run.
    """
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for tmp, (_, text) in zip(temps, files):
            tmp.write_text(text, newline="\n")
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _cmd_estimate(args) -> int:
    if args.synthetic and args.n is None:
        raise ValueError("--synthetic requires --n")
    if args.seed < 0:  # numpy's SeedSequence would reject it without naming the flag
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    np = _cli.np
    config = _cli.EstimatorConfig(**{name: value for name in _CONFIG_FLAGS
                                     if (value := getattr(args, name)) is not None})
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    if args.input is not None:
        try:
            with open(args.input) as fh:
                data = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise OSError(f"cannot read data: {exc}") from None
    elif args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    else:
        with np.errstate(over="ignore"):  # estimate rejects such data as non-finite
            data = _cli.synthetic_sample(args.n, args.theta, config.sigma, rng)
    result = _cli.estimate(args.kind, data, config, rng)
    _emit({
        "theta_hat": result.theta_hat,
        "stages": list(result.stage_estimates),
        "clamped_flags": list(result.clamped),
    })
    return EXIT_OK


# --- argument wiring --------------------------------------------------------

# estimators.EstimatorConfig's fields in order, each with its flag's converter; an
# unset flag parses to None and leaves the config's default
_CONFIG_FLAGS = {"epsilon": float, "theta0": real, "n1": int, "n0": int, "bits": int,
                 "range_lo": real, "range_hi": real, "sigma": real}


def build_parser() -> _Parser:
    parser = _Parser(prog="ldpmean",
                     description="Locally private Gaussian mean estimation toolkit")
    parser.add_argument("--version", action="version", version=f"ldpmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fisher", help="closed-form information and variance")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sigma", type=real, default=1.0)
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("lp-verify", help="solve the staircase program and check the certificate")
    p.add_argument("--k", type=int, required=True,
                   help=f"even quantizer level, 2..{MAX_SOLVE_K}")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_lp_verify)

    p = sub.add_parser("simulate", help="run a Monte Carlo config, write CSV + manifest")
    p.add_argument("config", help="key = value config file")
    p.add_argument("--seed", type=int, required=True, help="master seed (mandatory)")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--replicates", type=int, default=None,
                   help="override the config's replicate count (lab downscale)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate from a data file or synthetic draws")
    p.add_argument("--kind", choices=ESTIMATOR_KINDS, default="two")
    for name, convert in _CONFIG_FLAGS.items():  # epsilon alone has no default
        p.add_argument("--" + name.replace("_", "-"), type=convert, required=name == "epsilon")
    p.add_argument("--seed", type=int, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="newline-delimited reals")
    src.add_argument("--synthetic", action="store_true", help="draw N(theta, sigma^2) data")
    p.add_argument("--theta", type=real, default=0.0, help="synthetic true mean")
    p.add_argument("--n", type=int, default=None, help="synthetic sample count")
    p.set_defaults(func=_cmd_estimate)
    return parser


@functools.cache
def _parser() -> _Parser:
    """One parser per process for ``main``; ``build_parser`` stays a fresh one per call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; the only code that maps a failure to its exit code."""
    try:
        args = _parser().parse_args(argv)
        if [] in vars(args).values():  # Python 3.11 parses "--flag=--" to []
            raise ValueError("an option was given '--' as its value")
        return args.func(args)
    except _Exit as exc:
        return exc.args[0]
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetError, MemoryError) as exc:
        what = "out of memory: " if isinstance(exc, MemoryError) else ""  # a draw too large
        print(f"error: {what}{exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
