"""Command-line front end.

Subcommands:
    fisher     closed-form information and variance for a budget
    lp-verify  build and solve the staircase program, check the certificate
    simulate   run a Monte Carlo config file, write CSV plus manifest
    estimate   run one estimator on file or synthetic data, print JSON

Exit codes are a stable contract: 0 success, 1 usage, 2 verification
failure, 3 I/O, 4 budget.  All randomness flows from the --seed flag;
``simulate`` refuses to run without one.  The manifest written next to
every CSV is itself a valid config file (metadata lives in comments), so
re-running it with the recorded seed reproduces the CSV byte for byte.

Importing this module and building its parser loads no numpy: a command
loads the modules it calls when it first calls them (``__getattr__``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import locale  # noqa: F401  argparse's gettext imports it at the first parse; load it with the CLI
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .schema import ESTIMATOR_KINDS, MAX_SOLVE_K, EstimatorConfig

if TYPE_CHECKING:
    from .sim import ExperimentConfig

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
    **dict.fromkeys(["BudgetError", "results_to_csv", "run_experiment", "synthetic_sample"],
                    ".sim"),
    **dict.fromkeys(["estimate", "optimal_asymptotic_variance"], ".estimators"),
    "equality_chain": ".lp",
    "privacy_params": ".mechanisms",
    **dict.fromkeys(["build_quantized_model", "row_information_many", "sign_fisher_info"],
                    ".quantized"),
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


class _UsageError(Exception):
    pass


class ConfigError(Exception):
    """Malformed key-value config content."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads a value such as "-1e-3" or "-nan" as an option
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # argparse would sys.exit(2); keep code 1
        raise _UsageError(message)


def _json_ready(obj):
    """Make a payload JSON-safe, spelling non-finite floats as strings."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan"
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_json_ready(payload), indent=2), flush=True)  # a closed pipe raises here


# --- config file handling ---------------------------------------------------

def real(raw: str) -> float:
    """float() that refuses NaN and +-inf.

    Every config float, every float flag of ``estimate`` and ``fisher
    --sigma`` go through here, but no epsilon: epsilon = inf is the
    noiseless channel, and ``privacy_params`` rejects a NaN or negative
    budget.
    """
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _real_list(raw: str) -> tuple[float, ...]:
    values = tuple(real(tok) for tok in raw.split(",") if tok.strip())
    if not values:
        raise ValueError("empty list")
    return values


# Keyed by the annotation text (annotations are postponed, hence strings).
_CONVERTERS = {"str": str, "int": int, "int | None": int, "float": real,
               "tuple[float, ...]": _real_list}


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _converter(f: dataclasses.Field):
    """Parser of one field's text: a config key's, or the ``type`` of an estimate flag."""
    return float if f.name == "epsilon" else _CONVERTERS[f.type]


def _convert(key: str, f: dataclasses.Field, raw: str):
    try:
        return _converter(f)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


@functools.cache
def _config_fields() -> dict[str, dataclasses.Field]:
    """Config-file key -> ``sim.ExperimentConfig`` field, built at the first config parse.

    master_seed comes from --seed.  The estimate flags, which the parser
    needs, come from ``EstimatorConfig`` instead: same types and defaults.
    """
    from .sim import ExperimentConfig

    return {f.metadata.get("key", f.name): f
            for f in dataclasses.fields(ExperimentConfig) if f.name != "master_seed"}


def experiment_config_from_text(text: str, master_seed: int,
                                replicates_override: int | None = None) -> ExperimentConfig:
    """Build an ``ExperimentConfig`` from config-file text plus the seed flag."""
    from .sim import ExperimentConfig

    fields = _config_fields()
    raw = parse_kv(text)
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [key for key, f in fields.items()
               if f.default is dataclasses.MISSING and key not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    values = {fields[k].name: _convert(k, fields[k], v) for k, v in raw.items()}
    if replicates_override is not None:
        values["replicates"] = replicates_override
    return ExperimentConfig(master_seed=master_seed, **values)


def manifest_text(config: ExperimentConfig, output_path: str) -> str:
    """Render the run manifest; the non-comment lines re-parse as a config.

    Keys follow the field order of ``ExperimentConfig``; an unset n1 is
    left out.
    """
    lines = [
        f"# manifest written by ldpmean {__version__}",
        "# subcommand = simulate",
        f"# master_seed = {config.master_seed}",
        f"# output_csv = {output_path}",
    ]
    for key, f in _config_fields().items():
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# --- subcommands ------------------------------------------------------------

def _cmd_fisher(args) -> int:
    params = _cli.privacy_params(args.epsilon)
    payload = {
        "epsilon": args.epsilon,
        "t_eps": params.t_eps,
        "sign_fisher_info": _cli.sign_fisher_info(params),
        "optimal_variance": _cli.optimal_asymptotic_variance(params, args.sigma),
    }
    if args.k is not None:
        model = _cli.build_quantized_model(args.k)
        t = params.t_eps  # the sign bit's rows: (1 - t)/2, plus t on the lower or the upper half
        halves = _cli.np.repeat(_cli.np.eye(2), args.k // 2, axis=0)
        payload["quantized_check"] = t * t * float(
            _cli.row_information_many(halves, (1.0 - t) / 2.0, t, model).sum())
    _emit(payload)
    return EXIT_OK


def _cmd_lp_verify(args) -> int:
    params = _cli.privacy_params(args.epsilon)
    report = _cli.equality_chain(args.k, params)
    holds = report.pop("chain_holds")
    _emit(report)
    return EXIT_OK if holds else EXIT_VERIFY


def _cmd_simulate(args) -> int:
    if len(args.output.splitlines()) > 1:  # the manifest records the path on one line
        raise _UsageError(f"--output must be one line, got {args.output!r}")
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    config = experiment_config_from_text(text, master_seed=args.seed,
                                         replicates_override=args.replicates)
    out = Path(args.output)
    manifest = Path(f"{out}.manifest")
    if not out.parent.is_dir() or out.is_dir() or manifest.is_dir():
        print(f"error: cannot write output {out}: its directory is missing, "
              "or it or its manifest is a directory", file=sys.stderr)
        return EXIT_IO
    try:
        results = _cli.run_experiment(config, workers=args.workers)
    except _cli.BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        _write_atomically([(manifest, manifest_text(config, str(out))),
                           (out, _cli.results_to_csv(results, config.sweep_name))])
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
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


def _load_values(path: str):
    with open(path) as fh:
        values = [float(line) for line in fh if line.strip()]
    return _cli.np.asarray(values)


def _cmd_estimate(args) -> int:
    np = _cli.np
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    if args.input is not None:
        try:
            data = _load_values(args.input)
        except OSError as exc:
            print(f"error: cannot read data: {exc}", file=sys.stderr)
            return EXIT_IO
    elif args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    else:
        with np.errstate(over="ignore"):  # the finite check below rejects such data
            data = _cli.synthetic_sample(args.n, args.theta, args.sigma, rng)
    if not data.size:
        raise ValueError("no data values")
    if not np.isfinite(data).all():
        raise ValueError("data values must be finite")
    cfg = EstimatorConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(EstimatorConfig)})
    result = _cli.estimate(args.kind, data, cfg, rng)
    if not np.isfinite(result.stage_estimates).all():
        raise ValueError("an estimate overflows float64; sigma or the data are too large")
    _emit({
        "theta_hat": result.theta_hat,
        "stages": list(result.stage_estimates),
        "clamped_flags": list(result.clamped),
    })
    return EXIT_OK


# --- argument wiring --------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="ldpmean",
                     description="Locally private Gaussian mean estimation toolkit")
    parser.add_argument("--version", action="version", version=f"ldpmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fisher", help="closed-form information and variance")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sigma", type=real, default=1.0)
    p.add_argument("--k", type=int, default=None,
                   help="also report the level-k embedded-channel information")
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
    for f in dataclasses.fields(EstimatorConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=_converter(f),
                       required=f.default is dataclasses.MISSING, default=f.default)
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
    try:
        args = _parser().parse_args(argv)
        if [] in vars(args).values():  # Python 3.11 parses "--flag=--" to []
            raise _UsageError("an option was given '--' as its value")
        if getattr(args, "synthetic", False) and args.n is None:
            raise _UsageError("--synthetic requires --n")
        return args.func(args)
    except (_UsageError, ConfigError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a draw too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:  # stdout's reader went away; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
