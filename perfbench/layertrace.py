"""In-memory span recorder for the traced benchmark pass.

The package is timed from outside: ``install`` rebinds the module
attributes through which one ldpmean module calls another, so each call
across a layer boundary opens a span.  Nothing under ``src/`` changes, and
every wrapper forwards its arguments, result and random stream unchanged,
so a traced pass writes the same bytes as an untraced one.

A span is the tuple ``(id, parent, name, start, end, pass_id)``.  Ids are
``pid * 2**32 + serial`` so that spans recorded in forked pool workers merge
with the parent's without collisions.  Start and end come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared by all processes).
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor

import numpy as np

_perf = time.perf_counter

# The tracer of the running pass.  Forked pool workers inherit a copy of it
# together with the rebound attributes; ``_run_task`` finds that copy here.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._pid = os.getpid()
        self._serial = self._pid << 32
        self._stack: list[int | None] = [None]

    def open(self, name: str):
        self._serial += 1
        sid = self._serial
        token = (sid, self._stack[-1], name, _perf())
        self._stack.append(sid)
        return token

    def close(self, token) -> None:
        end = _perf()
        self._stack.pop()
        sid, parent, name, start = token
        self.spans.append((sid, parent, name, start, end, self.pass_id))

    def span(self, name: str):
        return _SpanScope(self, name)

    def wrap(self, name: str, fn, count=None):
        """Forwarding wrapper around ``fn`` that records one span per call.

        ``count(counters, args, result)`` runs after a successful call.
        """
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if count is not None:
                count(self.counters, args, result)
            return result
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def begin_task(self, parent: int | None) -> None:
        """Start a pool task in a worker: fresh buffers, spans parented to ``parent``."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._serial = self._pid << 32
        self.spans = []
        self.counters = Counter()
        self._stack = [parent]

    def merge(self, spans, counters) -> None:
        self.spans.extend(spans)
        self.counters.update(counters)


class _SpanScope:
    __slots__ = ("_tracer", "_name", "_token")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._token = self._tracer.open(self._name)

    def __exit__(self, *exc):
        self._tracer.close(self._token)
        return False


# --- self-time arithmetic ---------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children may overlap each other (pool workers run side by side), so the
    covered part is the union of the child intervals clipped to the parent.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _pass in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _pass in spans:
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        out[sid] = (end - start) - union_length(clipped)
    return out


# --- layer metrics ------------------------------------------------------------

# Work of the streamed level-k sweep in ``ldpmean.lp.check_dual_feasibility``,
# computed from its array sizes, not measured.  Per column: scale and offset
# (2k), the dot products with beta and y (2k each), the row sum (k) and the
# slack arithmetic (4).  Bytes are those of the materialized temporaries: the
# shift, mask, cast, scale and offset arrays (5k values) plus six per-column
# vectors, 8 bytes each.
def sweep_flops(k: int) -> int:
    return (1 << k) * (7 * k + 4)


def sweep_bytes(k: int) -> int:
    return (1 << k) * 8 * (5 * k + 6)


def tail_quantile(n: int) -> float | None:
    """Highest quantile with at least ten samples beyond it (None under 20)."""
    if n < 20:
        return None
    return 1.0 - 10.0 / n


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer counts and times of one pass.

    Times are busy times: self time summed over spans, across processes, so
    two pool workers can together exceed the wall time of the pass.
    """
    selfs = self_times(spans)
    by_name = defaultdict(float)
    durations = defaultdict(list)
    for sid, _parent, name, start, end, _pass in spans:
        by_name[name] += selfs[sid]
        durations[name].append(end - start)

    def calls_us(name):
        d = np.asarray(durations.get(name, ()), dtype=float) * 1e6
        q = tail_quantile(d.size)
        p50 = float(np.median(d)) if d.size else 0.0
        tail = float(np.quantile(d, q)) if q is not None else 0.0
        return p50, tail, q

    c = counters
    m = {}
    sign_s = by_name["mechanisms.sign_mechanism"]
    p50, tail, q = calls_us("mechanisms.sign_mechanism")
    m["mechanisms.sign_calls"] = c["mechanisms.sign_calls"]
    m["mechanisms.sign_bits"] = c["mechanisms.sign_bits"]
    m["mechanisms.sign_s"] = sign_s
    m["mechanisms.sign_bits_per_s"] = c["mechanisms.sign_bits"] / sign_s if sign_s else 0.0
    m["mechanisms.sign_call_p50_us"] = p50
    m["mechanisms.sign_call_tail_us"] = tail
    m["mechanisms.sign_call_tail_q"] = q or 0.0

    m["sim.replicates"] = c["sim.replicates"]
    m["sim.seed_s"] = by_name["sim.seed"]
    m["sim.datagen_s"] = by_name["sim.datagen"]
    m["sim.datagen_samples"] = c["sim.datagen_samples"]
    m["sim.bootstrap_calls"] = c["sim.bootstrap_calls"]
    m["sim.bootstrap_s"] = by_name["sim.bootstrap"]
    m["sim.bootstrap_index_draws"] = c["sim.bootstrap_index_draws"]
    m["sim.pool_tasks"] = c["sim.pool_tasks"]
    m["sim.pool_start_s"] = by_name["sim.pool_start"]
    m["sim.pool_wait_s"] = by_name["sim.pool_wait"]
    m["sim.self_s"] = (by_name["sim.run_experiment"] + by_name["sim.task"]
                       + by_name["sim.results_to_csv"])

    p50, tail, q = calls_us("estimators.estimate")
    m["estimators.calls"] = c["estimators.calls"]
    m["estimators.stages"] = c["estimators.stages"]
    m["estimators.clamped_stages"] = c["estimators.clamped_stages"]
    m["estimators.self_s"] = by_name["estimators.estimate"] + by_name["estimators.two_stage"]
    m["estimators.call_p50_us"] = p50
    m["estimators.call_tail_us"] = tail
    m["estimators.call_tail_q"] = q or 0.0

    m["numerics.quantile_calls"] = c["numerics.quantile_calls"]
    m["numerics.quantile_s"] = by_name["numerics.std_normal_quantile"]

    m["quantized.row_info_columns"] = c["quantized.row_info_columns"]
    m["quantized.row_info_s"] = by_name["quantized.row_information_many"]

    sweep_s = by_name["lp.sweep"]
    m["lp.build_s"] = by_name["lp.build"]
    m["lp.build_columns"] = c["lp.build_columns"]
    m["lp.simplex_calls"] = c["lp.simplex_calls"]
    m["lp.simplex_s"] = by_name["lp.simplex"]
    m["lp.cert_s"] = by_name["lp.cert"]
    m["lp.sweep_columns"] = c["lp.sweep_columns"]
    m["lp.sweep_s"] = sweep_s
    m["lp.sweep_columns_per_s"] = c["lp.sweep_columns"] / sweep_s if sweep_s else 0.0
    m["lp.sweep_flops_computed"] = c["lp.sweep_flops_computed"]
    m["lp.sweep_bytes_computed"] = c["lp.sweep_bytes_computed"]

    m["cli.parse_s"] = by_name["cli.parse"]
    m["cli.self_s"] = by_name["cli.main"]
    return m


# --- instrumentation ----------------------------------------------------------

def _count(key):
    def count(counters, _args, _result):
        counters[key] += 1
    return count


def _count_sign(counters, args, _result):
    counters["mechanisms.sign_calls"] += 1
    counters["mechanisms.sign_bits"] += int(np.size(args[0]))


def _count_estimate(counters, _args, result):
    counters["estimators.calls"] += 1
    counters["estimators.stages"] += len(result.clamped)
    counters["estimators.clamped_stages"] += sum(result.clamped)


def _count_seed(counters, _args, result):
    if len(result.spawn_key) == 3:  # (point, 0, replicate): one per replicate
        counters["sim.replicates"] += 1


def _count_build(counters, args, _result):
    counters["lp.build_columns"] += 1 << args[0]


def _count_sweep(counters, args, _result):
    k = args[0]
    counters["lp.sweep_columns"] += 1 << k
    counters["lp.sweep_flops_computed"] += sweep_flops(k)
    counters["lp.sweep_bytes_computed"] += sweep_bytes(k)


def _count_row_info(counters, args, _result):
    counters["quantized.row_info_columns"] += int(np.shape(args[0])[1])


class _Namespace:
    """Attribute proxy: the given overrides, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TracedGenerator:
    """Forwards to a numpy Generator; times ``standard_normal``, counts ``integers``.

    Each call goes to the wrapped generator with the same arguments, so the
    stream and every value drawn are those of the untraced run.
    """

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        token = self._tracer.open("sim.datagen")
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(token)
        self._tracer.counters["sim.datagen_samples"] += int(np.size(out))
        return out

    def integers(self, *args, **kwargs):
        out = self._gen.integers(*args, **kwargs)
        self._tracer.counters["sim.bootstrap_index_draws"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _RelayFuture(Future):
    """Future handed to ``sim``; merges the worker's spans when read."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer
        self._merged = False
        self._value = None

    def result(self, timeout=None):
        with self._tracer.span("sim.pool_wait"):
            payload = super().result(timeout)
        if not self._merged:
            value, spans, counters = payload
            self._tracer.merge(spans, counters)
            self._value = value
            self._merged = True
        return self._value


def _relay(outer: Future, inner: Future) -> None:
    try:
        payload = inner.result()
    except (Exception, CancelledError) as exc:  # re-raised by outer.result()
        outer.set_exception(exc)
    else:
        outer.set_result(payload)


def _run_task(parent, fn, args, kwargs):
    """Pool-side entry: run ``fn`` under a task span, ship the spans back."""
    tracer = _ACTIVE
    tracer.begin_task(parent)
    token = tracer.open("sim.task")
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.close(token)
    return result, tracer.spans, dict(tracer.counters)


def _pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            with tracer.span("sim.pool_start"):
                super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer._stack[-1]
            with tracer.span("sim.pool_start"):
                inner = super().submit(_run_task, parent, fn, args, kwargs)
            tracer.counters["sim.pool_tasks"] += 1
            outer = _RelayFuture(tracer)
            inner.add_done_callback(lambda f: _relay(outer, f))
            return outer

        def __exit__(self, *exc):
            with tracer.span("sim.pool_wait"):
                return super().__exit__(*exc)

    return TracedPool


def install(tracer: Tracer) -> None:
    """Rebind the cross-module attributes of ldpmean to traced wrappers."""
    global _ACTIVE
    import ldpmean.cli as cli
    import ldpmean.estimators as est
    import ldpmean.lp as lp
    import ldpmean.quantized as quantized
    import ldpmean.sim as sim

    _ACTIVE = tracer
    w = tracer.wrap

    build_parser = cli.build_parser

    def traced_build_parser():
        token = tracer.open("cli.parse")
        try:
            parser = build_parser()
        finally:
            tracer.close(token)
        parser.parse_args = w("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser
    cli.run_experiment = w("sim.run_experiment", cli.run_experiment)
    cli.results_to_csv = w("sim.results_to_csv", cli.results_to_csv)
    cli.equality_chain = w("lp.equality_chain", cli.equality_chain)

    for name in ("one_stage", "two_stage", "three_stage", "rescaled_estimate"):
        setattr(sim, name, w("estimators.estimate", getattr(sim, name), _count_estimate))
    sim.bootstrap_ci = w("sim.bootstrap", sim.bootstrap_ci, _count("sim.bootstrap_calls"))
    sim.ProcessPoolExecutor = _pool_class(tracer)
    default_rng = np.random.default_rng

    def traced_default_rng(*args, **kwargs):
        token = tracer.open("sim.seed")
        try:
            gen = default_rng(*args, **kwargs)
        finally:
            tracer.close(token)
        return _TracedGenerator(gen, tracer)

    sim.np = _Namespace(np, random=_Namespace(
        np.random,
        SeedSequence=w("sim.seed", np.random.SeedSequence, _count_seed),
        default_rng=traced_default_rng,
    ))

    est.two_stage = w("estimators.two_stage", est.two_stage)
    est.sign_mechanism = w("mechanisms.sign_mechanism", est.sign_mechanism, _count_sign)
    quantile = w("numerics.std_normal_quantile", est.std_normal_quantile,
                 _count("numerics.quantile_calls"))
    est.std_normal_quantile = quantile
    quantized.std_normal_quantile = quantile

    lp.build_staircase_lp = w("lp.build", lp.build_staircase_lp, _count_build)
    lp.solve_primal = w("lp.simplex", lp.solve_primal, _count("lp.simplex_calls"))
    lp.dual_certificate = w("lp.cert", lp.dual_certificate)
    lp.check_dual_feasibility = w("lp.sweep", lp.check_dual_feasibility, _count_sweep)
    lp.row_information_many = w("quantized.row_information_many",
                                lp.row_information_many, _count_row_info)
