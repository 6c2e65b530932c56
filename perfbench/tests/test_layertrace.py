"""Tests of the benchmark's span arithmetic and tracing wrappers.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layertrace  # noqa: E402
from layertrace import Tracer, layer_metrics, self_times, tail_quantile, union_length  # noqa: E402


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, 0)


class TestUnionLength:
    def test_disjoint_overlapping_nested_and_empty(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 1), (2, 4)]) == 3.0
        assert union_length([(0, 3), (1, 2)]) == 3.0
        assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
        assert union_length([(1, 1), (2, 1.5)]) == 0.0

    def test_order_does_not_matter(self):
        assert union_length([(5, 6), (1, 3), (0, 2)]) == 4.0


class TestSelfTimes:
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a, as pool
    # workers do) and c [8, 12] (ends after its parent); a has child g [2, 3].
    SPANS = [
        span("r", None, "sim.run_experiment", 0.0, 10.0),
        span("a", "r", "sim.task", 1.0, 4.0),
        span("b", "r", "sim.task", 3.0, 6.0),
        span("c", "r", "sim.task", 8.0, 12.0),
        span("g", "a", "estimators.estimate", 2.0, 3.0),
    ]

    def test_children_union_clipped_to_parent(self):
        selfs = self_times(self.SPANS)
        # covered part of r: [1, 6] plus [8, 10]
        assert selfs["r"] == pytest.approx(3.0)
        assert selfs["a"] == pytest.approx(2.0)
        assert selfs["b"] == pytest.approx(3.0)
        assert selfs["c"] == pytest.approx(4.0)
        assert selfs["g"] == pytest.approx(1.0)

    def test_self_times_never_exceed_durations(self):
        for sid, value in self_times(self.SPANS).items():
            start, end = next((s[3], s[4]) for s in self.SPANS if s[0] == sid)
            assert 0.0 <= value <= end - start

    def test_layer_sums_use_self_time(self):
        spans = [
            span("e", None, "estimators.estimate", 0.0, 5.0),
            span("m1", "e", "mechanisms.sign_mechanism", 1.0, 2.0),
            span("q1", "e", "numerics.std_normal_quantile", 2.5, 3.0),
            span("m2", "e", "mechanisms.sign_mechanism", 3.0, 4.0),
        ]
        counters = {"mechanisms.sign_calls": 2, "mechanisms.sign_bits": 400}
        m = layer_metrics(spans, layertrace.Counter(counters))
        assert m["estimators.self_s"] == pytest.approx(2.5)
        assert m["mechanisms.sign_s"] == pytest.approx(2.0)
        assert m["mechanisms.sign_bits_per_s"] == pytest.approx(200.0)
        assert m["numerics.quantile_s"] == pytest.approx(0.5)
        assert m["lp.sweep_s"] == 0.0


def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(19) is None
    assert tail_quantile(20) == pytest.approx(0.5)
    assert tail_quantile(1000) == pytest.approx(0.99)


class TestTracer:
    def test_wrap_records_nesting_and_survives_exceptions(self):
        tracer = Tracer(pass_id=7)
        inner = tracer.wrap("b.inner", lambda x: x + 1)
        outer = tracer.wrap("a.outer", lambda x: inner(x) * 2)
        boom = tracer.wrap("c.boom", lambda: 1 / 0)
        assert outer(1) == 4
        with pytest.raises(ZeroDivisionError):
            boom()
        by_name = {s[2]: s for s in tracer.spans}
        assert by_name["b.inner"][1] == by_name["a.outer"][0]
        assert by_name["a.outer"][1] is None
        assert by_name["c.boom"][1] is None
        assert all(s[5] == 7 for s in tracer.spans)

    def test_traced_generator_leaves_the_stream_unchanged(self):
        tracer = Tracer(pass_id=0)
        plain = np.random.default_rng(5)
        traced = layertrace._TracedGenerator(np.random.default_rng(5), tracer)
        assert np.array_equal(plain.standard_normal(50), traced.standard_normal(50))
        assert np.array_equal(plain.integers(0, 9, size=(3, 4)), traced.integers(0, 9, size=(3, 4)))
        assert plain.random() == traced.random()
        assert tracer.counters["sim.datagen_samples"] == 50
        assert tracer.counters["sim.bootstrap_index_draws"] == 12


POOL_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import layertrace, ldpmean.sim as sim
from ldpmean.sim import ExperimentConfig, run_experiment
cfg = ExperimentConfig(kind="two", epsilon=1.0, theta_true=0.0, n=500, replicates=40,
                       master_seed=3, sweep_name="n1", sweep_values=(50.0,))
plain = run_experiment(cfg, workers=2)
tracer = layertrace.Tracer(pass_id=1)
layertrace.install(tracer)
traced = sim.run_experiment(cfg, workers=2)
m = layertrace.layer_metrics(tracer.spans, tracer.counters)
pids = {{s[0] >> 32 for s in tracer.spans}}
print(json.dumps({{"same": plain == traced, "pids": len(pids), "metrics": m}}))
"""


def test_pool_worker_spans_are_merged_and_outputs_unchanged():
    root = HERE.parent.parent
    script = POOL_SCRIPT.format(src=str(root / "src"), bench=str(HERE.parent))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    m = result["metrics"]
    assert result["same"]
    assert result["pids"] >= 2  # spans from the parent and at least one worker
    assert m["sim.replicates"] == 40
    assert m["estimators.calls"] == 40
    assert m["mechanisms.sign_calls"] == 80
    assert m["mechanisms.sign_bits"] == 40 * 500
    assert m["sim.datagen_samples"] == 40 * 500
    assert m["sim.pool_tasks"] == 8
    assert m["sim.bootstrap_calls"] == 1
    assert m["sim.bootstrap_index_draws"] == 1000 * 40
