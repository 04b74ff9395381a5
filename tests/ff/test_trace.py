"""Runtime tracing: per-node/per-channel metrics and the run report."""

import json

import pytest

from repro.ff import (
    Farm,
    GO_ON,
    Node,
    Pipeline,
    SourceNode,
    Tracer,
    run,
)
from repro.ff.trace import NodeTrace, RunReport

BACKENDS = ("threads", "sequential")


class _Emitting(Node):
    """One input -> two outputs, one via ff_send_out, one via return."""

    def svc(self, item):
        self.ff_send_out(item)
        return item


def _traced_run(backend):
    tracer = Tracer()
    out = run(Pipeline([range(50), lambda x: x + 1]), backend=backend,
              trace=tracer)
    return out, tracer.report()


class TestNodeStats:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_items_and_svc_counts(self, backend):
        out, report = _traced_run(backend)
        assert out == [x + 1 for x in range(50)]
        nodes = {n["name"]: n for n in report.nodes}
        fn = nodes["<lambda>"]
        assert fn["items_in"] == 50
        assert fn["items_out"] == 50
        assert fn["svc_calls"] == 50
        assert fn["svc_errors"] == 0
        assert fn["svc_time_s"]["total"] >= 0.0
        assert fn["svc_time_s"]["max"] >= fn["svc_time_s"]["min"]
        # the source records one svc (generation) per item, no items_in
        src = nodes["SourceNode"]
        assert src["items_in"] == 0
        assert src["items_out"] == 50

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ff_send_out_counted(self, backend):
        tracer = Tracer()
        out = run(Pipeline([range(10), _Emitting()]), backend=backend,
                  trace=tracer)
        assert len(out) == 20
        nodes = {n["name"]: n for n in tracer.report().nodes}
        assert nodes["_Emitting"]["items_out"] == 20

    def test_svc_errors_counted(self):
        class Bomb(Node):
            def svc(self, item):
                raise RuntimeError("boom")

        tracer = Tracer()
        with pytest.raises(Exception):
            run(Pipeline([range(5), Bomb()]), backend="threads",
                trace=tracer)
        nodes = {n["name"]: n for n in tracer.report().nodes}
        assert nodes["Bomb"]["svc_errors"] == 1

    def test_histogram_buckets_sum_to_calls(self):
        trace = NodeTrace("n")
        for dt in (1e-7, 5e-6, 2e-3, 0.3, 2.0):
            trace.record_svc(dt)
        snap = trace.snapshot()
        assert sum(snap["svc_histogram"].values()) == 5
        assert snap["svc_calls"] == 5


class TestChannelStats:
    def test_high_water_and_occupancy(self):
        tracer = Tracer()
        run(Pipeline([range(100), lambda x: x]), backend="threads",
            capacity=4, trace=tracer)
        chans = {c["name"]: c for c in tracer.report().channels}
        ch = chans["pipeline[0->1]"]
        assert ch["pushed"] == 100
        assert 1 <= ch["high_water"] <= 4
        assert ch["capacity"] == 4
        assert 0.0 < ch["mean_occupancy"] <= 4.0

    def test_blocked_push_recorded_on_backpressure(self):
        import time

        tracer = Tracer()
        run(Pipeline([range(40), lambda x: time.sleep(0.002) or x]),
            backend="threads", capacity=1, trace=tracer)
        chans = {c["name"]: c for c in tracer.report().channels}
        assert chans["pipeline[0->1]"]["blocked_push_s"] > 0.0
        assert chans["pipeline[0->1]"]["saturation"] == 1.0


class TestBottleneck:
    def test_slowest_stage_named(self):
        import time

        def slow(x):
            time.sleep(0.001)
            return x

        tracer = Tracer()
        run(Pipeline([range(30), lambda x: x, slow]), backend="threads",
            trace=tracer)
        bn = tracer.report().bottleneck()
        assert bn["slowest_stage"]["name"] == "slow"
        assert "slow" in bn["diagnosis"]

    def test_farm_imbalance_reported(self):
        tracer = Tracer()
        run(Pipeline([range(64), Farm.replicate(lambda x: x, 4)]),
            backend="threads", trace=tracer)
        imb = tracer.report().bottleneck()["farm_imbalance"]
        assert imb is not None
        assert imb["farm"] == "farm"
        assert imb["n_workers"] == 4
        assert 0.0 <= imb["imbalance"] <= 1.0

    def test_empty_report_has_diagnosis(self):
        report = Tracer().report()
        assert report.bottleneck()["diagnosis"] == "no activity recorded"


class TestCountersAndReport:
    def test_trace_incr_reaches_counters(self):
        class Counting(Node):
            def svc(self, item):
                self.trace_incr("domain.widgets", 2)
                return item

        tracer = Tracer()
        run(Pipeline([range(5), Counting()]), backend="sequential",
            trace=tracer)
        report = tracer.report()
        assert report.counters["domain.widgets"] == 10
        assert report.to_dict()["rates_per_s"]["domain.widgets"] > 0

    def test_trace_incr_noop_without_tracer(self):
        node = Node()
        node.trace_incr("x")  # must not raise

    def test_json_roundtrip_and_save(self, tmp_path):
        _, report = _traced_run("threads")
        data = json.loads(report.to_json())
        assert set(data) == {"wall_time_s", "nodes", "channels",
                             "counters", "rates_per_s", "bottleneck"}
        path = tmp_path / "report.json"
        report.save(path)
        assert json.loads(path.read_text())["wall_time_s"] > 0

    def test_to_text_renders(self):
        _, report = _traced_run("threads")
        text = report.to_text()
        assert "bottleneck:" in text
        assert "<lambda>" in text

    def test_report_is_plain_data(self):
        _, report = _traced_run("threads")
        assert isinstance(report, RunReport)
        json.dumps(report.to_dict())  # fully serialisable


class TestUntracedPathUnchanged:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_identical_with_and_without_trace(self, backend):
        structure = lambda: Pipeline(  # noqa: E731
            [range(100), Farm.replicate(lambda x: x * 3, 3, ordered=True)])
        plain = run(structure(), backend=backend)
        traced = run(structure(), backend=backend, trace=Tracer())
        assert plain == traced == [x * 3 for x in range(100)]

    def test_no_trace_attached_by_default(self):
        from repro.ff.executor import compile_graph

        graph = compile_graph(Pipeline([range(3), lambda x: x]), 8, True)
        assert all(ch._trace is None for ch in graph.channels)


class TestTracerAccumulation:
    def test_two_runs_accumulate(self):
        tracer = Tracer()
        run(Pipeline([range(10), lambda x: x]), backend="sequential",
            trace=tracer)
        run(Pipeline([range(10), lambda x: x]), backend="sequential",
            trace=tracer)
        nodes = {n["name"]: n for n in tracer.report().nodes}
        assert nodes["<lambda>"]["items_in"] == 20
