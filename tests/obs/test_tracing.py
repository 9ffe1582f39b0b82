"""Unit tests for spans and causal tracing (repro.obs.tracing)."""

import pickle

import pytest

from repro.obs.registry import Registry
from repro.obs.tracing import (
    SPAN_ID_HEX,
    TRACE_ID_HEX,
    SpanContext,
    SpanRecord,
    Tracer,
    new_id,
    span_tree,
)


class TestIds:
    def test_new_id_shape(self):
        trace_id = new_id(TRACE_ID_HEX)
        span_id = new_id()
        assert len(trace_id) == TRACE_ID_HEX
        assert len(span_id) == SPAN_ID_HEX
        assert set(trace_id) <= set("0123456789abcdef")

    def test_ids_do_not_touch_global_random(self):
        import random

        random.seed(7)
        expected = random.Random(7).random()
        new_id()
        new_id(TRACE_ID_HEX)
        assert random.random() == expected


class TestSpanContext:
    def test_wire_round_trip(self):
        ctx = SpanContext(trace_id="a" * 16, span_id="b" * 8)
        assert SpanContext.from_wire(ctx.to_wire()) == ctx
        assert SpanContext.from_wire(None) is None

    def test_picklable(self):
        ctx = SpanContext(trace_id="a" * 16, span_id="b" * 8)
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestTracer:
    def test_span_nesting_builds_parent_chain(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.depth == outer.depth + 1
        assert outer.trace_id == inner.trace_id == tracer.trace_id
        # Completion order: inner closes first.
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_span_records_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad")
        record = tracer.records[0]
        assert record.error == "ValueError: bad"
        assert record.wall_seconds >= 0

    def test_span_metric_attribution(self):
        registry = Registry()
        counter = registry.counter("work.done")
        tracer = Tracer()
        with tracer.span("work", registry):
            counter.inc(3)
        assert tracer.records[0].metrics == {"work.done": 3}

    def test_record_leaf_under_current_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            leaf = tracer.record("mark", 0.0, metrics={"joins": 2})
        assert leaf.parent_id == parent.span_id
        assert leaf.metrics == {"joins": 2}
        assert leaf.wall_seconds == 0.0

    def test_record_with_explicit_start(self):
        tracer = Tracer()
        leaf = tracer.record("wait", 1.5, start=123.25)
        assert leaf.start == 123.25
        assert leaf.to_dict()["start"] == 123.25

    def test_begin_end_cross_coroutine_discipline(self):
        tracer = Tracer()
        root = tracer.begin("request")
        with tracer.span("child") as child:
            pass
        tracer.end(root)
        assert child.parent_id == root.span_id
        assert root.wall_seconds > 0
        # Root closed the stack back to the trace root.
        assert tracer._stack == [(None, 0)]

    def test_end_with_error(self):
        tracer = Tracer()
        root = tracer.begin("request")
        tracer.end(root, error="JobTimeout: too slow")
        assert root.error == "JobTimeout: too slow"

    def test_end_unwinds_children_left_open(self):
        tracer = Tracer()
        root = tracer.begin("request")
        tracer.begin("leaked")  # never ended
        tracer.end(root)
        assert tracer._stack == [(None, 0)]

    def test_parent_context_joins_trace(self):
        parent = SpanContext(trace_id="c" * 16, span_id="d" * 8)
        tracer = Tracer(parent=parent)
        with tracer.span("worker.execute") as record:
            pass
        assert tracer.trace_id == parent.trace_id
        assert record.parent_id == parent.span_id

    def test_current_inside_span(self):
        tracer = Tracer()
        with tracer.span("exec") as record:
            ctx = tracer.current()
        assert ctx == SpanContext(tracer.trace_id, record.span_id)

    def test_current_with_no_open_span_mints_stable_root(self):
        tracer = Tracer()
        first = tracer.current()
        second = tracer.current()
        assert first == second
        assert first.trace_id == tracer.trace_id

    def test_absorb_rebases_depth(self):
        tracer = Tracer()
        tracer.absorb(
            [
                {"name": "worker.execute", "wall_seconds": 1.0, "depth": 0},
                {"name": "replay.run", "wall_seconds": 0.9, "depth": 1},
            ],
            depth_offset=2,
        )
        assert [r["depth"] for r in tracer.records] == [2, 3]
        tracer.absorb(None)  # no-op
        assert len(tracer.records) == 2
        # By default the records rebase under the innermost open span.
        with tracer.span("prime"):
            tracer.absorb([{"name": "worker.execute", "wall_seconds": 0.1}])
        assert tracer.records[-2]["depth"] == 1

    def test_to_list_mixes_local_and_foreign(self):
        tracer = Tracer()
        with tracer.span("local"):
            pass
        tracer.absorb([{"name": "foreign", "wall_seconds": 0.1, "depth": 0}])
        out = tracer.to_list()
        assert [entry["name"] for entry in out] == ["local", "foreign"]
        assert all(isinstance(entry, dict) for entry in out)
        assert out[0]["trace_id"] == tracer.trace_id


class TestCrossProcessAssembly:
    def test_worker_spans_parent_under_service_span(self):
        service = Tracer()
        root = service.begin("serve.request")
        with service.span("serve.execute") as exec_rec:
            wire = service.current().to_wire()
            # --- what happens inside the worker process ---
            worker = Tracer(parent=SpanContext.from_wire(wire))
            with worker.span("worker.execute"):
                worker.record("replay.chunks", 0.2, metrics={"chunks": 4})
            shipped = worker.to_list()
        service.absorb(shipped, depth_offset=exec_rec.depth + 1)
        service.end(root)

        tree = span_tree(service.to_list())
        assert [node["name"] for node in tree] == ["serve.request"]
        request = tree[0]
        assert [c["name"] for c in request["children"]] == ["serve.execute"]
        execute = request["children"][0]
        assert [c["name"] for c in execute["children"]] == ["worker.execute"]
        leaf_names = [
            c["name"] for c in execute["children"][0]["children"]
        ]
        assert leaf_names == ["replay.chunks"]

    def test_span_tree_orphans_become_roots(self):
        roots = span_tree(
            [
                {"name": "a", "span_id": "1", "parent_id": None},
                {"name": "b", "span_id": "2", "parent_id": "1"},
                {"name": "orphan", "span_id": "3", "parent_id": "missing"},
            ]
        )
        assert [node["name"] for node in roots] == ["a", "orphan"]
        assert [c["name"] for c in roots[0]["children"]] == ["b"]


class TestSpanRecordIdentityFields:
    def test_to_dict_omits_unset_identity(self):
        record = SpanRecord(name="s", wall_seconds=0.1)
        out = record.to_dict()
        for field in ("trace_id", "span_id", "parent_id", "start"):
            assert field not in out

    def test_to_dict_rounds_start(self):
        record = SpanRecord(
            name="s", wall_seconds=0.1, start=1723100000.123456789
        )
        assert record.to_dict()["start"] == 1723100000.123457
