"""Unit tests for span timing and counter attribution (Tracer.span)."""

import json

import pytest

from repro.obs.registry import Registry
from repro.obs.tracing import Tracer


class TestSpan:
    def test_records_wall_time(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        record = tracer.records[-1]
        assert record.name == "work"
        assert record.wall_seconds >= 0.0

    def test_attributes_counter_deltas(self):
        registry = Registry()
        registry.counter("runs.captured").inc(2)  # before the span
        tracer = Tracer()
        with tracer.span("phase", registry) as record:
            registry.counter("runs.captured").inc(3)
            registry.counter("runs.cached")  # stays zero -> dropped
        assert record.metrics == {"runs.captured": 3}

    def test_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.depth == 1
        assert outer.depth == 0
        # Completion order: innermost first.
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_exception_still_recorded(self):
        registry = Registry()
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed", registry) as record:
                registry.counter("runs.captured").inc()
                raise RuntimeError("boom")
        assert tracer.records == [record]
        assert record.metrics == {"runs.captured": 1}

    def test_to_dict_is_json_safe(self):
        registry = Registry()
        registry.histogram("fwd.hop_histogram")
        tracer = Tracer()
        with tracer.span("run", registry):
            registry.histogram("fwd.hop_histogram").observe(2)
        entry = tracer.to_list()[0]
        assert entry["name"] == "run"
        assert entry["depth"] == 0
        assert entry["metrics"] == {"fwd.hop_histogram": {"2": 1}}
        assert json.loads(json.dumps(entry)) == entry


class TestSpanExceptionSafety:
    """Spans must unwind cleanly through errors."""

    def test_error_summary_recorded_and_exception_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="bad cell"):
            with tracer.span("doomed") as record:
                raise ValueError("bad cell")
        assert record.error == "ValueError: bad cell"
        assert record.to_dict()["error"] == "ValueError: bad cell"

    def test_messageless_exception_keeps_type_name(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("doomed") as record:
                raise KeyError
        assert record.error == "KeyError"

    def test_clean_exit_has_no_error(self):
        tracer = Tracer()
        with tracer.span("fine") as record:
            pass
        assert record.error is None
        assert "error" not in record.to_dict()

    def test_nested_spans_unwind_through_exception(self):
        """Stack bookkeeping survives an exception crossing both levels."""
        registry = Registry()
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer", registry) as outer:
                with tracer.span("inner", registry) as inner:
                    registry.counter("runs.captured").inc()
                    raise RuntimeError("boom")
        assert tracer._stack == [(None, 0)], "stack must rewind to the root"
        assert [r.name for r in tracer.records] == ["inner", "outer"]
        assert (inner.depth, outer.depth) == (1, 0)
        assert inner.parent_id == outer.span_id
        assert inner.error == outer.error == "RuntimeError: boom"
        # A failed region still accounts for the work done inside it.
        assert inner.metrics == outer.metrics == {"runs.captured": 1}
        # The tracer is reusable afterwards: a fresh span is top level.
        with tracer.span("after") as after:
            pass
        assert after.depth == 0
        assert after.parent_id is None

    def test_record_appended_even_if_metric_diff_raises(self):
        class ExplodingRegistry(Registry):
            def __init__(self):
                super().__init__()
                self._snapshots = 0

            def snapshot(self):
                self._snapshots += 1
                if self._snapshots > 1:  # entry snapshot fine, exit raises
                    raise RuntimeError("diff failed")
                return super().snapshot()

        tracer = Tracer()
        with pytest.raises(RuntimeError, match="diff failed"):
            with tracer.span("fragile", ExplodingRegistry()):
                pass
        assert tracer._stack == [(None, 0)]
        assert [r.name for r in tracer.records] == ["fragile"]
