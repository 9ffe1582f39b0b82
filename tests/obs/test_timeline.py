"""Timeline sampler, event log, and exporter tests (DESIGN.md §5d).

Covers the pure ``repro.obs`` layer: windowing semantics against a
hand-driven registry, the event ring's drop accounting, the Chrome-trace
golden output, the CSV flattening, and the ``timeline diff`` regression
gate's threshold semantics.  Machine integration (real simulations,
replay parity) lives in ``tests/integration/test_timeline_parity.py``.
"""

import json

import pytest

from repro.obs import EventLog, Registry, Timeline
from repro.obs.export import (
    DEFAULT_THRESHOLD,
    chrome_trace,
    diff_timelines,
    render_diff,
    windows_csv,
)
from repro.obs.timeline import WINDOW_SERIES


# ----------------------------------------------------------------------
# EventLog
# ----------------------------------------------------------------------
class TestEventLog:
    def test_records_and_counts(self):
        log = EventLog(capacity=8)
        log.emit("fwd.walk", initial=64, final=128, hops=2)
        log.emit("fwd.walk", initial=64, final=192, hops=3)
        log.emit("mem.free", address=256, chain=1)
        assert log.total == 3
        assert log.dropped == 0
        assert log.counts == {"fwd.walk": 2, "mem.free": 1}
        payload = log.to_payload()
        assert payload["records"][0] == {
            "ts": 0.0,
            "kind": "fwd.walk",
            "args": {"initial": 64, "final": 128, "hops": 2},
        }

    def test_ring_drops_oldest_but_counts_survive(self):
        log = EventLog(capacity=2)
        for index in range(5):
            log.emit("e", n=index)
        assert log.total == 5
        assert log.dropped == 3
        assert [record["args"]["n"] for record in log.to_payload()["records"]] == [3, 4]
        assert log.counts == {"e": 5}

    def test_clock_stamps_records(self):
        now = [0.0]
        log = EventLog(capacity=4, clock=lambda: now[0])
        log.emit("a")
        now[0] = 12.5
        log.emit("b")
        stamps = [record["ts"] for record in log.to_payload()["records"]]
        assert stamps == [0.0, 12.5]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
def _registry():
    """A registry exposing the canonical machine metric names."""
    registry = Registry()
    for name in (
        "time.cycles",
        "cache.l1.miss.load_full",
        "cache.l1.miss.store_full",
        "slots.load_stall",
        "ref.load.forwarded",
        "ref.store.forwarded",
    ):
        registry.counter(name)
    return registry


class TestTimeline:
    def test_windows_diff_the_registry(self):
        registry = _registry()
        timeline = Timeline(2, registry)
        cycles = registry.counter("time.cycles")
        misses = registry.counter("cache.l1.miss.load_full")

        cycles.inc(10)
        timeline.tick(0)
        cycles.inc(10)
        misses.inc()
        timeline.tick(64)  # closes window 0
        cycles.inc(5)
        timeline.tick(128)
        timeline.finish()  # closes the partial window 1

        assert timeline.window_count == 2
        assert timeline.windows["refs"] == [2, 1]
        assert timeline.windows["cycles"] == [20, 5]
        assert timeline.windows["l1_misses"] == [1, 0]
        assert timeline.windows["miss_rate"] == [0.5, 0.0]

    def test_chases_sum_load_and_store_forwarded(self):
        registry = _registry()
        timeline = Timeline(3, registry)
        registry.counter("ref.load.forwarded").inc(2)
        registry.counter("ref.store.forwarded").inc()
        for address in (0, 8, 16):
            timeline.tick(address)
        assert timeline.windows["chases"] == [3]

    def test_finish_without_pending_is_noop(self):
        timeline = Timeline(2, _registry())
        timeline.finish()
        assert timeline.window_count == 0
        timeline.tick(0)
        timeline.tick(8)
        timeline.finish()
        timeline.finish()
        assert timeline.window_count == 1

    def test_heatmap_regions_and_forwarded(self):
        timeline = Timeline(10, _registry(), region_bytes=64)
        timeline.tick(0)
        timeline.tick(63)
        timeline.tick(64)
        timeline.note_forwarded(64)
        timeline.finish()
        heat = timeline.heatmap()
        assert heat["region_bytes"] == 64
        assert heat["regions"] == {
            "0": {"accesses": 2, "forwarded": 0},
            "1": {"accesses": 1, "forwarded": 1},
        }

    def test_payload_shape(self):
        timeline = Timeline(1, _registry(), events=EventLog(capacity=2))
        timeline.tick(0)
        payload = timeline.to_payload()
        assert set(payload) == {
            "sample_interval", "window_count", "windows", "heatmap", "events",
        }
        assert set(payload["windows"]) == set(WINDOW_SERIES)
        assert payload["events"]["capacity"] == 2
        assert json.dumps(payload)  # JSON-safe

    def test_mshr_occupancy_probed_at_window_edge(self):
        class FakeMSHR:
            def occupancy_at(self, now):
                return int(now)

        now = [0.0]
        timeline = Timeline(
            1, _registry(), mshr=FakeMSHR(), clock=lambda: now[0]
        )
        timeline.tick(0)
        now[0] = 3.0
        timeline.tick(8)
        assert timeline.windows["mshr_occupancy"] == [0, 3]

    def test_rejects_bad_interval_and_region(self):
        with pytest.raises(ValueError):
            Timeline(0, _registry())
        with pytest.raises(ValueError):
            Timeline(1, _registry(), region_bytes=48)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _manifest(windows=None, events=None, spans=()):
    windows = windows or {
        "refs": [2, 2],
        "cycles": [20.0, 10.0],
        "l1_misses": [1, 0],
        "miss_rate": [0.5, 0.0],
        "stall_slots": [4.0, 0.0],
        "chases": [1, 0],
        "mshr_occupancy": [0, 1],
    }
    manifest = {
        "artifact": "probe",
        "schema": "repro.obs.manifest/v3",
        "spans": list(spans),
        "timeline": {
            "cells": {
                "health/32B/L": {
                    "sample_interval": 2,
                    "window_count": len(windows["refs"]),
                    "windows": windows,
                    "heatmap": {"region_bytes": 65536, "regions": {}},
                }
            }
        },
    }
    if events is not None:
        manifest["events"] = {"cells": {"health/32B/L": events}}
    return manifest


GOLDEN_TRACE = {
    "traceEvents": [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "timeline health/32B/L"},
        },
        {
            "name": "window",
            "ph": "C",
            "pid": 1,
            "tid": 0,
            "ts": 20.0,
            "args": {
                "miss_rate": 0.5,
                "stall_slots": 4.0,
                "chases": 1,
                "mshr_occupancy": 0,
            },
        },
        {
            "name": "window",
            "ph": "C",
            "pid": 1,
            "tid": 0,
            "ts": 30.0,
            "args": {
                "miss_rate": 0.0,
                "stall_slots": 0.0,
                "chases": 0,
                "mshr_occupancy": 1,
            },
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": 2,
            "tid": 0,
            "args": {"name": "events health/32B/L"},
        },
        {
            "name": "fwd.walk",
            "ph": "i",
            "s": "t",
            "pid": 2,
            "tid": 0,
            "ts": 7.0,
            "args": {"initial": 64, "final": 128, "hops": 1},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": 3,
            "tid": 0,
            "args": {"name": "spans (wall clock)"},
        },
        {
            "name": "figure5",
            "ph": "X",
            "pid": 3,
            "tid": 0,
            "ts": 0.0,
            "dur": 1500000.0,
            "args": {},
        },
    ],
    "displayTimeUnit": "ms",
    "otherData": {"artifact": "probe", "schema": "repro.obs.manifest/v3"},
}


class TestChromeTrace:
    def test_golden_trace(self):
        """Byte-for-byte golden output for one Perfetto trace."""
        manifest = _manifest(
            events={
                "capacity": 16,
                "total": 1,
                "dropped": 0,
                "counts": {"fwd.walk": 1},
                "records": [
                    {
                        "ts": 7.0,
                        "kind": "fwd.walk",
                        "args": {"initial": 64, "final": 128, "hops": 1},
                    }
                ],
            },
            spans=[
                {"name": "figure5", "wall_seconds": 1.5, "depth": 0, "metrics": {}}
            ],
        )
        trace = chrome_trace(manifest)
        assert trace == GOLDEN_TRACE
        assert json.dumps(trace, sort_keys=True) == json.dumps(
            GOLDEN_TRACE, sort_keys=True
        )

    def test_empty_manifest_yields_empty_trace(self):
        trace = chrome_trace({"artifact": "x", "schema": "s"})
        assert trace["traceEvents"] == []

    def test_sibling_spans_lay_out_sequentially(self):
        manifest = _manifest(spans=[
            {"name": "a", "wall_seconds": 1.0, "depth": 0, "metrics": {}},
            {"name": "b", "wall_seconds": 2.0, "depth": 0, "metrics": {}},
        ])
        slices = [
            event for event in chrome_trace(manifest)["traceEvents"]
            if event["ph"] == "X"
        ]
        assert slices[0]["ts"] == 0.0
        assert slices[1]["ts"] == 1e6  # starts after its sibling


class TestWindowsCSV:
    def test_header_and_rows(self):
        csv = windows_csv(_manifest()["timeline"]["cells"]["health/32B/L"]["windows"])
        lines = csv.strip().split("\n")
        assert lines[0] == "window," + ",".join(WINDOW_SERIES)
        assert lines[1] == "0,2,20.0,1,0.5,4.0,1,0"
        assert lines[2] == "1,2,10.0,0,0.0,0.0,0,1"


class TestDiffTimelines:
    def test_identical_manifests_pass(self):
        regressions, notes = diff_timelines(_manifest(), _manifest())
        assert regressions == []
        assert notes == []
        assert "no per-window regressions" in render_diff(regressions, notes)

    def test_regression_flagged_beyond_threshold(self):
        after = _manifest()
        after["timeline"]["cells"]["health/32B/L"]["windows"]["miss_rate"] = [
            0.5 * (1 + DEFAULT_THRESHOLD) + 0.01,
            0.0,
        ]
        regressions, _ = diff_timelines(_manifest(), after)
        assert len(regressions) == 1
        entry = regressions[0]
        assert entry["cell"] == "health/32B/L"
        assert entry["window"] == 0
        assert entry["metric"] == "miss_rate"
        assert "REGRESSION" in render_diff(regressions, [])

    def test_within_threshold_passes(self):
        after = _manifest()
        after["timeline"]["cells"]["health/32B/L"]["windows"]["miss_rate"] = [
            0.5 * (1 + DEFAULT_THRESHOLD * 0.5),
            0.0,
        ]
        regressions, _ = diff_timelines(_manifest(), after)
        assert regressions == []

    def test_improvement_never_flags(self):
        after = _manifest()
        after["timeline"]["cells"]["health/32B/L"]["windows"]["cycles"] = [1.0, 1.0]
        regressions, _ = diff_timelines(_manifest(), after)
        assert regressions == []

    def test_zero_baseline_epsilon_guard(self):
        """Float noise above an all-zero window must not flag."""
        before = _manifest()
        before["timeline"]["cells"]["health/32B/L"]["windows"]["miss_rate"] = [0.0, 0.0]
        after = _manifest()
        after["timeline"]["cells"]["health/32B/L"]["windows"]["miss_rate"] = [1e-9, 0.0]
        regressions, _ = diff_timelines(before, after)
        assert regressions == []

    def test_zero_baseline_real_regression_is_inf_ratio(self):
        before = _manifest()
        before["timeline"]["cells"]["health/32B/L"]["windows"]["miss_rate"] = [0.0, 0.0]
        regressions, _ = diff_timelines(before, _manifest())
        assert regressions and regressions[0]["ratio"] == float("inf")
        assert "inf" in render_diff(regressions, [])

    def test_structural_mismatches_are_notes_not_regressions(self):
        after = _manifest()
        after["timeline"]["cells"]["other/64B/N"] = after["timeline"]["cells"][
            "health/32B/L"
        ]
        for series in after["timeline"]["cells"]["health/32B/L"]["windows"].values():
            series.pop()
        regressions, notes = diff_timelines(_manifest(), after)
        assert regressions == []
        assert any("only present" in note for note in notes)
        assert any("window count" in note for note in notes)

    def test_custom_threshold(self):
        after = _manifest()
        after["timeline"]["cells"]["health/32B/L"]["windows"]["miss_rate"] = [0.6, 0.0]
        strict, _ = diff_timelines(_manifest(), after, threshold=0.1)
        lax, _ = diff_timelines(_manifest(), after, threshold=0.5)
        assert strict and not lax
