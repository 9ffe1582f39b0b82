"""Timeline exporters: Chrome trace (Perfetto), CSV, and window diffing.

Three consumers of the ``timeline``/``events`` manifest sections
(:mod:`repro.obs.manifest`, schema ``/v3``):

* :func:`chrome_trace` renders a manifest as Chrome-trace JSON -- the
  format ``chrome://tracing`` and https://ui.perfetto.dev load directly.
  Window series become counter tracks (one process per cell), event
  records become instant events, and the span log becomes duration
  slices on a wall-clock track.
* :func:`windows_csv` flattens one cell's window series to CSV for
  spreadsheet / pandas consumption.
* :func:`diff_timelines` aligns the windows of two manifests and flags
  per-window regressions -- the ``python -m repro timeline diff``
  regression gate.

All functions are pure: manifests in, JSON-safe structures out.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.timeline import WINDOW_SERIES

#: Derived per-window rates the diff gate compares.  Each is a function
#: of one window index into a ``windows`` series dict; rates (rather
#: than raw deltas) keep the comparison meaningful when two runs window
#: at slightly different trailing-window widths.
DIFF_METRICS = ("miss_rate", "cycles_per_ref", "stall_slots_per_ref", "chases_per_ref")

#: Default relative regression threshold for :func:`diff_timelines`.
DEFAULT_THRESHOLD = 0.05

#: Absolute slack added on top of the relative threshold so zero-valued
#: windows (miss-free, chase-free) don't flag on float noise.
DEFAULT_EPSILON = 1e-6


def _rate(windows: Mapping[str, list], metric: str, index: int) -> float:
    refs = windows["refs"][index]
    if metric == "miss_rate":
        return windows["miss_rate"][index]
    if not refs:
        return 0.0
    if metric == "cycles_per_ref":
        return windows["cycles"][index] / refs
    if metric == "stall_slots_per_ref":
        return windows["stall_slots"][index] / refs
    if metric == "chases_per_ref":
        return windows["chases"][index] / refs
    raise KeyError(metric)


# ----------------------------------------------------------------------
# Chrome trace / Perfetto
# ----------------------------------------------------------------------
def chrome_trace(manifest: Mapping[str, Any]) -> dict[str, Any]:
    """Chrome-trace JSON object for a ``/v2`` or ``/v3`` manifest.

    Timestamps are microseconds, as the format requires; simulated
    cycles map 1:1 to microseconds (the absolute scale is meaningless in
    a simulator -- only the shape matters), and span wall-clock seconds
    scale by 1e6 on their own track.
    """
    trace_events: list[dict[str, Any]] = []
    pid = 0

    timeline = manifest.get("timeline") or {}
    for cell_id in sorted(timeline.get("cells") or {}):
        cell = timeline["cells"][cell_id]
        windows = cell["windows"]
        pid += 1
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"timeline {cell_id}"},
        })
        ts = 0.0
        for index in range(len(windows["refs"])):
            # One counter sample per window, stamped at the window's
            # closing edge on the cumulative-cycle axis.
            ts += windows["cycles"][index]
            trace_events.append({
                "name": "window",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": ts,
                "args": {
                    "miss_rate": windows["miss_rate"][index],
                    "stall_slots": windows["stall_slots"][index],
                    "chases": windows["chases"][index],
                    "mshr_occupancy": windows["mshr_occupancy"][index],
                },
            })

    events = manifest.get("events") or {}
    for cell_id in sorted(events.get("cells") or {}):
        payload = events["cells"][cell_id]
        pid += 1
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"events {cell_id}"},
        })
        for record in payload.get("records", ()):
            trace_events.append({
                "name": record["kind"],
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": 0,
                "ts": record["ts"],
                "args": dict(record.get("args") or {}),
            })

    spans = manifest.get("spans") or []
    if spans:
        pid += 1
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "spans (wall clock)"},
        })
        # /v3 traced spans carry real wall-clock start stamps: lay those
        # out on a shared axis (normalized to the earliest stamp) so
        # queue wait, worker execution, and replay chunks line up
        # causally.  Legacy records without stamps fall back to the /v2
        # behavior -- sequential per depth, so nesting still reads.
        stamps = [
            record["start"] for record in spans if record.get("start") is not None
        ]
        origin = min(stamps) if stamps else 0.0
        cursor_by_depth: dict[int, float] = {}
        for record in spans:
            depth = record.get("depth", 0)
            duration = record["wall_seconds"] * 1e6
            stamped = record.get("start")
            if stamped is not None:
                start = (stamped - origin) * 1e6
            else:
                start = cursor_by_depth.get(depth, 0.0)
            args: dict[str, Any] = {}
            for field in ("trace_id", "span_id", "parent_id", "error"):
                if record.get(field) is not None:
                    args[field] = record[field]
            trace_events.append({
                "name": record["name"],
                "ph": "X",
                "pid": pid,
                "tid": depth,
                "ts": start,
                "dur": duration,
                "args": args,
            })
            cursor_by_depth[depth] = start + duration

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "artifact": str(manifest.get("artifact", "")),
            "schema": str(manifest.get("schema", "")),
        },
    }


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def windows_csv(windows: Mapping[str, list]) -> str:
    """One cell's window series as CSV (header + one row per window)."""
    lines = ["window," + ",".join(WINDOW_SERIES)]
    for index in range(len(windows["refs"])):
        row = [str(index)]
        for name in WINDOW_SERIES:
            value = windows[name][index]
            row.append(repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Window diffing (the `timeline diff` regression gate)
# ----------------------------------------------------------------------
def diff_timelines(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[list[dict[str, Any]], list[str]]:
    """Align two manifests' windows; returns ``(regressions, notes)``.

    A *regression* is a shared cell and window index where an ``after``
    rate exceeds the ``before`` rate by more than ``threshold``
    (relative) plus ``epsilon`` (absolute).  ``notes`` lists structural
    mismatches -- cells present on one side only, differing window
    counts -- which are reported but are not regressions.
    """
    cells_before = (before.get("timeline") or {}).get("cells") or {}
    cells_after = (after.get("timeline") or {}).get("cells") or {}
    regressions: list[dict[str, Any]] = []
    notes: list[str] = []
    for cell_id in sorted(set(cells_before) ^ set(cells_after)):
        side = "before" if cell_id in cells_before else "after"
        notes.append(f"cell {cell_id!r} only present in {side!r} manifest")
    for cell_id in sorted(set(cells_before) & set(cells_after)):
        windows_before = cells_before[cell_id]["windows"]
        windows_after = cells_after[cell_id]["windows"]
        n_before = len(windows_before["refs"])
        n_after = len(windows_after["refs"])
        if n_before != n_after:
            notes.append(
                f"cell {cell_id!r}: window count {n_before} vs {n_after}; "
                f"comparing the first {min(n_before, n_after)}"
            )
        for index in range(min(n_before, n_after)):
            for metric in DIFF_METRICS:
                value_before = _rate(windows_before, metric, index)
                value_after = _rate(windows_after, metric, index)
                if value_after > value_before * (1.0 + threshold) + epsilon:
                    regressions.append({
                        "cell": cell_id,
                        "window": index,
                        "metric": metric,
                        "before": value_before,
                        "after": value_after,
                        "ratio": (
                            value_after / value_before
                            if value_before
                            else float("inf")
                        ),
                    })
    return regressions, notes


def render_diff(
    regressions: list[dict[str, Any]], notes: list[str]
) -> str:
    """Human-readable report for :func:`diff_timelines` output."""
    lines = []
    for note in notes:
        lines.append(f"note: {note}")
    for entry in regressions:
        ratio = entry["ratio"]
        shown = f"{ratio:.3f}x" if ratio != float("inf") else "inf"
        lines.append(
            f"REGRESSION {entry['cell']} window {entry['window']} "
            f"{entry['metric']}: {entry['before']:.6g} -> "
            f"{entry['after']:.6g} ({shown})"
        )
    if not regressions:
        lines.append("no per-window regressions")
    return "\n".join(lines)
