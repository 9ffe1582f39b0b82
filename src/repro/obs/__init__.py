"""repro.obs — the instrumentation layer.

One surface for every counter, timer, and structured run artifact in the
reproduction:

* :class:`Registry` — hierarchical, typed metrics (owned or bound to
  hot-path counter slots), snapshotted in O(metrics).
* :class:`Snapshot` — immutable metric view with lossless
  ``merge``/``diff`` (shard aggregation, span attribution).
* :func:`span` / :class:`SpanLog` — wall-time + counter-delta tracing.
* :class:`Tracer` / :class:`SpanContext` — request-scoped causal
  tracing with picklable span contexts across the process pool
  (DESIGN.md §5i).
* :class:`Timeline` / :class:`EventLog` — windowed time-series sampling
  and the bounded structured event stream (DESIGN.md §5d).
* :func:`chrome_trace` / :func:`diff_timelines` — Perfetto export and
  the per-window regression gate.
* :func:`build_manifest` / :func:`validate_manifest` — versioned,
  schema-validated JSON run manifests.
* :func:`render_prometheus` / :func:`parse_prometheus` — text
  exposition of a snapshot for standard scrapers.
* :func:`configure_logging` — structured JSON logs, atomic per line,
  trace-id stamped.

See DESIGN.md §5c for the design contract, in particular the hot-path
flush rule: the generated reference kernel never touches the registry;
its flat counter slots are read through bound getters only at snapshot
time.
"""

from repro.obs.events import EventLog
from repro.obs.export import chrome_trace, diff_timelines, render_diff, windows_csv
from repro.obs.logging import (
    configure_logging,
    current_trace_id,
    log_event,
    trace_context,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    ManifestError,
    build_manifest,
    cell,
    load_schema,
    validate_manifest,
)
from repro.obs.prom import parse_prometheus, render_prometheus
from repro.obs.registry import (
    COUNTER,
    EMPTY,
    GAUGE,
    HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    Registry,
    Snapshot,
    histogram_quantiles,
)
from repro.obs.span import SpanLog, SpanRecord, span
from repro.obs.timeline import Timeline
from repro.obs.tracing import SpanContext, Tracer, new_id, span_tree

__all__ = [
    "COUNTER",
    "Counter",
    "EMPTY",
    "EventLog",
    "GAUGE",
    "Gauge",
    "HISTOGRAM",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ManifestError",
    "MetricError",
    "Registry",
    "Snapshot",
    "SpanContext",
    "SpanLog",
    "SpanRecord",
    "Timeline",
    "Tracer",
    "build_manifest",
    "cell",
    "chrome_trace",
    "configure_logging",
    "current_trace_id",
    "diff_timelines",
    "histogram_quantiles",
    "load_schema",
    "log_event",
    "new_id",
    "parse_prometheus",
    "render_diff",
    "render_prometheus",
    "span",
    "span_tree",
    "trace_context",
    "validate_manifest",
    "windows_csv",
]
