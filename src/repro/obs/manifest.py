"""Versioned, schema-validated run manifests.

A *manifest* is the machine-readable record of one experiment artifact
run: the configuration that produced it, the workload seeds, the content
hashes of every trace it consumed, the span timeline, and the full
metric tree.  ``python -m repro <artifact> --format json`` prints one;
regression tooling and dashboards parse it instead of scraping the
rendered tables.

The schema is committed next to this module
(``manifest_schema_v3.json``) and every manifest is validated against
it before it leaves the process.  Validation prefers :mod:`jsonschema`
when importable and falls back to a pure-python structural check so the
artifact pipeline works in minimal environments.

Beyond the core sections, a manifest may carry ``timeline`` (windowed
time series and address-space heatmap per simulation cell, from the
``repro.obs.timeline`` layer) and ``events`` (the bounded structured
event stream), and its span records may carry an ``error`` string plus
causal identity -- ``trace_id``/``span_id``/``parent_id`` hex ids and a
wall-clock ``start`` stamp (the ``repro.obs.tracing`` layer) -- so a
serve-tier manifest carries the full request span tree across the
process-pool boundary.  Every producer stamps version 3; any other
``manifest_version`` is rejected with :class:`ManifestError` naming it.
"""

from __future__ import annotations

import functools
import json
import platform
from importlib import resources
from typing import Any, Iterable, Mapping

from repro.obs.registry import Snapshot
from repro.obs.span import SpanLog

MANIFEST_VERSION = 3
MANIFEST_SCHEMA = "repro.obs.manifest/v3"
_SCHEMA_FILE = "manifest_schema_v3.json"

_SCALAR = (str, int, float, bool, type(None))


class ManifestError(ValueError):
    """A manifest failed schema validation."""


def _check_version(version: Any) -> None:
    if version != MANIFEST_VERSION:
        raise ManifestError(
            f"manifest_version: unsupported version {version!r}; "
            f"this build reads only {MANIFEST_VERSION}"
        )


def load_schema(version: int = MANIFEST_VERSION) -> dict[str, Any]:
    """The committed JSON schema (only the current version has one)."""
    _check_version(version)
    text = resources.files("repro.obs").joinpath(_SCHEMA_FILE).read_text()
    return json.loads(text)


def cell(
    cell_id: str,
    *,
    labels: Mapping[str, Any] | None = None,
    checksum: int | None = None,
    metrics: Snapshot | Mapping[str, Any] | None = None,
    values: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One manifest cell: a figure bar, a table row, an ablation point.

    ``labels`` carries the cell's coordinates (app, variant, line size,
    ...), ``values`` its artifact-specific derived numbers (normalized
    slots, speedup, miss rate), ``metrics`` the raw metric tree of the
    simulation(s) behind it.
    """
    entry: dict[str, Any] = {"id": cell_id}
    if labels:
        entry["labels"] = dict(labels)
    if checksum is not None:
        entry["checksum"] = checksum
    if metrics is not None:
        entry["metrics"] = (
            metrics.tree() if isinstance(metrics, Snapshot) else dict(metrics)
        )
    if values:
        entry["values"] = dict(values)
    return entry


def build_manifest(
    artifact: str,
    *,
    run: Mapping[str, Any],
    seeds: Mapping[str, int],
    metrics: Snapshot | Mapping[str, Any],
    spans: SpanLog | Iterable[Mapping[str, Any]] | None = None,
    cells: Iterable[Mapping[str, Any]] = (),
    trace_hashes: Mapping[str, str] | None = None,
    summary: Mapping[str, Any] | None = None,
    timeline: Mapping[str, Any] | None = None,
    events: Mapping[str, Any] | None = None,
    validate: bool = True,
) -> dict[str, Any]:
    """Assemble (and by default validate) a current-version run manifest.

    ``timeline`` and ``events`` are the optional v2 sections (see
    :mod:`repro.obs.timeline`); pass the per-cell payload maps the
    experiment runner collects.
    """
    from repro import __version__

    if isinstance(spans, SpanLog):
        span_list = spans.to_list()
    elif spans is None:
        span_list = []
    else:
        span_list = [dict(record) for record in spans]
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "schema": MANIFEST_SCHEMA,
        "artifact": artifact,
        "tool": {
            "name": "repro",
            "version": __version__,
            "python": platform.python_version(),
        },
        "run": dict(run),
        "seeds": dict(seeds),
        "trace_hashes": dict(trace_hashes or {}),
        "spans": span_list,
        "metrics": (
            metrics.tree() if isinstance(metrics, Snapshot) else dict(metrics)
        ),
        "cells": [dict(entry) for entry in cells],
    }
    if summary is not None:
        manifest["summary"] = dict(summary)
    if timeline is not None:
        manifest["timeline"] = dict(timeline)
    if events is not None:
        manifest["events"] = dict(events)
    if validate:
        validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: Mapping[str, Any]) -> None:
    """Raise :class:`ManifestError` unless ``manifest`` matches the schema.

    A ``manifest_version`` other than the current one fails first,
    naming the version.  Uses :mod:`jsonschema` when available;
    otherwise falls back to a structural check covering the same
    constraints (required keys, value types, metric-tree shape).
    """
    _check_version(manifest.get("manifest_version"))
    try:
        import jsonschema
    except ImportError:
        _validate_structurally(manifest)
        return
    validator = _jsonschema_validator()
    error = jsonschema.exceptions.best_match(validator.iter_errors(dict(manifest)))
    if error is not None:
        raise ManifestError(str(error)) from error


@functools.cache
def _jsonschema_validator():
    """The schema, compiled and schema-checked once: jsonschema.validate
    redoes both on every call, which dominates hot paths like the serve
    warm-cache probe."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _fail(path: str, message: str) -> None:
    raise ManifestError(f"{path}: {message}")


def _check_scalar_map(value: Any, path: str) -> None:
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    for key, item in value.items():
        if not isinstance(key, str):
            _fail(path, f"non-string key {key!r}")
        if not isinstance(item, _SCALAR):
            _fail(f"{path}.{key}", "must be a scalar")


def _check_metric_tree(value: Any, path: str) -> None:
    if not isinstance(value, dict):
        _fail(path, "metric tree node must be an object")
    for key, item in value.items():
        if not isinstance(key, str):
            _fail(path, f"non-string key {key!r}")
        if isinstance(item, bool) or not isinstance(item, (int, float, dict)):
            _fail(f"{path}.{key}", "must be a number or a subtree")
        if isinstance(item, dict):
            _check_metric_tree(item, f"{path}.{key}")


def _validate_structurally(manifest: Mapping[str, Any]) -> None:
    """Pure-python fallback mirroring the committed schema files."""
    required = (
        "manifest_version",
        "schema",
        "artifact",
        "tool",
        "run",
        "seeds",
        "trace_hashes",
        "spans",
        "metrics",
        "cells",
    )
    for key in required:
        if key not in manifest:
            _fail(key, "missing required field")
    _check_version(manifest["manifest_version"])
    if manifest["schema"] != MANIFEST_SCHEMA:
        _fail("schema", f"must be {MANIFEST_SCHEMA!r}")
    allowed_top = set(required) | {"summary", "timeline", "events"}
    extra_top = set(manifest) - allowed_top
    if extra_top:
        _fail("/", f"unexpected keys {sorted(extra_top)}")
    if not isinstance(manifest["artifact"], str) or not manifest["artifact"]:
        _fail("artifact", "must be a non-empty string")
    tool = manifest["tool"]
    if not isinstance(tool, dict) or set(tool) != {"name", "version", "python"}:
        _fail("tool", "must have exactly name/version/python")
    for key, item in tool.items():
        if not isinstance(item, str):
            _fail(f"tool.{key}", "must be a string")
    _check_scalar_map(manifest["run"], "run")
    seeds = manifest["seeds"]
    if not isinstance(seeds, dict):
        _fail("seeds", "must be an object")
    for app, seed in seeds.items():
        if isinstance(seed, bool) or not isinstance(seed, int):
            _fail(f"seeds.{app}", "must be an integer")
    hashes = manifest["trace_hashes"]
    if not isinstance(hashes, dict):
        _fail("trace_hashes", "must be an object")
    for key, digest in hashes.items():
        if not isinstance(digest, str) or not digest or set(digest) - set(
            "0123456789abcdef"
        ):
            _fail(f"trace_hashes.{key}", "must be a lowercase hex string")
    spans = manifest["spans"]
    if not isinstance(spans, list):
        _fail("spans", "must be an array")
    span_keys = {"name", "wall_seconds", "depth", "metrics"}
    span_optional = {"error", "trace_id", "span_id", "parent_id", "start"}
    for index, record in enumerate(spans):
        path = f"spans[{index}]"
        if not isinstance(record, dict):
            _fail(path, "must be an object")
        extra = set(record) - span_keys - span_optional
        missing = span_keys - set(record)
        if extra or missing:
            _fail(path, f"bad keys (extra={extra}, missing={missing})")
        if "error" in record and (
            not isinstance(record["error"], str) or not record["error"]
        ):
            _fail(f"{path}.error", "must be a non-empty string")
        for id_field in ("trace_id", "span_id", "parent_id"):
            if id_field in record:
                value = record[id_field]
                if not isinstance(value, str) or not value or set(value) - set(
                    "0123456789abcdef"
                ):
                    _fail(f"{path}.{id_field}", "must be a lowercase hex string")
        if "start" in record and (
            isinstance(record["start"], bool)
            or not isinstance(record["start"], (int, float))
            or record["start"] < 0
        ):
            _fail(f"{path}.start", "must be a non-negative number")
        if not isinstance(record["name"], str) or not record["name"]:
            _fail(f"{path}.name", "must be a non-empty string")
        if isinstance(record["wall_seconds"], bool) or not isinstance(
            record["wall_seconds"], (int, float)
        ) or record["wall_seconds"] < 0:
            _fail(f"{path}.wall_seconds", "must be a non-negative number")
        if isinstance(record["depth"], bool) or not isinstance(
            record["depth"], int
        ) or record["depth"] < 0:
            _fail(f"{path}.depth", "must be a non-negative integer")
        _check_metric_tree(record["metrics"], f"{path}.metrics")
    _check_metric_tree(manifest["metrics"], "metrics")
    cells = manifest["cells"]
    if not isinstance(cells, list):
        _fail("cells", "must be an array")
    for index, entry in enumerate(cells):
        path = f"cells[{index}]"
        if not isinstance(entry, dict):
            _fail(path, "must be an object")
        if set(entry) - {"id", "labels", "checksum", "metrics", "values"}:
            _fail(path, "unexpected keys")
        if not isinstance(entry.get("id"), str) or not entry["id"]:
            _fail(f"{path}.id", "must be a non-empty string")
        if "labels" in entry:
            _check_scalar_map(entry["labels"], f"{path}.labels")
        if "checksum" in entry and entry["checksum"] is not None:
            if isinstance(entry["checksum"], bool) or not isinstance(
                entry["checksum"], int
            ):
                _fail(f"{path}.checksum", "must be an integer or null")
        if "metrics" in entry:
            _check_metric_tree(entry["metrics"], f"{path}.metrics")
        if "values" in entry:
            _check_scalar_map(entry["values"], f"{path}.values")
    if "summary" in manifest:
        _check_scalar_map(manifest["summary"], "summary")
    if "timeline" in manifest:
        _check_timeline_section(manifest["timeline"], "timeline")
    if "events" in manifest:
        _check_events_section(manifest["events"], "events")


_WINDOW_SERIES_KEYS = (
    "refs",
    "cycles",
    "l1_misses",
    "miss_rate",
    "stall_slots",
    "chases",
    "mshr_occupancy",
)


def _check_timeline_section(section: Any, path: str) -> None:
    if not isinstance(section, dict) or set(section) != {"cells"}:
        _fail(path, "must be an object with exactly a 'cells' key")
    for cell_id, cell in section["cells"].items():
        cell_path = f"{path}.cells.{cell_id}"
        if not isinstance(cell, dict) or set(cell) != {
            "sample_interval",
            "window_count",
            "windows",
            "heatmap",
        }:
            _fail(cell_path, "bad keys")
        windows = cell["windows"]
        if not isinstance(windows, dict) or set(windows) != set(
            _WINDOW_SERIES_KEYS
        ):
            _fail(f"{cell_path}.windows", "bad series keys")
        lengths = set()
        for name, series in windows.items():
            if not isinstance(series, list):
                _fail(f"{cell_path}.windows.{name}", "must be an array")
            lengths.add(len(series))
        if len(lengths) > 1:
            _fail(f"{cell_path}.windows", "series lengths differ")
        heatmap = cell["heatmap"]
        if not isinstance(heatmap, dict) or set(heatmap) != {
            "region_bytes",
            "regions",
        }:
            _fail(f"{cell_path}.heatmap", "bad keys")


def _check_events_section(section: Any, path: str) -> None:
    if not isinstance(section, dict) or set(section) != {"cells"}:
        _fail(path, "must be an object with exactly a 'cells' key")
    for cell_id, payload in section["cells"].items():
        cell_path = f"{path}.cells.{cell_id}"
        if not isinstance(payload, dict) or set(payload) != {
            "capacity",
            "total",
            "dropped",
            "counts",
            "records",
        }:
            _fail(cell_path, "bad keys")
        if not isinstance(payload["records"], list):
            _fail(f"{cell_path}.records", "must be an array")
        for index, record in enumerate(payload["records"]):
            if not isinstance(record, dict) or set(record) != {
                "ts",
                "kind",
                "args",
            }:
                _fail(f"{cell_path}.records[{index}]", "bad keys")
