"""Versioned, schema-validated run manifests.

A *manifest* is the machine-readable record of one experiment artifact
run: the configuration that produced it, the workload seeds, the content
hashes of every trace it consumed, the span timeline, and the full
metric tree.  ``python -m repro <artifact> --format json`` prints one;
regression tooling and dashboards parse it instead of scraping the
rendered tables.

The schema is committed next to this module
(``manifest_schema_v3.json``) and is the only contract: every manifest
is validated against it before it leaves the process, by a small
interpreter for exactly the JSON Schema keywords the schema uses.

Beyond the core sections, a manifest may carry ``timeline`` (windowed
time series and address-space heatmap per simulation cell, from the
``repro.obs.timeline`` layer) and ``events`` (the bounded structured
event stream), and its span records may carry an ``error`` string plus
causal identity -- ``trace_id``/``span_id``/``parent_id`` hex ids and a
wall-clock ``start`` stamp (the ``repro.obs.tracing`` layer) -- so a
CLI or serve manifest carries its full span tree across the
process-pool boundary.  Every producer stamps version 3; any other
``manifest_version`` is rejected with :class:`ManifestError` naming it.
"""

from __future__ import annotations

import functools
import json
import platform
import re
from importlib import resources
from typing import Any, Callable, Iterable, Mapping

from repro.obs.registry import Snapshot

MANIFEST_VERSION = 3
MANIFEST_SCHEMA = "repro.obs.manifest/v3"
_SCHEMA_FILE = "manifest_schema_v3.json"


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
    spans: Iterable[Mapping[str, Any]] | None = None,
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
        "spans": [dict(record) for record in spans or ()],
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
    naming the version.  The message of any other failure starts with
    the JSON path of the offending value and names the keyword it
    broke, e.g. ``spans/0/start: -1.0 is less than the minimum of 0``.
    """
    _check_version(manifest.get("manifest_version"))
    document = dict(manifest)
    error = _schema_check()(document)
    if error is not None:
        path, template, args = error
        where = "/".join(map(str, path)) or "(root)"
        raise ManifestError(f"{where}: {template.format(*args)}")
    # The one invariant the schema cannot state: a timeline cell's
    # window series all have one length.
    for cell_id, entry in document.get("timeline", {}).get("cells", {}).items():
        lengths = {name: len(series) for name, series in entry["windows"].items()}
        if len(set(lengths.values())) > 1:
            raise ManifestError(
                f"timeline/cells/{cell_id}/windows: series lengths differ {lengths}"
            )


@functools.cache
def _schema_check() -> Check:
    return _compile_schema(load_schema())


# -- the schema interpreter --------------------------------------------------
#
# The schema compiles, once per process, into one closure per subschema.
# A closure returns None for a valid value, else ``(path, template, args)``:
# the keys down to the failing value, and a message formatted only for the
# error finally raised (a oneOf alternative that fails costs a tuple).
# Semantics are JSON Schema 2020-12's: a boolean is never a number, an
# integral float is an integer, ``const`` never equates ``True`` with ``1``,
# and a keyword ignores values of types it does not constrain.  A pattern's
# trailing ``$`` matches only at the end of input, as in ECMA-262.

Error = tuple[tuple[Any, ...], str, tuple[Any, ...]]
Check = Callable[[Any], "Error | None"]

#: The keywords implemented and the annotations ignored (``$defs`` is read
#: at the root only).  Any other keyword raises when the schema compiles, so
#: the schema cannot grow a constraint that validation would silently skip.
_KEYWORDS = frozenset(
    "type properties required additionalProperties items $ref const minimum "
    "minLength pattern oneOf $schema $id title description".split()
)
_TYPES = {
    "object": (dict,), "array": (list,), "string": (str,), "number": (int, float),
    "integer": (), "boolean": (bool,), "null": (type(None),),
}


def _compile_schema(schema: Mapping[str, Any]) -> Check:
    """Compile a root schema; ``ValueError`` on anything not implemented."""
    defs = schema.get("$defs", {})
    slots: dict[str, list[Check]] = {f"#/$defs/{name}": [] for name in defs}
    check = _compile({k: v for k, v in schema.items() if k != "$defs"}, "#", slots)
    for name, subschema in defs.items():
        slots[f"#/$defs/{name}"].append(_compile(subschema, f"#/$defs/{name}", slots))
    return check


def _compile(schema: Any, where: str, slots: dict[str, list[Check]]) -> Check:
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {where} is not an object")
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"schema at {where}: unsupported keyword(s) {sorted(unknown)}")
    checks = []
    if "type" in schema:
        checks.append(_type_check(schema["type"]))
    if "const" in schema:
        const = schema["const"]
        checks.append(
            lambda value: None
            if _json_equal(value, const)
            else ((), "{!r} was expected", (const,))
        )
    if "minimum" in schema:
        bound = schema["minimum"]
        checks.append(_guarded_check(
            (int, float), lambda value: value < bound,
            "{!r} is less than the minimum of {!r}", bound,
        ))
    if "minLength" in schema:
        length = schema["minLength"]
        checks.append(_guarded_check(
            str, lambda value: len(value) < length,
            "{!r} is shorter than the minLength of {!r}", length,
        ))
    if "pattern" in schema:
        pattern = schema["pattern"]
        # A trailing unescaped ``$`` becomes ``\Z``: the end of input only.
        pattern_re = re.compile(re.sub(r"(?<!\\)((?:\\\\)*)\$$", r"\1\\Z", pattern))
        checks.append(_guarded_check(
            str, lambda value: pattern_re.search(value) is None,
            "{!r} does not match {!r}", pattern,
        ))
    if {"required", "properties", "additionalProperties"} & schema.keys():
        properties = {
            name: _compile(subschema, f"{where}/properties/{name}", slots)
            for name, subschema in schema.get("properties", {}).items()
        }
        additional = schema.get("additionalProperties", True)
        if not isinstance(additional, bool):
            additional = _compile(additional, f"{where}/additionalProperties", slots)
        checks.append(
            _object_check(tuple(schema.get("required", ())), properties, additional)
        )
    if "items" in schema:
        checks.append(_items_check(_compile(schema["items"], f"{where}/items", slots)))
    if "$ref" in schema:
        slot = slots.get(schema["$ref"])
        if slot is None:
            raise ValueError(f"schema at {where}: unresolvable $ref {schema['$ref']!r}")
        checks.append(lambda value: slot[0](value))
    if "oneOf" in schema:
        checks.append(_one_of_check([
            _compile(subschema, f"{where}/oneOf/{index}", slots)
            for index, subschema in enumerate(schema["oneOf"])
        ]))
    if len(checks) == 1:
        return checks[0]

    def check_all(value: Any) -> Error | None:
        for check in checks:
            error = check(value)
            if error is not None:
                return error
        return None

    return check_all


def _type_check(names: str | list[str]) -> Check:
    names = [names] if isinstance(names, str) else list(names)
    if set(names) - set(_TYPES):
        raise ValueError(f"unknown type name(s) {sorted(set(names) - set(_TYPES))}")
    classes = tuple(cls for name in names for cls in _TYPES[name])
    allow_bool = "boolean" in names
    integral = "integer" in names
    template = "{!r} is not of type " + ", ".join(map(repr, names))

    def check(value: Any) -> Error | None:
        if isinstance(value, bool):
            if allow_bool:
                return None
        elif isinstance(value, classes) or integral and (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()
        ):
            return None
        return (), template, (value,)

    return check


def _json_equal(left: Any, right: Any) -> bool:
    """Equality of JSON values: ``True`` is not ``1``, at any depth."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(map(_json_equal, left, right))
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _json_equal(item, right[key]) for key, item in left.items()
        )
    return left == right


def _guarded_check(
    kind: Any, fails: Callable[[Any], bool], template: str, limit: Any
) -> Check:
    """A keyword that constrains one kind of value and ignores the rest
    (a boolean is never a number)."""

    def check(value: Any) -> Error | None:
        if isinstance(value, kind) and not isinstance(value, bool) and fails(value):
            return (), template, (value, limit)
        return None

    return check


def _object_check(
    required: tuple[str, ...], properties: dict[str, Check], additional: Check | bool
) -> Check:
    def check(value: Any) -> Error | None:
        if not isinstance(value, dict):
            return None
        for name in required:
            if name not in value:
                return (), "{!r} is a required property", (name,)
        for key, item in value.items():
            sub = properties.get(key, additional)
            if sub is False:
                return (), "additional property {!r} is not allowed", (key,)
            if sub is not True:
                error = sub(item)
                if error is not None:
                    return (key, *error[0]), error[1], error[2]
        return None

    return check


def _items_check(sub: Check) -> Check:
    def check(value: Any) -> Error | None:
        if isinstance(value, list):
            for index, item in enumerate(value):
                error = sub(item)
                if error is not None:
                    return (index, *error[0]), error[1], error[2]
        return None

    return check


def _one_of_check(alternatives: list[Check]) -> Check:
    def check(value: Any) -> Error | None:
        matched = 0
        for alternative in alternatives:
            if alternative(value) is None:
                matched += 1
        if matched == 1:
            return None
        return (), "{!r} matches {} oneOf alternatives, not exactly 1", (value, matched)

    return check
