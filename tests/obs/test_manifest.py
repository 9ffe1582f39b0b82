"""Manifest schema validation, including the committed JSON schema.

The acceptance bar for structured output: every experiment entry point
emits a manifest that validates against ``manifest_schema_v3.json``.
The schema is validated by one small interpreter; where jsonschema is
installed, a differential sweep checks the two agree.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ExperimentRunner
from repro.experiments import ablations, figure5, figure6, figure7, figure10, table1
from repro.obs import Registry, Tracer
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    ManifestError,
    _compile_schema,
    _schema_check,
    build_manifest,
    cell,
    load_schema,
    validate_manifest,
)

SCALE = 0.05


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


def _minimal_manifest(**overrides):
    manifest = build_manifest(
        "test",
        run={"scale": SCALE},
        seeds={"health": 1},
        metrics={"time": {"cycles": 10.0}},
        cells=[cell("a/b", labels={"app": "a"}, values={"cycles": 10.0})],
        trace_hashes={"k": "abc123"},
        validate=False,
    )
    manifest.update(overrides)
    return manifest


class TestSchema:
    def test_schema_loads_and_pins_version(self):
        schema = load_schema()
        assert schema["properties"]["manifest_version"]["const"] == MANIFEST_VERSION
        assert schema["properties"]["schema"]["const"] == MANIFEST_SCHEMA

    def test_build_manifest_validates_by_default(self):
        manifest = _minimal_manifest()
        validate_manifest(manifest)  # should not raise

    def test_rejects_unknown_version(self):
        with pytest.raises(ManifestError):
            validate_manifest(
                _minimal_manifest(manifest_version=4, schema="repro.obs.manifest/v4")
            )

    def test_rejects_version_schema_mismatch(self):
        with pytest.raises(ManifestError, match="schema"):
            validate_manifest(_minimal_manifest(schema="repro.obs.manifest/v2"))

    def test_rejects_missing_required_key(self):
        bad = _minimal_manifest()
        del bad["metrics"]
        with pytest.raises(ManifestError):
            validate_manifest(bad)

    def test_rejects_non_hex_trace_hash(self):
        with pytest.raises(ManifestError):
            validate_manifest(_minimal_manifest(trace_hashes={"k": "XYZ"}))

    def test_rejects_non_scalar_run_value(self):
        with pytest.raises(ManifestError):
            validate_manifest(_minimal_manifest(run={"nested": {"a": 1}}))

    def test_rejects_malformed_metric_tree(self):
        with pytest.raises(ManifestError):
            validate_manifest(_minimal_manifest(metrics={"time": "fast"}))

    def test_rejects_bad_cell_keys(self):
        bad = _minimal_manifest()
        bad["cells"] = [{"id": "x", "unexpected": 1}]
        with pytest.raises(ManifestError):
            validate_manifest(bad)

    def test_rejects_bad_span_record(self):
        bad = _minimal_manifest()
        bad["spans"] = [{"name": "s", "wall_seconds": -1.0, "depth": 0, "metrics": {}}]
        with pytest.raises(ManifestError):
            validate_manifest(bad)


class TestSchemaMigration:
    """Only version 3 exists: older versions are rejected by name, and
    the sections and span fields they introduced stay validated."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_rejected_naming_the_version(self, version):
        old = _minimal_manifest(
            manifest_version=version, schema=f"repro.obs.manifest/v{version}"
        )
        with pytest.raises(ManifestError, match=f"unsupported version {version}"):
            validate_manifest(old)

    def test_load_schema_unknown_version(self):
        with pytest.raises(ManifestError):
            load_schema(99)
        with pytest.raises(ManifestError, match="unsupported version 2"):
            load_schema(2)

    def test_v2_span_error_accepted(self):
        manifest = _minimal_manifest()
        manifest["spans"] = [
            {"name": "s", "wall_seconds": 0.1, "depth": 0, "metrics": {},
             "error": "ValueError: boom"}
        ]
        validate_manifest(manifest)

    def test_v2_rejects_malformed_timeline_section(self):
        bad = _minimal_manifest()
        bad["timeline"] = {"cells": {"a/32B/L": {"sample_interval": 10}}}
        with pytest.raises(ManifestError):
            validate_manifest(bad)

    def test_v2_rejects_ragged_window_series(self):
        windows = {
            name: [1.0]
            for name in (
                "refs", "cycles", "l1_misses", "miss_rate",
                "stall_slots", "chases", "mshr_occupancy",
            )
        }
        windows["refs"] = [1.0, 2.0]
        bad = _minimal_manifest()
        bad["timeline"] = {
            "cells": {
                "a/32B/L": {
                    "sample_interval": 10,
                    "window_count": 1,
                    "windows": windows,
                    "heatmap": {"region_bytes": 65536, "regions": {}},
                }
            }
        }
        with pytest.raises(ManifestError, match="series lengths differ"):
            validate_manifest(bad)


def _traced_span(**overrides):
    span = {
        "name": "serve.request",
        "wall_seconds": 0.5,
        "depth": 0,
        "metrics": {},
        "trace_id": "a1b2c3d4e5f60718",
        "span_id": "0abc1234",
        "parent_id": "feedc0de",
        "start": 1723100000.25,
    }
    span.update(overrides)
    return span


class TestV3Migration:
    """Version 3 span identity fields (trace_id/span_id/parent_id/start)."""

    def test_v3_schema_file_pins_v3(self):
        schema = load_schema(3)
        assert schema["properties"]["manifest_version"]["const"] == 3
        assert schema["properties"]["schema"]["const"] == MANIFEST_SCHEMA

    def test_v3_span_identity_accepted(self):
        manifest = _minimal_manifest()
        manifest["spans"] = [_traced_span()]
        validate_manifest(manifest)

    def test_v3_identity_fields_are_optional(self):
        manifest = _minimal_manifest()
        manifest["spans"] = [
            {"name": "s", "wall_seconds": 0.1, "depth": 0, "metrics": {}}
        ]
        validate_manifest(manifest)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trace_id", "NOTHEX"),
            ("trace_id", ""),
            ("span_id", "UPPER123"),
            ("parent_id", 7),
            ("start", -1.0),
            ("start", "noon"),
        ],
    )
    def test_v3_rejects_malformed_identity(self, field, value):
        bad = _minimal_manifest()
        bad["spans"] = [_traced_span(**{field: value})]
        with pytest.raises(ManifestError):
            validate_manifest(bad)


class TestEveryArtifactEmitsAValidManifest:
    """The acceptance criterion: all entry points produce valid manifests.

    ``build_manifest`` validates on construction, so each call below
    raising nothing IS the assertion; the explicit re-validation guards
    against an entry point bypassing validation.
    """

    @pytest.mark.parametrize("module", [table1, figure5, figure6, figure7, figure10])
    def test_paper_artifact(self, runner, module):
        result = module.run(runner, scale=SCALE)
        manifest = module.manifest(result, runner)
        validate_manifest(manifest)
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["cells"], "artifact manifest must carry cells"
        assert manifest["metrics"], "artifact manifest must carry metrics"
        assert manifest["run"]["scale"] == SCALE

    def test_ablations(self):
        obs = Registry()
        tracer = Tracer()
        results = ablations.run_all(scale=SCALE, obs=obs, tracer=tracer)
        manifest = ablations.manifest(results, SCALE, obs, tracer)
        validate_manifest(manifest)
        ids = [entry["id"] for entry in manifest["cells"]]
        assert len(ids) == len(set(ids)), "ablation cell ids must be unique"
        span_names = {record["name"] for record in manifest["spans"]}
        assert "ablations.hop_limit" in span_names

    @pytest.mark.parametrize(
        "name,cells", [("false-sharing", 5), ("out-of-core", 2)]
    )
    def test_extension(self, name, cells):
        from repro.__main__ import _extension_manifest

        manifest = _extension_manifest(name, 1.0)
        validate_manifest(manifest)
        assert len(manifest["cells"]) == cells
        assert manifest["summary"]["speedup"] > 0

    def test_runner_manifest_reflects_simulation_work(self, runner):
        manifest = runner.manifest("probe")
        assert manifest["metrics"]["runs"]
        assert manifest["seeds"]
        assert manifest["trace_hashes"]


_WINDOW_SERIES = (
    "refs", "cycles", "l1_misses", "miss_rate", "stall_slots", "chases",
    "mshr_occupancy",
)


def _full_manifest():
    """Every optional section and span field, with small metric trees so
    that jsonschema validates thousands of one-edit mutants in seconds."""
    return build_manifest(
        "test",
        run={"scale": SCALE, "cache": True, "trace_dir": None, "note": "x"},
        seeds={"health": 1},
        metrics={"time": {"cycles": 10.0}, "runs": 2},
        spans=[_traced_span(error="ValueError: boom", metrics={"hit": 1})],
        cells=[
            cell(
                "a/32B/L",
                labels={"app": "a", "line_size": 32},
                checksum=7,
                metrics={"fwd": {"hops": 0}},
                values={"cycles": 10.0},
            )
        ],
        trace_hashes={"k": "abc123"},
        summary={"how": "cached", "wall_seconds": 0.5},
        timeline={
            "cells": {
                "a/32B/L": {
                    "sample_interval": 10,
                    "window_count": 2,
                    "windows": {name: [1.0, 2.0] for name in _WINDOW_SERIES},
                    "heatmap": {
                        "region_bytes": 65536,
                        "regions": {"0": {"accesses": 3, "forwarded": 1}},
                    },
                }
            }
        },
        events={
            "cells": {
                "a/32B/L": {
                    "capacity": 4,
                    "total": 1,
                    "dropped": 0,
                    "counts": {"fwd.walk": 1},
                    "records": [
                        {"ts": 1.0, "kind": "fwd.walk", "args": {"hops": 1}}
                    ],
                }
            }
        },
    )


#: The values each mutant writes at a path: every JSON type, integral
#: and fractional and negative numbers, hex and non-hex strings, and a
#: hex string with a trailing newline.
_PROBES = (
    None, True, False, 0, 1, -1, 2.0, 1.5, -0.5, 2**40,
    "", "x", "abc", "ABC", "abc\n",
    [], [1], ["x"], {}, {"a": 1}, {"a": "x"}, {"a": {}},
)

#: Where the schema applies its ``^[0-9a-f]+$`` pattern in _full_manifest.
_HEX_PATHS = {
    ("trace_hashes", "k"),
    ("spans", 0, "trace_id"),
    ("spans", 0, "span_id"),
    ("spans", 0, "parent_id"),
}


def _paths(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


_DROP = object()


def _mutants(base):
    """``(path, edit, document)`` for every one-edit mutant of ``base``:
    each value replaced by each probe, each object member dropped, and
    an unknown member added to each object."""

    def edited(path, value):
        document = copy.deepcopy(base)
        node = document
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
        return document

    for path, value in _paths(base):
        if path:
            for probe in _PROBES:
                yield path, probe, edited(path, probe)
            if isinstance(path[-1], str):
                yield path, "drop", edited(path, _DROP)
        if isinstance(value, dict):
            unknown = (*path, "zz_unknown")
            yield unknown, "add", edited(unknown, 1)


def _subschemas(schema, path=()):
    """Every subschema of ``schema`` with its path, through the keywords
    that hold subschemas."""
    yield path, schema
    for name, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, (*path, "properties", name))
    for name, sub in schema.get("$defs", {}).items():
        yield from _subschemas(sub, (*path, "$defs", name))
    for index, sub in enumerate(schema.get("oneOf", ())):
        yield from _subschemas(sub, (*path, "oneOf", index))
    for keyword in ("additionalProperties", "items"):
        if isinstance(schema.get(keyword), dict):
            yield from _subschemas(schema[keyword], (*path, keyword))


class TestOneValidator:
    def test_error_names_path_and_keyword(self):
        bad = _minimal_manifest(spans=[_traced_span(start=-1.0)])
        with pytest.raises(
            ManifestError, match=r"^spans/0/start: -1\.0 is less than the minimum of 0$"
        ):
            validate_manifest(bad)

    @pytest.mark.parametrize("field", ["trace_hashes", "trace_id", "span_id", "parent_id"])
    def test_hex_ids_reject_trailing_newline(self, field):
        # JSON Schema patterns are ECMA-262: ``$`` matches only at the end
        # of input, never before a final newline as in Python's re.
        if field == "trace_hashes":
            bad = _minimal_manifest(trace_hashes={"k": "abc\n"})
        else:
            bad = _minimal_manifest(spans=[_traced_span(**{field: "abc\n"})])
        with pytest.raises(ManifestError, match="does not match"):
            validate_manifest(bad)

    @pytest.mark.parametrize(
        "keyword,value",
        [("enum", [1]), ("format", "date-time"), ("patternProperties", {"^x": {}})],
    )
    def test_unsupported_keyword_anywhere_fails_to_compile(self, keyword, value):
        schema = load_schema()
        _compile_schema(schema)  # the committed schema compiles
        paths = [path for path, _ in _subschemas(schema)]
        assert len(paths) > 50
        for path in paths:
            drifted = copy.deepcopy(schema)
            target = drifted
            for key in path:
                target = target[key]
            target[keyword] = value
            with pytest.raises(ValueError, match=keyword):
                _compile_schema(drifted)

    def test_serving_never_imports_jsonschema(self, tmp_path):
        # A cold job, then a warm one answered by the probe: the service
        # validates both manifests, and so does the script.
        script = """
import asyncio, sys
from repro.obs import validate_manifest
from repro.serve import SimulationService

async def main():
    service = SimulationService(trace_dir=sys.argv[1], workers=1, mode="thread")
    await service.start()
    payload = {"app": "health", "variant": "N", "line_size": 32, "scale": 0.05}
    try:
        for how in ("captured", "cached"):
            job, _ = await service.submit(payload)
            assert await job.wait(60), "job did not finish"
            assert job.manifest["summary"]["how"] == how, job.manifest["summary"]
            validate_manifest(job.manifest)
    finally:
        await service.drain(timeout=10.0)

asyncio.run(main())
assert "jsonschema" not in sys.modules
"""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env,
            check=True,
            timeout=120,
        )


class TestInterpreterSemantics:
    """JSON Schema rules that the committed schema's own keywords cannot
    tell apart, pinned on small schemas."""

    @pytest.mark.parametrize(
        "schema,value,valid",
        [
            ({"type": "integer"}, 2.0, True),
            ({"type": "integer"}, 2.5, False),
            ({"type": "integer"}, True, False),
            ({"type": "number"}, False, False),
            ({"type": ["integer", "null"]}, None, True),
            ({"const": 1}, True, False),
            ({"const": 1}, 1.0, True),
            ({"const": [0]}, [False], False),
            ({"minimum": 0}, "negative", True),
            ({"minimum": 0}, -1, False),
            ({"minLength": 2}, 7, True),
            ({"pattern": "^a$"}, ["a\n"], True),
            ({"pattern": "^a$"}, "a\n", False),
            ({"required": ["k"]}, [], True),
            ({"required": ["k"]}, {}, False),
            ({"properties": {"k": {"type": "string"}}}, 3, True),
            ({"additionalProperties": False}, {"k": 1}, False),
            ({"items": {"type": "string"}}, {"k": 1}, True),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5, True),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1, False),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, "1", False),
        ],
    )
    def test_keyword(self, schema, value, valid):
        assert (_compile_schema(schema)(value) is None) == valid


class TestJsonschemaAgreement:
    """The interpreter against jsonschema on every one-edit mutant of a
    manifest that carries every optional section and span field."""

    def test_every_one_edit_mutant_agrees(self):
        jsonschema = pytest.importorskip("jsonschema")
        base = _full_manifest()
        reference = jsonschema.Draft202012Validator(load_schema())
        check = _schema_check()
        assert reference.is_valid(base) and check(base) is None
        verdicts = {True: 0, False: 0}
        disagreements = []
        for path, edit, document in _mutants(base):
            theirs = reference.is_valid(document)
            ours = check(document) is None
            verdicts[ours] += 1
            if theirs != ours:
                disagreements.append((path, edit, theirs, ours))
        assert verdicts[True] > 500 and verdicts[False] > 1000, verdicts
        # The one deliberate difference: jsonschema lets ``$`` match before
        # a trailing newline; the interpreter, like ECMA-262, rejects.
        assert sorted(disagreements, key=repr) == sorted(
            ((path, "abc\n", True, False) for path in _HEX_PATHS), key=repr
        )
