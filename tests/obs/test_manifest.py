"""Manifest schema validation, including the committed JSON schema.

The acceptance bar for structured output: every experiment entry point
emits a manifest that validates against ``manifest_schema_v3.json``.
"""

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments import ablations, figure5, figure6, figure7, figure10, table1
from repro.obs import Registry
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    ManifestError,
    _validate_structurally,
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
            _validate_structurally(
                _minimal_manifest(manifest_version=4, schema="repro.obs.manifest/v4")
            )
        with pytest.raises(ManifestError):
            validate_manifest(
                _minimal_manifest(manifest_version=4, schema="repro.obs.manifest/v4")
            )

    def test_rejects_version_schema_mismatch(self):
        with pytest.raises(ManifestError, match="schema"):
            _validate_structurally(
                _minimal_manifest(schema="repro.obs.manifest/v2")
            )

    def test_rejects_missing_required_key(self):
        bad = _minimal_manifest()
        del bad["metrics"]
        with pytest.raises(ManifestError):
            _validate_structurally(bad)

    def test_rejects_non_hex_trace_hash(self):
        with pytest.raises(ManifestError):
            _validate_structurally(_minimal_manifest(trace_hashes={"k": "XYZ"}))

    def test_rejects_non_scalar_run_value(self):
        with pytest.raises(ManifestError):
            _validate_structurally(_minimal_manifest(run={"nested": {"a": 1}}))

    def test_rejects_malformed_metric_tree(self):
        with pytest.raises(ManifestError):
            _validate_structurally(_minimal_manifest(metrics={"time": "fast"}))

    def test_rejects_bad_cell_keys(self):
        bad = _minimal_manifest()
        bad["cells"] = [{"id": "x", "unexpected": 1}]
        with pytest.raises(ManifestError):
            _validate_structurally(bad)

    def test_rejects_bad_span_record(self):
        bad = _minimal_manifest()
        bad["spans"] = [{"name": "s", "wall_seconds": -1.0, "depth": 0, "metrics": {}}]
        with pytest.raises(ManifestError):
            _validate_structurally(bad)

    def test_jsonschema_and_fallback_agree_on_valid(self):
        manifest = _minimal_manifest()
        validate_manifest(manifest)
        _validate_structurally(manifest)


class TestSchemaMigration:
    """Only version 3 exists: older versions are rejected by name, and
    the sections and span fields they introduced stay validated."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_rejected_naming_the_version(self, version):
        old = _minimal_manifest(
            manifest_version=version, schema=f"repro.obs.manifest/v{version}"
        )
        for validate in (validate_manifest, _validate_structurally):
            with pytest.raises(ManifestError, match=f"unsupported version {version}"):
                validate(old)

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
        _validate_structurally(manifest)

    def test_v2_rejects_malformed_timeline_section(self):
        bad = _minimal_manifest()
        bad["timeline"] = {"cells": {"a/32B/L": {"sample_interval": 10}}}
        with pytest.raises(ManifestError):
            _validate_structurally(bad)

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
        with pytest.raises(ManifestError):
            _validate_structurally(bad)


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
        _validate_structurally(manifest)

    def test_v3_identity_fields_are_optional(self):
        manifest = _minimal_manifest()
        manifest["spans"] = [
            {"name": "s", "wall_seconds": 0.1, "depth": 0, "metrics": {}}
        ]
        validate_manifest(manifest)
        _validate_structurally(manifest)

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
            _validate_structurally(bad)
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
        results = ablations.run_all(scale=SCALE, obs=obs)
        manifest = ablations.manifest(results, SCALE, obs)
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
