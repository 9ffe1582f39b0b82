"""Structural tests for the miss-path mechanism matrix (reduced scale).

One health-only slice of the matrix: the driver runs, the normalized
columns anchor to the ``none`` rows, the victim cache absorbs misses
on the conflict-heavy L cells, and the manifest validates against the
/v3 schema.  Full-scale absorption numbers live in the benchmark suite.
"""

import pytest

from repro.apps.base import Variant
from repro.cache.misspath import MECHANISMS
from repro.experiments import ExperimentRunner, line_sizes_for, misspath
from repro.obs import validate_manifest

SCALE = 0.05
APPS = ("health",)
MATRIX = ("none", "victim_cache")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


@pytest.fixture(scope="module")
def result(runner):
    return misspath.run(runner, apps=APPS, mechanisms=MATRIX)


class TestMatrix:
    def test_cell_matrix_complete(self, result):
        per_mechanism = len(line_sizes_for("health")) * 2  # N and L
        assert len(result.cells) == len(MATRIX) * per_mechanism
        for mechanism in MATRIX:
            for line_size in line_sizes_for("health"):
                for variant in (Variant.N, Variant.L):
                    cell = result.cell(mechanism, "health", line_size, variant)
                    assert cell.mechanism == mechanism

    def test_baseline_rows_normalize_to_one(self, result):
        for cell in result.cells:
            if cell.mechanism == "none":
                assert cell.normalized_cycles == 1.0
                assert cell.normalized_fills == 1.0
                assert cell.absorbed == 0

    def test_victim_cache_absorbs_misses(self, result):
        absorbed = sum(
            cell.absorbed
            for cell in result.cells
            if cell.mechanism == "victim_cache"
        )
        assert absorbed > 0
        for cell in result.cells:
            assert 0.0 <= cell.absorption <= 1.0
            assert cell.absorbed <= cell.full_misses or cell.full_misses == 0

    def test_absorption_never_slows_the_run(self, result):
        # A stage hit replaces an L2 round trip: normalized time can
        # only move down (or stay flat when nothing was absorbed).
        for cell in result.cells:
            if cell.mechanism == "victim_cache":
                assert cell.normalized_cycles <= 1.0 + 1e-9
                assert cell.normalized_fills <= 1.0 + 1e-9

    def test_summary_covers_matrix(self, result):
        for mechanism in MATRIX:
            for case in ("N", "L"):
                assert (mechanism, case) in result.mean_absorption
                assert (mechanism, case) in result.mean_normalized_cycles

    def test_missing_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell("miss_cache", "health", 32, Variant.N)

    def test_render(self, result):
        text = result.render()
        assert "Miss-path mechanisms" in text
        assert "Headline: conflict-miss absorption" in text
        assert "victim_cache" in text


class TestManifest:
    def test_manifest_validates_and_names_cells(self, runner, result):
        manifest = misspath.manifest(result, runner)
        validate_manifest(manifest)  # should not raise
        by_id = {cell["id"]: cell for cell in manifest["cells"]}
        assert "health/32B/L/victim_cache" in by_id
        cell = by_id["health/32B/L/victim_cache"]
        assert cell["labels"]["mechanism"] == "victim_cache"
        assert set(cell["values"]) >= {
            "absorption", "normalized_cycles", "full_misses"
        }
        summary = manifest["summary"]
        assert "absorption.victim_cache.L" in summary
        assert "normalized_cycles.victim_cache.L" in summary


class TestMechanismMatrix:
    def test_defaults_to_full_zoo(self):
        assert misspath.mechanism_matrix() == MECHANISMS

    def test_specific_request_narrows_to_pair(self):
        assert misspath.mechanism_matrix("stream_buffers") == (
            "none",
            "stream_buffers",
        )
