"""Structural tests for the adaptive-relocation matrix (reduced scale).

One mst_phase slice at a decision-firing scale: the static arms anchor
the normalization, the adaptive arm fires at least one audited
decision, checksums agree across arms, and the manifest validates with
the ``adapt.*`` counter subtree.  The full-scale win numbers live in
the benchmark suite (``benchmarks/test_extensions.py``).
"""

import pytest

from repro.adapt import experiment as adapt_experiment
from repro.adapt.experiment import STATIC_NEVER, STATIC_ONCE
from repro.experiments import ExperimentRunner
from repro.obs import validate_manifest

#: Small enough for CI, large enough that hysteresis fires one decision.
SCALE = 0.4
APPS = ("mst_phase",)
POLICIES = ("hysteresis",)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


@pytest.fixture(scope="module")
def result(runner):
    return adapt_experiment.run(runner, apps=APPS, policies=POLICIES)


class TestMatrix:
    def test_arms_complete(self, result):
        arms = {cell.arm for cell in result.cells}
        assert arms == {STATIC_NEVER, STATIC_ONCE, "hysteresis"}

    def test_static_once_is_the_baseline(self, result):
        assert result.cell("mst_phase", STATIC_ONCE).normalized_cycles == 1.0
        assert result.cell("mst_phase", STATIC_NEVER).normalized_cycles > 1.0

    def test_checksums_equal_across_arms(self, result):
        assert result.checksums_equal

    def test_adaptive_arm_fires_audited_decisions(self, result):
        cell = result.cell("mst_phase", "hysteresis")
        assert cell.adaptive
        assert cell.decisions >= 1
        assert cell.cost_cycles > 0
        payload = cell.payload
        assert len(payload["decisions"]) == cell.decisions
        assert len(payload["ledger"]) == cell.decisions

    def test_static_arms_carry_no_engine(self, result):
        for arm in (STATIC_NEVER, STATIC_ONCE):
            cell = result.cell("mst_phase", arm)
            assert not cell.adaptive
            assert cell.decisions == 0
            assert cell.payload == {}

    def test_missing_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell("mst_phase", "oracle")

    def test_render(self, result):
        text = result.render()
        assert "Adaptive relocation" in text
        assert "checksums equal across arms: True" in text


class TestManifest:
    def test_manifest_validates_with_adapt_counters(self, result, runner):
        manifest = adapt_experiment.manifest(result, runner)
        validate_manifest(manifest)
        adapt_metrics = manifest["metrics"]["adapt"]
        hysteresis = result.cell("mst_phase", "hysteresis")
        assert adapt_metrics["decisions"] == hysteresis.decisions
        assert "windows" in adapt_metrics
        assert "skipped_relocation" in adapt_metrics
        summary = manifest["summary"]
        assert "normalized.mst_phase.hysteresis" in summary
        assert summary["checksums_equal"] == 1.0
        ids = {cell["id"] for cell in manifest["cells"]}
        assert "mst_phase/128B/hysteresis" in ids
        assert "mst_phase/128B/static-once" in ids


class TestSpecs:
    def test_specs_cover_policy_matrix(self):
        specs = adapt_experiment.specs(SCALE, policies=("hysteresis",))
        # Per app: N, L, and one adaptive L spec.
        from repro.apps import PHASE_APPS

        assert len(specs) == 3 * len(PHASE_APPS)
        adaptive = [spec for spec in specs if spec.adapt is not None]
        assert len(adaptive) == len(PHASE_APPS)
        assert all(spec.adapt.policy == "hysteresis" for spec in adaptive)

    def test_runner_artifact_hook(self):
        from repro.experiments.runner import specs_for_artifacts

        specs = specs_for_artifacts(["adapt"], SCALE, adapt_policy="threshold")
        assert any(
            spec.adapt is not None and spec.adapt.policy == "threshold"
            for spec in specs
        )

    def test_policy_matrix_narrows(self):
        from repro.adapt.config import POLICIES as ALL

        assert adapt_experiment.policy_matrix(None) == ALL
        assert adapt_experiment.policy_matrix("threshold") == ("threshold",)
