"""Structural tests for the experiment drivers (reduced scale).

These check that every table/figure driver runs, produces the right
matrix of cells, renders, and that the shared runner memoises.  The
paper-shape assertions at full scale live in the benchmark suite.
"""

import time
from collections import Counter
from concurrent.futures import Future

import pytest

from repro.apps import FIGURE5_APPS
from repro.apps.base import Variant
from repro.experiments import (
    ExperimentRunner,
    line_sizes_for,
)
from repro.experiments.runner import specs_for_artifacts
from repro.experiments import ablations, figure5, figure6, figure7, figure10, table1
from repro.obs.tracing import span_tree

SCALE = 0.15


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


@pytest.fixture(scope="module")
def fig5(runner):
    return figure5.run(runner, scale=SCALE)


@pytest.fixture(scope="module")
def fig6(runner):
    return figure6.run(runner, scale=SCALE)


class TestRunner:
    def test_memoisation(self, runner):
        first = runner.run("health", Variant.N, 32)
        second = runner.run("health", Variant.N, 32)
        assert first is second

    def test_checksum_match_helper(self, runner):
        assert runner.checksum_match("health", [Variant.N, Variant.L], 32)

    def test_lazy_warm_cell_is_labelled_specialized(self):
        runner = ExperimentRunner(scale=0.05)
        runner.run("health", Variant.N, 32)
        runner.run("health", Variant.N, 64)
        # The first cell captured the shared stream (a direct run); the
        # second replayed it through the specialized kernel.
        assert runner.engines == {
            "health/32B/N": "direct",
            "health/64B/N": "specialized",
        }
        snapshot = runner.obs.snapshot()
        assert snapshot["runs.engine.direct"] == 1
        assert snapshot["runs.engine.specialized"] == 1

    def test_pooled_prime_records_cells_in_spec_order(self, monkeypatch):
        import repro.trace.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", _InlinePool)
        # The pool hands groups back in the reverse of submission order.
        monkeypatch.setattr(
            sweep_mod, "as_completed", lambda futures: list(futures)[::-1]
        )
        specs = [
            spec
            for spec in specs_for_artifacts(["figure5"], 0.05)
            if spec.app in ("health", "mst", "bh")
        ]
        serial = ExperimentRunner(scale=0.05)
        serial.prime(specs)
        pooled = ExperimentRunner(scale=0.05, jobs=2)
        pooled.prime(specs)
        order = [spec.cell_id for spec in specs]
        assert list(serial.engines) == order
        assert list(pooled.engines) == order
        # Same order of absorption, so the float sums agree to the bit.
        assert pooled.obs.snapshot() == serial.obs.snapshot()
        assert serial.trace_hashes()
        assert pooled.trace_hashes() == serial.trace_hashes()


class TestRunTrace:
    """A run records one span tree: the sweep, then the artifact."""

    def test_root_spans_cover_the_run(self):
        runner = ExperimentRunner(scale=0.05)
        specs = specs_for_artifacts(["figure5"], 0.05)
        started = time.perf_counter()
        runner.prime(specs)
        with runner.span("figure5"):
            result = figure5.run(runner, scale=0.05)
        manifest = figure5.manifest(result, runner)
        wall = time.perf_counter() - started
        roots = span_tree(manifest["spans"])
        assert [root["name"] for root in roots] == ["prime", "figure5"]
        covered = sum(root["wall_seconds"] for root in roots)
        assert covered >= 0.9 * wall, (covered, wall)
        # One per-cell tree under the sweep, wherever the cell ran.
        cells = roots[0]["children"]
        assert [node["name"] for node in cells] == ["worker.execute"] * len(specs)
        assert len(manifest["trace_hashes"]) == len(
            {spec.key() for spec in specs}
        )

    def test_pooled_prime_records_the_same_spans(self, tmp_path):
        specs = [
            spec
            for spec in specs_for_artifacts(["figure5"], 0.05)
            if spec.app in ("health", "mst")
        ]
        manifests = []
        for jobs in (1, 2):
            runner = ExperimentRunner(
                scale=0.05, jobs=jobs, trace_dir=str(tmp_path / f"jobs{jobs}")
            )
            runner.prime(specs)
            manifests.append(runner.manifest("probe"))
        serial, pooled = manifests
        assert pooled["trace_hashes"] == serial["trace_hashes"]
        assert Counter(s["name"] for s in pooled["spans"]) == Counter(
            s["name"] for s in serial["spans"]
        )
        (prime,) = span_tree(pooled["spans"])
        assert prime["name"] == "prime"
        assert len(prime["children"]) == len(specs)
        assert {s["trace_id"] for s in pooled["spans"]} == {
            pooled["spans"][-1]["trace_id"]
        }

    def test_pooled_no_cache_prime_writes_no_store(self, tmp_path):
        specs = [
            spec
            for spec in specs_for_artifacts(["figure5"], 0.05)
            if spec.app in ("health", "mst")
        ]
        trace_dir = tmp_path / "trace-cache"
        manifests = []
        for jobs in (1, 2):
            runner = ExperimentRunner(
                scale=0.05, jobs=jobs, trace_dir=str(trace_dir), use_cache=False
            )
            runner.prime(specs)
            manifests.append(runner.manifest("probe"))
        serial, pooled = manifests
        assert not trace_dir.exists()
        names = Counter(s["name"] for s in pooled["spans"])
        assert not [name for name in names if name.startswith("store.")]
        assert names == Counter(s["name"] for s in serial["spans"])
        assert pooled["metrics"] == serial["metrics"]
        assert pooled["trace_hashes"] == serial["trace_hashes"]


class _InlinePool:
    """A process-pool stand-in that runs each submission at once."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestTable1:
    def test_every_app_present(self, runner):
        result = table1.run(runner, scale=SCALE)
        assert sorted(row.app for row in result.rows) == sorted(
            list(FIGURE5_APPS) + ["smv"]
        )

    def test_optimized_runs_relocate(self, runner):
        result = table1.run(runner, scale=SCALE)
        for row in result.rows:
            assert row.words_relocated > 0, row.app
            assert row.space_overhead_bytes > 0, row.app

    def test_render(self, runner):
        text = table1.run(runner, scale=SCALE).render()
        assert "Table 1" in text
        assert "health" in text


class TestFigure5:
    def test_cell_matrix_complete(self, fig5):
        for app in FIGURE5_APPS:
            for line in line_sizes_for(app):
                for variant in (Variant.N, Variant.L):
                    cell = fig5.cell(app, line, variant)
                    assert cell.cycles > 0
                    assert cell.slots.total > 0

    def test_baseline_normalisation(self, fig5):
        for app in FIGURE5_APPS:
            first_line = line_sizes_for(app)[0]
            assert fig5.cell(app, first_line, Variant.N).normalized_total == 1.0

    def test_speedups_recorded(self, fig5):
        for app in FIGURE5_APPS:
            for line in line_sizes_for(app):
                assert (app, line) in fig5.speedups

    def test_render(self, fig5):
        text = fig5.render()
        assert "Figure 5" in text
        assert "LoadStall" in text

    def test_render_bars(self, fig5):
        text = fig5.render_bars(width=30)
        assert "busy='#'" in text
        # One bar per (app, line, variant) cell.
        assert text.count("|") == len(fig5.cells)

    def test_missing_cell_raises(self, fig5):
        with pytest.raises(KeyError):
            fig5.cell("health", 999, Variant.N)


class TestFigure6:
    def test_miss_cells_complete(self, fig6):
        for app in FIGURE5_APPS:
            for line in line_sizes_for(app):
                for variant in (Variant.N, Variant.L):
                    cell = fig6.miss_cell(app, line, variant)
                    assert cell.total == cell.full + cell.partial

    def test_bandwidth_cells_positive(self, fig6):
        for app in FIGURE5_APPS:
            cell = fig6.bandwidth_cell(app, line_sizes_for(app)[0], Variant.N)
            assert cell.l1_l2_bytes > 0
            assert cell.l2_mem_bytes > 0

    def test_miss_reduction_helper(self, fig6):
        value = fig6.miss_reduction("health", 32)
        assert -3.0 < value < 1.0

    def test_render(self, fig6):
        text = fig6.render()
        assert "Figure 6(a)" in text
        assert "Figure 6(b)" in text


class TestFigure7:
    def test_four_schemes_per_app(self, runner):
        result = figure7.run(runner, scale=SCALE)
        for app in FIGURE5_APPS:
            for variant in figure7.SCHEMES:
                assert result.cell(app, variant).cycles > 0

    def test_prefetch_schemes_prefetch(self, runner):
        result = figure7.run(runner, scale=SCALE)
        for app in FIGURE5_APPS:
            assert result.cell(app, Variant.NP).prefetch_instructions > 0
            assert result.cell(app, Variant.LP).prefetch_instructions > 0
            assert result.cell(app, Variant.N).prefetch_instructions == 0

    def test_render(self, runner):
        assert "Figure 7" in figure7.run(runner, scale=SCALE).render()


class TestFigure10:
    def test_three_schemes(self, runner):
        result = figure10.run(runner, scale=SCALE)
        assert [row.variant for row in result.rows] == [
            Variant.N, Variant.L, Variant.PERF,
        ]

    def test_forwarding_only_in_l(self, runner):
        result = figure10.run(runner, scale=SCALE)
        assert result.row(Variant.L).loads_forwarded_fraction > 0
        assert result.row(Variant.N).loads_forwarded_fraction == 0
        assert result.row(Variant.PERF).loads_forwarded_fraction == 0

    def test_render_panels(self, runner):
        text = figure10.run(runner, scale=SCALE).render()
        for panel in ("10(a)", "10(b)", "10(c)", "10(d)"):
            assert panel in text


class TestAblations:
    def test_hop_limit_sweep(self):
        result = ablations.hop_limit_sweep(scale=0.15, limits=(1, 16))
        assert len(result.rows) == 2

    def test_speculation_ablation(self):
        result = ablations.speculation_ablation(scale=0.15)
        on_rows = [row for row in result.rows if row[1] == "on"]
        off_rows = [row for row in result.rows if row[1] == "off"]
        assert all(row[3] > 0 for row in on_rows)   # loads checked
        assert all(row[3] == 0 for row in off_rows)

    def test_threshold_sweep(self):
        result = ablations.linearize_threshold_sweep(scale=0.15, thresholds=(10, 100))
        assert len(result.rows) == 2
        # A lower threshold must linearize at least as often.
        assert result.rows[0][2] >= result.rows[1][2]

    def test_prefetch_block_sweep(self):
        result = ablations.prefetch_block_sweep(scale=0.15, blocks=(1, 4))
        assert len(result.rows) == 2
        assert all(row[2] > 0 for row in result.rows)
