"""Unit tests for reporting helpers, stats containers, and configs."""

from repro.core.stats import MachineStats, ReferenceLatencyStats
from repro.cpu.timing import SlotBreakdown
from repro.experiments.config import (
    BH_LINE_SIZES,
    DEFAULT_LINE_SIZES,
    config_without_speculation,
    experiment_config,
    line_sizes_for,
)
from repro.experiments.report import (
    format_cell,
    normalize,
    percent,
    render_stacked_bar,
    render_table,
    speedup,
)


class TestReportHelpers:
    def test_format_cell_floats_and_ints(self):
        assert format_cell(1.23456) == "1.23"
        assert format_cell(42) == "42"
        assert format_cell("x") == "x"

    def test_render_table_alignment(self):
        text = render_table(["A", "Long header"], [(1, 2), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Long header" in lines[1]
        # All data rows are equally wide.
        assert len(lines[3]) == len(lines[4])

    def test_render_table_empty_rows(self):
        text = render_table(["A"], [])
        assert "A" in text

    def test_render_stacked_bar_width(self):
        bar = render_stacked_bar([("a", 1.0), ("b", 1.0)], total_width=10)
        assert len(bar) == 10
        assert bar.count("#") == 5

    def test_render_stacked_bar_scale_max(self):
        bar = render_stacked_bar([("a", 1.0)], total_width=10, scale_max=2.0)
        assert len(bar) == 5

    def test_render_stacked_bar_zero(self):
        assert render_stacked_bar([("a", 0.0)]) == ""

    def test_normalize_and_speedup(self):
        assert normalize(50.0, 100.0) == 0.5
        assert normalize(1.0, 0.0) == 0.0
        assert speedup(200.0, 100.0) == 2.0
        assert speedup(1.0, 0.0) == 0.0

    def test_percent(self):
        assert percent(0.512) == "+51.2%"
        assert percent(-0.133) == "-13.3%"


class TestStatsContainers:
    def test_reference_latency_averages(self):
        stats = ReferenceLatencyStats(
            count=10, forwarded=2, ordinary_cycles=50.0, forwarding_cycles=20.0
        )
        assert stats.avg_ordinary == 5.0
        assert stats.avg_forwarding == 2.0
        assert stats.avg_total == 7.0
        assert stats.forwarded_fraction == 0.2

    def test_reference_latency_empty(self):
        stats = ReferenceLatencyStats()
        assert stats.avg_total == 0.0
        assert stats.forwarded_fraction == 0.0

    def test_machine_stats_derived_metrics(self):
        stats = MachineStats(
            cycles=100.0,
            instructions=250,
            slots=SlotBreakdown(250.0, 100.0, 25.0, 25.0),
            l1_load_misses_full=3,
            l1_load_misses_partial=2,
            l1_l2_bytes=64,
            l2_mem_bytes=128,
        )
        assert stats.load_misses == 5
        assert stats.total_bandwidth_bytes == 192
        assert stats.ipc == 2.5

    def test_speedup_over(self):
        fast = MachineStats(cycles=100.0)
        slow = MachineStats(cycles=250.0)
        assert fast.speedup_over(slow) == 2.5


class TestExperimentConfig:
    def test_line_size_sets(self):
        assert line_sizes_for("bh") == BH_LINE_SIZES == (64, 128, 256)
        assert line_sizes_for("health") == DEFAULT_LINE_SIZES == (32, 64, 128)

    def test_experiment_config_sets_line_size(self):
        config = experiment_config(64)
        assert config.hierarchy.line_size == 64
        # L2 line stays fixed at its default.
        assert config.hierarchy.l2_line_size == 128

    def test_configs_are_independent(self):
        a = experiment_config(32)
        b = experiment_config(128)
        assert a.hierarchy.line_size == 32
        assert b.hierarchy.line_size == 128

    def test_speculation_disabled_config(self):
        config = config_without_speculation()
        assert config.speculation_window == 0
        # Everything else matches the canonical config.
        assert config.hierarchy.line_size == experiment_config().hierarchy.line_size
