"""Unit tests for the hierarchical metrics registry."""

import pytest

from repro.obs.registry import (
    COUNTER,
    EMPTY,
    GAUGE,
    HISTOGRAM,
    MetricError,
    Registry,
    Snapshot,
    histogram_quantiles,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = Registry()
        counter = registry.counter("runs.captured")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot()["runs.captured"] == 5

    def test_counter_create_or_get(self):
        registry = Registry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_gauge_set_and_track_max(self):
        registry = Registry()
        gauge = registry.gauge("heap.high_water")
        gauge.set(10)
        gauge.track_max(7)
        assert registry.snapshot()["heap.high_water"] == 10
        gauge.track_max(42)
        assert registry.snapshot()["heap.high_water"] == 42

    def test_histogram_observes_sparse_keys(self):
        registry = Registry()
        histogram = registry.histogram("fwd.hop_histogram")
        histogram.observe(1)
        histogram.observe(1)
        histogram.observe(3, count=5)
        assert registry.snapshot()["fwd.hop_histogram"] == {1: 2, 3: 5}
        assert histogram.total == 7

    def test_kind_clash_raises(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")
        with pytest.raises(MetricError):
            registry.histogram("x")


class TestTreeInvariant:
    def test_leaf_cannot_become_interior(self):
        registry = Registry()
        registry.counter("cache.l1")
        with pytest.raises(MetricError):
            registry.counter("cache.l1.hits")

    def test_interior_cannot_become_leaf(self):
        registry = Registry()
        registry.counter("cache.l1.hits")
        with pytest.raises(MetricError):
            registry.counter("cache.l1")

    def test_bad_names_rejected(self):
        registry = Registry()
        for name in ("", ".x", "x.", "a..b"):
            with pytest.raises(MetricError):
                registry.counter(name)

    def test_bound_duplicate_rejected(self):
        registry = Registry()
        registry.bind("time.cycles", lambda: 1)
        with pytest.raises(MetricError):
            registry.bind("time.cycles", lambda: 2)
        with pytest.raises(MetricError):
            registry.counter("time.cycles")


class TestBinding:
    def test_bound_getter_read_at_snapshot_time(self):
        registry = Registry()
        state = {"cycles": 0}
        registry.bind("time.cycles", lambda: state["cycles"])
        state["cycles"] = 99
        assert registry.snapshot()["time.cycles"] == 99
        state["cycles"] = 100
        assert registry.snapshot()["time.cycles"] == 100

    def test_bound_kinds(self):
        registry = Registry()
        registry.bind("g", lambda: 3, kind=GAUGE)
        registry.bind("h", lambda: {2: 1}, kind=HISTOGRAM)
        snap = registry.snapshot()
        assert snap.kind("g") == GAUGE
        assert snap.kind("h") == HISTOGRAM
        assert snap["h"] == {2: 1}

    def test_unknown_kind_rejected(self):
        registry = Registry()
        with pytest.raises(MetricError):
            registry.bind("x", lambda: 0, kind="meter")


class TestSnapshotComposition:
    def test_merge_sums_counters_and_histograms(self):
        a = Snapshot({"c": 2, "h": {1: 1}}, {"c": COUNTER, "h": HISTOGRAM})
        b = Snapshot({"c": 3, "h": {1: 1, 2: 4}}, {"c": COUNTER, "h": HISTOGRAM})
        merged = a.merge(b)
        assert merged["c"] == 5
        assert merged["h"] == {1: 2, 2: 4}

    def test_merge_gauges_take_max(self):
        a = Snapshot({"g": 10}, {"g": GAUGE})
        b = Snapshot({"g": 7}, {"g": GAUGE})
        assert a.merge(b)["g"] == 10
        assert b.merge(a)["g"] == 10

    def test_merge_union_of_keys(self):
        a = Snapshot({"only.a": 1})
        b = Snapshot({"only.b": 2})
        merged = a.merge(b)
        assert dict(merged.flat()) == {"only.a": 1, "only.b": 2}

    def test_merge_kind_mismatch_raises(self):
        a = Snapshot({"x": 1}, {"x": COUNTER})
        b = Snapshot({"x": 1}, {"x": GAUGE})
        with pytest.raises(MetricError):
            a.merge(b)

    def test_diff_subtracts_counters(self):
        older = Snapshot({"c": 2, "h": {1: 1}}, {"c": COUNTER, "h": HISTOGRAM})
        newer = Snapshot({"c": 9, "h": {1: 3, 2: 1}}, {"c": COUNTER, "h": HISTOGRAM})
        delta = newer.diff(older)
        assert delta["c"] == 7
        assert delta["h"] == {1: 2, 2: 1}

    def test_diff_gauge_keeps_current_value(self):
        older = Snapshot({"g": 10}, {"g": GAUGE})
        newer = Snapshot({"g": 4}, {"g": GAUGE})
        assert newer.diff(older)["g"] == 4

    def test_diff_never_loses_keys(self):
        older = Snapshot({"gone": 5})
        newer = Snapshot({"new": 3})
        delta = newer.diff(older)
        assert delta["new"] == 3
        assert delta["gone"] == -5

    def test_nonzero_drops_zeroes(self):
        snap = Snapshot({"a": 0, "b": 2, "h": {}}, {"h": HISTOGRAM})
        assert dict(snap.nonzero().flat()) == {"b": 2}

    def test_tree_nests_and_stringifies_histogram_keys(self):
        snap = Snapshot(
            {"cache.l1.hits": 3, "fwd.hop_histogram": {1: 2}},
            {"fwd.hop_histogram": HISTOGRAM},
        )
        assert snap.tree() == {
            "cache": {"l1": {"hits": 3}},
            "fwd": {"hop_histogram": {"1": 2}},
        }

    def test_tree_of_a_cell_snapshot_matches_splitting_each_name(self):
        from repro.apps import get_application
        from repro.apps.base import Variant
        from repro.experiments.config import experiment_config

        result = get_application("health", scale=0.05, seed=1).run(
            Variant.L, experiment_config(32)
        )
        snap = result.stats.to_snapshot()
        expected: dict = {}
        for name in sorted(snap):
            *interior, leaf = name.split(".")
            node = expected
            for part in interior:
                node = node.setdefault(part, {})
            value = snap[name]
            if snap.kind(name) == HISTOGRAM:
                value = {str(key): count for key, count in sorted(value.items())}
            node[leaf] = value
        assert snap.tree() == expected

    def test_trees_share_their_key_objects(self):
        first = Snapshot({"cache.l1.hits": 3, "slots.busy": 1}).tree()
        second = Snapshot({"cache.l1.hits": 5, "slots.busy": 2}).tree()
        assert first != second
        for a, b in zip(first, second):
            assert a is b
        (l1_a,) = first["cache"]
        (l1_b,) = second["cache"]
        assert l1_a is l1_b
        (hits_a,) = first["cache"]["l1"]
        (hits_b,) = second["cache"]["l1"]
        assert hits_a is hits_b

    def test_empty_is_merge_identity(self):
        snap = Snapshot({"a": 1, "g": 2}, {"g": GAUGE})
        assert EMPTY.merge(snap) == snap
        assert snap.merge(EMPTY) == snap


class TestAbsorb:
    def test_absorb_folds_all_kinds(self):
        registry = Registry()
        snap = Snapshot(
            {"c": 2, "g": 5, "h": {1: 1}},
            {"c": COUNTER, "g": GAUGE, "h": HISTOGRAM},
        )
        registry.absorb(snap)
        registry.absorb(Snapshot({"c": 3, "g": 4}, {"c": COUNTER, "g": GAUGE}))
        out = registry.snapshot()
        assert out["c"] == 5
        assert out["g"] == 5  # gauges track max
        assert out["h"] == {1: 1}


class TestHistogramQuantiles:
    def test_empty_histogram_yields_empty_dict(self):
        assert histogram_quantiles({}) == {}
        assert histogram_quantiles({5: 0}) == {}

    def test_single_value(self):
        assert histogram_quantiles({7: 3}) == {"p50": 7.0, "p99": 7.0}

    def test_nearest_rank_over_spread(self):
        counts = {1: 50, 10: 49, 1000: 1}
        out = histogram_quantiles(counts, (0.5, 0.99, 1.0))
        assert out["p50"] == 1.0
        assert out["p99"] == 10.0
        assert out["p100"] == 1000.0

    def test_string_keys_from_json_round_trip(self):
        assert histogram_quantiles({"2": 1, "4": 1}) == {
            "p50": 2.0,
            "p99": 4.0,
        }

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            histogram_quantiles({1: 1}, (0.0,))
        with pytest.raises(ValueError):
            histogram_quantiles({1: 1}, (1.5,))


class TestQuantileEdgeCases:
    """PR 9 hardening: the shapes the Prometheus renderer feeds in."""

    def test_empty_after_zero_count_filtering(self):
        # Every bucket zero or negative: indistinguishable from empty.
        assert histogram_quantiles({1: 0, 5: 0, 9: -2}) == {}

    def test_single_bucket_all_quantiles_collapse(self):
        out = histogram_quantiles({42: 1000}, (0.5, 0.9, 0.95, 0.99, 1.0))
        assert out == {
            "p50": 42.0, "p90": 42.0, "p95": 42.0, "p99": 42.0, "p100": 42.0
        }

    def test_all_equal_values_split_across_buckets(self):
        # JSON round trips can split one logical value over int and
        # string keys; quantiles must still collapse to that value.
        out = histogram_quantiles({7: 3, "7.0": 5}, (0.5, 0.99))
        assert out == {"p50": 7.0, "p99": 7.0}

    def test_quantile_label_formatting(self):
        out = histogram_quantiles({1: 1, 2: 1}, (0.25, 0.999))
        assert set(out) == {"p25", "p99.9"}


class TestGaugeOnlyDiff:
    """Snapshot.diff over registries whose leaves are all gauges."""

    def test_registry_diff_with_only_gauges(self):
        registry = Registry()
        registry.gauge("pool.depth").set(3)
        registry.gauge("pool.peak").set(9)
        before = registry.snapshot()
        registry.gauge("pool.depth").set(1)
        registry.gauge("pool.peak").set(12)
        delta = registry.snapshot().diff(before)
        # Gauges are levels, not rates: diff keeps the current reading.
        assert delta["pool.depth"] == 1
        assert delta["pool.peak"] == 12

    def test_gauge_only_diff_preserves_kinds(self):
        older = Snapshot({"g1": 5, "g2": 7}, {"g1": GAUGE, "g2": GAUGE})
        newer = Snapshot({"g1": 2, "g2": 7}, {"g1": GAUGE, "g2": GAUGE})
        delta = newer.diff(older)
        assert delta.kind("g1") == GAUGE and delta.kind("g2") == GAUGE
        assert dict(delta.flat()) == {"g1": 2, "g2": 7}

    def test_bound_gauge_leaves_diff_cleanly(self):
        depth = {"value": 4}
        registry = Registry()
        registry.bind("sched.depth", lambda: depth["value"], GAUGE)
        before = registry.snapshot()
        depth["value"] = 6
        delta = registry.snapshot().diff(before)
        assert delta["sched.depth"] == 6
        assert delta.nonzero().flat() == {"sched.depth": 6}
