"""Sweep execution: capture-once-replay-many, caching, and sharding."""

import time
from dataclasses import dataclass

import pytest

from repro.trace import (
    ArtifactStore,
    SweepError,
    SweepTask,
    execute_sweep,
    run_task,
)

SCALE = 0.05


def _tiny_matrix():
    return [
        SweepTask(app, variant, line_size, SCALE, 1)
        for app in ("health", "mst")
        for variant in ("N", "L")
        for line_size in (32, 128)
    ]


def test_run_task_capture_then_cache(tmp_path):
    store = ArtifactStore(tmp_path)
    task = SweepTask("mst", "N", 64, SCALE, 1)
    first, how_first = run_task(task, store)
    assert how_first == "captured"
    second, how_second = run_task(task, store)
    assert how_second == "cached"
    assert second.stats.dump() == first.stats.dump()


def test_run_task_replays_shared_trace(tmp_path):
    """Line-size-insensitive cells share one trace across line sizes."""
    store = ArtifactStore(tmp_path)
    base = SweepTask("mst", "N", 64, SCALE, 1)
    other = SweepTask("mst", "N", 32, SCALE, 1)
    assert base.key() == other.key()
    _, how = run_task(base, store)
    assert how == "captured"
    _, how = run_task(other, store)
    assert how == "replayed"


def test_mechanism_changes_fingerprint_but_not_trace_key():
    from repro.trace.store import config_fingerprint

    base = SweepTask("mst", "N", 64, SCALE, 1)
    mech = SweepTask("mst", "N", 64, SCALE, 1, mechanism="victim_cache")
    # One captured stream serves every mechanism config...
    assert mech.key() == base.key()
    # ...but their cached results never alias.
    assert config_fingerprint(mech.config()) != config_fingerprint(
        base.config()
    )
    resized = SweepTask(
        "mst", "N", 64, SCALE, 1, mechanism="victim_cache", vc_entries=16
    )
    assert config_fingerprint(resized.config()) != config_fingerprint(
        mech.config()
    )


def test_disabled_mechanism_knobs_leave_fingerprint_alone():
    from repro.trace.store import config_fingerprint

    base = SweepTask("mst", "N", 64, SCALE, 1)
    knobbed = SweepTask(
        "mst", "N", 64, SCALE, 1, vc_entries=64, sb_depth=16
    )
    assert config_fingerprint(knobbed.config()) == config_fingerprint(
        base.config()
    )


def test_mechanism_cell_replays_baseline_trace(tmp_path):
    store = ArtifactStore(tmp_path)
    _, how = run_task(SweepTask("mst", "N", 64, SCALE, 1), store)
    assert how == "captured"
    mech = SweepTask("mst", "N", 64, SCALE, 1, mechanism="victim_cache")
    outcome, how = run_task(mech, store)
    assert how == "replayed"
    assert outcome.stats.misspath["probes"] > 0
    _, how = run_task(mech, store)
    assert how == "cached"


def test_in_process_trace_cache_skips_store(tmp_path):
    traces = {}
    task = SweepTask("mst", "N", 64, SCALE, 1)
    _, how = run_task(task, store=None, traces=traces)
    assert how == "captured"
    assert task.key() in traces
    _, how = run_task(
        SweepTask("mst", "N", 32, SCALE, 1), store=None, traces=traces
    )
    assert how == "replayed"


def _adapt_task(scale=0.4, **overrides):
    from repro.adapt.config import AdaptConfig

    knobs = dict(
        policy="hysteresis",
        interval=1024,
        miss_rate_threshold=0.62,
        chase_rate_threshold=0.02,
        patience=2,
        cooldown=4,
        max_actions=4,
        seed=1,
    )
    knobs.update(overrides)
    return SweepTask(
        "mst_phase", "L", 128, scale, 1, adapt=AdaptConfig(**knobs)
    )


def test_adapt_config_is_workload_identity():
    """The engine issues its own references, so adaptive cells never
    share a stream — with plain cells or with other adaptive configs."""
    plain = SweepTask("mst_phase", "L", 128, SCALE, 1)
    adaptive = _adapt_task(scale=SCALE)
    assert adaptive.key() != plain.key()
    other_policy = _adapt_task(scale=SCALE, policy="threshold")
    assert other_policy.key() != adaptive.key()
    other_threshold = _adapt_task(scale=SCALE, miss_rate_threshold=0.5)
    assert other_threshold.key() != adaptive.key()


def test_adapt_cell_never_specializes():
    from repro.trace.kernels import specializable

    assert specializable(SweepTask("mst", "N", 64, SCALE, 1).config())
    assert not specializable(_adapt_task().config())


def test_adapt_cell_capture_replay_bit_exact():
    """A replayed adaptive cell re-executes the same decisions and lands
    on identical stats — window parity holds across the trace boundary."""
    traces = {}
    task = _adapt_task()
    captured, how = run_task(task, store=None, traces=traces)
    assert how == "captured"
    assert captured.extras["adapt"]["counters"]["decisions"] >= 1
    replayed, how = run_task(task, store=None, traces=traces)
    assert how == "replayed"
    assert replayed.checksum == captured.checksum
    assert replayed.stats.dump() == captured.stats.dump()
    assert (
        replayed.extras["adapt"]["decisions"]
        == captured.extras["adapt"]["decisions"]
    )


def test_heatmap_region_changes_fingerprint_not_trace_key():
    from repro.trace.store import config_fingerprint

    base = SweepTask("mst", "N", 64, SCALE, 1, timeline_interval=1000)
    fine = SweepTask(
        "mst", "N", 64, SCALE, 1, timeline_interval=1000, heatmap_region=4096
    )
    assert fine.key() == base.key()
    assert config_fingerprint(fine.config()) != config_fingerprint(
        base.config()
    )
    assert fine.config().heatmap_region_bytes == 4096


def test_execute_sweep_serial(tmp_path):
    store = ArtifactStore(tmp_path)
    tasks = _tiny_matrix()
    results = execute_sweep(tasks, store)
    assert set(results) == set(tasks)
    captures = [how for _, how in results.values() if how == "captured"]
    # 2 apps x 2 variants: one capture per workload identity.
    assert len(captures) == 4
    # Second invocation over the warm store touches no simulator at all.
    warm = execute_sweep(tasks, ArtifactStore(tmp_path))
    assert all(how == "cached" for _, how in warm.values())
    for task in tasks:
        assert warm[task][0].stats.dump() == results[task][0].stats.dump()


def test_execute_sweep_accepts_only_batch_true(tmp_path):
    """Batch groups are the one executor; no keyword selects another."""
    with pytest.raises(ValueError, match="batch must be True"):
        execute_sweep(_tiny_matrix(), ArtifactStore(tmp_path), batch=False)


def test_execute_sweep_parallel_matches_serial(tmp_path):
    tasks = _tiny_matrix()
    serial = execute_sweep(tasks, ArtifactStore(tmp_path / "serial"))
    parallel = execute_sweep(
        tasks, ArtifactStore(tmp_path / "parallel"), jobs=2
    )
    for task in tasks:
        assert (
            parallel[task][0].stats.dump() == serial[task][0].stats.dump()
        )


def test_shard_merged_registry_equals_single_process(tmp_path):
    """Registry-merged shard stats == single-process stats, key for key.

    This is the regression guard for replacing hand-written dict
    summations with ``Snapshot.merge``: aggregate a Figure-5 cell's
    worth of runs executed across 2 worker processes and serially, and
    require the merged metric trees to be identical.
    """
    from repro.trace.sweep import aggregate_metrics

    tasks = [
        SweepTask("health", variant, 32, SCALE, 1) for variant in ("N", "L")
    ]
    serial = execute_sweep(tasks, ArtifactStore(tmp_path / "serial"))
    parallel = execute_sweep(
        tasks, ArtifactStore(tmp_path / "parallel"), jobs=2
    )
    merged_serial = aggregate_metrics(result for result, _ in serial.values())
    merged_parallel = aggregate_metrics(
        result for result, _ in parallel.values()
    )
    assert merged_serial == merged_parallel
    assert merged_serial.flat()  # non-trivial: real work was aggregated
    # Aggregation is a pure sum over counters: spot-check against the
    # per-result stats it folded.
    cycles = sum(result.stats.cycles for result, _ in serial.values())
    assert merged_serial["time.cycles"] == cycles


@dataclass(frozen=True)
class _ExplodingTask(SweepTask):
    """A cell whose simulation always fails (picklable for the pool)."""

    def config(self):
        raise RuntimeError("injected cell failure")


class TestFailurePropagation:
    """A worker raising mid-cell must surface, not hang the pool."""

    def test_serial_failure_names_the_cell(self, tmp_path):
        store = ArtifactStore(tmp_path)
        bad = _ExplodingTask("mst", "N", 64, SCALE, 1)
        with pytest.raises(SweepError) as excinfo:
            execute_sweep([bad], store)
        message = str(excinfo.value)
        assert "mst/64B/N" in message
        assert "injected cell failure" in message
        assert excinfo.value.task == bad
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_parallel_failure_fails_fast(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = _tiny_matrix() + [_ExplodingTask("bh", "N", 64, SCALE, 1)]
        started = time.monotonic()
        with pytest.raises(SweepError) as excinfo:
            execute_sweep(tasks, store, jobs=2)
        assert "bh/64B/N" in str(excinfo.value)
        # Fail-fast: the pool shut down instead of waiting out a hang.
        assert time.monotonic() - started < 60.0

    def test_partial_results_survive_in_store(self, tmp_path):
        """A failed sweep leaves completed cells cached for the retry."""
        store = ArtifactStore(tmp_path)
        good = SweepTask("health", "N", 32, SCALE, 1)
        bad = _ExplodingTask("mst", "N", 64, SCALE, 1)
        with pytest.raises(SweepError):
            execute_sweep([good, bad], store)
        _, how = run_task(good, ArtifactStore(tmp_path))
        assert how == "cached"
