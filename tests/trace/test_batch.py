"""Batch replay engine: grouping, engines, per-cell error contract."""

import pickle

import pytest

from repro.trace import (
    DIRECT,
    GENERAL,
    SPECIALIZED,
    ArtifactStore,
    BatchCellError,
    SweepTask,
    capture_trace,
    drive_sessions,
    group_by_trace,
    replay_trace,
    run_batch_group,
    session_for,
)
from repro.apps import Variant, get_application
from repro.experiments.config import experiment_config

SCALE = 0.05


def _trace(app="health", scale=SCALE, seed=1):
    trace, _ = capture_trace(
        app, Variant.N, experiment_config(32), scale=scale, seed=seed
    )
    return trace


class TestGrouping:
    def test_group_by_trace_partitions_on_trace_key(self):
        tasks = [
            SweepTask("health", "N", 32, SCALE, 1),
            SweepTask("mst", "N", 32, SCALE, 1),
            SweepTask("health", "N", 64, SCALE, 1),
            SweepTask("health", "L", 32, SCALE, 1),
        ]
        groups = group_by_trace(tasks)
        # health/N shares one stream across line sizes; health/L and mst
        # are their own groups.  Insertion order is preserved.
        assert list(groups) == [
            tasks[0].key(),
            tasks[1].key(),
            tasks[3].key(),
        ]
        assert groups[tasks[0].key()] == [tasks[0], tasks[2]]

    def test_mixed_key_group_is_rejected(self, tmp_path):
        tasks = [
            SweepTask("health", "N", 32, SCALE, 1),
            SweepTask("mst", "N", 32, SCALE, 1),
        ]
        with pytest.raises(ValueError, match="trace keys"):
            run_batch_group(tasks, ArtifactStore(tmp_path))


def _replay(trace, config):
    """One config through the session a batch group would build."""
    session, engine = session_for(trace, config)
    drive_sessions(trace, [session])
    return session.finish(), engine


class TestEngines:
    def test_session_for_specializes_plain_configs(self):
        trace = _trace()
        result, engine = _replay(trace, experiment_config(64))
        assert engine == SPECIALIZED
        reference = replay_trace(trace, experiment_config(64))
        assert result.stats.dump() == reference.stats.dump()

    def test_session_for_falls_back_for_uncovered_features(self):
        from dataclasses import replace

        trace = _trace()
        config = replace(experiment_config(64), timeline_interval=500)
        result, engine = _replay(trace, config)
        assert engine == GENERAL
        reference = replay_trace(trace, config)
        assert result.stats.dump() == reference.stats.dump()


class TestRunBatchGroup:
    def test_cold_group_captures_once_then_replays(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [
            SweepTask("health", "N", size, SCALE, 1) for size in (32, 64, 128)
        ]
        outcomes = run_batch_group(tasks, store)
        assert [o.how for o in outcomes] == ["captured", "replayed", "replayed"]
        assert [o.engine for o in outcomes] == [
            DIRECT,
            SPECIALIZED,
            SPECIALIZED,
        ]
        # Each outcome matches a direct run of its cell bit for bit.
        for task, outcome in zip(tasks, outcomes):
            reference = get_application(task.app, task.scale, task.seed).run(
                Variant(task.variant), task.config()
            )
            assert outcome.result.stats.dump() == reference.stats.dump()
            assert outcome.result.checksum == reference.checksum

    def test_cold_group_probes_the_store_once(self, tmp_path, monkeypatch):
        probes = []
        real_load_trace = ArtifactStore.load_trace

        def counting_load_trace(store, key):
            probes.append(key)
            return real_load_trace(store, key)

        monkeypatch.setattr(ArtifactStore, "load_trace", counting_load_trace)
        task = SweepTask("health", "N", 32, SCALE, 1)
        outcomes = run_batch_group([task], ArtifactStore(tmp_path))
        assert [o.how for o in outcomes] == ["captured"]
        assert probes == [task.key()]

    def test_warm_store_serves_cached_cells(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [SweepTask("health", "N", size, SCALE, 1) for size in (32, 64)]
        run_batch_group(tasks, store)
        again = run_batch_group(tasks, store)
        assert [o.how for o in again] == ["cached", "cached"]
        # A cached cell names no engine: nothing simulated it.
        assert all(o.engine is None for o in again)

    def test_events_cells_run_sequentially(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [
            SweepTask("health", "N", 32, SCALE, 1),
            SweepTask("health", "N", 64, SCALE, 1, events_capacity=256),
        ]
        outcomes = run_batch_group(tasks, store)
        # The event stream only exists during direct execution, so the
        # events cell re-captures even though the group's trace is warm.
        assert outcomes[1].engine == DIRECT
        assert outcomes[1].how == "captured"

    def test_storeless_group_replays_from_shared_trace(self):
        tasks = [SweepTask("health", "N", size, SCALE, 1) for size in (32, 64)]
        outcomes = run_batch_group(tasks, store=None)
        assert [o.how for o in outcomes] == ["captured", "replayed"]


class TestExecuteGroup:
    def test_cold_key_captures_under_the_lock_and_returns_its_hash(
        self, tmp_path, monkeypatch
    ):
        import repro.trace.batch as batch_mod

        store = ArtifactStore(tmp_path)
        tasks = [SweepTask("health", "N", size, SCALE, 1) for size in (32, 64)]
        key = tasks[0].key()
        held = []
        real_capture = batch_mod.capture_trace

        def spy(*args, **kwargs):
            held.append(store.lock_path(key).exists())
            return real_capture(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "capture_trace", spy)
        content_hash, rows = batch_mod.execute_group(tasks, store)
        assert held == [True]
        assert not store.lock_path(key).exists()
        assert content_hash == store.load_trace(key).content_hash
        assert [(row[0], row[2]) for row in rows] == [
            (tasks[0], "captured"),
            (tasks[1], "replayed"),
        ]
        # A warm key captures nothing and still names its trace.
        assert batch_mod.execute_group(tasks, store)[0] == content_hash
        assert held == [True]


class _Exploder:
    """Stand-in task whose config() raises (mirrors test_sweep's)."""

    app = "mst"
    variant = "N"
    line_size = 64
    scale = SCALE
    seed = 1
    events_capacity = 0

    def key(self):
        return SweepTask("mst", "N", 64, SCALE, 1).key()

    def config(self):
        raise RuntimeError("boom")


class TestErrorContract:
    def test_failure_names_the_cell_and_chains_the_cause(self, tmp_path):
        with pytest.raises(BatchCellError) as excinfo:
            run_batch_group([_Exploder()], ArtifactStore(tmp_path))
        assert "mst/64B/N" in str(excinfo.value)
        assert "boom" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_collect_errors_keeps_the_rest_of_the_group_running(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = SweepTask("mst", "N", 32, SCALE, 1)
        outcomes = run_batch_group(
            [_Exploder(), good], store, collect_errors=True
        )
        assert outcomes[0].how == "failed"
        assert outcomes[0].result is None
        assert "boom" in outcomes[0].error.message
        assert outcomes[1].how == "captured"
        assert outcomes[1].result is not None

    def test_batch_cell_error_survives_pickling(self):
        task = SweepTask("mst", "N", 64, SCALE, 1)
        error = BatchCellError(task, "cell went sideways")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.task == task
        assert clone.message == "cell went sideways"
        assert str(clone) == "cell went sideways"
