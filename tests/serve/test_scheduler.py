"""Scheduler policies: coalescing, backpressure, cache-aware pop order."""

import asyncio

import pytest

from repro.serve import JobTable, QueueFull, Scheduler, job_key, parse_job
from repro.trace import ArtifactStore, run_task

SCALE = 0.05


def _spec(app="health", variant="N", line_size=32, seed=1):
    return parse_job(
        {
            "app": app,
            "variant": variant,
            "line_size": line_size,
            "scale": SCALE,
            "seed": seed,
        }
    )


def _submit(scheduler, table, spec):
    return scheduler.submit(lambda: table.create(spec), job_key(spec))


class TestCoalescing:
    def test_identical_specs_share_one_job(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ArtifactStore(tmp_path))
            table = JobTable()
            spec = _spec()
            first, outcome_first = _submit(scheduler, table, spec)
            second, outcome_second = _submit(scheduler, table, spec)
            assert outcome_first == "queued"
            assert outcome_second == "coalesced"
            assert second is first
            assert first.subscribers == 2
            assert scheduler.depth == 1
            assert scheduler.inflight == 1

        asyncio.run(scenario())

    def test_running_job_still_coalesces(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ArtifactStore(tmp_path))
            table = JobTable()
            spec = _spec()
            job, _ = _submit(scheduler, table, spec)
            popped = await scheduler.pop()
            assert popped is job
            attached, outcome = _submit(scheduler, table, spec)
            assert outcome == "coalesced" and attached is job
            # Once released, an identical spec is a fresh job again.
            scheduler.finished(job, captured=True)
            fresh, outcome = _submit(scheduler, table, spec)
            assert outcome == "queued" and fresh is not job

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_bound_raises_queue_full(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(
                ArtifactStore(tmp_path), queue_limit=2, retry_after=3.0
            )
            table = JobTable()
            _submit(scheduler, table, _spec(seed=1))
            _submit(scheduler, table, _spec(seed=2))
            with pytest.raises(QueueFull) as excinfo:
                _submit(scheduler, table, _spec(seed=3))
            assert excinfo.value.retry_after == 3.0
            assert excinfo.value.depth == 2
            # Rejected submissions must not leak into the coalescing index.
            assert scheduler.inflight == 2

        asyncio.run(scenario())

    def test_rejected_factory_never_runs(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ArtifactStore(tmp_path), queue_limit=1)
            table = JobTable()
            _submit(scheduler, table, _spec(seed=1))
            with pytest.raises(QueueFull):
                scheduler.submit(
                    lambda: pytest.fail("factory ran on rejection"),
                    job_key(_spec(seed=2)),
                )

        asyncio.run(scenario())


class TestCacheAwareOrdering:
    def test_warm_cells_pop_before_cold(self, tmp_path):
        store = ArtifactStore(tmp_path)
        warm_spec = _spec(app="health", line_size=32)
        run_task(warm_spec, store)  # make health's trace warm

        async def scenario():
            scheduler = Scheduler(store)
            table = JobTable()
            cold, _ = _submit(scheduler, table, _spec(app="mst"))
            warm, _ = _submit(scheduler, table, warm_spec)
            assert await scheduler.pop() is warm
            assert await scheduler.pop() is cold

        asyncio.run(scenario())

    def test_cold_cells_sharing_a_stream_are_gated(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ArtifactStore(tmp_path))
            table = JobTable()
            # Same workload identity, different line sizes: one trace key.
            first, _ = _submit(scheduler, table, _spec(line_size=32))
            second, _ = _submit(scheduler, table, _spec(line_size=64))
            popped = await scheduler.pop()
            assert popped is first
            # The second cell needs the stream being captured: pop blocks.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(scheduler.pop(), 0.1)
            # Capture lands -> the gated cell is released (and now warm).
            scheduler.finished(first, captured=True)
            assert await asyncio.wait_for(scheduler.pop(), 1.0) is second

        asyncio.run(scenario())

    def test_failed_capture_lifts_the_gate(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ArtifactStore(tmp_path))
            table = JobTable()
            first, _ = _submit(scheduler, table, _spec(line_size=32))
            second, _ = _submit(scheduler, table, _spec(line_size=64))
            await scheduler.pop()
            scheduler.finished(first, captured=False)
            # The retry is allowed through (still cold, gate released).
            assert await asyncio.wait_for(scheduler.pop(), 1.0) is second

        asyncio.run(scenario())


class TestBatchFold:
    def test_pop_batch_folds_jobs_sharing_a_stream(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ArtifactStore(tmp_path))
            table = JobTable()
            # Three cells on one trace key, one on another.
            a32, _ = _submit(scheduler, table, _spec(line_size=32))
            other, _ = _submit(scheduler, table, _spec(app="mst"))
            a64, _ = _submit(scheduler, table, _spec(line_size=64))
            a128, _ = _submit(scheduler, table, _spec(line_size=128))
            batch = await scheduler.pop_batch()
            # Leader plus every queued cell sharing its stream, in order;
            # the folded cells are exactly the ones the capture gate
            # would otherwise have held back.
            assert batch == [a32, a64, a128]
            assert scheduler.depth == 1
            assert (await scheduler.pop_batch()) == [other]

        asyncio.run(scenario())

    def test_pop_batch_warm_leader_still_folds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        warm_spec = _spec(line_size=32)
        run_task(warm_spec, store)

        async def scenario():
            scheduler = Scheduler(store)
            table = JobTable()
            cold, _ = _submit(scheduler, table, _spec(app="mst"))
            warm, _ = _submit(scheduler, table, warm_spec)
            sibling, _ = _submit(scheduler, table, _spec(line_size=64))
            # Warm-first pop order holds; the warm leader's sibling rides
            # along even though it was queued behind the cold job.
            assert (await scheduler.pop_batch()) == [warm, sibling]
            assert (await scheduler.pop_batch()) == [cold]

        asyncio.run(scenario())
