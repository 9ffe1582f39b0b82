"""A finished job keeps only what its manifest JSON does not hold."""

import asyncio
import json
from dataclasses import asdict

import pytest

from repro.obs.tracing import Tracer
from repro.serve import JobTable, parse_job

MANIFEST = {"schema": "test", "summary": {"how": "captured"}, "spans": []}


def _traced_job():
    table = JobTable()
    job = table.create(
        parse_job(
            {"app": "health", "variant": "N", "line_size": 32, "scale": 0.05}
        )
    )
    tracer = Tracer()
    job.tracer = tracer
    job.trace_id = tracer.trace_id
    job.root_span = tracer.begin("serve.request")
    return job


def _finish(job, outcome):
    if outcome == "done":
        job.complete("captured", MANIFEST)
    else:
        job.fail("boom", MANIFEST)


@pytest.mark.parametrize("outcome", ["done", "failed"])
def test_finished_job_drops_tracer_span_and_event(outcome):
    async def scenario():
        job = _traced_job()
        trace_id = job.trace_id
        _finish(job, outcome)
        assert job.tracer is None
        assert job.root_span is None
        assert job._done is None
        assert job.state == outcome
        assert job.manifest == MANIFEST
        assert json.loads(job.manifest_json) == MANIFEST
        expected = {
            "id": job.id,
            "state": outcome,
            "spec": asdict(job.task),
            "cell": job.task.cell_id,
            "subscribers": 1,
            "attempts": 0,
            "latency_seconds": round(job.latency_seconds, 6),
            "trace_id": trace_id,
        }
        expected.update(
            {"how": "captured"} if outcome == "done" else {"error": "boom"}
        )
        assert job.describe() == expected
        # A finished job answers a late waiter at once.
        assert await job.wait(0)

    asyncio.run(scenario())


def test_job_takes_no_attributes_beyond_its_fields():
    job = _traced_job()
    with pytest.raises(AttributeError):
        job.unknown = 1


@pytest.mark.parametrize("outcome", ["done", "failed"])
def test_waiter_blocked_before_completion_wakes(outcome):
    async def scenario():
        job = _traced_job()
        waiter = asyncio.create_task(job.wait(30.0))
        await asyncio.sleep(0)
        assert not waiter.done()
        _finish(job, outcome)
        assert await asyncio.wait_for(waiter, 5.0) is True

    asyncio.run(scenario())


def test_subscriber_still_sees_the_end_of_the_stream():
    async def scenario():
        job = _traced_job()
        queue = job.subscribe()
        _finish(job, "done")
        assert queue.get_nowait() == {
            "event": "state",
            "state": "done",
            "how": "captured",
        }
        assert queue.get_nowait() is None

    asyncio.run(scenario())
