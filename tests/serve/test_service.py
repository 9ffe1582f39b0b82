"""SimulationService end to end (thread-mode workers, real simulations)."""

import asyncio
import io
import logging
import time

import pytest

from repro.obs import validate_manifest
from repro.obs.logging import AtomicLineHandler, configure_logging, iter_log_lines
from repro.serve import (
    DONE,
    FAILED,
    ServiceClosed,
    SimulationService,
    parse_job,
)
from repro.trace import ArtifactStore, run_task

SCALE = 0.05


def _payload(**overrides):
    payload = {
        "app": "health",
        "variant": "N",
        "line_size": 32,
        "scale": SCALE,
        "seed": 1,
    }
    payload.update(overrides)
    return payload


def _service(tmp_path, **overrides):
    kwargs = dict(
        trace_dir=str(tmp_path / "store"), workers=2, mode="thread"
    )
    kwargs.update(overrides)
    return SimulationService(**kwargs)


async def _submit_and_wait(service, payload, timeout=60.0):
    job, outcome = await service.submit(payload)
    assert await job.wait(timeout), "job did not finish in time"
    return job, outcome


class TestLifecycle:
    def test_submit_runs_to_validated_manifest(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                job, outcome = await _submit_and_wait(service, _payload())
                assert outcome == "queued"
                assert job.state == DONE
                assert job.how == "captured"
                validate_manifest(job.manifest)
                assert job.manifest["summary"]["how"] == "captured"
                assert job.manifest["cells"][0]["id"] == "health/32B/N"
                spans = job.manifest["spans"]
                names = [span["name"] for span in spans]
                # The request trace crosses every tier: admission root,
                # probe, queue wait, worker round-trip, worker-side
                # capture (a cold cell's result comes from the capture
                # run itself; replay spans appear on warm replays).
                for expected in (
                    "serve.request",
                    "serve.probe",
                    "serve.queue.wait",
                    "serve.execute",
                    "worker.execute",
                    "trace.capture",
                ):
                    assert expected in names, names
                root = next(s for s in spans if s["name"] == "serve.request")
                assert "error" not in root
                assert root["trace_id"] == job.trace_id
                assert job.manifest["summary"]["trace_id"] == job.trace_id
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_second_identical_submit_is_a_warm_hit(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                first, _ = await _submit_and_wait(service, _payload())
                second, outcome = await service.submit(_payload())
                # Warm hit: terminal immediately, no queue round-trip.
                assert outcome == "cached"
                assert second.state == DONE and second.how == "cached"
                assert second.manifest["metrics"] == first.manifest["metrics"]
                assert (
                    second.manifest["cells"][0]["checksum"]
                    == first.manifest["cells"][0]["checksum"]
                )
                snapshot = service.obs.snapshot()
                assert snapshot["serve.cache.hit"] == 1
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_warm_store_from_batch_sweep_is_visible(self, tmp_path):
        """A cell the batch path already simulated serves without a worker."""
        async def scenario():
            service = _service(tmp_path)
            # Batch-side write into the same store.
            run_task(parse_job(_payload()), service.store)
            await service.start()
            try:
                job, outcome = await service.submit(_payload())
                assert outcome == "cached"
                assert job.how == "cached"
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_duplicate_concurrent_submits_trigger_one_simulation(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, workers=4)
            await service.start()
            try:
                jobs = [
                    (await service.submit(_payload(seed=99)))[0]
                    for _ in range(6)
                ]
                assert len({id(job) for job in jobs}) == 1
                assert jobs[0].subscribers == 6
                assert await jobs[0].wait(60.0)
                assert jobs[0].how == "captured"
                snapshot = service.obs.snapshot()
                assert snapshot["serve.jobs.submitted"] == 1
                assert snapshot["serve.jobs.coalesced"] == 5
                assert snapshot["serve.jobs.completed"] == 1
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_drain_stops_admission(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            assert await service.drain(timeout=10.0)
            with pytest.raises(ServiceClosed):
                await service.submit(_payload())
            assert service.healthz()["status"] == "draining"

        asyncio.run(scenario())


class TestFailure:
    def test_worker_exception_fails_job_with_span_error(
        self, tmp_path, monkeypatch
    ):
        import repro.trace.batch as batch_mod

        def _explode(*args, **kwargs):
            raise RuntimeError("simulated worker failure")

        # A cold cell's first step in the group executor is its capture.
        monkeypatch.setattr(batch_mod, "capture_trace", _explode)

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                job, _ = await _submit_and_wait(service, _payload())
                assert job.state == FAILED
                assert "simulated worker failure" in job.error
                validate_manifest(job.manifest)
                root = next(
                    span
                    for span in job.manifest["spans"]
                    if span["name"] == "serve.request"
                )
                # The batch executor names the exact failing cell.
                assert "health/32B/N" in root["error"]
                assert root["error"].endswith(
                    "RuntimeError: simulated worker failure"
                )
                assert job.manifest["summary"]["error"] == root["error"]
                snapshot = service.obs.snapshot()
                assert snapshot["serve.jobs.failed"] == 1
                # The failed job released its scheduling state.
                assert service.scheduler.inflight == 0
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_job_timeout_fails_with_timeouts_counter(
        self, tmp_path, monkeypatch
    ):
        import repro.trace.batch as batch_mod

        def _stall(*args, **kwargs):
            time.sleep(0.8)
            raise AssertionError("unreachable in a passing test")

        monkeypatch.setattr(batch_mod, "capture_trace", _stall)

        async def scenario():
            service = _service(tmp_path, job_timeout=0.1)
            await service.start()
            try:
                job, _ = await _submit_and_wait(service, _payload())
                assert job.state == FAILED
                assert "exceeded" in job.error
                root = next(
                    span
                    for span in job.manifest["spans"]
                    if span["name"] == "serve.request"
                )
                assert root["error"].startswith("JobTimeout")
                snapshot = service.obs.snapshot()
                assert snapshot["serve.jobs.timeouts"] == 1
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_broken_pool_is_rebuilt_and_job_retried(self, tmp_path):
        from concurrent.futures import BrokenExecutor, Future

        async def scenario():
            service = _service(tmp_path, workers=1)
            pool = service.pool
            real_submit = pool._submit_batch
            calls = {"n": 0}

            def _flaky_submit(tasks, ctxs=None, tokens=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    future = Future()
                    future.set_exception(BrokenExecutor("worker died"))
                    return future
                return real_submit(tasks, ctxs, tokens)

            pool._submit_batch = _flaky_submit
            await service.start()
            try:
                job, _ = await _submit_and_wait(service, _payload())
                assert job.state == DONE
                assert job.attempts == 2
                assert pool.restarts == 1
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())


class TestObservability:
    def test_metrics_payload_shape(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                await _submit_and_wait(service, _payload())
                await service.submit(_payload())  # warm hit
                payload = service.metrics_payload()
                metrics = payload["metrics"]["serve"]
                assert metrics["jobs"]["submitted"] == 1
                assert metrics["cache"]["hit"] == 1
                assert metrics["cache"]["miss"] == 1
                assert payload["jobs_by_state"]["done"] == 2
                assert "captured" in payload["latency"]
                captured = payload["latency"]["captured"]
                assert set(captured) == {"p50_ms", "p99_ms"}
                assert payload["uptime_seconds"] >= 0
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_worker_log_lines_carry_the_job_trace_id(self, tmp_path):
        # A corrupted trace is discarded (and recaptured) inside the
        # worker; the warning names the job's trace.
        store = ArtifactStore(tmp_path / "store")
        key = parse_job(_payload()).key()
        store.trace_path(key).write_bytes(b"not a trace")
        stream = io.StringIO()
        logger = configure_logging("INFO", stream=stream, force=True)

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                job, _ = await _submit_and_wait(service, _payload())
                assert job.state == DONE
                return job
            finally:
                await service.drain(timeout=10.0)

        try:
            job = asyncio.run(scenario())
        finally:
            for handler in [
                h for h in logger.handlers if isinstance(h, AtomicLineHandler)
            ]:
                logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
        discarded = [
            line
            for line in iter_log_lines(stream.getvalue())
            if line["msg"].startswith("discarding unreadable trace")
        ]
        assert len(discarded) == 1, stream.getvalue()
        assert discarded[0]["trace_id"] == job.trace_id


class TestBatchFold:
    def test_queued_jobs_sharing_a_stream_run_as_one_batch(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, workers=1)
            # Queue three cells on one trace key before any consumer
            # runs, so the first pop folds them into a single batch.
            jobs = [
                (await service.submit(_payload(line_size=size)))[0]
                for size in (32, 64, 128)
            ]
            await service.start()
            try:
                for job in jobs:
                    assert await job.wait(60.0)
                    assert job.state == DONE
                # The leader captured the stream (a direct run); the
                # folded cells replayed it through the specialized kernel.
                assert jobs[0].how == "captured"
                assert jobs[0].manifest["summary"]["engine"] == "direct"
                for job in jobs[1:]:
                    assert job.how == "replayed"
                    assert (
                        job.manifest["summary"]["engine"]
                        == "specialized"
                    )
                    validate_manifest(job.manifest)
                snapshot = service.obs.snapshot()
                assert snapshot["serve.jobs.batch_folded"] == 2
                assert snapshot["serve.jobs.completed"] == 3
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())


    def test_two_spellings_of_one_cell_share_one_job(self, tmp_path):
        """The default heatmap_region written as a float is the same
        cell, so it coalesces; folded into one batch as a second job
        with an equal cell, one of the two never finished."""
        async def scenario():
            service = _service(tmp_path, workers=1)
            plain = _payload(timeline_interval=500)
            first, _ = await service.submit(plain)
            second, outcome = await service.submit(
                {**plain, "heatmap_region": 65536.0}
            )
            assert outcome == "coalesced"
            assert second is first
            await service.start()
            try:
                assert await first.wait(60.0)
                assert first.state == DONE
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())


class TestAdaptiveJobs:
    """Adaptive cells served over the job API stay fully auditable."""

    @staticmethod
    def _adaptive_payload(**overrides):
        payload = {
            "app": "mst_phase",
            "variant": "L",
            "line_size": 128,
            "scale": 0.4,
            "seed": 3,
            "adapt_policy": "hysteresis",
            "adapt_interval": 1024,
            "adapt_miss_rate_threshold": 0.62,
            "adapt_chase_rate_threshold": 0.02,
            "adapt_patience": 2,
            "adapt_cooldown": 4,
        }
        payload.update(overrides)
        return payload

    def test_manifest_carries_policy_and_audit_counters(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                job, _ = await _submit_and_wait(
                    service, self._adaptive_payload()
                )
                assert job.state == DONE
                manifest = job.manifest
                validate_manifest(manifest)
                run = manifest["run"]
                assert run["adapt_policy"] == "hysteresis"
                assert run["adapt_interval"] == 1024
                entry = manifest["cells"][0]
                assert entry["id"] == "mst_phase/128B/L/hysteresis"
                assert entry["labels"]["policy"] == "hysteresis"
                # At this scale hysteresis fires exactly one decision;
                # the cell values expose the engine's audit counters.
                values = entry["values"]
                assert values["adapt_decisions"] >= 1
                assert values["adapt_windows"] > 0
                assert values["adapt_cost_cycles"] > 0
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_warm_replay_preserves_audit_counters(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                cold, _ = await _submit_and_wait(
                    service, self._adaptive_payload()
                )
                warm, outcome = await service.submit(
                    self._adaptive_payload()
                )
                assert outcome == "cached"
                cold_values = cold.manifest["cells"][0]["values"]
                warm_values = warm.manifest["cells"][0]["values"]
                assert warm_values == cold_values
                assert warm_values["adapt_decisions"] >= 1
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())

    def test_plain_job_has_no_adapt_values(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                job, _ = await _submit_and_wait(service, _payload())
                entry = job.manifest["cells"][0]
                assert "policy" not in entry["labels"]
                assert not any(
                    key.startswith("adapt_") for key in entry["values"]
                )
                assert "adapt_policy" not in job.manifest["run"]
            finally:
                await service.drain(timeout=10.0)

        asyncio.run(scenario())
