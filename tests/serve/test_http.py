"""The HTTP front end: routing, status codes, backpressure, long-poll,
server-sent-event streaming, and Prometheus exposition."""

import asyncio
import json
import threading
import time

from repro.obs import validate_manifest
from repro.obs.prom import parse_prometheus
from repro.serve import HttpServer, SimulationService

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


async def _request(port, method, path, body=None, raw=None):
    """One-shot HTTP exchange against localhost; returns (status, json)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if raw is not None:
            writer.write(raw)
        else:
            payload = b"" if body is None else json.dumps(body).encode()
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: x\r\nContent-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + payload
            )
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        decoded = json.loads(await reader.readexactly(length)) if length else {}
        return status, decoded, headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _run(scenario, tmp_path, **service_overrides):
    """Boot a real server on an ephemeral port, run scenario(port), stop."""

    async def wrapper():
        kwargs = dict(
            trace_dir=str(tmp_path / "store"), workers=2, mode="thread"
        )
        kwargs.update(service_overrides)
        service = SimulationService(**kwargs)
        server = HttpServer(service, port=0)
        await server.start()
        try:
            await scenario(server.port, service)
        finally:
            await server.stop(drain_timeout=10.0)

    asyncio.run(wrapper())


class TestEndpoints:
    def test_healthz(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["mode"] == "thread"

        _run(scenario, tmp_path)

    def test_submit_poll_manifest_round_trip(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(port, "POST", "/jobs", _payload())
            assert status == 202
            assert body["state"] in ("queued", "running")
            job_id = body["id"]
            while body["state"] not in ("done", "failed"):
                status, body, _ = await _request(
                    port, "GET", f"/jobs/{job_id}?wait=10"
                )
                assert status == 200
            assert body["state"] == "done"
            assert body["how"] == "captured"
            validate_manifest(body["manifest"])
            # Identical resubmission: served warm, manifest inline, 200.
            status, body, _ = await _request(port, "POST", "/jobs", _payload())
            assert status == 200
            assert body["outcome"] == "cached"
            assert body["manifest"]["summary"]["how"] == "cached"
            # The listing knows both jobs (no manifests in listings).
            status, listing, _ = await _request(port, "GET", "/jobs")
            assert status == 200
            assert len(listing["jobs"]) == 2
            assert all("manifest" not in job for job in listing["jobs"])
            # Metrics reflect the traffic.
            status, metrics, _ = await _request(port, "GET", "/metrics")
            assert status == 200
            assert metrics["metrics"]["serve"]["cache"]["hit"] == 1

        _run(scenario, tmp_path)

    def test_bad_spec_is_400(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(
                port, "POST", "/jobs", _payload(app="doom")
            )
            assert status == 400
            assert "unknown app" in body["error"]
            status, body, _ = await _request(
                port, "POST", "/jobs", raw=(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 9\r\nConnection: close\r\n\r\n{not json"
                ),
            )
            assert status == 400
            assert "not valid JSON" in body["error"]

        _run(scenario, tmp_path)

    def test_unknown_routes_and_methods(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(port, "GET", "/nope")
            assert status == 404
            status, body, _ = await _request(port, "DELETE", "/metrics")
            assert status == 405
            status, body, _ = await _request(port, "GET", "/jobs/job-999")
            assert status == 404
            assert "unknown job" in body["error"]
            status, body, _ = await _request(
                port, "GET", "/jobs/job-1?wait=abc"
            )
            # Unknown job wins over the bad wait here; submit one first.
            assert status in (400, 404)

        _run(scenario, tmp_path)

    def test_malformed_request_line_is_400(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(
                port, "GET", "/", raw=b"garbage\r\n\r\n"
            )
            assert status == 400

        _run(scenario, tmp_path)

    def test_oversized_body_is_413(self, tmp_path):
        async def scenario(port, service):
            raw = (
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 9999999999\r\nConnection: close\r\n\r\n"
            )
            status, body, _ = await _request(port, "POST", "/jobs", raw=raw)
            assert status == 413

        _run(scenario, tmp_path)


class TestBackpressure:
    def test_full_queue_gets_429_with_retry_after(self, tmp_path, monkeypatch):
        import repro.serve.workers as workers_mod

        release = threading.Event()
        real_run_batch_group = workers_mod.run_batch_group

        # The service runs batch mode by default, so its worker executes
        # cells through run_batch_group; blocking there holds the first
        # job until the third POST has been answered.
        def _blocked(*args, **kwargs):
            release.wait(30.0)
            return real_run_batch_group(*args, **kwargs)

        monkeypatch.setattr(workers_mod, "run_batch_group", _blocked)

        async def scenario(port, service):
            try:
                # One worker, queue bound 1: first runs, second queues,
                # third sheds.
                seen = []
                for seed in (101, 102, 103):
                    status, body, headers = await _request(
                        port, "POST", "/jobs", _payload(seed=seed)
                    )
                    seen.append((status, headers.get("retry-after")))
                assert seen[0][0] == 202
                assert seen[1][0] == 202
                assert seen[2][0] == 429
                assert float(seen[2][1]) > 0
                snapshot = service.obs.snapshot()
                assert snapshot["serve.jobs.rejected"] == 1
            finally:
                release.set()

        _run(
            scenario,
            tmp_path,
            workers=1,
            queue_limit=1,
            retry_after=2.5,
        )

    def test_draining_service_returns_503(self, tmp_path):
        async def scenario(port, service):
            await service.drain(timeout=5.0)
            status, body, headers = await _request(
                port, "POST", "/jobs", _payload()
            )
            assert status == 503
            assert headers.get("retry-after") == "5"
            status, body, _ = await _request(port, "GET", "/healthz")
            assert body["status"] == "draining"

        _run(scenario, tmp_path)


async def _read_sse(port, path, limit=200):
    """Consume an SSE stream until its ``end`` event; returns the events."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    events = []
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status = int((await reader.readline()).split(b" ", 2)[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        if status != 200:
            return status, events
        while len(events) < limit:
            line = await asyncio.wait_for(reader.readline(), 30.0)
            if not line:
                break
            if not line.startswith(b"data: "):
                continue  # comment heartbeats, blank separators
            event = json.loads(line[len(b"data: "):])
            events.append(event)
            if event.get("event") == "end":
                break
        return status, events
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestStreaming:
    def test_timeline_job_streams_windows_live(self, tmp_path, monkeypatch):
        # Pace the cell so windows drain to subscribers while it is
        # still running: the acceptance bar is >= 2 window events
        # observed strictly before the job's terminal state event.  The
        # service runs batch mode by default, so its worker executes
        # cells through run_batch_group; its window hook is paced.
        import repro.serve.workers as workers_mod

        real_run_batch_group = workers_mod.run_batch_group

        def _paced(*args, on_window=None, **kwargs):
            paced = None
            if on_window is not None:
                def paced(task, window, _push=on_window):
                    _push(task, window)
                    time.sleep(0.02)
            return real_run_batch_group(*args, on_window=paced, **kwargs)

        monkeypatch.setattr(workers_mod, "run_batch_group", _paced)

        async def scenario(port, service):
            status, body, _ = await _request(
                port, "POST", "/jobs", _payload(timeline_interval=100)
            )
            assert status == 202
            job_id = body["id"]
            status, events = await _read_sse(port, f"/jobs/{job_id}/stream")
            assert status == 200
            assert events[0]["event"] == "state"
            done_at = next(
                i for i, e in enumerate(events)
                if e["event"] == "state" and e.get("state") == "done"
            )
            windows_before_done = sum(
                1 for e in events[:done_at] if e["event"] == "window"
            )
            assert windows_before_done >= 2
            assert events[-1]["event"] == "end"
            assert isinstance(events[-1]["dropped"], int)
            # Window payloads carry the timeline series.
            window = next(e for e in events if e["event"] == "window")
            assert {"refs", "cycles", "miss_rate"} <= set(window)

        _run(scenario, tmp_path)

    def test_stream_after_completion_still_terminates(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(
                port, "POST", "/jobs", _payload(timeline_interval=100)
            )
            job_id = body["id"]
            status, body, _ = await _request(
                port, "GET", f"/jobs/{job_id}?wait=30"
            )
            assert body["state"] == "done"
            # A late subscriber gets state + end, never hangs.
            status, events = await _read_sse(port, f"/jobs/{job_id}/stream")
            assert status == 200
            assert events[0] == {
                "event": "state", "state": "done", "job": job_id,
                "trace_id": events[0]["trace_id"],
            }
            assert events[-1]["event"] == "end"

        _run(scenario, tmp_path)

    def test_stream_unknown_job_is_404(self, tmp_path):
        async def scenario(port, service):
            status, events = await _read_sse(port, "/jobs/job-999/stream")
            assert status == 404
            assert events == []

        _run(scenario, tmp_path)


class TestPrometheus:
    def test_metrics_prometheus_round_trip(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(port, "POST", "/jobs", _payload())
            job_id = body["id"]
            status, body, _ = await _request(
                port, "GET", f"/jobs/{job_id}?wait=30"
            )
            assert body["state"] == "done"
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"GET /metrics?format=prometheus HTTP/1.1\r\n"
                    b"Host: x\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                status = int((await reader.readline()).split(b" ", 2)[1])
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                text = (
                    await reader.readexactly(int(headers["content-length"]))
                ).decode()
            finally:
                writer.close()
                await writer.wait_closed()
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            parsed = parse_prometheus(text)
            names = {name for name, _, _ in parsed["samples"]}
            assert "repro_serve_jobs_completed" in names
            completed = [
                value for name, _, value in parsed["samples"]
                if name == "repro_serve_jobs_completed"
            ]
            assert completed == [1.0]

        _run(scenario, tmp_path)

    def test_metrics_unknown_format_is_400(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(
                port, "GET", "/metrics?format=xml"
            )
            assert status == 400
            assert "format" in body["error"]

        _run(scenario, tmp_path)


class TestLongPoll:
    def test_wait_returns_early_on_completion(self, tmp_path):
        async def scenario(port, service):
            status, body, _ = await _request(port, "POST", "/jobs", _payload())
            job_id = body["id"]
            # A generous wait returns as soon as the job lands, not after
            # the full wait window.
            loop = asyncio.get_running_loop()
            started = loop.time()
            status, body, _ = await _request(
                port, "GET", f"/jobs/{job_id}?wait=25"
            )
            elapsed = loop.time() - started
            assert status == 200
            assert body["state"] == "done"
            assert elapsed < 20.0

        _run(scenario, tmp_path)
