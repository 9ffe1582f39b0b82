"""Stdlib asyncio HTTP front end of the simulation service.

A deliberately small HTTP/1.1 server (``asyncio.start_server`` plus a
hand-rolled request parser -- the standard library has no async HTTP
server) exposing the JSON API:

======= ====================== ==========================================
POST    ``/jobs``              submit a job spec; ``200`` when served
                               warm from the cache (body carries the
                               manifest), ``202`` when queued or
                               coalesced, ``400`` on a bad spec,
                               ``429 + Retry-After`` under backpressure,
                               ``503`` while draining.
GET     ``/jobs``              list known jobs (no manifests).
GET     ``/jobs/<id>``         job status; terminal jobs include the
                               schema-validated ``/v3`` manifest (spans
                               carry the request's causal trace).
                               Optional ``?wait=SECONDS`` long-polls.
GET     ``/jobs/<id>/stream``  server-sent events: state transitions
                               plus live per-window timeline deltas
                               while the simulation runs; ends with an
                               ``end`` event carrying drop accounting.
GET     ``/metrics``           live registry snapshot + derived p50/p99;
                               ``?format=prometheus`` renders text
                               exposition format instead.
GET     ``/healthz``           liveness and queue headroom.
======= ====================== ==========================================

Connections are keep-alive; bodies are JSON both ways, except the SSE
stream (``text/event-stream``, one connection per consumer, closed at
job completion) and the Prometheus exposition (plain text).  ``SIGTERM``
and ``SIGINT`` trigger a graceful drain: in-flight jobs finish, new
submissions get ``503``, then the loop exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import signal
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.obs.logging import configure_logging
from repro.serve.protocol import ProtocolError
from repro.serve.scheduler import QueueFull
from repro.serve.service import ServiceClosed, SimulationService

_log = logging.getLogger(__name__)

#: Submissions larger than this are rejected outright (413).
MAX_BODY_BYTES = 1 << 20
#: Per-request header/body read budget.
READ_TIMEOUT = 30.0
#: Cap on ``?wait=`` long-polls so clients cannot pin connections.
MAX_WAIT_SECONDS = 30.0
#: SSE keep-alive comment cadence while a job is quiet.
SSE_HEARTBEAT_SECONDS = 15.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Raw:
    """A non-JSON response body (Prometheus text exposition)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


def _response(
    status: int,
    body: "dict[str, Any] | _Raw",
    headers: dict[str, str] | None = None,
) -> bytes:
    if isinstance(body, _Raw):
        payload = body.text.encode("utf-8")
        content_type = body.content_type
    else:
        payload = json.dumps(body).encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload


def _sse_event(payload: dict[str, Any]) -> bytes:
    return f"data: {json.dumps(payload)}\n\n".encode("utf-8")


class HttpServer:
    """The asyncio server wrapping one :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 8321,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        _log.info("serving on http://%s:%d", self.host, self.port)

    async def stop(self, drain_timeout: float | None = 30.0) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain(drain_timeout)

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutting down mid-connection: just close the socket.
            pass
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            pass
        except Exception:  # pragma: no cover - defensive
            _log.exception("connection handler failed")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await asyncio.wait_for(
            reader.readline(), READ_TIMEOUT
        )
        if not request_line:
            return False
        try:
            method, target, version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            writer.write(_response(400, {"error": "malformed request line"}))
            await writer.drain()
            return False

        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                size = -1
            if size < 0 or size > MAX_BODY_BYTES:
                writer.write(
                    _response(413, {"error": "unreadable or oversized body"})
                )
                await writer.drain()
                return False
            if size:
                body = await asyncio.wait_for(
                    reader.readexactly(size), READ_TIMEOUT
                )
        elif headers.get("transfer-encoding"):
            writer.write(
                _response(400, {"error": "chunked bodies are not supported"})
            )
            await writer.drain()
            return False

        # The SSE stream owns the connection: it writes its own head and
        # events until the job completes, then closes.
        stream_path = urlsplit(target).path.rstrip("/")
        if method == "GET" and stream_path.startswith("/jobs/") and (
            stream_path.endswith("/stream")
        ):
            job_id = stream_path[len("/jobs/"):-len("/stream")]
            await self._stream_job(job_id, writer)
            return False

        try:
            status, payload, extra = await self._dispatch(method, target, body)
        except _HttpError as exc:
            status, payload, extra = exc.status, {"error": str(exc)}, exc.headers
        except Exception:  # pragma: no cover - defensive
            _log.exception("request %s %s failed", method, target)
            status, payload, extra = 500, {"error": "internal error"}, {}

        wants_close = (
            headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0"
        )
        response_headers = dict(extra)
        response_headers["Connection"] = "close" if wants_close else "keep-alive"
        writer.write(_response(status, payload, response_headers))
        await writer.drain()
        return not wants_close

    # -- routing --------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)

        if path == "/healthz":
            self._require(method, "GET")
            return 200, self.service.healthz(), {}
        if path == "/metrics":
            self._require(method, "GET")
            fmt = query.get("format", ["json"])[0]
            if fmt == "prometheus":
                return (
                    200,
                    _Raw(
                        self.service.prometheus_payload(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    ),
                    {},
                )
            if fmt != "json":
                raise _HttpError(400, f"unknown metrics format {fmt!r}")
            return 200, self.service.metrics_payload(), {}
        if path == "/jobs":
            if method == "POST":
                return await self._submit(body)
            self._require(method, "GET")
            return (
                200,
                {"jobs": [job.describe() for job in self.service.table.jobs()]},
                {},
            )
        if path.startswith("/jobs/"):
            self._require(method, "GET")
            return await self._job_status(path[len("/jobs/"):], query)
        raise _HttpError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    async def _submit(
        self, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        try:
            payload = json.loads(body or b"null")
        except ValueError as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        try:
            job, outcome = await self.service.submit(payload)
        except ProtocolError as exc:
            raise _HttpError(400, str(exc)) from exc
        except QueueFull as exc:
            raise _HttpError(
                429, str(exc), {"Retry-After": f"{exc.retry_after:g}"}
            ) from exc
        except ServiceClosed as exc:
            raise _HttpError(503, str(exc), {"Retry-After": "5"}) from exc
        described = job.describe()
        described["outcome"] = outcome
        if job.finished:
            described["manifest"] = job.manifest
            return 200, described, {}
        return 202, described, {}

    async def _job_status(
        self, job_id: str, query: dict[str, list[str]]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        job = self.service.table.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if "wait" in query:
            try:
                wait = float(query["wait"][0])
            except (ValueError, IndexError):
                raise _HttpError(400, "wait must be a number") from None
            await job.wait(min(max(wait, 0.0), MAX_WAIT_SECONDS))
        described = job.describe()
        if job.finished:
            described["manifest"] = job.manifest
        return 200, described, {}

    async def _stream_job(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Serve ``GET /jobs/<id>/stream`` as server-sent events.

        The subscriber gets an initial ``state`` event, then everything
        the job publishes (state transitions, live timeline windows)
        until its terminal sentinel, then one ``end`` event carrying the
        job's drop count.  Quiet stretches are bridged with comment
        heartbeats so proxies don't reap the connection.
        """
        job = self.service.table.get(job_id)
        if job is None:
            writer.write(
                _response(
                    404,
                    {"error": f"unknown job {job_id!r}"},
                    {"Connection": "close"},
                )
            )
            await writer.drain()
            return
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
        )
        events = job.subscribe()
        try:
            initial: dict[str, Any] = {
                "event": "state",
                "state": job.state,
                "job": job.id,
            }
            if job.trace_id is not None:
                initial["trace_id"] = job.trace_id
            writer.write(_sse_event(initial))
            await writer.drain()
            while not job.finished or not events.empty():
                try:
                    event = await asyncio.wait_for(
                        events.get(), SSE_HEARTBEAT_SECONDS
                    )
                except asyncio.TimeoutError:
                    writer.write(b": heartbeat\n\n")
                    await writer.drain()
                    continue
                if event is None:
                    break
                writer.write(_sse_event(event))
                await writer.drain()
            writer.write(
                _sse_event({"event": "end", "dropped": job.stream_dropped})
            )
            await writer.drain()
        finally:
            job.unsubscribe(events)


# ----------------------------------------------------------------------
async def _serve(args: argparse.Namespace) -> int:
    service = SimulationService(
        trace_dir=args.trace_dir,
        workers=max(args.workers, 1),
        mode="thread" if args.workers == 0 else "process",
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
    )
    server = HttpServer(service, host=args.host, port=args.port)
    await server.start()
    print(f"repro serve: listening on http://{args.host}:{server.port}")

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    print("repro serve: draining ...")
    await server.stop(args.drain_timeout)
    print("repro serve: drained, bye")
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Long-lived simulation service over the trace/replay "
        "engine (submit cells over HTTP, results are /v3 run manifests).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes (0 = in-process threads; default 2)",
    )
    parser.add_argument(
        "--trace-dir", default="results/trace-cache", metavar="DIR",
        help="shared artifact store root (default results/trace-cache)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="bounded queue depth before 429s (default 64)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-job wall-clock budget (default 300)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="retries after a worker crash (default 1)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="graceful-drain budget on SIGTERM (default 30)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress logging"
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="structured-log level (DEBUG/INFO/...; also via "
             "REPRO_LOG_LEVEL; default INFO unless --quiet)",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.job_timeout <= 0:
        parser.error("--job-timeout must be > 0")
    if not args.quiet:
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            parser.error(str(exc))
    return asyncio.run(_serve(args))
