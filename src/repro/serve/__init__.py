"""repro.serve — the async simulation service (DESIGN.md §5e).

The serving tier over the trace/replay engine: a stdlib asyncio HTTP
JSON API (``python -m repro serve``) that accepts simulation cells,
dedupes them against the content-hashed artifact store, coalesces
identical in-flight requests, schedules cache-aware (warm replays before
cold captures), executes on a crash-tolerant process pool, and answers
with the same schema-validated ``repro.obs.manifest/v3`` documents the
batch CLI emits -- since PR 9 their span lists carry the request's full
causal trace (HTTP admission through worker-side replay), jobs stream
live telemetry over ``GET /jobs/<id>/stream``, and the registry renders
Prometheus text exposition at ``GET /metrics?format=prometheus``.
Service latency is measured by the ``serve_closed`` workload of
``perfbench/``.
"""

from repro.serve.http import HttpServer, serve_main
from repro.serve.jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobTable
from repro.serve.protocol import ProtocolError, job_key, parse_job
from repro.serve.scheduler import QueueFull, Scheduler
from repro.serve.service import ServiceClosed, SimulationService
from repro.serve.workers import JobTimeout, WorkerPool

__all__ = [
    "DONE",
    "FAILED",
    "HttpServer",
    "Job",
    "JobTable",
    "JobTimeout",
    "ProtocolError",
    "QUEUED",
    "QueueFull",
    "RUNNING",
    "Scheduler",
    "ServiceClosed",
    "SimulationService",
    "WorkerPool",
    "job_key",
    "parse_job",
    "serve_main",
]
