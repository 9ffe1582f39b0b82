"""Work process of the benchmark: one fresh interpreter per unit of work.

``run.py`` starts this script once per timed pass (and per set-up or
reference step), so every pass pays exactly what a fresh command-line
invocation pays -- imports, kernel compilation, trace loads -- and no
in-process cache carries over between passes.  The only state that
outlives a process is an artifact store on disk, and only where the
workload says so.

Usage (``run.py`` does this; shown for debugging)::

    PYTHONPATH=src python3 perfbench/work.py '<job json>'

The job's ``command`` is one of ``pass``, ``prepare``, ``reference`` or
``serve``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import asyncio
import json
import logging
import shutil
import sys
import time
from pathlib import Path

import common

# Imports of the program under test: the set-up a CLI invocation pays.
import repro
from repro.apps import FIGURE5_APPS, Variant, get_application
from repro.experiments.config import APP_SEEDS, line_sizes_for
from repro.serve.http import HttpServer
from repro.serve.service import SimulationService
from repro.trace.store import ArtifactStore
from repro.trace import sweep
from repro.trace.sweep import SweepTask, execute_sweep

from layers import LayerTracer

#: Keep-alive connections of the closed-loop serve load (= host cores).
CLIENTS = 2
#: Manifest spans serve_closed attributes: the service's own, and the
#: worker-side ones (with the per-layer metric each is summed into).
MANIFEST_SPANS = ("serve.request", "serve.probe", "serve.queue.wait", "serve.execute")
WORKER_SPANS = {
    "trace.capture": "recorder.capture_s",
    "trace.load": "store.trace_read_s",
    "store.trace_write": "store.trace_write_s",
    "store.result_write": "store.result_write_s",
}
MANIFEST_SPANS += tuple(WORKER_SPANS)


def check_program(src: str) -> None:
    """Refuse to measure anything but the checkout's own sources."""
    if not Path(repro.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    matrix = {app: line_sizes_for(app) for app in FIGURE5_APPS}
    if matrix != common.FIGURE5_LINE_SIZES:
        raise SystemExit(f"Figure-5 matrix changed: {matrix}")
    if {app: APP_SEEDS[app] for app in matrix} != common.CANONICAL_APP_SEEDS:
        raise SystemExit("APP_SEEDS changed; update CANONICAL_APP_SEEDS and the pins")


def task_of(cell: dict) -> SweepTask:
    return SweepTask(
        cell["app"],
        cell["variant"],
        cell["line_size"],
        cell["scale"],
        cell["seed"],
        mechanism=cell["mechanism"],
    )


def dir_bytes(root: Path) -> int:
    if not root.exists():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def clear_results(store_root: Path) -> None:
    """Drop cached per-cell results; traces and sidecars stay."""
    results = ArtifactStore(store_root).results_dir
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)


class _Completions(logging.Handler):
    """Stamps each sweep cell's ``cell complete`` progress event."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.at: dict[str, float] = {}

    def emit(self, record: logging.LogRecord) -> None:
        fields = getattr(record, "fields", None)
        if fields and "line_size" in fields:
            cid = f"{fields['app']}/{fields['line_size']}B/{fields['variant']}"
            self.at[cid] = time.perf_counter()


def _listen_completions() -> _Completions:
    handler = _Completions()
    logger = logging.getLogger("repro.trace.sweep")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    logger.addHandler(handler)
    return handler


def _outcomes(cells: list[dict], results: list) -> dict:
    return {
        "digests": {
            common.cell_id(cell): common.cell_digest(
                result.checksum, result.stats.to_snapshot().tree()
            )
            for cell, result in zip(cells, results)
        },
        "checksums": {
            common.cell_id(cell): result.checksum
            for cell, result in zip(cells, results)
        },
    }


# ----------------------------------------------------------------------
# Sweep passes
# ----------------------------------------------------------------------
def run_pass(job: dict) -> dict:
    """One timed pass over the cells: ``direct`` runs or a batch sweep."""
    cells = job["cells"]
    tasks = [task_of(cell) for cell in cells]
    store_root = Path(job["store"]) if job.get("store") else None
    if job["mode"] == "warm":
        clear_results(store_root)
    completions = _listen_completions()
    tracer = LayerTracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    bytes_before = dir_bytes(store_root) if store_root else 0
    ready_at = common.now()
    root = tracer.root() if tracer is not None else None
    started = time.perf_counter()
    if job["mode"] == "direct":
        results = []
        for cell, task in zip(cells, tasks):
            app = get_application(task.app, task.scale, task.seed)
            results.append(app.run(Variant(task.variant), task.config()))
            completions.at[common.cell_id(cell)] = time.perf_counter()
    else:
        swept = execute_sweep(
            tasks, ArtifactStore(store_root), jobs=1, batch=True, verbose=True
        )
        results = [swept[task][0] for task in tasks]
    # Through the module, so a traced pass sees the wrapped call.
    aggregate = sweep.aggregate_metrics(results)
    wall = time.perf_counter() - started
    traced_wall = tracer.close(root) if root is not None else None
    flat = common.flatten(aggregate.tree())
    sim = common.sim_counts(flat)
    # Segments: the units whose results arrive together -- one cell when
    # run directly, one trace-sharing group in a batch sweep.
    ends_ms = [
        (completions.at[common.cell_id(cell)] - started) * 1000.0 for cell in cells
    ]
    if job["mode"] == "direct":
        segments = [[index] for index in range(len(cells))]
    else:
        keyed: dict[str, list[int]] = {}
        for index, task in enumerate(tasks):
            keyed.setdefault(task.key(), []).append(index)
        segments = list(keyed.values())
    segments.sort(key=lambda members: max(ends_ms[i] for i in members))
    segment_ends = [max(ends_ms[i] for i in members) for members in segments]
    out = {
        "ready_at": ready_at,
        "wall_s": wall,
        "refs": sim["sim.refs"],
        "sim": sim,
        "rss_mib": common.peak_rss_mib(),
        "segments": segments,
        "segment_ms": [
            end - (segment_ends[k - 1] if k else 0.0)
            for k, end in enumerate(segment_ends)
        ],
        "tail_ms": wall * 1000.0 - segment_ends[-1],
        **_outcomes(cells, results),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.report(traced_wall)
        layers["store.bytes_written"] = (
            dir_bytes(store_root) - bytes_before if store_root else 0
        )
        out["layers"] = layers
    return out


def prepare(job: dict) -> dict:
    """Warm-store set-up: capture every trace, then a sidecar-writing pass."""
    ready_at = common.now()
    tasks = [task_of(cell) for cell in job["cells"]]
    store = ArtifactStore(job["store"])
    execute_sweep(tasks, store, jobs=1, batch=True)
    clear_results(store.root)
    execute_sweep(tasks, store, jobs=1, batch=True)
    return {"ready_at": ready_at, "done_at": common.now()}


def reference(job: dict) -> dict:
    """Direct runs of every cell: the oracle replayed cells must match."""
    cells = job["cells"]
    results = [
        get_application(task.app, task.scale, task.seed).run(
            Variant(task.variant), task.config()
        )
        for task in map(task_of, cells)
    ]
    return _outcomes(cells, results)


# ----------------------------------------------------------------------
# Closed-loop serve
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body=None) -> tuple[int, dict]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        payload = b"" if body is None else json.dumps(body).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None


async def _request_cell(client: Client, spec: dict) -> dict:
    """Submit one cell and ride it to completion (closed loop)."""
    started = time.perf_counter()
    try:
        while True:
            # A refusal (counted by the server as serve.jobs.rejected) is
            # retried, so its wait lands in this request's latency.
            status, body = await client.request("POST", "/jobs", spec)
            if status != 429:
                break
            await asyncio.sleep(0.05)
        while status in (200, 202) and body.get("state") not in ("done", "failed"):
            status, body = await client.request("GET", f"/jobs/{body['id']}?wait=30")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"ok": False, "error": repr(exc)}
    ms = (time.perf_counter() - started) * 1000.0
    if status not in (200, 202) or body.get("state") != "done":
        return {"ok": False, "error": f"{status} {body.get('error')}"}
    manifest = body["manifest"]
    spans: dict[str, float] = {}
    for span in manifest["spans"]:
        if span["name"] in MANIFEST_SPANS:
            spans[span["name"]] = spans.get(span["name"], 0.0) + span["wall_seconds"]
    return {
        "ok": True,
        "ms": ms,
        "digest": common.cell_digest(
            manifest["cells"][0]["checksum"], manifest["metrics"]
        ),
        "flat": common.flatten(manifest["metrics"]),
        "spans": spans,
    }


async def _drive(clients: list[Client], specs: list[dict]) -> list[dict]:
    """Every spec once, each client taking the next when it is free."""
    todo = list(enumerate(specs))
    done: list[dict] = [{}] * len(specs)

    async def loop(client: Client) -> None:
        while todo:
            index, spec = todo.pop(0)
            done[index] = await _request_cell(client, spec)

    await asyncio.gather(*(loop(client) for client in clients))
    return done


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


async def _serve(job: dict) -> dict:
    cells = job["cells"]
    tracer = LayerTracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    service = SimulationService(
        trace_dir=job["store"],
        workers=1,
        mode="process",
        queue_limit=max(64, 2 * len(cells)),
    )
    server = HttpServer(service, port=0)
    await server.start()
    ready_at = common.now()
    specs = [
        {key: cell[key] for key in ("app", "variant", "line_size", "scale", "seed")}
        for cell in cells
    ]
    clients = [Client(server.host, server.port) for _ in range(CLIENTS)]
    try:
        started = time.perf_counter()
        cold = await _drive(clients, specs)
        cold_wall = time.perf_counter() - started
        warm: list[dict] = []
        while (
            len(warm) < job["warm_requests"]
            or time.perf_counter() - started < job["seconds"]
        ):
            warm.extend(await _drive(clients, specs))
        wall = time.perf_counter() - started
        # The serving process itself; simulation memory in the worker
        # is what the sweep workloads measure, and its peak depends on
        # how the scheduler happened to fold cold jobs into batches.
        rss_mib = common.peak_rss_mib()
        _, metrics = await clients[0].request("GET", "/metrics")
    finally:
        for client in clients:
            await client.close()
        await server.stop(drain_timeout=30.0)
    if tracer is not None:
        tracer.uninstall()
    cold_digests = {
        common.cell_id(cell): record["digest"]
        for cell, record in zip(cells, cold)
        if record["ok"]
    }
    warm_ok = [record for record in warm if record["ok"]]
    warm_mismatch = sum(
        1
        for index, record in enumerate(warm)
        if record["ok"]
        and record["digest"] != cold_digests.get(common.cell_id(cells[index % len(cells)]))
    )
    summed: dict[str, float] = {}
    for record in cold:
        for name, value in record.get("flat", {}).items():
            summed[name] = summed.get(name, 0) + value
    sim = common.sim_counts(summed)
    served = common.flatten(metrics.get("metrics", {}))
    hits = served.get("serve.cache.hit", 0)
    misses = served.get("serve.cache.miss", 0)
    ok_records = [record for record in cold + warm if record["ok"]]
    request_s = sum(record["spans"].get("serve.request", 0.0) for record in ok_records)
    named_s = sum(
        record["spans"].get(name, 0.0)
        for record in ok_records
        for name in ("serve.probe", "serve.queue.wait", "serve.execute")
    )
    layers = {}
    if tracer is not None:
        layers = tracer.report(wall)
    layers.update(
        {
            "serve.probe_ms": _mean([r["spans"].get("serve.probe", 0.0) * 1000 for r in warm_ok]),
            "serve.http_ms": _mean(
                [r["ms"] - r["spans"].get("serve.request", 0.0) * 1000 for r in warm_ok]
            ),
            "serve.queue_wait_ms": _mean(
                [r["spans"].get("serve.queue.wait", 0.0) * 1000 for r in cold if r["ok"]]
            ),
            "serve.execute_ms": _mean(
                [r["spans"].get("serve.execute", 0.0) * 1000 for r in cold if r["ok"]]
            ),
            **{
                layer: sum(r["spans"].get(name, 0.0) for r in cold if r["ok"])
                for name, layer in WORKER_SPANS.items()
            },
            "serve.probe_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.rejected": served.get("serve.jobs.rejected", 0),
            # Request time no named child span covers; the wall is the
            # sum of client-observed latencies (two clients overlap, so
            # the process wall is not the right denominator here).
            "trace.wall_s": sum(record["ms"] for record in ok_records) / 1000.0,
            "trace.unattributed_s": request_s - named_s,
        }
    )
    return {
        "ready_at": ready_at,
        "traced": tracer is not None,
        "cold_wall_s": cold_wall,
        "wall_s": wall,
        "cold_ms": [record["ms"] if record["ok"] else None for record in cold],
        "warm_ms": [record["ms"] for record in warm_ok],
        "attempted": len(cold) + len(warm),
        "errors": [record["error"] for record in cold + warm if not record["ok"]][:5],
        "failed": sum(1 for record in cold + warm if not record["ok"]),
        "warm_mismatch": warm_mismatch,
        "digests": cold_digests,
        "refs": sim["sim.refs"],
        "sim": sim,
        "rss_mib": rss_mib,
        "layers": layers,
    }


def serve(job: dict) -> dict:
    return asyncio.run(_serve(job))


COMMANDS = {"pass": run_pass, "prepare": prepare, "reference": reference, "serve": serve}


def main() -> None:
    job = json.loads(sys.argv[1])
    check_program(job["src"])
    print(json.dumps(COMMANDS[job["command"]](job)))


if __name__ == "__main__":
    main()
