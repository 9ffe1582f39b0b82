"""The repository's benchmark: the Figure-5 matrix, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5_warm --seed 1 --seconds 10 --trace 0

Workloads (definitions, scales and reasons live in ``spec.json``):

* ``fig5_direct``   -- all 42 Figure-5 cells through ``Application.run``;
* ``fig5_warm``     -- the same cells through ``execute_sweep`` on a store
  whose traces and sidecars set-up prepared; results cleared per pass;
  three set-ups per run, each followed by its third of the passes;
* ``misspath_cold`` -- the cells with ``mechanism="combined"`` from an
  empty store every pass (capture, general replay, store writes);
* ``serve_closed``  -- an in-process ``HttpServer`` (one worker process)
  driven by two keep-alive clients in a closed loop: three rounds, each a
  fresh server and store, one cold pass over the matrix, then warm
  repeats (>= 1000 requests over the rounds).

Every timed pass runs in a fresh interpreter (``work.py``), so it pays
what a fresh command-line invocation pays.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics, with ``trace.overhead_frac`` comparing
the two.  The last line of standard output is the result object; the
line before it carries the run's metadata.  The exit code is 1 when the
output check fails and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
#: Passes per run, whatever ``--seconds`` says (min-of-N needs several).
MIN_PASSES = 3
MAX_PASSES = 200
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Serve rounds per run (fresh server, fresh store) and the warm
#: requests they make together: the pooled p99 then has >= 10 samples
#: beyond it.
SERVE_ROUNDS = 3
MIN_WARM_REQUESTS = 1000
#: Hard ceiling on one work process.
WORK_TIMEOUT_S = 150


class WorkError(RuntimeError):
    """A work process failed: the program could not run the workload."""


class Bench:
    """One benchmark run: its checkout, scratch space and work processes."""

    def __init__(self, args: argparse.Namespace, spec: dict) -> None:
        self.args = args
        self.spec = spec
        self.workload = spec["workloads"][args.workload]
        self.root = Path.cwd()
        self.src = self.root / "src"
        self.scratch = self.root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.cells = common.make_cells(
            args.seed, self.workload["scale"], self.workload.get("mechanism", "none")
        )
        self.ids = [common.cell_id(cell) for cell in self.cells]

    # -- work processes -------------------------------------------------
    def spawn(self, job: dict) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.scratch)
        job = {**job, "src": str(self.src), "cells": self.cells}
        spawned_at = common.now()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "work.py"), json.dumps(job)],
                cwd=self.root,
                env=env,
                capture_output=True,
                text=True,
                timeout=WORK_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkError(f"{job['command']} timed out after {exc.timeout}s") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
            raise WorkError(f"{job['command']} exited {proc.returncode}:\n{tail}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if "ready_at" in out:
            out["setup_s"] = out.get("done_at", out["ready_at"]) - spawned_at
        return out

    # -- output check ---------------------------------------------------
    def pinned(self) -> str | None:
        pins = self.spec.get("pins", {}).get(str(self.args.seed), {})
        return pins.get(self.args.workload)

    def reference(self) -> dict[str, str] | None:
        """Per-cell oracle digests for a seed without a pinned digest."""
        if self.pinned() is not None or self.workload["mode"] == "direct":
            return None
        return self.spawn({"command": "reference"})["digests"]

    def check_method(self) -> str:
        if self.pinned() is not None:
            return "pinned workload digest"
        if self.workload["mode"] == "direct":
            return "repeat passes agree and N/L checksums agree (no pinned digest)"
        return "cross-checked against direct runs made in set-up (no pinned digest)"

    def failed_cells(self, digests: dict[str, str], oracle: dict[str, str] | None,
                     checksums: dict[str, int] | None = None) -> set[str]:
        """Cells whose simulated outcome is missing or wrong."""
        failed = {cid for cid in self.ids if cid not in digests}
        pin = self.pinned()
        if pin is not None:
            if common.workload_digest(digests) != pin:
                return set(self.ids)
        elif oracle is not None:
            failed |= {cid for cid, d in digests.items() if oracle.get(cid) != d}
        if checksums is not None:
            # Relocation must preserve program semantics: N and L agree.
            for cid in self.ids:
                if cid.endswith("/L"):
                    twin = cid[:-1] + "N"
                    if checksums.get(cid) != checksums.get(twin):
                        failed |= {cid, twin}
        return failed

    # -- workloads ------------------------------------------------------
    def run(self) -> tuple[dict, dict, int, int]:
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            if self.workload["mode"] == "serve":
                return self.run_serve()
            return self.run_sweep()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another run
                self.scratch.parent.rmdir()

    def run_sweep(self) -> tuple[dict, dict, int, int]:
        mode = self.workload["mode"]
        oracle = self.reference()
        setup: list[float] = []
        passes: list[dict] = []
        minimum = MIN_PASSES + (1 if self.args.trace else 0)
        # The warm workload sets up several fresh stores, each followed
        # by its share of the passes, so set-ups and passes sample the
        # whole run alike.  ``--seconds`` is the time spent in passes;
        # the set-ups come on top of it.
        shares = SETUP_REPEATS if mode == "warm" else 1
        in_passes = 0.0
        for share in range(1, shares + 1):
            store = None
            if mode == "warm":
                store = self.scratch / f"store{share}"
                setup.append(self.spawn({"command": "prepare", "store": str(store)})["setup_s"])
            share_started = common.now()
            share_budget = self.args.seconds * share / shares - in_passes
            share_minimum = -(-minimum * share // shares)
            while len(passes) < MAX_PASSES and (
                len(passes) < share_minimum or common.now() - share_started < share_budget
            ):
                pass_store = store
                if mode == "cold":
                    pass_store = self.scratch / f"cold{len(passes)}"
                out = self.spawn({
                    "command": "pass",
                    "mode": mode,
                    "store": str(pass_store) if pass_store else None,
                    "trace": bool(self.args.trace) and len(passes) % 2 == 1,
                })
                if mode == "cold":
                    shutil.rmtree(pass_store, ignore_errors=True)
                passes.append(out)
            in_passes += common.now() - share_started
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
        if mode != "warm":
            setup = [out["setup_s"] for out in passes]

        failed = 0
        first = passes[0]["digests"]
        for out in passes:
            # Without a pin or oracle, every pass must reproduce the first.
            check = oracle if oracle is not None else (first if self.pinned() is None else None)
            failed += len(self.failed_cells(out["digests"], check, out["checksums"]))
        attempted = len(self.ids) * len(passes)

        untraced = [out for out in passes if "layers" not in out]
        traced = [out for out in passes if "layers" in out]

        # A sweep answers one request, the whole matrix, so its latency
        # is the pass wall and every percentile of a run reads that one
        # value.  Every pass is a fresh interpreter (a cold invocation);
        # passes after the first also find the host's file caches warm.
        cold_ms = fastest_pass_ms(untraced)
        warm_ms = fastest_pass_ms(untraced[1:])
        end_to_end = {
            "setup_s": common.median(setup),
            "refs_per_s": untraced[0]["refs"] / (cold_ms / 1000.0),
            "peak_rss_mib": common.median([out["rss_mib"] for out in untraced]),
            "ok_frac": 1.0 - failed / attempted,
            "warm_p50_ms": warm_ms,
            "warm_p99_ms": warm_ms,
            "cold_p50_ms": cold_ms,
            "cold_p75_ms": cold_ms,
        }
        samples = {
            "setup_s": len(setup),
            "passes": len(untraced),
            "traced_passes": len(traced),
            "pass_wall_s": [round(out["wall_s"], 4) for out in passes],
        }
        layers = {}
        if traced:
            layers = {
                name: sum(out["layers"][name] for out in traced) / len(traced)
                for name in traced[0]["layers"]
            }
            layers["trace.overhead_frac"] = (
                fastest_pass_ms(traced) / cold_ms - 1.0
            )
        layers.update(passes[0]["sim"])
        digest = common.workload_digest(first)
        return {"e2e": end_to_end, "layers": layers, "digest": digest}, samples, attempted, failed

    def run_serve(self) -> tuple[dict, dict, int, int]:
        """Rounds of a fresh server on a fresh store: boot, cold, warm."""
        oracle = self.reference()
        rounds = SERVE_ROUNDS + (SERVE_ROUNDS if self.args.trace else 0)
        outs = []
        for index in range(rounds):
            outs.append(self.spawn({
                "command": "serve",
                "store": str(self.scratch / f"serve{index}"),
                "seconds": self.args.seconds / rounds,
                "warm_requests": -(-MIN_WARM_REQUESTS // SERVE_ROUNDS),
                "trace": bool(self.args.trace) and index % 2 == 1,
            }))
        attempted = sum(out["attempted"] for out in outs)
        failed = sum(
            out["failed"] + out["warm_mismatch"] + len(self.failed_cells(out["digests"], oracle))
            for out in outs
        )
        failed = min(failed, attempted)
        untraced = [out for out in outs if not out["traced"]]
        traced = [out for out in outs if out["traced"]]

        warm_ms = [ms for out in untraced for ms in out["warm_ms"]]
        # Each cell's cold request counts with its best latency over the
        # rounds (min-of-N, as the sweeps take per-segment minima).
        cold_ms = [
            min(ms for ms in per_cell if ms is not None)
            for per_cell in zip(*(out["cold_ms"] for out in untraced))
            if any(ms is not None for ms in per_cell)
        ]

        end_to_end = {
            "setup_s": common.median([out["setup_s"] for out in outs]),
            "refs_per_s": max(out["refs"] / out["cold_wall_s"] for out in untraced),
            "peak_rss_mib": common.median([out["rss_mib"] for out in untraced]),
            "ok_frac": 1.0 - failed / attempted,
            # Each round's own median; the run reports the best round.
            "warm_p50_ms": min(common.percentile(out["warm_ms"], 0.50) for out in untraced),
            # A round has too few warm samples for its own p99.
            "warm_p99_ms": common.percentile(warm_ms, 0.99),
            "cold_p50_ms": common.percentile(cold_ms, 0.50),
            "cold_p75_ms": common.percentile(cold_ms, 0.75),
        }
        samples = {
            "setup_s": len(outs),
            "rounds": len(untraced),
            "traced_rounds": len(traced),
            "warm_ms": len(warm_ms),
            "warm_ms_per_round": [len(out["warm_ms"]) for out in untraced],
            "cold_ms_per_round": [
                sum(ms is not None for ms in out["cold_ms"]) for out in untraced
            ],
            "cold_ms": len(cold_ms),
        }
        layers = {}
        if traced:
            layers = {
                name: sum(out["layers"][name] for out in traced) / len(traced)
                for name in traced[0]["layers"]
            }
            layers["trace.overhead_frac"] = (
                common.median([ms for out in traced for ms in out["warm_ms"]])
                / common.median(warm_ms)
                - 1.0
            )
        layers.update(untraced[0]["sim"])
        errors = [error for out in outs for error in out["errors"]]
        if errors:
            print(f"perfbench: request errors: {errors}", file=sys.stderr)
        digest = common.workload_digest(untraced[0]["digests"])
        measured = {"e2e": end_to_end, "layers": layers, "digest": digest}
        return measured, samples, attempted, failed


def fastest_pass_ms(outs: list[dict]) -> float:
    """Wall of the run's best pass, assembled segment by segment.

    A segment is a unit of results that arrive together (a cell run
    directly, or a trace-sharing batch group).  Each takes its shortest
    duration over the passes: host interference only ever adds time,
    and it comes in bursts that land on some segments of some passes, so
    per-segment minima are what stays put from run to run (min-of-N).
    """
    segments = outs[0]["segments"]
    if any(out["segments"] != segments for out in outs):
        raise WorkError("passes completed their cells in different orders")
    return sum(
        min(out["segment_ms"][k] for out in outs) for k in range(len(segments))
    ) + min(out["tail_ms"] for out in outs)


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = common.load_spec()
    with open(Path.cwd() / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    bench = Bench(args, spec)
    if not (bench.src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {bench.src}", file=sys.stderr)
        return 2
    try:
        measured, samples, attempted, failed = bench.run()
    except WorkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values = measured["layers" if args.trace else "e2e"]
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    meta = {
        "workload": args.workload,
        "why": next(w["why"] for w in benchmark["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "app_seeds": common.app_seeds(args.seed),
        "scale": bench.workload["scale"],
        "mechanism": bench.workload.get("mechanism", "none"),
        "output_check": bench.check_method(),
        "digest": measured["digest"],
        "commit": git_commit(bench.root),
        "src_digest": source_digest(bench.src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
