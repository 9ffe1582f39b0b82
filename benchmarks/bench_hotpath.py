#!/usr/bin/env python
"""Hot-path benchmark harness for the simulator kernel.

Times the end-to-end Figure 5 sweep (42 cells, direct mode -- no trace
cache) plus per-layer microbenchmarks of the structures the fused fast
path touches, and writes the results to ``BENCH_PR2.json`` next to this
file (override with ``--out``; the current pinned artifact is
``BENCH_PR4.json``).

The pinned baseline below was measured at the pre-PR-2 commit on the
machine that produced the committed ``BENCH_PR2.json``; ``speedup``
fields compare against it and are only meaningful at ``--scale 1.0`` on
comparable hardware.  Wall-clock numbers drift across machines, so
overhead claims (e.g. the timeline layer's <=2% disabled budget) should
always be A/B'd on one machine in one sitting -- gate with
``--baseline`` against a fresh pre-change run, and record the
measurement context in the artifact with ``--note``.

``--timeline-interval N`` runs the sweep with windowed sampling enabled
(see ``repro.obs.timeline``), which measures the *enabled* sampling
cost end to end; the default 0 keeps the reference hot path unwrapped.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--scale S]
        [--out FILE] [--skip-sweep] [--skip-micro]
        [--timeline-interval N] [--note KEY=VALUE ...]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.apps import FIGURE5_APPS, Variant, get_application
from repro.cache.cache import Cache
from repro.core.machine import Machine, MachineConfig
from repro.cpu.timing import TimingModel
from repro.experiments.config import APP_SEEDS, experiment_config, line_sizes_for
from repro.obs import Registry
from repro.trace.recorder import capture_trace
from repro.trace.replay import replay_trace

#: Pre-PR measurement of the same 42-cell sweep at scale 1.0 (direct
#: mode, single process) on the machine that produced the committed
#: BENCH_PR2.json.  Re-pin when re-baselining on different hardware.
BASELINE = {
    "commit": "1222d6e",
    "scale": 1.0,
    "cells": 42,
    "seconds": 48.167,
    "refs": 9047230,
    "refs_per_sec": 187832,
    "cells_per_sec": 0.872,
}


# ----------------------------------------------------------------------
# End-to-end: the Figure 5 sweep, direct mode
# ----------------------------------------------------------------------
def bench_sweep(
    scale: float,
    verbose: bool = True,
    timeline_interval: int = 0,
    aggregate_out: dict | None = None,
) -> dict:
    """Run all 42 Figure 5 cells directly and time them.

    The sweep is instrumented the same way the experiment runner is:
    every cell's stats snapshot is absorbed into a :class:`Registry`, so
    the timed loop includes the snapshot/merge cost and the ``<=2%``
    overhead budget of the instrumentation layer is measured end to end
    rather than asserted.  ``timeline_interval`` > 0 additionally
    enables windowed sampling on every cell, timing the sampler's
    enabled cost the same way.
    """
    from dataclasses import replace

    registry = Registry()
    cells = 0
    started = time.perf_counter()
    for app_name in FIGURE5_APPS:
        for line_size in line_sizes_for(app_name):
            config = experiment_config(line_size)
            if timeline_interval:
                config = replace(config, timeline_interval=timeline_interval)
            for variant in (Variant.N, Variant.L):
                app = get_application(
                    app_name, scale=scale, seed=APP_SEEDS[app_name]
                )
                result = app.run(variant, config)
                registry.counter("runs.captured").inc()
                registry.absorb(result.stats.to_snapshot())
                cells += 1
                if verbose:
                    print(
                        f"  {app_name:10s} {line_size:4d}B {variant.value}  "
                        f"({time.perf_counter() - started:7.1f}s elapsed)",
                        file=sys.stderr,
                    )
    seconds = time.perf_counter() - started
    aggregate = registry.snapshot()
    refs = int(aggregate["ref.load.count"] + aggregate["ref.store.count"])
    out = {
        "scale": scale,
        "timeline_interval": timeline_interval,
        "cells": cells,
        "seconds": round(seconds, 3),
        "refs": refs,
        "refs_per_sec": int(refs / seconds),
        "cells_per_sec": round(cells / seconds, 3),
        "metrics": {
            "time.cycles": aggregate["time.cycles"],
            "core.instructions": int(aggregate["core.instructions"]),
            "cache.l2.miss.total": int(aggregate["cache.l2.miss.total"]),
        },
    }
    if scale == BASELINE["scale"]:
        out["speedup_vs_baseline"] = round(BASELINE["seconds"] / seconds, 2)
    if aggregate_out is not None:
        aggregate_out.update(
            (key, value)
            for key, value in aggregate.flat().items()
            if not key.startswith("runs.")
        )
    return out


def _figure5_tasks(scale: float) -> list:
    from repro.trace.sweep import SweepTask

    return [
        SweepTask(app_name, variant.value, line_size, scale, APP_SEEDS[app_name])
        for app_name in FIGURE5_APPS
        for line_size in line_sizes_for(app_name)
        for variant in (Variant.N, Variant.L)
    ]


def _clear_results(store) -> None:
    """Drop cached per-cell results, keeping traces."""
    import shutil

    shutil.rmtree(store.results_dir, ignore_errors=True)
    store.results_dir.mkdir(parents=True, exist_ok=True)


def _timed_sweep(
    tasks: list,
    store,
    jobs: int,
    batch: bool,
    verbose: bool,
    aggregate_out: dict | None = None,
) -> dict:
    """Time one ``execute_sweep`` pass; returns a measurement record.

    The aggregate metric tree is absorbed in *task order* (not result
    arrival order) so float summation happens in the same order in every
    arm -- a prerequisite for the bit-identical comparison.
    """
    from repro.trace.sweep import execute_sweep

    engines: dict = {}
    started = time.perf_counter()
    results = execute_sweep(
        tasks, store, jobs=jobs, verbose=verbose, batch=batch, engines=engines
    )
    seconds = time.perf_counter() - started
    registry = Registry()
    for task in tasks:
        result, _how = results[task]
        registry.absorb(result.stats.to_snapshot())
    aggregate = registry.snapshot()
    refs = int(aggregate["ref.load.count"] + aggregate["ref.store.count"])
    engine_counts: dict[str, int] = {}
    for label in engines.values():
        engine_counts[label] = engine_counts.get(label, 0) + 1
    if aggregate_out is not None:
        aggregate_out.update(aggregate.flat())
    return {
        "jobs": jobs,
        "seconds": round(seconds, 3),
        "refs": refs,
        "refs_per_sec": int(refs / seconds),
        "cells_per_sec": round(len(results) / seconds, 3),
        "engines": engine_counts,
    }


def bench_batch_sweep(
    scale: float,
    jobs: int = 1,
    verbose: bool = True,
    aggregates_out: dict | None = None,
    repeats: int = 1,
    direct: "callable | None" = None,
) -> dict:
    """Run the 42 cells through the replay pipelines, three ways.

    One throwaway store, three timed arms:

    * ``cold`` -- empty store: group by trace key, capture each group's
      stream once, replay the rest.  Dominated by the captures (a direct
      run of each group representative), so it bounds the first-ever
      sweep cost.
    * ``warm`` -- traces on disk, result cache cleared: the steady
      state the batch engine exists for, e.g. re-running the sweep after
      a config or simulator change.  This is the headline number.
    * ``sequential_replay`` -- the same warm store through the legacy
      per-cell path (``batch=False``): load trace, decode, general-path
      replay, one cell at a time.  The like-for-like "one-at-a-time"
      alternative to the warm batch arm.

    ``repeats`` > 1 re-runs the warm arm that many times -- interleaved
    with the ``direct`` callable (the direct sweep) when given, so both
    sides of the headline ratio sample the same machine-load drift --
    and reports the minimum wall clock (the repeat least contaminated by
    interference), with every repeat's seconds kept alongside.

    All arms and repeats simulate the same 42 cells; the caller compares
    their aggregate metric trees (and the direct sweep's) bit for bit.
    """
    import shutil
    import tempfile

    from repro.trace.store import ArtifactStore

    tasks = _figure5_tasks(scale)
    tmp = tempfile.mkdtemp(prefix="bench-batch-")
    aggregates: dict[str, dict] = {"cold": {}, "warm": {}, "sequential": {}}
    warm_runs = []
    try:
        store = ArtifactStore(tmp)
        if verbose:
            print("  -- cold (captures + batch replays)", file=sys.stderr)
        cold = _timed_sweep(
            tasks, store, jobs, True, verbose, aggregates["cold"]
        )
        _clear_results(store)
        if verbose:
            print("  -- warm (batch replays only)", file=sys.stderr)
        warm_runs.append(
            _timed_sweep(tasks, store, jobs, True, verbose, aggregates["warm"])
        )
        _clear_results(store)
        if verbose:
            print("  -- warm (sequential general-path replays)", file=sys.stderr)
        sequential = _timed_sweep(
            tasks, store, 1, False, verbose, aggregates["sequential"]
        )
        for repeat in range(2, repeats + 1):
            if direct is not None:
                direct(repeat)
            _clear_results(store)
            if verbose:
                print(f"  -- warm repeat {repeat}/{repeats}", file=sys.stderr)
            warm_runs.append(
                _timed_sweep(
                    tasks, store, jobs, True, verbose,
                    aggregates.setdefault(f"warm#{repeat}", {}),
                )
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if aggregates_out is not None:
        aggregates_out.update(aggregates)
    warm = dict(min(warm_runs, key=lambda run: run["seconds"]))
    if len(warm_runs) > 1:
        warm["repeat_seconds"] = [run["seconds"] for run in warm_runs]
    refs = warm["refs"]
    return {
        "scale": scale,
        "jobs": jobs,
        "cells": len(tasks),
        "refs": refs,
        "cold": cold,
        "warm": warm,
        "sequential_replay": sequential,
    }


# ----------------------------------------------------------------------
# Per-layer microbenchmarks
# ----------------------------------------------------------------------
def bench_cache(iterations: int = 2_000_000) -> dict:
    """Raw Cache.lookup throughput: hits over a resident working set."""
    cache = Cache(size=4 * 1024, line_size=32, associativity=2)
    lines = [index * 32 for index in range(64)]
    for address in lines:
        cache.fill(address)
    lookup = cache.lookup
    nlines = len(lines)
    started = time.perf_counter()
    for index in range(iterations):
        lookup(lines[index % nlines], False)
    seconds = time.perf_counter() - started
    return {"iterations": iterations, "lookups_per_sec": int(iterations / seconds)}


def bench_timing(iterations: int = 2_000_000) -> dict:
    """TimingModel.execute throughput (the per-instruction cost floor)."""
    timing = TimingModel()
    execute = timing.execute
    started = time.perf_counter()
    for _ in range(iterations):
        execute(1)
    seconds = time.perf_counter() - started
    return {"iterations": iterations, "executes_per_sec": int(iterations / seconds)}


def bench_machine(iterations: int = 500_000) -> dict:
    """Machine.load/store round trips over a small resident array."""
    machine = Machine(MachineConfig())
    base = machine.malloc(4096)
    words = [base + offset for offset in range(0, 4096, 8)]
    nwords = len(words)
    load = machine.load
    store = machine.store
    started = time.perf_counter()
    for index in range(iterations):
        address = words[index % nwords]
        store(address, index)
        load(address)
    seconds = time.perf_counter() - started
    return {
        "iterations": iterations,
        "refs_per_sec": int(2 * iterations / seconds),
    }


def bench_replay(scale: float = 0.3) -> dict:
    """Trace replay throughput (events/sec) on a captured health run."""
    trace, _ = capture_trace(
        "health",
        Variant.N,
        experiment_config(32),
        scale=scale,
        seed=APP_SEEDS["health"],
    )
    replay_trace(trace, experiment_config(64))  # warm-up replay
    started = time.perf_counter()
    replay_trace(trace, experiment_config(128))
    seconds = time.perf_counter() - started
    return {
        "events": trace.event_count,
        "events_per_sec": int(trace.event_count / seconds),
    }


# ----------------------------------------------------------------------
def check_regression(sweep: dict, baseline_path: Path, budget: float) -> str | None:
    """Compare a sweep result against a pinned benchmark file.

    Returns an error message on regression beyond ``budget``, else None.
    When the scales match, wall-clock seconds are compared directly;
    when they differ (CI runs reduced scale against the pinned scale-1.0
    file), the scale-independent refs/sec throughput is compared
    instead.
    """
    pinned = json.loads(baseline_path.read_text())["sweep"]
    if sweep["scale"] == pinned["scale"]:
        ratio = sweep["seconds"] / pinned["seconds"]
        measure = f"{sweep['seconds']}s vs pinned {pinned['seconds']}s"
    else:
        ratio = pinned["refs_per_sec"] / sweep["refs_per_sec"]
        measure = (
            f"{sweep['refs_per_sec']} refs/s vs pinned "
            f"{pinned['refs_per_sec']} refs/s (scales differ)"
        )
    if ratio > 1.0 + budget:
        return (
            f"sweep regressed {100 * (ratio - 1):.1f}% "
            f"(budget {100 * budget:.0f}%): {measure}"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="sweep workload scale (default 1.0)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="output JSON path (default BENCH_PR2.json "
                             "next to this script)")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the end-to-end Figure 5 sweep")
    parser.add_argument("--skip-micro", action="store_true",
                        help="skip the per-layer microbenchmarks")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="pinned benchmark JSON to gate against "
                             "(exit 1 on regression)")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        metavar="R",
                        help="allowed fractional slowdown vs --baseline "
                             "(default 0.05)")
    parser.add_argument("--batch", action="store_true",
                        help="also time the 42-cell sweep through the "
                             "replay pipelines (cold / warm-batch / "
                             "sequential-replay arms on a throwaway "
                             "store) and verify all arms agree bit for "
                             "bit (exit 1 otherwise)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="process-pool shards for the batch sweep "
                             "(default 1; whole trace-key groups move)")
    parser.add_argument("--ab", action="store_true",
                        help="same-machine A/B: run the direct sweep and "
                             "the replay arms in one sitting and record "
                             "the warm-batch speedup against both the "
                             "direct sweep and the sequential replay "
                             "path (implies --batch)")
    parser.add_argument("--repeats", type=int, default=1, metavar="N",
                        help="re-run the headline A/B pair (direct sweep "
                             "and warm batch arm) N times, interleaved, "
                             "and report the minimum of each -- rejects "
                             "machine-load drift on shared hosts "
                             "(default 1)")
    parser.add_argument("--timeline-interval", type=int, default=0,
                        metavar="N",
                        help="run the sweep with timeline sampling every N "
                             "references (default 0 = sampler disabled)")
    parser.add_argument("--note", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="embed a measurement-context note in the "
                             "report (repeatable)")
    args = parser.parse_args(argv)

    report: dict = {
        "bench": "hot-path kernel",
        "python": sys.version.split()[0],
        "baseline": BASELINE,
    }
    notes = dict(note.split("=", 1) for note in args.note if "=" in note)
    if notes:
        report["notes"] = notes
    if args.ab:
        args.batch = True
    direct_aggregate: dict = {}
    if not args.skip_sweep:
        print(f"== Figure 5 sweep (scale {args.scale}) ==", file=sys.stderr)
        report["sweep"] = bench_sweep(
            args.scale,
            verbose=not args.quiet,
            timeline_interval=args.timeline_interval,
            aggregate_out=direct_aggregate,
        )
    if args.batch:
        if args.timeline_interval:
            parser.error("--batch does not support --timeline-interval "
                         "(the sampler forces the general direct path)")
        print(
            f"== batch sweep (scale {args.scale}, jobs {args.jobs}) ==",
            file=sys.stderr,
        )
        batch_aggregates: dict = {}
        direct_records: list[dict] = []
        direct_repeat_aggregates: dict[str, dict] = {}

        def rerun_direct(repeat: int) -> None:
            aggregate = direct_repeat_aggregates.setdefault(
                f"direct#{repeat}", {}
            )
            print(
                f"  -- direct repeat {repeat}/{args.repeats}",
                file=sys.stderr,
            )
            direct_records.append(
                bench_sweep(
                    args.scale, verbose=not args.quiet, aggregate_out=aggregate
                )
            )

        report["batch_sweep"] = bench_batch_sweep(
            args.scale,
            jobs=args.jobs,
            verbose=not args.quiet,
            aggregates_out=batch_aggregates,
            repeats=args.repeats,
            direct=rerun_direct if args.ab and "sweep" in report else None,
        )
        # Every replay arm and repeat must agree with every other bit
        # for bit; the direct sweep (and its repeats) joins the
        # comparison when it ran in this sitting.
        arms = dict(batch_aggregates)
        arms.update(direct_repeat_aggregates)
        if direct_aggregate:
            arms["direct"] = direct_aggregate
        names = sorted(arms)
        diverged = sorted(
            key
            for a in names
            for b in names
            if a < b
            for key in set(arms[a]) | set(arms[b])
            if arms[a].get(key) != arms[b].get(key)
        )
        identical = not diverged
        report["batch_sweep"]["bit_identical"] = identical
        if not identical:
            report["batch_sweep"]["diverged_keys"] = diverged[:20]
            print(
                f"BATCH DIVERGENCE: {len(diverged)} aggregate metrics "
                f"differ across arms {names}, e.g. {diverged[:5]}",
                file=sys.stderr,
            )
        if args.ab and "sweep" in report:
            batch = report["batch_sweep"]
            direct_seconds = [report["sweep"]["seconds"]] + [
                record["seconds"] for record in direct_records
            ]
            report["ab"] = {
                "jobs": args.jobs,
                "repeats": args.repeats,
                "direct_seconds": min(direct_seconds),
                "batch_cold_seconds": batch["cold"]["seconds"],
                "batch_warm_seconds": batch["warm"]["seconds"],
                "sequential_replay_seconds":
                    batch["sequential_replay"]["seconds"],
                # Headline: warm batch sweep vs the direct sweep (the
                # methodology BENCH_PR4/PR6 pin), same machine, one
                # sitting; min over the interleaved repeats on each side.
                "speedup": round(
                    min(direct_seconds) / batch["warm"]["seconds"], 2
                ),
                "speedup_vs_sequential_replay": round(
                    batch["sequential_replay"]["seconds"]
                    / batch["warm"]["seconds"],
                    2,
                ),
                "bit_identical": identical,
            }
            if len(direct_seconds) > 1:
                report["ab"]["direct_repeat_seconds"] = direct_seconds
                report["ab"]["warm_repeat_seconds"] = (
                    batch["warm"].get("repeat_seconds", [])
                )
    if not args.skip_micro:
        print("== microbenchmarks ==", file=sys.stderr)
        report["micro"] = {
            "cache_lookup": bench_cache(),
            "timing_execute": bench_timing(),
            "machine_load_store": bench_machine(),
            "trace_replay": bench_replay(),
        }

    out_path = Path(args.out) if args.out else Path(__file__).parent / "BENCH_PR2.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out_path}", file=sys.stderr)
    if args.baseline and "sweep" in report:
        error = check_regression(
            report["sweep"], Path(args.baseline), args.max_regression
        )
        if error:
            print(f"REGRESSION: {error}", file=sys.stderr)
            return 1
        print("regression gate passed", file=sys.stderr)
    if not report.get("batch_sweep", {}).get("bit_identical", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
