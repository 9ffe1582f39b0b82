"""Command-line entry point: regenerate the paper's results.

Usage::

    python -m repro [artifact ...] [--scale S] [--jobs N]
                    [--trace-dir DIR] [--no-cache] [--format text|json]
                    [--batch | --no-batch]
                    [--timeline] [--sample-interval N]
                    [--events] [--events-capacity N]
                    [--mechanism NAME] [--vc-entries N] [--mc-entries N]
                    [--sb-count N] [--sb-depth N]

where each artifact is one of ``table1 figure5 figure6 figure7 figure10
misspath ablations false-sharing out-of-core`` (default: all of them, in
paper order).

``--mechanism`` enables an L1 miss-path stage (victim cache, miss cache,
stream buffers, or the combined composition -- see DESIGN.md §5f) on
every cell; the sizing knobs are only accepted alongside a mechanism
that reads them.  The ``misspath`` artifact runs the mechanism x app x
variant x line-size matrix and reports per-mechanism conflict-miss
absorption normalized against the baseline hierarchy; with
``--mechanism`` it narrows the matrix to ``none`` plus that mechanism
(the cheap CI smoke configuration).

The paper artifacts run capture-once-replay-many: each distinct
reference stream is simulated directly once, then replayed through every
other cache configuration that needs it (``--jobs N`` shards the work
across N processes).  By default replay runs in *batch* mode: cells are
grouped by reference stream, each group decodes its trace once, and
each config replays through an exec-specialized kernel with the machine
shape baked in as literals (bit-identical to the sequential path --
``--no-batch`` -- by contract; manifests record the engine per cell).
``--batch`` with ``--events`` exits with an error, since the event
stream forces the direct interpreter path.  Traces and replayed results persist under
``--trace-dir`` (default ``results/trace-cache``), so a repeated
invocation with unchanged code and parameters skips simulation entirely;
``--no-cache`` starts cold and persists nothing.

``--format json`` swaps the rendered tables for one JSON object mapping
each artifact name to its schema-validated run manifest (see
``repro.obs.manifest``); progress lines stay on stderr.

``--timeline`` turns on windowed time-series sampling (see DESIGN.md
§5d): every ``--sample-interval`` data references each simulation closes
a window of miss-rate / stall / forwarding-chase deltas, and the
``--format json`` manifests grow a ``timeline`` section.  ``--events``
additionally records the bounded structured event stream (relocations,
chain walks, L2 inclusion victims, pool traffic) -- this forces the
general interpreter path, so use it for diagnosis, not benchmarking.

There is also a ``timeline`` subcommand over saved manifests::

    python -m repro timeline diff BEFORE.json AFTER.json [--threshold T]
    python -m repro timeline export MANIFEST.json [--out trace.json]
                    [--csv CELL]

``diff`` aligns two runs' windows and exits nonzero iff a per-window
rate regresses beyond the threshold; ``export`` writes Chrome-trace
JSON (loadable in https://ui.perfetto.dev) or one cell's windows as CSV.

Long-lived serving (DESIGN.md §5e)::

    python -m repro serve --port 8321 --workers 4 --trace-dir DIR
    python -m repro serve.bench --scale 0.3 --out BENCH_PR5.json

``serve`` exposes the experiment surface as an async HTTP JSON API with
request coalescing against the content-hashed artifact store;
``serve.bench`` load-tests it and records cold/warm service latency.

Trace-corpus management (DESIGN.md §5h)::

    python -m repro corpus ls [--trace-dir DIR]
    python -m repro corpus stat [--trace-dir DIR] [--json]
    python -m repro corpus gc --budget BYTES [--dry-run] [--trace-dir DIR]

``ls`` lists every stored trace (LRU order -- the top rows are next to
be evicted); ``stat`` summarizes corpus size, dedup savings, and format
versions; ``gc`` evicts least-recently-used traces until the corpus
fits the byte budget (suffixes K/M/G accepted; evicted traces recapture
transparently on next use).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.adapt import experiment as adapt_experiment
from repro.adapt.config import POLICIES
from repro.cache.misspath import KNOB_MECHANISMS, MECHANISMS
from repro.experiments import ExperimentRunner
from repro.experiments import (
    ablations,
    figure5,
    figure6,
    figure7,
    figure10,
    misspath,
    table1,
)
from repro.experiments.runner import specs_for_artifacts
from repro.obs import Registry

DEFAULT_TRACE_DIR = "results/trace-cache"

_PAPER_ARTIFACTS = ("table1", "figure5", "figure6", "figure7", "figure10")
_ALL = _PAPER_ARTIFACTS + (
    "misspath", "adapt", "ablations", "false-sharing", "out-of-core"
)

#: First-word subcommands (everything else is an artifact list).
_SUBCOMMANDS = ("timeline", "serve", "serve.bench", "corpus")


class _CLIError(Exception):
    """A user-facing CLI failure: one line on stderr, nonzero exit."""


def _run_extension(name: str) -> str:
    if name == "false-sharing":
        from repro.smp import run_false_sharing_experiment
        from repro.smp.false_sharing import run_adaptive_false_sharing

        before, after = run_false_sharing_experiment()
        triple = run_adaptive_false_sharing()
        lines = [
            "False sharing (Section 2.2 extension)",
            f"  {before.label:32s} cycles={before.cycles:12.0f} "
            f"coherence misses={before.coherence_misses}",
            f"  {after.label:32s} cycles={after.cycles:12.0f} "
            f"coherence misses={after.coherence_misses}",
            f"  speedup: {before.cycles / after.cycles:.2f}x",
            "  adaptive segregation (repro.adapt policy feedback):",
        ]
        for result in (triple.never, triple.once, triple.adaptive):
            lines.append(
                f"  {result.label:32s} cycles={result.cycles:12.0f} "
                f"coherence misses={result.coherence_misses}"
            )
        lines.append(
            f"  trigger round: {triple.trigger_round}, segregation cost: "
            f"{triple.segregation_cost:.0f} cycles, checksums equal: "
            f"{triple.checksums_equal}"
        )
        return "\n".join(lines)
    from repro.vm import run_out_of_core_experiment

    scattered, linearized = run_out_of_core_experiment()
    return (
        "Out-of-core linearization (Section 2.2 extension)\n"
        f"  {scattered.label:11s} cycles={scattered.cycles:14.0f} "
        f"page faults={scattered.page_faults}\n"
        f"  {linearized.label:11s} cycles={linearized.cycles:14.0f} "
        f"page faults={linearized.page_faults}\n"
        f"  speedup: {scattered.cycles / linearized.cycles:.1f}x"
    )


def _extension_manifest(name: str, scale: float) -> dict:
    """Run manifest for the SMP / out-of-core extensions.

    These experiments use their own purpose-built machines rather than
    the uniprocessor registry, so the aggregate metric tree is empty and
    each cell carries the experiment's headline numbers directly.
    """
    from repro.obs import build_manifest, cell

    if name == "false-sharing":
        from repro.smp import run_false_sharing_experiment
        from repro.smp.false_sharing import run_adaptive_false_sharing

        before, after = run_false_sharing_experiment()
        triple = run_adaptive_false_sharing()
        cells = [
            cell(
                result.label,
                values={
                    "cycles": result.cycles,
                    "coherence_misses": result.coherence_misses,
                },
            )
            for result in (
                before, after, triple.never, triple.once, triple.adaptive
            )
        ]
        summary = {
            "speedup": before.cycles / after.cycles,
            "adaptive_trigger_round": float(
                -1 if triple.trigger_round is None else triple.trigger_round
            ),
            "adaptive_segregation_cost": triple.segregation_cost,
            "adaptive_checksums_equal": (
                1.0 if triple.checksums_equal else 0.0
            ),
        }
    else:
        from repro.vm import run_out_of_core_experiment

        scattered, linearized = run_out_of_core_experiment()
        cells = [
            cell(
                result.label,
                values={
                    "cycles": result.cycles,
                    "page_faults": result.page_faults,
                },
            )
            for result in (scattered, linearized)
        ]
        summary = {"speedup": scattered.cycles / linearized.cycles}
    return build_manifest(
        name,
        run={"scale": scale, "jobs": 1, "cache": False, "trace_dir": None},
        seeds={},
        metrics={},
        cells=cells,
        summary=summary,
    )


def _timeline_main(argv: list[str]) -> int:
    """``python -m repro timeline {diff,export} ...`` over saved manifests."""
    from repro.obs import chrome_trace, diff_timelines, render_diff, windows_csv

    parser = argparse.ArgumentParser(
        prog="python -m repro timeline",
        description="Compare or export the timeline sections of saved "
                    "run manifests (produced with --timeline --format json).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff_parser = sub.add_parser(
        "diff", help="flag per-window regressions between two manifests"
    )
    diff_parser.add_argument("before", help="baseline manifest JSON")
    diff_parser.add_argument("after", help="candidate manifest JSON")
    diff_parser.add_argument(
        "--threshold", type=float, default=0.05, metavar="T",
        help="relative per-window regression threshold (default 0.05)",
    )

    export_parser = sub.add_parser(
        "export", help="write a Chrome-trace (Perfetto) JSON or CSV view"
    )
    export_parser.add_argument("manifest", help="manifest JSON to export")
    export_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: stdout)",
    )
    export_parser.add_argument(
        "--csv", default=None, metavar="CELL",
        help="emit CSV of this timeline cell's windows instead of a "
             "Chrome trace (cell id looks like health/32B/L)",
    )
    args = parser.parse_args(argv)

    def _load(path: str) -> dict:
        try:
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise _CLIError(
                f"cannot read manifest {path}: {exc.strerror or exc}"
            ) from exc
        except ValueError as exc:
            raise _CLIError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise _CLIError(f"{path} is not a manifest (expected a JSON object)")
        return loaded

    if args.command == "diff":
        regressions, notes = diff_timelines(
            _load(args.before), _load(args.after), threshold=args.threshold
        )
        print(render_diff(regressions, notes))
        return 1 if regressions else 0

    manifest = _load(args.manifest)
    if args.csv is not None:
        cells = (manifest.get("timeline") or {}).get("cells") or {}
        if args.csv not in cells:
            parser.error(
                f"no timeline cell {args.csv!r}; "
                f"available: {sorted(cells) or 'none'}"
            )
        rendered = windows_csv(cells[args.csv]["windows"])
    else:
        rendered = json.dumps(chrome_trace(manifest), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def _parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (powers of 1024)."""
    scales = {"k": 1024, "m": 1024**2, "g": 1024**3}
    raw = text.strip().lower().removesuffix("b")
    scale = 1
    if raw and raw[-1] in scales:
        scale = scales[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise _CLIError(
            f"invalid byte budget {text!r} (examples: 1048576, 512K, 16M, 2G)"
        ) from None
    if value < 0:
        raise _CLIError(f"byte budget must be >= 0, got {text!r}")
    return value


def _human_bytes(n: int | float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover - loop always returns


def _corpus_main(argv: list[str]) -> int:
    """``python -m repro corpus {ls,stat,gc}`` over a trace store."""
    from repro.trace.store import ArtifactStore

    parser = argparse.ArgumentParser(
        prog="python -m repro corpus",
        description="Inspect and manage the on-disk trace corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sub_parser):
        sub_parser.add_argument(
            "--trace-dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
            help=f"trace/result cache root (default {DEFAULT_TRACE_DIR})",
        )

    ls_parser = sub.add_parser(
        "ls", help="list stored traces, least-recently-used first"
    )
    add_common(ls_parser)

    stat_parser = sub.add_parser(
        "stat", help="summarize corpus size, dedup savings, format versions"
    )
    add_common(stat_parser)
    stat_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    gc_parser = sub.add_parser(
        "gc", help="evict least-recently-used traces down to a byte budget"
    )
    add_common(gc_parser)
    gc_parser.add_argument(
        "--budget", required=True, metavar="BYTES",
        help="target corpus size in bytes (K/M/G suffixes accepted)",
    )
    gc_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without removing anything",
    )

    args = parser.parse_args(argv)
    store = ArtifactStore(args.trace_dir)

    if args.command == "ls":
        rows = store.corpus_status()
        if not rows:
            print(f"empty corpus at {store.root}")
            return 0
        now = time.time()
        print(
            f"{'KEY':12s} {'APP':10s} {'VARIANT':8s} {'SCALE':>5s} "
            f"{'SEED':>4s} {'EVENTS':>10s} {'CHUNKS':>6s} {'SIZE':>10s} "
            f"{'IDLE':>8s}"
        )
        for row in rows:
            idle = now - row["mtime"]
            idle_text = (
                f"{idle / 3600:.1f}h" if idle >= 3600 else f"{idle / 60:.0f}m"
            )
            print(
                f"{row['key'][:12]:12s} "
                f"{str(row.get('app', '?')):10s} "
                f"{str(row.get('variant', '?')):8s} "
                f"{row.get('scale', 0):>5g} "
                f"{row.get('seed', 0):>4} "
                f"{row.get('event_count', 0):>10} "
                f"{row.get('chunks', 0):>6} "
                f"{_human_bytes(row['bytes']):>10s} "
                f"{idle_text:>8s}"
            )
        return 0

    if args.command == "stat":
        rows = store.corpus_status()
        inode_size = {row["inode"]: row["bytes"] for row in rows}
        apparent = sum(row["bytes"] for row in rows)
        unique = sum(inode_size.values())
        versions: dict[str, int] = {}
        for row in rows:
            label = str(row.get("format", "unknown"))
            versions[label] = versions.get(label, 0) + 1
        summary = {
            "root": str(store.root),
            "traces": len(rows),
            "events": sum(row.get("event_count", 0) for row in rows),
            "apparent_bytes": apparent,
            "unique_bytes": unique,
            "dedup_saved_bytes": apparent - unique,
            "format_versions": versions,
        }
        if args.json:
            # Machine consumers get per-entry identity too: the stream
            # digest lets scripts join corpus rows against capture
            # manifests without re-reading traces.
            summary["entries"] = [
                {
                    "key": row["key"],
                    "stream_digest": row.get("stream_sha256"),
                    "bytes": row["bytes"],
                    "events": row.get("event_count", 0),
                    "format": row.get("format"),
                }
                for row in rows
            ]
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(f"corpus at {summary['root']}")
            print(f"  traces:       {summary['traces']}")
            print(f"  events:       {summary['events']}")
            print(f"  on disk:      {_human_bytes(unique)}")
            print(
                f"  dedup saved:  {_human_bytes(summary['dedup_saved_bytes'])}"
            )
            print(f"  formats:      {summary['format_versions']}")
        return 0

    report = store.gc(_parse_bytes(args.budget), dry_run=args.dry_run)
    verb = "would evict" if report["dry_run"] else "evicted"
    print(
        f"{verb} {len(report['evicted'])} trace(s), "
        f"freeing {_human_bytes(report['freed_bytes'])}: "
        f"{_human_bytes(report['total_bytes'])} -> "
        f"{_human_bytes(report['after_bytes'])} "
        f"(budget {_human_bytes(report['budget_bytes'])}, "
        f"{report['kept']} kept)"
    )
    for key in report["evicted"]:
        print(f"  {key}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Top-level entry point: dispatch subcommands, then artifacts.

    Every user-facing failure -- unknown subcommand or artifact, invalid
    flag combination, unreadable manifest -- exits nonzero with a
    one-line message; tracebacks are reserved for actual bugs.
    """
    if argv is None:
        argv = sys.argv[1:]
    from repro.trace.format import TraceFormatError

    try:
        if argv and argv[0] == "timeline":
            return _timeline_main(argv[1:])
        if argv and argv[0] == "serve":
            from repro.serve import serve_main

            return serve_main(argv[1:])
        if argv and argv[0] == "serve.bench":
            from repro.serve.bench import bench_main

            return bench_main(argv[1:])
        if argv and argv[0] == "corpus":
            return _corpus_main(argv[1:])
        return _artifacts_main(argv)
    except _CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        # A garbled or unsupported trace file names itself (path + found
        # version); surface that one line instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _artifacts_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables and figures of Luk & Mowry (ISCA 1999).",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="artifact",
        help=f"artifacts to regenerate (default: all of {' '.join(_ALL)})",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default 1.0; smaller is faster)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard simulations across N worker processes (default 1)",
    )
    parser.add_argument(
        "--trace-dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
        help="on-disk trace/result cache root "
             f"(default {DEFAULT_TRACE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the on-disk cache entirely (capture-once-replay-many "
             "still applies within this invocation)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and dump the hottest functions "
             "(by cumulative time) to stderr when done",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: rendered tables (text) or one JSON object "
             "mapping artifact name to its run manifest (json)",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="sample windowed time series during each simulation and "
             "emit a timeline section in JSON manifests",
    )
    parser.add_argument(
        "--sample-interval", type=int, default=None, metavar="N",
        help="window width in data references for --timeline "
             "(default 10000; requires --timeline)",
    )
    batch_group = parser.add_mutually_exclusive_group()
    batch_group.add_argument(
        "--batch", dest="batch", action="store_true", default=None,
        help="group sweep cells by reference stream and replay each "
             "group through one decoded stream with exec-specialized "
             "per-config kernels (the default; results are bit-identical "
             "to the sequential path)",
    )
    batch_group.add_argument(
        "--no-batch", dest="batch", action="store_false",
        help="run every cell through the sequential one-at-a-time path",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="record the structured event stream (implies the general "
             "interpreter path; do not combine with benchmarking)",
    )
    parser.add_argument(
        "--events-capacity", type=int, default=None, metavar="N",
        help="event ring-buffer capacity for --events "
             "(default 4096; requires --events)",
    )
    parser.add_argument(
        "--adapt-policy", default=None, metavar="NAME",
        help="narrow the adapt artifact's policy matrix to one policy "
             f"({', '.join(POLICIES)}; default: all of them; requires "
             "the adapt artifact)",
    )
    parser.add_argument(
        "--heatmap-region", type=int, default=None, metavar="BYTES",
        help="heatmap region granularity in bytes for timeline/adapt "
             "sampling (power of two; default 65536; requires "
             "--timeline or the adapt artifact)",
    )
    parser.add_argument(
        "--mechanism", default=None, metavar="NAME",
        help="L1 miss-path mechanism for every cell "
             f"({', '.join(MECHANISMS)}; default none).  With the "
             "misspath artifact this narrows its matrix to "
             "none + NAME instead",
    )
    parser.add_argument(
        "--vc-entries", type=int, default=None, metavar="N",
        help="victim-cache entries (default 8; requires --mechanism "
             "victim_cache or combined)",
    )
    parser.add_argument(
        "--mc-entries", type=int, default=None, metavar="N",
        help="miss-cache entries (default 8; requires --mechanism "
             "miss_cache)",
    )
    parser.add_argument(
        "--sb-count", type=int, default=None, metavar="N",
        help="stream-buffer count (default 4; requires --mechanism "
             "stream_buffers or combined)",
    )
    parser.add_argument(
        "--sb-depth", type=int, default=None, metavar="N",
        help="stream-buffer depth (default 4; requires --mechanism "
             "stream_buffers or combined)",
    )
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error(f"--scale must be > 0, got {args.scale:g}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.sample_interval is not None and not args.timeline:
        parser.error("--sample-interval only makes sense with --timeline")
    if args.events_capacity is not None and not args.events:
        parser.error("--events-capacity only makes sense with --events")
    if args.batch and args.events:
        parser.error(
            "--batch cannot be combined with --events: the event stream "
            "forces the direct interpreter path (drop --batch; event "
            "cells always run sequentially)"
        )
    batch = (not args.events) if args.batch is None else args.batch
    sample_interval = 10000 if args.sample_interval is None else args.sample_interval
    events_capacity = 4096 if args.events_capacity is None else args.events_capacity
    if sample_interval < 1:
        parser.error("--sample-interval must be >= 1")
    if events_capacity < 1:
        parser.error("--events-capacity must be >= 1")
    mechanism = args.mechanism or "none"
    if mechanism not in MECHANISMS:
        parser.error(
            f"unknown --mechanism {mechanism!r}; choose from {list(MECHANISMS)}"
        )
    misspath_knobs = {}
    for knob, users in KNOB_MECHANISMS.items():
        flag = "--" + knob.replace("_", "-")
        value = getattr(args, knob)
        if value is None:
            continue
        if mechanism not in users:
            parser.error(
                f"{flag} only makes sense with --mechanism "
                f"{' or '.join(users)}"
            )
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
        misspath_knobs[knob] = value
    artifacts = args.artifacts or list(_ALL)
    unknown = [name for name in artifacts if name not in _ALL]
    if unknown:
        parser.error(
            f"unknown artifact(s) or subcommand {unknown}; artifacts: "
            f"{list(_ALL)}; subcommands: {list(_SUBCOMMANDS)}"
        )
    if args.adapt_policy is not None:
        if args.adapt_policy not in POLICIES:
            parser.error(
                f"unknown --adapt-policy {args.adapt_policy!r}; "
                f"choose from {list(POLICIES)}"
            )
        if "adapt" not in artifacts:
            parser.error(
                "--adapt-policy only makes sense with the adapt artifact"
            )
    from repro.adapt.config import DEFAULT_HEATMAP_REGION

    heatmap_region = DEFAULT_HEATMAP_REGION
    if args.heatmap_region is not None:
        value = args.heatmap_region
        if value < 1 or value & (value - 1):
            parser.error(
                f"--heatmap-region must be a power of two, got {value}"
            )
        if not args.timeline and "adapt" not in artifacts:
            parser.error(
                "--heatmap-region only makes sense with --timeline or "
                "the adapt artifact"
            )
        heatmap_region = value

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    runner = ExperimentRunner(
        scale=args.scale,
        verbose=not args.quiet,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
        use_cache=not args.no_cache,
        timeline_interval=sample_interval if args.timeline else 0,
        events_capacity=events_capacity if args.events else 0,
        mechanism=mechanism,
        batch=batch,
        heatmap_region=heatmap_region,
        adapt_policy=args.adapt_policy,
        **misspath_knobs,
    )
    runner.prime(
        specs_for_artifacts(
            artifacts,
            args.scale,
            mechanism,
            adapt_policy=args.adapt_policy,
            **misspath_knobs,
        )
    )
    modules = {
        "table1": table1,
        "figure5": figure5,
        "figure6": figure6,
        "figure7": figure7,
        "figure10": figure10,
        "misspath": misspath,
        "adapt": adapt_experiment,
    }
    emit_json = args.format == "json"
    manifests: dict[str, dict] = {}
    started = time.time()
    for artifact in artifacts:
        if not emit_json:
            print(f"=== {artifact} ===")
        if artifact in modules:
            with runner.span(artifact):
                result = modules[artifact].run(runner, scale=args.scale)
            if emit_json:
                manifests[artifact] = modules[artifact].manifest(result, runner)
            else:
                print(result.render())
        elif artifact == "ablations":
            obs = Registry()
            scale = min(args.scale, 0.5)
            results = ablations.run_all(scale=scale, obs=obs)
            if emit_json:
                manifests[artifact] = ablations.manifest(results, scale, obs)
            else:
                for ablation in results:
                    print(ablation.render())
                    print()
        elif emit_json:
            manifests[artifact] = _extension_manifest(artifact, args.scale)
        else:
            print(_run_extension(artifact))
        if not emit_json:
            print()
    if emit_json:
        json.dump(manifests, sys.stdout, indent=2)
        print()
        print(f"done in {time.time() - started:.0f}s", file=sys.stderr)
    else:
        print(f"done in {time.time() - started:.0f}s")
    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(40)
    return 0


if __name__ == "__main__":
    sys.exit(main())
