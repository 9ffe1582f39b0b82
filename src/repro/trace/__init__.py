"""Reference-trace capture and replay (the ``repro.trace`` subsystem).

The simulator is trace-driven at heart: an application's *reference
stream* -- the ordered sequence of loads, stores, allocations, prefetches
and relocation events it issues against the :class:`~repro.core.machine.
Machine` -- fully determines every statistic the experiments report.  For
a given ``(app, variant, scale, seed)`` that stream is identical across
cache line sizes and machine configurations (BH is the one exception: it
parameterises its clustering by line size, and declares so via
``Application.line_size_sensitive``).

This package exploits that invariance end to end:

* :mod:`repro.trace.recorder` -- capture the reference stream while an
  application runs: the recorder is the sink on the machine's own entry
  stream, whose forwarded references carry the machine's chain walk
  (resolution is config-invariant), and seals it into chunks;
* :mod:`repro.trace.format` -- a chunked columnar binary trace format
  that stores that resolved stream (fixed-entry-count chunks of kind,
  int64 operand and extras columns, each zlib-compressed and hashed, a
  footer index read without the chunks, content-hashed) with save/load
  round-trip and streaming unpack; files of any other version are cache
  misses;
* :mod:`repro.trace.replay` -- drive any :class:`MachineConfig` from a
  trace, chunk by chunk, reproducing a direct run's
  :class:`MachineStats` *exactly*;
* :mod:`repro.trace.store` -- a content-hash-keyed on-disk artifact cache
  of traces and replayed results, with LRU/size-budget eviction, so
  repeated sweeps skip both capture and replay when nothing changed;
  the store is its files, each trace answering for itself from its
  header and footer;
* :mod:`repro.trace.kernels` -- exec-specialized per-config replay
  kernels: the replay loop compiled with the machine shape baked in as
  literals, bit-identical to the general path by contract;
* :mod:`repro.trace.batch` -- the one cell executor: a trace-sharing
  group of cells (a single cell is a group of one) decodes its trace
  once and drives N configs through the shared resolved stream;
* :mod:`repro.trace.sweep` -- a parallel sweep executor sharding batch
  groups (one per trace key) across a process pool.

The exact-fidelity requirement makes this a correctness tool as well as
a performance win: any divergence between a replayed and a direct run
exposes hidden state the event stream failed to capture.
"""

from repro.trace.format import (
    FORMAT_VERSION,
    Chunk,
    Trace,
    TraceFormatError,
    TraceIndex,
    load_index,
)
from repro.trace.batch import (
    DIRECT,
    GENERAL,
    SPECIALIZED,
    BatchCellError,
    BatchOutcome,
    group_by_trace,
    run_batch_group,
    session_for,
)
from repro.trace.kernels import (
    SpecializationError,
    SpecializedSession,
    replay_specialized,
    specializable,
)
from repro.trace.recorder import TraceRecorder, capture_trace
from repro.trace.replay import (
    ReplaySession,
    ResolvedChunk,
    TraceReplayError,
    drive_sessions,
    iter_resolved_chunks,
    replay_trace,
)
from repro.trace.store import (
    ArtifactStore,
    LockTimeout,
    config_fingerprint,
    trace_key,
)
from repro.trace.sweep import SweepError, SweepTask, execute_sweep, run_task

__all__ = [
    "ArtifactStore",
    "BatchCellError",
    "BatchOutcome",
    "Chunk",
    "DIRECT",
    "FORMAT_VERSION",
    "GENERAL",
    "LockTimeout",
    "ReplaySession",
    "ResolvedChunk",
    "SPECIALIZED",
    "SpecializationError",
    "SpecializedSession",
    "SweepError",
    "SweepTask",
    "Trace",
    "TraceFormatError",
    "TraceIndex",
    "TraceRecorder",
    "TraceReplayError",
    "capture_trace",
    "config_fingerprint",
    "drive_sessions",
    "execute_sweep",
    "group_by_trace",
    "iter_resolved_chunks",
    "load_index",
    "replay_specialized",
    "replay_trace",
    "run_batch_group",
    "run_task",
    "session_for",
    "specializable",
    "trace_key",
]
