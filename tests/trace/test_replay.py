"""Replay fidelity: a replayed run's stats equal a direct run's, exactly.

This is the contract the whole subsystem rests on (and what lets the
experiment runner substitute replays for simulations): every counter in
:class:`~repro.core.stats.MachineStats` -- cycles, per-level miss
classes, forwarding and relocation activity, speculation and prefetch
accounting -- must match the direct run bit-for-bit, including across
line sizes for line-size-insensitive streams.
"""

import pytest

from repro.apps import get_application
from repro.apps.base import Variant
from repro.experiments.config import experiment_config
from repro.trace import TraceReplayError, capture_trace, replay_trace

SCALE = 0.1
CAPTURE_LINE = 64


def _direct(app, variant, line_size):
    application = get_application(app, scale=SCALE, seed=1)
    return application.run(variant, experiment_config(line_size))


@pytest.fixture(scope="module")
def traces():
    """One captured trace per (app, variant), at line size 64."""
    captured = {}
    for app in ("health", "mst"):
        for variant in (Variant.N, Variant.L):
            trace, _ = capture_trace(
                app, variant, experiment_config(CAPTURE_LINE), SCALE, seed=1
            )
            captured[(app, variant)] = trace
    return captured


@pytest.mark.parametrize("app", ["health", "mst"])
@pytest.mark.parametrize("variant", [Variant.N, Variant.L])
@pytest.mark.parametrize("line_size", [32, 128])
def test_replay_matches_direct_across_line_sizes(traces, app, variant, line_size):
    trace = traces[(app, variant)]
    replayed = replay_trace(trace, experiment_config(line_size))
    direct = _direct(app, variant, line_size)
    assert replayed.stats.dump() == direct.stats.dump()
    assert replayed.checksum == direct.checksum
    assert replayed.extras == direct.extras


def test_replay_same_config_is_identity(traces):
    trace = traces[("health", Variant.L)]
    config = experiment_config(CAPTURE_LINE)
    replayed = replay_trace(trace, config)
    direct = _direct("health", Variant.L, CAPTURE_LINE)
    assert replayed.stats.dump() == direct.stats.dump()


def test_replay_prefetch_variant():
    """PERF exercises the prefetcher + speculator paths during replay."""
    config = experiment_config(CAPTURE_LINE)
    trace, direct = capture_trace("smv", Variant.PERF, config, SCALE, seed=1)
    replayed = replay_trace(trace, config)
    assert replayed.stats.dump() == direct.stats.dump()


def test_sensitive_trace_rejects_other_line_size():
    """BH streams depend on line size; replaying across sizes must fail."""
    config = experiment_config(CAPTURE_LINE)
    trace, _ = capture_trace("bh", Variant.L, config, 0.05, seed=1)
    assert trace.line_size_sensitive
    with pytest.raises(TraceReplayError, match="line-size-sensitive"):
        replay_trace(trace, experiment_config(32))
    # ... but the capturing size itself is fine.
    replay_trace(trace, config)


def test_resolved_decode_is_deterministic(traces):
    """Two independent decodes of one trace yield identical chunks.

    v3 dropped the in-memory resolved-stream memo (streaming replay
    holds one chunk at a time), so determinism of the decode itself is
    the invariant repeated replays rest on.
    """
    from repro.trace.replay import iter_resolved_chunks

    trace = traces[("mst", Variant.N)]
    first = [
        (c.kinds, list(c.ops), c.extras) for c in iter_resolved_chunks(trace)
    ]
    second = [
        (c.kinds, list(c.ops), c.extras) for c in iter_resolved_chunks(trace)
    ]
    assert first == second
    assert sum(len(k) for k, _, _ in first) > 0


def test_resolved_stream_never_leaks_across_traces(traces):
    """Two traces replayed in one process must never serve each other's
    stream -- a leak would silently replay the wrong stream for every
    cell of the second trace."""
    health = traces[("health", Variant.N)]
    mst = traces[("mst", Variant.N)]
    config = experiment_config(32)
    replayed_health = replay_trace(health, config)
    replayed_mst = replay_trace(mst, config)
    # Each replay reflects its own stream, not the other's.
    assert replayed_mst.stats.dump() == _direct(
        "mst", Variant.N, 32
    ).stats.dump()
    assert replayed_health.stats.dump() != replayed_mst.stats.dump()
