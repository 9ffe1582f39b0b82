"""Replay reproduces a direct run whose trap handler touches memory.

A user-level trap handler runs on a forwarded reference and issues
references of its own.  They are younger than the trapping reference:
the machine costs the trapping reference in full -- the user-trap stall
and its dependence-speculation check included -- does its data access
and ticks the timeline before the handler runs, which is the order the
captured stream records.  Handlers that load or store the final word
put their own references in front of the speculator and the timeline
sampler, so any other order shows up as different misspeculation counts
or window series between the direct run and its replay.
"""

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.core.relocate import relocate
from repro.trace.format import Trace
from repro.trace.kernels import replay_specialized
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay_trace

HANDLERS = {
    "load_final": lambda machine, event: machine.load(event.final_address),
    "store_final": lambda machine, event: machine.store(event.final_address, 7),
}


def _program(machine, handler):
    """Relocated objects reached through stale pointers, with a handler."""
    pool = machine.create_pool(4096)
    objects = [machine.malloc(16) for _ in range(6)]
    for value, old in enumerate(objects):
        machine.store(old, value)
        relocate(machine, old, pool.allocate(16), 2)
    machine.set_trap_handler(handler)
    for step in range(3):
        for old in objects:
            machine.store(old + 8, step)  # forwarded store
            machine.load(old)  # forwarded load
            machine.execute(2)
    machine.set_trap_handler(None)
    machine.load(objects[0])  # forwarded, no handler


def _capture(handler, config):
    recorder = TraceRecorder()
    machine = Machine(config, sink=recorder)
    _program(machine, handler)
    timeline = None
    if machine.timeline is not None:
        machine.timeline.finish()
        timeline = machine.timeline.to_payload()
    stats = machine.stats()
    trace = Trace(
        app="trap-parity",
        variant="N",
        scale=1.0,
        seed=1,
        line_size=config.hierarchy.line_size,
        line_size_sensitive=False,
        checksum=0,
        captured_stats=stats.dump(),
        event_count=recorder.event_count,
        chunks=recorder.finish(),
        has_forwarded=recorder.has_forwarded,
    )
    return trace, stats, timeline


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "general"])
@pytest.mark.parametrize("handler", sorted(HANDLERS))
@pytest.mark.parametrize(
    "replay", [replay_trace, replay_specialized], ids=["general", "specialized"]
)
def test_replay_matches_direct_run_with_trap_handler(handler, fast_path, replay):
    trace, direct, _ = _capture(HANDLERS[handler], MachineConfig(fast_path=fast_path))
    assert direct.misspeculations > 0, "the handler must reach the speculator"
    assert replay(trace, MachineConfig()).stats.dump() == direct.dump()


@pytest.mark.parametrize("handler", sorted(HANDLERS))
def test_fast_and_general_direct_runs_agree(handler):
    fast_trace, fast, _ = _capture(HANDLERS[handler], MachineConfig(fast_path=True))
    general_trace, general, _ = _capture(
        HANDLERS[handler], MachineConfig(fast_path=False)
    )
    assert fast.dump() == general.dump()
    assert fast_trace.stream_sha256 == general_trace.stream_sha256


@pytest.mark.parametrize("handler", sorted(HANDLERS))
def test_replay_matches_direct_timeline_with_trap_handler(handler):
    """Windows three references wide close inside the handlers' work."""
    config = MachineConfig(timeline_interval=3)
    trace, direct, timeline = _capture(HANDLERS[handler], config)
    replayed = replay_trace(trace, config)
    assert replayed.stats.dump() == direct.dump()
    assert replayed.timeline == timeline
