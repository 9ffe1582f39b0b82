"""Specialized replay: a trace's resolved chunks through the fused kernel.

The kernel itself -- one generated loop per machine shape, with the
config's constants baked in as literals -- lives in
:mod:`repro.core.kernel`, because the Machine fast path runs it too.
This module drives it from a trace: :class:`SpecializedSession` feeds
it one :class:`~repro.trace.replay.ResolvedChunk` at a time (a trace
stores exactly the kernel's ``kinds``/``ops``/``extras`` layout), and
:func:`replay_specialized` is the one-config replay built on it.  Results are **bit-identical** to :func:`repro.trace.replay.
replay_trace`, which costs every entry through the layered components
and so shares no code with the kernel; ``tests/integration/
test_batch_parity.py`` and ``tests/property/test_batch_properties.py``
enforce that contract.

Each chunk goes through :func:`~repro.core.kernel.run_stream`, which
the Machine's drains call too: stretches with no forwarded store
in the speculation window run the counters-only kernel
(:data:`~repro.core.kernel.SPEC_COUNTERS`), so a session over an
unforwarded trace compiles only that one.
"""

from __future__ import annotations

from repro.apps.base import AppResult
from repro.core.kernel import (
    CYCLE_GUARD,
    SPEC_COUNTERS,
    SPEC_FULL,
    SPEC_OFF,
    SpecializationError,
    _elides_residual,
    compiled_kernel,
    kernel_source,
    run_stream,
    specializable,
)
from repro.core.machine import MachineConfig
from repro.trace.format import Trace
from repro.trace.replay import (
    build_components,
    captured_result,
    check_line_size,
    drive_sessions,
    replay_trace,
)

__all__ = [
    "SPEC_COUNTERS",
    "SPEC_FULL",
    "SPEC_OFF",
    "SpecializationError",
    "SpecializedSession",
    "_elides_residual",
    "compiled_kernel",
    "kernel_source",
    "replay_specialized",
    "specializable",
]


class SpecializedSession:
    """One config's specialized-kernel state, consuming resolved chunks.

    Drop-in peer of :class:`~repro.trace.replay.ReplaySession`: same
    ``run_chunk``/``finish`` surface, so the batch engine can
    drive a mixed group of general and specialized sessions through one
    decode of the trace.  The kernel's hot locals live in the component
    objects between chunks (reloaded on entry, spilled on exit); the
    trap flag is the one piece of state the components don't carry, so
    it is threaded through the kernel call explicitly.
    """

    def __init__(self, trace: Trace, config: MachineConfig) -> None:
        check_line_size(trace, config)
        self.trace = trace
        self.config = config
        #: The kernels this session's chunks have used, by speculation mode.
        self._kernels: dict = {}
        build_components(self, config)
        self._trap = False

    def run_chunk(self, chunk) -> None:
        self._trap = run_stream(
            self._kernels, self.config, chunk.kinds, chunk.ops, chunk.extras,
            self.hierarchy, self.timing, self.speculator, self.prefetcher,
            self.load_latency, self.store_latency, self._trap,
        )

    def finish(self) -> AppResult:
        if self.timing.cycle >= CYCLE_GUARD:
            # The residual-elision proof (see _elides_residual) needs
            # every reference's start cycle below 2**49; the cycle
            # counter only ever increases, so the final value bounds
            # them all.  No real trace gets within orders of magnitude
            # of this, but if one ever does, discard the kernel run and
            # take the general path.
            return replay_trace(self.trace, self.config)
        return captured_result(self)


def replay_specialized(trace: Trace, config: MachineConfig) -> AppResult:
    """Replay ``trace`` against ``config`` via the specialized kernel.

    Bit-identical to :func:`repro.trace.replay.replay_trace` for every
    :func:`specializable` config; raises :class:`SpecializationError`
    otherwise (callers gate, so this only trips on misuse).
    """
    session = SpecializedSession(trace, config)
    drive_sessions(trace, [session])
    return session.finish()
