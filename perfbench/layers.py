"""Per-layer attribution for traced runs: self-time spans around the
public calls into each layer, recorded from outside ``src/``.

:class:`LayerTracer` keeps a per-thread stack of open spans.  When a
span closes, its duration minus the time its child spans covered is
added to its layer's *self time*; the duration is charged to the parent
as child time.  The root span is the traced pass itself, so its self
time is the wall time no layer claimed (``trace.unattributed_s``) and

    sum(layer self times) + unattributed == traced wall

holds by construction.  :meth:`LayerTracer.install` wraps each entry
point in place -- class methods on the class, module functions in every
loaded ``repro`` module that imported them by name -- so the program
itself is unchanged and untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: (module, attribute path, layer).  A dotted attribute path is a method.
ENTRY_POINTS = (
    ("repro.apps.base", "Application.run", "apps.run"),
    ("repro.trace.recorder", "capture_trace", "recorder.capture"),
    ("repro.trace.format", "make_chunk", "format.seal"),
    ("repro.trace.format", "Chunk.columns", "format.inflate"),
    ("repro.trace.replay", "ReplaySession.run_chunk", "replay.general"),
    ("repro.trace.replay", "ReplaySession.finish", "replay.general"),
    ("repro.trace.kernels", "SpecializedSession.run_chunk", "kernels.run"),
    ("repro.trace.kernels", "SpecializedSession.finish", "kernels.run"),
    ("repro.trace.kernels", "compiled_kernel", "kernels.compile"),
    ("repro.trace.store", "ArtifactStore.load_trace", "store.trace_read"),
    ("repro.trace.store", "ArtifactStore.save_trace", "store.trace_write"),
    ("repro.trace.store", "ArtifactStore.load_result", "store.result_read"),
    ("repro.trace.store", "ArtifactStore.save_result", "store.result_write"),
    ("repro.trace.batch", "run_batch_group", "batch.self"),
    ("repro.trace.sweep", "aggregate_metrics", "obs.snapshot"),
    ("repro.obs.manifest", "validate_manifest", "obs.manifest_validate"),
)

#: The generator entry point: each ``next()`` is one decode span.
DECODE = ("repro.trace.replay", "iter_resolved_chunks", "replay.decode")

#: Every layer whose self time a traced run reports (as ``<layer>_s``).
LAYERS = tuple(dict.fromkeys(layer for *_, layer in ENTRY_POINTS + (DECODE,)))

ROOT = "trace.root"


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = time.perf_counter()
        self.child = 0.0


class LayerTracer:
    """Self-time accounting over the wrapped entry points."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s[ROOT] = 0.0
        self.calls = {layer: 0 for layer in LAYERS}
        #: Decode passes (one per ``iter_resolved_chunks`` call) and
        #: how many of them never inflated a column (sidecar-served).
        self.decode_groups = 0
        self.sidecar_groups = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        # A recorded application run is part of its capture: the
        # recorder's per-reference callbacks execute inside it.
        if name == "apps.run" and stack and stack[-1].name == "recorder.capture":
            name = "recorder.capture"
        frame = _Frame(name)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        """Close ``frame``; returns its duration."""
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.self_s[frame.name] += duration - frame.child
            if frame.name in self.calls:
                self.calls[frame.name] += 1
        return duration

    # -- installation ---------------------------------------------------
    def _wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return wrapper

    def _wrap_decode(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            inflates = tracer.calls["format.inflate"]
            try:
                while True:
                    frame = tracer.open(layer)
                    try:
                        chunk = next(chunks)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(frame)
                    yield chunk
            finally:
                chunks.close()
                with tracer._lock:
                    tracer.decode_groups += 1
                    if tracer.calls["format.inflate"] == inflates:
                        tracer.sidecar_groups += 1

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in the loaded ``repro`` modules."""
        for module_name, path, layer in ENTRY_POINTS + (DECODE,):
            module = importlib.import_module(module_name)
            wrap = self._wrap_decode if (module_name, path, layer) == DECODE else self._wrap
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, wrap(original, layer))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapped = wrap(original, layer)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or loaded is None:
                    continue
                if getattr(loaded, path, None) is original:
                    setattr(loaded, path, wrapped)
                    self._undo.append((loaded, path, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------
    def root(self) -> _Frame:
        """Open the root span (the traced pass)."""
        return self.open(ROOT)

    def report(self, wall: float) -> dict[str, float]:
        """Per-layer metrics for one traced pass of ``wall`` seconds."""
        out = {f"{layer}_s": self.self_s[layer] for layer in LAYERS}
        out["trace.unattributed_s"] = self.self_s[ROOT]
        out["trace.wall_s"] = wall
        out["replay.sidecar_served"] = (
            self.sidecar_groups / self.decode_groups if self.decode_groups else 0.0
        )
        return out
