"""Structured JSON logging for every subsystem, safe under a process pool.

The progress prints of PRs 1-8 were bare ``"%(message)s"`` lines on
stderr.  That worked for a single sweep process but breaks down in the
serve tier: worker *processes* inherit the handler and interleave
partial lines (stderr writes above the pipe buffer are not atomic at
the ``stream.write`` level), and nothing ties a log line back to the
request that caused it.  This module fixes both:

* :class:`JsonFormatter` renders one JSON object per line -- timestamp,
  level, logger, message, the current ``trace_id`` (a contextvar bound
  by :func:`repro.trace.batch.run_batch_group` around each traced
  cell's resolve step and by ``ExperimentRunner.prime`` around a run's
  sweep), plus any ``extra={"fields": {...}}`` payload;
* :class:`AtomicLineHandler` buffers the formatted record and emits it
  with a *single* ``os.write`` on the stream's file descriptor, so
  lines from concurrent workers interleave whole, never torn;
* :func:`configure_logging` installs both on the ``repro`` root logger
  (idempotent, ``force=True`` to rebuild), gated by ``--log-level`` or
  the ``REPRO_LOG_LEVEL`` environment variable;
* :func:`worker_init` is a picklable pool initializer that repeats the
  configuration inside freshly spawned worker processes.

Everything stays off by default: importing this module configures
nothing, and library code logs through the stdlib ``logging`` tree,
each module to ``logging.getLogger(__name__)`` under ``repro``.
"""

from __future__ import annotations

import contextvars
import json
import logging
import os
import sys
import time
from typing import Any, Iterator, TextIO

#: Root of the package's logger hierarchy: every module's
#: ``logging.getLogger(__name__)`` sits under it.
ROOT_LOGGER_NAME = "repro"

#: Environment variable consulted for the default level.
LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Contextvar carrying the active request's trace id; stamped onto
#: every record emitted while it is set.
_trace_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def current_trace_id() -> str | None:
    """The trace id bound to the current context, if any."""
    return _trace_id.get()


def bind_trace_id(trace_id: str | None) -> contextvars.Token:
    """Bind ``trace_id`` for the current context; returns a reset token."""
    return _trace_id.set(trace_id)


def reset_trace_id(token: contextvars.Token) -> None:
    _trace_id.reset(token)


class trace_context:
    """``with trace_context("a1b2..."):`` -- scope a trace id binding."""

    __slots__ = ("trace_id", "_token")

    def __init__(self, trace_id: str | None) -> None:
        self.trace_id = trace_id
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "trace_context":
        self._token = bind_trace_id(self.trace_id)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._token is not None:
            reset_trace_id(self._token)
            self._token = None


class JsonFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, msg, trace_id, fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None) or current_trace_id()
        if trace_id:
            payload["trace_id"] = trace_id
        fields = getattr(record, "fields", None)
        if fields:
            payload.update(
                {k: v for k, v in fields.items() if k not in payload}
            )
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=False, default=str)


class AtomicLineHandler(logging.Handler):
    """Emit each formatted record as one atomic line.

    The record is formatted off to the side (per-worker buffering) and
    pushed with a single ``os.write`` when the stream has a usable file
    descriptor; writes of one line stay well under ``PIPE_BUF``, so
    concurrent worker processes never tear each other's lines.  Streams
    without a descriptor (pytest's capture replaces ``sys.stderr`` with
    a plain object) fall back to ``stream.write``.
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        super().__init__()
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, record: logging.LogRecord) -> None:
        try:
            line = self.format(record) + "\n"
            stream = self.stream
            fileno = None
            try:
                fileno = stream.fileno()
            except (AttributeError, OSError, ValueError):
                fileno = None
            if fileno is not None:
                os.write(fileno, line.encode("utf-8", "replace"))
            else:
                stream.write(line)
                flush = getattr(stream, "flush", None)
                if flush is not None:
                    flush()
        except Exception:  # pragma: no cover - stdlib handler contract
            self.handleError(record)


def resolve_level(level: int | str | None = None) -> int:
    """Numeric level from an int, a name, or the environment (INFO default)."""
    if level is None:
        level = os.environ.get(LEVEL_ENV) or "INFO"
    if isinstance(level, int):
        return level
    name = str(level).strip().upper()
    resolved = logging.getLevelName(name)
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level: {level!r}")
    return resolved


def configure_logging(
    level: int | str | None = None,
    *,
    stream: TextIO | None = None,
    force: bool = False,
) -> logging.Logger:
    """Install the structured handler on the ``repro`` logger (idempotent).

    Logs go to *stderr* deliberately: stdout is reserved for rendered
    tables and figures, which must stay machine-diffable even when
    several sweep workers are reporting at once.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    numeric = resolve_level(level)
    if force:
        for handler in [h for h in logger.handlers if isinstance(h, AtomicLineHandler)]:
            logger.removeHandler(handler)
    if not any(isinstance(h, AtomicLineHandler) for h in logger.handlers):
        handler = AtomicLineHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger.addHandler(handler)
    logger.setLevel(numeric)
    return logger


def worker_init(level: int | str | None = None) -> None:
    """Pool initializer: repeat the logging setup in a worker process.

    Spawned workers import the package fresh and inherit nothing from
    the parent's logger tree; ``initializer=worker_init`` (with the
    parent's resolved level as ``initargs``) gives them the same
    atomic structured handler so their lines never tear.
    """
    configure_logging(level, force=True)


def log_event(
    logger: logging.Logger,
    level: int,
    msg: str,
    /,
    **fields: Any,
) -> None:
    """Log ``msg`` with structured ``fields`` folded into the JSON line."""
    if logger.isEnabledFor(level):
        logger.log(level, msg, extra={"fields": fields})


def iter_log_lines(text: str) -> Iterator[dict[str, Any]]:
    """Parse captured structured-log output back into dicts (tests, CI)."""
    for line in text.splitlines():
        line = line.strip()
        if not line or not line.startswith("{"):
            continue
        try:
            yield json.loads(line)
        except ValueError:
            continue
