"""Structured JSON logging: formatter, atomic handler, configuration."""

import io
import json
import logging

import pytest

from repro.obs.logging import (
    AtomicLineHandler,
    JsonFormatter,
    bind_trace_id,
    configure_logging,
    current_trace_id,
    iter_log_lines,
    log_event,
    reset_trace_id,
    resolve_level,
    trace_context,
    worker_init,
)


@pytest.fixture()
def capture():
    """A configured 'repro.test' logger writing JSON lines to a buffer."""
    stream = io.StringIO()
    logger = configure_logging("DEBUG", stream=stream, force=True)
    try:
        yield logging.getLogger("repro.test"), stream
    finally:
        # Leave the global logger unconfigured for other tests.
        for handler in [
            h for h in logger.handlers if isinstance(h, AtomicLineHandler)
        ]:
            logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)


def _lines(stream: io.StringIO) -> list[dict]:
    return list(iter_log_lines(stream.getvalue()))


class TestFormatter:
    def test_one_json_object_per_line(self, capture):
        logger, stream = capture
        logger.info("hello %s", "world")
        logger.warning("watch out")
        lines = _lines(stream)
        assert [line["msg"] for line in lines] == ["hello world", "watch out"]
        assert [line["level"] for line in lines] == ["info", "warning"]
        assert all(line["logger"] == "repro.test" for line in lines)
        assert all("ts" in line for line in lines)

    def test_structured_fields_fold_in(self, capture):
        logger, stream = capture
        log_event(logger, logging.INFO, "cell complete", app="mst", cycles=42)
        line = _lines(stream)[0]
        assert line["app"] == "mst"
        assert line["cycles"] == 42

    def test_exception_rendered(self, capture):
        logger, stream = capture
        try:
            raise ValueError("boom")
        except ValueError:
            logger.exception("failed")
        line = _lines(stream)[0]
        assert "ValueError: boom" in line["exc"]

    def test_non_serializable_field_stringified(self, capture):
        logger, stream = capture
        log_event(logger, logging.INFO, "odd", payload=object())
        assert "object object" in _lines(stream)[0]["payload"]


class TestTraceContext:
    def test_contextvar_stamps_records(self, capture):
        logger, stream = capture
        with trace_context("a1b2c3d4e5f60718"):
            assert current_trace_id() == "a1b2c3d4e5f60718"
            logger.info("inside")
        logger.info("outside")
        lines = _lines(stream)
        assert lines[0]["trace_id"] == "a1b2c3d4e5f60718"
        assert "trace_id" not in lines[1]

    def test_bind_reset_tokens(self):
        token = bind_trace_id("feedc0de00000000")
        assert current_trace_id() == "feedc0de00000000"
        reset_trace_id(token)
        assert current_trace_id() is None


class TestHandler:
    def test_emits_single_line_without_fileno(self):
        stream = io.StringIO()  # no fileno: exercises the fallback
        handler = AtomicLineHandler(stream)
        handler.setFormatter(JsonFormatter())
        record = logging.LogRecord(
            "repro.x", logging.INFO, __file__, 1, "msg", (), None
        )
        handler.emit(record)
        text = stream.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["msg"] == "msg"

    def test_single_os_write_per_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            handler = AtomicLineHandler(stream)
            handler.setFormatter(JsonFormatter())
            for index in range(5):
                handler.emit(
                    logging.LogRecord(
                        "repro.x", logging.INFO, __file__, 1,
                        f"line {index}", (), None,
                    )
                )
        lines = list(iter_log_lines(path.read_text()))
        assert [line["msg"] for line in lines] == [
            f"line {i}" for i in range(5)
        ]


class TestConfiguration:
    def test_idempotent(self):
        stream = io.StringIO()
        logger = configure_logging("INFO", stream=stream, force=True)
        configure_logging("INFO", stream=stream)
        handlers = [
            h for h in logger.handlers if isinstance(h, AtomicLineHandler)
        ]
        try:
            assert len(handlers) == 1
        finally:
            for handler in handlers:
                logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)

    def test_level_gating(self, capture):
        logger, stream = capture
        logging.getLogger("repro").setLevel(logging.WARNING)
        logger.info("dropped")
        logger.warning("kept")
        assert [line["msg"] for line in _lines(stream)] == ["kept"]

    def test_resolve_level_names_and_env(self, monkeypatch):
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level(logging.ERROR) == logging.ERROR
        monkeypatch.setenv("REPRO_LOG_LEVEL", "WARNING")
        assert resolve_level() == logging.WARNING
        monkeypatch.delenv("REPRO_LOG_LEVEL")
        assert resolve_level() == logging.INFO
        with pytest.raises(ValueError):
            resolve_level("LOUD")

    def test_worker_init_installs_handler(self):
        logger = logging.getLogger("repro")
        saved_handlers = list(logger.handlers)
        saved_level = logger.level
        try:
            worker_init(logging.DEBUG)
            assert any(
                isinstance(h, AtomicLineHandler) for h in logger.handlers
            )
            assert logger.level == logging.DEBUG
        finally:
            logger.handlers[:] = saved_handlers
            logger.setLevel(saved_level)

    def test_configure_logging_attaches_to_repro_root(self):
        logger = logging.getLogger("repro")
        saved_handlers = list(logger.handlers)
        saved_level = logger.level
        try:
            returned = configure_logging(logging.INFO)
            assert returned is logger
            assert any(
                isinstance(h, AtomicLineHandler) for h in logger.handlers
            )
        finally:
            logger.handlers[:] = saved_handlers
            logger.setLevel(saved_level)


class TestIterLogLines:
    def test_skips_non_json_noise(self):
        text = 'plain stderr noise\n{"msg": "ok"}\n{broken\n'
        assert list(iter_log_lines(text)) == [{"msg": "ok"}]
