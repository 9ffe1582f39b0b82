"""Property and validation tests for the resolved-stream trace format.

The machine resolves every forwarded reference with its own chain walk,
and the recorder -- the capture sink on the machine's entry stream --
seals the entries column by column.  The round-trip properties run
generated in-range programs on a real :class:`Machine`, on the fast path
and off it, and pin the stream it emits -- read back from bytes, under
every chunking, including streams that straddle chunk boundaries -- to a
short reference resolver; programs whose chains form cycles must raise
the typed error.  The validation tests cover every rejection path of
:meth:`Trace.from_bytes` and :meth:`Chunk.unpack`, check that
:func:`load_index` rejects each header or footer corruption exactly as
:meth:`Trace.from_bytes` does, and fuzz the whole file byte by byte.
"""

import dataclasses
import json
import struct
from array import array
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ForwardingCycleError, MemoryAccessError
from repro.core.kernel import (
    ACCESS_R,
    ACCESS_W,
    EXEC,
    FREE,
    LOAD,
    LOAD_FWD,
    MALLOC,
    PREFETCH,
    STORE,
    STORE_FWD,
    TRAP,
)
from repro.core.machine import Machine, MachineConfig
from repro.trace import FORMAT_VERSION, Trace, TraceFormatError, TraceRecorder
from repro.trace.format import (
    CHUNK_EVENTS,
    COLUMN_NAMES,
    FOOTER_MAGIC,
    MAGIC,
    _read_container,
    _seal,
    append_uvarint,
    load_index,
    make_chunk,
    read_uvarint,
)
from repro.trace.replay import iter_resolved_chunks

#: A small machine, since these tests build hundreds: the heap is
#: [0x10000, 0x20000) and the pool region [0x20000, 0x30000).
SMALL = MachineConfig(heap_size=0x10000, pool_region_size=0x10000)
POOL_BASE = SMALL.heap_base + SMALL.heap_size
#: Every program runs with this much of the pool region carved, so a
#: ``free`` whose chain reaches it is legal.
POOL_BYTES = 0x1000
#: A handful of pool words that chains link, so generated programs
#: forward (and sometimes cycle) instead of scattering over memory.
#: ``malloc`` never clears them, and freeing them is always legal.
WORDS = tuple(range(POOL_BASE, POOL_BASE + 8 * 6, 8))
in_range_words = st.integers(0, SMALL.memory_size // 8 - 1).map(lambda i: 8 * i)
#: Data words and forwarding targets: a chain word or any in-range word.
words = st.one_of(st.sampled_from(WORDS), in_range_words)
signed_words = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
sizes = st.sampled_from([1, 2, 4, 8])


class TestVarints:
    @given(value=st.integers(min_value=0, max_value=1 << 70))
    @settings(max_examples=80, deadline=None)
    def test_uvarint_roundtrip(self, value):
        out = bytearray()
        append_uvarint(out, value)
        decoded, offset = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            append_uvarint(bytearray(), -1)

    def test_truncated_varint(self):
        with pytest.raises(TraceFormatError):
            read_uvarint(b"\x80\x80", 0)


@st.composite
def accesses(draw):
    """An in-range, naturally aligned ``(address, size)``."""
    size = draw(sizes)
    return draw(words) + draw(st.sampled_from(range(0, 8, size))), size


@st.composite
def programs(draw):
    """An in-range program: a list of ``(Machine method, *arguments)``."""
    program = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        name = draw(st.sampled_from([
            "load", "store", "execute", "prefetch", "read_fbit",
            "unforwarded_read", "unforwarded_write", "malloc", "free",
            "raw_write", "set_trap",
        ]))
        if name == "load":
            program.append((name, *draw(accesses())))
        elif name == "store":
            address, size = draw(accesses())
            program.append((name, address, draw(signed_words), size))
        elif name == "execute":
            program.append((name, draw(st.integers(0, 1 << 20))))
        elif name == "prefetch":
            program.append((name, draw(words), draw(st.integers(1, 8))))
        elif name in ("read_fbit", "unforwarded_read"):
            program.append((name, draw(accesses())[0]))
        elif name == "unforwarded_write":
            word = draw(st.sampled_from(WORDS)) + draw(st.sampled_from([0, 1, 4]))
            program.append((name, word, draw(words), draw(st.integers(0, 1))))
        elif name == "malloc":
            program.append((name, draw(st.integers(1, 256))))
        elif name == "free":
            program.append((name, draw(st.sampled_from(WORDS))))
        elif name == "raw_write":
            program.append((name, draw(st.sampled_from(WORDS)), draw(words)))
        else:
            program.append((name, draw(st.booleans())))
    return program


#: Chunk sizes exercised by the boundary-straddling properties: every
#: entry its own chunk, a size that splits 40-entry streams mid-stream,
#: and the production size (one chunk for any test stream).
CHUNKINGS = (1, 7, CHUNK_EVENTS)


def _reference_entries(program):
    """The entries a program's machine must emit, computed at once.

    The oracle for the machine's stream: a forwarding map fed by
    ``unforwarded_write``/``raw_write``, chains chased with a visited set
    (``None`` when one revisits a word -- a cycle).
    """
    fwd = {}

    def chase(address):
        word, hops, seen, value = address & ~7, [], set(), None
        while word in fwd:
            if word in seen:
                return None
            seen.add(word)
            hops.append(word)
            value = fwd[word]
            word = value & ~7
        return value, hops

    out = []
    for name, *args in program:
        if name in ("load", "store"):
            resolved = chase(args[0])
            if resolved is None:
                return None
            final, hops = resolved
            if not hops:
                out.append((LOAD if name == "load" else STORE, args[0]))
            else:
                kind = LOAD_FWD if name == "load" else STORE_FWD
                out.append((kind, args[0], final | (args[0] & 7), tuple(hops)))
        elif name == "execute":
            out.append((EXEC, args[0]))
        elif name == "prefetch":
            out.append((PREFETCH, args[0], args[1]))
        elif name in ("read_fbit", "unforwarded_read"):
            out.append((ACCESS_R, args[0] & ~7))
        elif name == "unforwarded_write":
            word = args[0] & ~7
            if args[2]:
                fwd[word] = args[1]
            else:
                fwd.pop(word, None)
            out.append((ACCESS_W, word))
        elif name == "malloc":
            out.append((MALLOC, args[0]))
        elif name == "free":
            resolved = chase(args[0])
            if resolved is None:
                return None
            out.append((FREE, 1 + len(resolved[1])))
        elif name == "raw_write":
            if (args[0] & ~7) in fwd:
                fwd[args[0] & ~7] = args[1]
        else:
            out.append((TRAP, 1 if args[0] else 0))
    return out


def _ignore_trap(machine, event):
    pass


def _run(program, chunk_events=CHUNK_EVENTS, fast_path=True):
    """Run ``program`` on a machine with a recorder sink; returns the Trace."""
    recorder = TraceRecorder(chunk_events=chunk_events)
    machine = Machine(replace(SMALL, fast_path=fast_path), sink=recorder)
    machine.create_pool(POOL_BYTES)
    for name, *args in program:
        if name == "set_trap":
            machine.set_trap_handler(_ignore_trap if args[0] else None)
        else:
            getattr(machine, name)(*args)
    machine.stats()  # drains the pending chunk into the sink
    return Trace(
        app="synthetic",
        variant="N",
        scale=1.0,
        seed=7,
        line_size=32,
        line_size_sensitive=False,
        checksum=123,
        extras={"k": 1},
        captured_stats={"forwarding_hops": 0},
        event_count=recorder.event_count,
        chunks=recorder.finish(),
    )


def _entries(trace):
    return [
        entry for chunk in iter_resolved_chunks(trace) for entry in chunk.entries()
    ]


VALID_PROGRAM = [
    ("unforwarded_write", 0x10000, 0x20000, 1),
    ("load", 0x10004, 4),  # forwarded: final 0x20004 via hop 0x10000
    ("load", 0x10008, 8),
    ("prefetch", 0x20000, 2),
    ("store", 0x10010, -5, 4),
    ("execute", 12),
    ("free", 0x10000),  # chain 0x10000 -> 0x20000, in the pool
]


def _valid_trace(chunk_events=CHUNK_EVENTS):
    return _run(VALID_PROGRAM, chunk_events=chunk_events)


@st.composite
def entry_lists(draw):
    """Arbitrary well-formed entries, independent of any program."""
    out = []
    ops = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.integers(min_value=0, max_value=TRAP))
        if kind == PREFETCH:
            out.append((kind, draw(ops), draw(ops)))
        elif kind in (LOAD_FWD, STORE_FWD):
            hops = tuple(draw(st.lists(ops, min_size=1, max_size=4)))
            out.append((kind, draw(ops), draw(ops), hops))
        else:
            out.append((kind, draw(ops)))
    return out


class TestRoundTrip:
    @given(entries=entry_lists())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, entries):
        """Sealing a chunk and unpacking it is the identity."""
        kinds, ops, extras = bytearray(), array("q"), {}
        for i, (kind, op, *extra) in enumerate(entries):
            kinds.append(kind)
            ops.append(op)
            if kind == PREFETCH:
                extras[i] = extra[0]
            elif kind in (LOAD_FWD, STORE_FWD):
                extras[i] = tuple(extra)
        assert make_chunk(kinds, ops, extras).unpack(0) == (
            bytes(kinds), ops, extras
        )

    @given(program=programs())
    @settings(max_examples=150, deadline=None)
    def test_recorder_matches_reference_resolver(self, program):
        """On the fast path and off it, under every chunking, the
        machine's entries -- read back from bytes -- are what the
        reference resolver computes; a forwarding cycle raises the typed
        error instead."""
        expected = _reference_entries(program)
        for fast_path in (True, False):
            for chunk_events in CHUNKINGS:
                if expected is None:
                    with pytest.raises(ForwardingCycleError):
                        _run(program, chunk_events, fast_path)
                    continue
                trace = _run(program, chunk_events, fast_path)
                clone = Trace.from_bytes(trace.to_bytes())
                assert _entries(clone) == expected
                assert trace.event_count == len(expected)
                if chunk_events == 1:
                    assert len(trace.chunks) == len(expected)

    @given(program=programs(), chunk_events=st.sampled_from(CHUNKINGS))
    @settings(max_examples=40, deadline=None)
    def test_bytes_roundtrip(self, program, chunk_events):
        if _reference_entries(program) is None:
            return  # a cycle: nothing to round-trip
        trace = _run(program, chunk_events)
        clone = Trace.from_bytes(trace.to_bytes())
        assert clone == trace
        assert clone.content_hash == trace.content_hash
        assert _entries(clone) == _entries(trace)

    def test_empty_stream(self):
        trace = _run([])
        assert trace.chunks == ()
        clone = Trace.from_bytes(trace.to_bytes())
        assert clone == trace
        assert _entries(clone) == []

    def test_single_event_chunks(self):
        trace = _valid_trace(chunk_events=1)
        assert len(trace.chunks) == len(VALID_PROGRAM)
        assert all(chunk.event_count == 1 for chunk in trace.chunks)
        assert _entries(Trace.from_bytes(trace.to_bytes())) == _entries(trace)

    def test_save_load(self, tmp_path):
        trace = _valid_trace()
        path = tmp_path / "t.rtrc"
        trace.save(path)
        assert Trace.load(path) == trace

    def test_forwarded_reference_carries_its_resolution(self):
        assert _entries(_valid_trace())[:3] == [
            (ACCESS_W, 0x10000),
            (LOAD_FWD, 0x10004, 0x20004, (0x10000,)),
            (LOAD, 0x10008),
        ]


class TestForwardingCycle:
    """A cyclic chain is a typed error from the machine's walk, never a
    hang, and a walk that raises leaves nothing in the stream."""

    @staticmethod
    def _runs(program):
        """``program`` on both paths under every chunking."""
        for fast_path in (True, False):
            for chunk_events in CHUNKINGS:
                yield partial(_run, program, chunk_events, fast_path)

    def test_self_loop(self):
        for run in self._runs([
            ("unforwarded_write", WORDS[0], WORDS[0], 1),
            ("load", WORDS[0], 8),
        ]):
            with pytest.raises(ForwardingCycleError):
                run()

    @pytest.mark.parametrize("event", [
        ("load", WORDS[0], 8), ("store", WORDS[0] + 4, 1, 4), ("free", WORDS[0]),
    ])
    def test_two_word_cycle(self, event):
        for run in self._runs([
            ("unforwarded_write", WORDS[0], WORDS[1], 1),
            ("unforwarded_write", WORDS[1], WORDS[0], 1),
            event,
        ]):
            with pytest.raises(ForwardingCycleError):
                run()

    def test_long_acyclic_chain_resolves(self):
        chain = [POOL_BASE + 8 * i for i in range(40)]
        program = [
            ("unforwarded_write", old, new, 1) for old, new in zip(chain, chain[1:])
        ]
        program += [("load", chain[0], 8), ("free", chain[0])]
        for run in self._runs(program):
            entries = _entries(run())
            assert entries[-2] == (LOAD_FWD, chain[0], chain[-1], tuple(chain[:-1]))
            assert entries[-1] == (FREE, len(chain))

    @pytest.mark.parametrize("fast_path", [True, False])
    @pytest.mark.parametrize("target,error", [
        (WORDS[0], ForwardingCycleError),
        (SMALL.memory_size, MemoryAccessError),
    ], ids=["cycle", "out-of-range"])
    def test_failed_walk_leaves_nothing_behind(self, target, error, fast_path):
        """The reference after a walk that raised carries only its own
        hops."""
        recorder = TraceRecorder()
        machine = Machine(replace(SMALL, fast_path=fast_path), sink=recorder)
        machine.unforwarded_write(WORDS[0], WORDS[1], 1)
        machine.unforwarded_write(WORDS[1], target, 1)
        with pytest.raises(error):
            machine.load(WORDS[0])
        machine.unforwarded_write(WORDS[1], WORDS[2], 1)
        machine.load(WORDS[0])
        machine.stats()
        trace = dataclasses.replace(_run([]), chunks=recorder.finish())
        assert _entries(trace)[-2:] == [
            (ACCESS_W, WORDS[1]),
            (LOAD_FWD, WORDS[0], WORDS[2], (WORDS[0], WORDS[1])),
        ]


class TestIndex:
    def test_load_index_answers_without_chunks(self, tmp_path):
        trace = _valid_trace(chunk_events=2)
        path = tmp_path / "t.trace"
        trace.save(path)
        index = load_index(path)
        assert index.event_count == trace.event_count
        assert index.chunk_count == len(trace.chunks)
        assert index.stream_sha256 == trace.stream_sha256
        assert index.content_hash == trace.content_hash

    def test_load_index_rejects_v2_with_path_and_version(self, tmp_path):
        path = tmp_path / "v2.trace"
        data = bytearray(_valid_trace().to_bytes())
        data[len(MAGIC)] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as excinfo:
            load_index(path)
        assert excinfo.value.path == str(path)
        assert excinfo.value.version == 2


def _chunk_start(data):
    """Where a valid container's chunk region starts."""
    return _read_container(lambda offset, n: data[offset : offset + n], len(data))[2]


def _parts():
    """A valid trace's header dict, chunk region bytes and footer dict."""
    trace = _valid_trace(chunk_events=2)
    region = b"".join(blob for chunk in trace.chunks for blob in chunk.data)
    return trace.header_dict(), region, trace.footer_dict()


def _assemble(header, region, footer):
    """A container around ``header`` and ``footer``: dicts, or raw JSON."""
    header, footer = (
        part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode()
        for part in (header, footer)
    )
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    append_uvarint(out, len(header))
    out += header + region + footer
    out += struct.pack("<I4s", len(footer), FOOTER_MAGIC)
    return bytes(out)


def _without(mapping, key):
    return {name: value for name, value in mapping.items() if name != key}


def _restamp(version, data):
    return data[: len(MAGIC)] + bytes([version]) + data[len(MAGIC) + 1 :]


#: One value of the wrong JSON type per header field (a JSON ``true`` is
#: no number).
MISTYPED_HEADER = {
    "app": 5,
    "variant": None,
    "scale": "0.05",
    "seed": True,
    "line_size": 32.0,
    "line_size_sensitive": 0,
    "checksum": "7",
    "extras": [],
    "captured_stats": "{}",
    "event_count": 1.5,
}

#: Each header or footer corruption: ``(header, region, footer) -> bytes``
#: and a fragment of the message it must fail with.
CORRUPTIONS = {
    "bad magic": (
        lambda h, r, f: b"NOPE" + _assemble(h, r, f)[len(MAGIC) :],
        "not a trace: bad magic",
    ),
    **{
        f"version {version}": (
            lambda h, r, f, version=version: _restamp(version, _assemble(h, r, f)),
            f"unsupported trace format version {version} ",
        )
        for version in (0, 2, 3, FORMAT_VERSION - 1, FORMAT_VERSION + 1, 255)
    },
    # The header is over 127 bytes, so its length takes two varint bytes.
    "cut inside the length varint": (
        lambda h, r, f: _assemble(h, r, f)[: len(MAGIC) + 2],
        "truncated varint in trace header",
    ),
    "header cut short": (
        lambda h, r, f: _assemble(h, r, f)[: len(MAGIC) + 3 + 10],
        "truncated trace header",
    ),
    "header not an object": (
        lambda h, r, f: _assemble(b"[1]", r, f),
        "corrupt trace header: not a JSON object",
    ),
    "missing header field": (
        lambda h, r, f: _assemble(_without(h, "checksum"), r, f),
        "trace header missing fields ['checksum']",
    ),
    **{
        f"header {field} of the wrong type": (
            lambda h, r, f, field=field, value=value: _assemble(
                {**h, field: value}, r, f
            ),
            f"trace header fields of the wrong type [{field!r}]",
        )
        for field, value in MISTYPED_HEADER.items()
    },
    "no trailer": (
        lambda h, r, f: _assemble(h, b"", b"")[: -len(FOOTER_MAGIC) - 4],
        "truncated trace: missing footer trailer",
    ),
    "bad footer magic": (
        lambda h, r, f: _assemble(h, r, f)[:-1] + b"?",
        "corrupt trace: bad footer magic",
    ),
    "footer overlaps chunk region": (
        lambda h, r, f: _assemble(h, r, f)[: -len(FOOTER_MAGIC) - 4]
        + struct.pack("<I4s", len(_assemble(h, r, f)), FOOTER_MAGIC),
        "corrupt trace: footer overlaps chunk region",
    ),
    "missing footer field": (
        lambda h, r, f: _assemble(h, r, _without(f, "stream_sha256")),
        "trace footer missing fields ['stream_sha256']",
    ),
    "footer field of the wrong type": (
        lambda h, r, f: _assemble(h, r, {**f, "stream_sha256": 5}),
        "trace footer fields of the wrong type ['stream_sha256']",
    ),
}


class TestOneReader:
    """:meth:`Trace.from_bytes` and :func:`load_index` parse the
    container with one parser, so they reject the same bytes alike."""

    def test_assembler_rebuilds_a_valid_trace(self):
        assert _assemble(*_parts()) == _valid_trace(chunk_events=2).to_bytes()

    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_same_message_and_version(self, case, tmp_path):
        corrupt, message = CORRUPTIONS[case]
        data = corrupt(*_parts())
        with pytest.raises(TraceFormatError) as from_bytes:
            Trace.from_bytes(data)
        path = tmp_path / "corrupt.trace"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError) as from_file:
            load_index(path)
        assert message in from_bytes.value.args[0]
        assert from_file.value.args == from_bytes.value.args
        assert from_file.value.version == from_bytes.value.version
        assert from_file.value.path == str(path)
        if case.startswith("version"):
            assert from_bytes.value.version == data[len(MAGIC)]


def _le_int64(*values):
    return struct.pack(f"<{len(values)}q", *values)


def _with_chunk(chunk):
    return dataclasses.replace(
        _valid_trace(), chunks=(chunk,), event_count=chunk.event_count
    )


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            Trace.from_bytes(b"NOPE" + _valid_trace().to_bytes()[4:])

    def test_unsupported_version(self):
        for version in (2, 3, FORMAT_VERSION + 1):
            data = bytearray(_valid_trace().to_bytes())
            data[len(MAGIC)] = version
            with pytest.raises(TraceFormatError, match="version") as excinfo:
                Trace.from_bytes(bytes(data))
            assert excinfo.value.version == version

    def test_load_attaches_the_path(self, tmp_path):
        path = tmp_path / "garbled.trace"
        data = bytearray(_valid_trace().to_bytes())
        data[len(MAGIC)] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as excinfo:
            Trace.load(path)
        assert excinfo.value.path == str(path)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.version == 9

    def test_truncated_final_chunk(self):
        """A byte missing from the chunk region fails as truncation."""
        trace = _valid_trace()
        data = trace.to_bytes()
        chunk_start = _chunk_start(data)
        # Drop the first byte of the chunk region; offsets in the footer
        # now overrun it.
        cut = data[: chunk_start] + data[chunk_start + 1 :]
        with pytest.raises(TraceFormatError, match="truncated chunk"):
            Trace.from_bytes(cut)

    @pytest.mark.parametrize("column", COLUMN_NAMES)
    def test_column_corruption_names_chunk_and_column(self, column):
        """Flipping one byte in a column fails naming chunk + column."""
        trace = _valid_trace(chunk_events=2)
        victim = trace.chunks[1]
        col_index = COLUMN_NAMES.index(column)
        blob = bytearray(victim.data[col_index])
        blob[len(blob) // 2] ^= 0xFF
        data = list(victim.data)
        data[col_index] = bytes(blob)
        corrupted = dataclasses.replace(victim, data=tuple(data))
        tampered = dataclasses.replace(
            trace, chunks=(trace.chunks[0], corrupted) + trace.chunks[2:]
        )
        with pytest.raises(
            TraceFormatError, match=f"chunk 1 column '{column}'"
        ):
            list(iter_resolved_chunks(tampered))

    def test_file_level_corruption_names_chunk_and_column(self):
        trace = _valid_trace()
        data = bytearray(trace.to_bytes())
        data[_chunk_start(bytes(data))] ^= 0xFF  # first byte of chunk 0's kinds blob
        with pytest.raises(TraceFormatError, match="chunk 0 column 'kinds'"):
            Trace.from_bytes(bytes(data))

    def test_missing_header_field(self):
        header, region, footer = _parts()
        data = _assemble(_without(header, "event_count"), region, footer)
        with pytest.raises(TraceFormatError, match="missing fields"):
            Trace.from_bytes(data)

    def test_corrupt_header_json(self):
        out = bytearray(MAGIC)
        out.append(FORMAT_VERSION)
        append_uvarint(out, 4)
        out += b"{{{{"
        with pytest.raises(TraceFormatError, match="corrupt trace header"):
            Trace.from_bytes(bytes(out))

    def test_missing_footer_trailer(self):
        data = _valid_trace().to_bytes()
        with pytest.raises(TraceFormatError, match="footer"):
            Trace.from_bytes(data[:-3])

    def test_unknown_opcode_rejected(self):
        chunk = make_chunk(bytes([TRAP + 1]), array("q", [0]), {})
        with pytest.raises(TraceFormatError, match="unknown entry kind"):
            list(iter_resolved_chunks(_with_chunk(chunk)))

    def test_truncated_event_stream(self):
        """An operand column shorter than the kinds column is rejected."""
        for ops_raw in (b"\x00" * 4, b"\x00" * 8):
            chunk = _seal((bytes([LOAD, LOAD]), ops_raw, b""), 2)
            with pytest.raises(TraceFormatError, match="column 'ops'"):
                list(iter_resolved_chunks(_with_chunk(chunk)))

    def test_event_count_mismatch(self):
        trace = _valid_trace()
        trace.event_count += 1
        with pytest.raises(TraceFormatError, match="event count mismatch"):
            Trace.from_bytes(trace.to_bytes())
        chunk = dataclasses.replace(trace.chunks[0], event_count=3)
        with pytest.raises(TraceFormatError, match="index says 3"):
            list(iter_resolved_chunks(_with_chunk(chunk)))

    @pytest.mark.parametrize("kinds,rows,problem", [
        ([PREFETCH], [1, 2], "out of range"),
        ([PREFETCH], [-1, 2], "out of range"),
        ([PREFETCH, PREFETCH], [0, 2, 0, 3], "repeated"),
        ([LOAD], [0, 2], "misplaced"),
        ([PREFETCH], [0], "truncated"),
        ([LOAD_FWD], [0, 64, 0], "hop count"),
        ([STORE_FWD], [0, 64, -1, 8], "hop count"),
        ([LOAD_FWD], [0, 64, 2, 8], "hop count"),
        ([PREFETCH, LOAD_FWD], [0, 2], "1 rows for 2 entries"),
        ([PREFETCH], [], "0 rows for 1 entries"),
    ])
    def test_extras_rows_are_checked(self, kinds, rows, problem):
        """Each prefetch or forwarded entry has exactly one well-formed,
        in-range extras row, and forwarded rows have a hop."""
        chunk = _seal(
            (bytes(kinds), _le_int64(*[0] * len(kinds)), _le_int64(*rows)),
            len(kinds),
        )
        with pytest.raises(TraceFormatError, match="column 'extras'") as excinfo:
            list(iter_resolved_chunks(_with_chunk(chunk)))
        assert problem in str(excinfo.value)


    def test_extras_rows_out_of_entry_order(self):
        """The kernel takes extras in entry order: a chunk with two
        forwarded entries whose rows are swapped -- resealed, so every
        hash is valid -- is rejected, not decoded."""
        trace = _run([
            ("unforwarded_write", WORDS[0], WORDS[1], 1),
            ("load", WORDS[0], 8),
            ("store", WORDS[0], 5, 8),
        ])
        chunk = trace.chunks[0]
        kinds, ops_raw, extras_raw = chunk.columns(0)
        assert list(kinds) == [ACCESS_W, LOAD_FWD, STORE_FWD]
        assert chunk.unpack(0)[2] == {
            1: (WORDS[1], (WORDS[0],)), 2: (WORDS[1], (WORDS[0],)),
        }
        rows = array("q", extras_raw)
        row = len(rows) // 2  # two rows of (i, final, 1, hop)
        swapped = rows[row:] + rows[:row]
        forged = _seal((kinds, ops_raw, swapped.tobytes()), chunk.event_count)
        with pytest.raises(TraceFormatError, match="column 'extras'") as excinfo:
            list(iter_resolved_chunks(_with_chunk(forged)))
        assert "out of order" in str(excinfo.value)


def _decode_or_error(data):
    """``Trace.from_bytes`` + a full drain: entries, or the format error."""
    try:
        return _entries(Trace.from_bytes(data))
    except TraceFormatError as exc:
        return exc


class TestMutation:
    """Any one flipped byte or any truncation: a TraceFormatError or the
    original entries, never another exception or a different stream."""

    @pytest.mark.parametrize("chunk_events", [2, CHUNK_EVENTS])
    def test_every_byte_flip_and_truncation(self, chunk_events):
        data = _valid_trace(chunk_events).to_bytes()
        original = _entries(Trace.from_bytes(data))
        for position in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                mutated = bytearray(data)
                mutated[position] ^= mask
                outcome = _decode_or_error(bytes(mutated))
                assert isinstance(outcome, TraceFormatError) or outcome == original
        for length in range(len(data)):
            assert isinstance(_decode_or_error(data[:length]), TraceFormatError)

    @given(
        program=programs(),
        chunk_events=st.sampled_from(CHUNKINGS),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_streams_and_masks(self, program, chunk_events, where, mask):
        if _reference_entries(program) is None:
            return  # a cycle: never captured
        data = _run(program, chunk_events).to_bytes()
        original = _entries(Trace.from_bytes(data))
        mutated = bytearray(data)
        mutated[int(where * len(data))] ^= mask
        outcome = _decode_or_error(bytes(mutated))
        assert isinstance(outcome, TraceFormatError) or outcome == original
        cut = _decode_or_error(data[: int(where * len(data))])
        assert isinstance(cut, TraceFormatError)
