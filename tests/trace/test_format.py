"""Property and validation tests for the resolved-stream trace format.

The recorder resolves every forwarded reference while it captures, and
the file stores the resulting entries column by column.  The round-trip
properties pin the recorder's streaming resolution to a short reference
resolver over arbitrary event streams -- including streams that straddle
chunk boundaries and streams whose chains form cycles -- and the
validation tests cover every rejection path of :meth:`Trace.from_bytes`,
:meth:`Chunk.unpack`, and the random-access index, plus a byte-mutation
fuzz of the whole file.
"""

import dataclasses
import json
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ForwardingCycleError
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
from repro.trace import FORMAT_VERSION, Trace, TraceFormatError, TraceRecorder
from repro.trace.format import (
    CHUNK_EVENTS,
    COLUMN_NAMES,
    MAGIC,
    _parse_header,
    _seal,
    append_uvarint,
    load_index,
    make_chunk,
    read_uvarint,
)
from repro.trace.replay import iter_resolved_chunks

#: A handful of words that chains can link, so generated streams forward
#: (and sometimes cycle) instead of scattering over the address space.
WORDS = tuple(range(0x1000, 0x1000 + 8 * 6, 8))
addresses = st.one_of(
    st.sampled_from(WORDS),
    st.builds(lambda word, offset: word + offset, st.sampled_from(WORDS),
              st.sampled_from([1, 4])),
    st.integers(min_value=0, max_value=(1 << 48) - 1),
)
signed_words = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
targets = st.one_of(st.sampled_from(WORDS), signed_words)
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
def event_streams(draw):
    """A sequence of observer events: ``(callback suffix, *arguments)``."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from([
            "load", "store", "execute", "prefetch", "read_fbit",
            "unforwarded_read", "unforwarded_write", "malloc", "free",
            "raw_write", "set_trap",
        ]))
        if kind == "load":
            events.append((kind, draw(addresses), draw(sizes)))
        elif kind == "store":
            events.append((kind, draw(addresses), draw(signed_words), draw(sizes)))
        elif kind == "execute":
            events.append((kind, draw(st.integers(0, 1 << 20))))
        elif kind == "prefetch":
            events.append((kind, draw(addresses), draw(st.integers(1, 8))))
        elif kind in ("read_fbit", "unforwarded_read", "free"):
            events.append((kind, draw(addresses)))
        elif kind == "unforwarded_write":
            events.append(
                (kind, draw(addresses), draw(targets), draw(st.integers(0, 1)))
            )
        elif kind == "malloc":
            events.append(
                (kind, draw(st.integers(0, 1 << 24)), draw(sizes), draw(addresses))
            )
        elif kind == "raw_write":
            events.append((kind, draw(addresses), draw(targets)))
        else:
            events.append((kind, draw(st.booleans())))
    return events


#: Chunk sizes exercised by the boundary-straddling properties: every
#: entry its own chunk, a size that splits 40-entry streams mid-stream,
#: and the production size (one chunk for any test stream).
CHUNKINGS = (1, 7, CHUNK_EVENTS)


def _reference_entries(events):
    """The resolution rules applied to a whole event list at once.

    The oracle for the recorder's streaming resolution: a forwarding map
    fed by ``unforwarded_write``/``raw_write``, chains chased with a
    visited set (``None`` when one revisits a word -- a cycle).
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
    for name, *args in events:
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


def _record(events, chunk_events=CHUNK_EVENTS):
    """Feed an event list through the recorder; returns the Trace."""
    recorder = TraceRecorder(chunk_events=chunk_events)
    for name, *args in events:
        getattr(recorder, f"on_{name}")(*args)
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
        has_forwarded=recorder.has_forwarded,
    )


def _entries(trace):
    return [
        entry for chunk in iter_resolved_chunks(trace) for entry in chunk.entries()
    ]


VALID_EVENTS = [
    ("unforwarded_write", 0x10000, 0x20000, 1),
    ("load", 0x10004, 4),  # forwarded: final 0x20004 via hop 0x10000
    ("load", 0x10008, 8),
    ("prefetch", 0x20000, 2),
    ("store", 0x10010, -5, 4),
    ("execute", 12),
    ("free", 0x10000),
]


def _valid_trace(chunk_events=CHUNK_EVENTS):
    return _record(VALID_EVENTS, chunk_events=chunk_events)


@st.composite
def entry_lists(draw):
    """Arbitrary well-formed entries, independent of any event stream."""
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

    @given(events=event_streams())
    @settings(max_examples=150, deadline=None)
    def test_recorder_matches_reference_resolver(self, events):
        """Under every chunking, the recorder's entries -- read back from
        bytes -- are what the reference resolver computes; a forwarding
        cycle raises the typed error under every chunking instead."""
        expected = _reference_entries(events)
        for chunk_events in CHUNKINGS:
            if expected is None:
                with pytest.raises(ForwardingCycleError):
                    _record(events, chunk_events)
                continue
            trace = _record(events, chunk_events)
            clone = Trace.from_bytes(trace.to_bytes())
            assert _entries(clone) == expected
            assert trace.event_count == len(expected)
            assert trace.has_forwarded == any(
                entry[0] in (LOAD_FWD, STORE_FWD) for entry in expected
            )
            if chunk_events == 1:
                assert len(trace.chunks) == len(expected)

    @given(events=event_streams(), chunk_events=st.sampled_from(CHUNKINGS))
    @settings(max_examples=40, deadline=None)
    def test_bytes_roundtrip(self, events, chunk_events):
        if _reference_entries(events) is None:
            return  # a cycle: nothing to round-trip
        trace = _record(events, chunk_events)
        clone = Trace.from_bytes(trace.to_bytes())
        assert clone == trace
        assert clone.content_hash == trace.content_hash
        assert clone.has_forwarded == trace.has_forwarded
        assert _entries(clone) == _entries(trace)

    def test_empty_stream(self):
        trace = _record([])
        assert trace.chunks == ()
        clone = Trace.from_bytes(trace.to_bytes())
        assert clone == trace
        assert _entries(clone) == []

    def test_single_event_chunks(self):
        trace = _valid_trace(chunk_events=1)
        assert len(trace.chunks) == len(VALID_EVENTS)
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
    """A cyclic chain is a typed error at capture, never a hang."""

    def test_self_loop(self):
        recorder = TraceRecorder()
        recorder.on_unforwarded_write(0, 0, 1)
        with pytest.raises(ForwardingCycleError):
            recorder.on_load(0, 8)

    @pytest.mark.parametrize("event", [
        ("load", 0x10, 8), ("store", 0x14, 1, 4), ("free", 0x10),
    ])
    def test_two_word_cycle(self, event):
        recorder = TraceRecorder()
        recorder.on_unforwarded_write(0x10, 0x18, 1)
        recorder.on_unforwarded_write(0x18, 0x10, 1)
        with pytest.raises(ForwardingCycleError):
            getattr(recorder, f"on_{event[0]}")(*event[1:])

    def test_long_acyclic_chain_resolves(self):
        recorder = TraceRecorder()
        words = [0x100 + 8 * i for i in range(40)]
        for old, new in zip(words, words[1:]):
            recorder.on_unforwarded_write(old, new, 1)
        recorder.on_load(words[0], 8)
        recorder.on_free(words[0])
        entries = _entries(dataclasses.replace(_record([]), chunks=recorder.finish()))
        assert entries[-2] == (LOAD_FWD, words[0], words[-1], tuple(words[:-1]))
        assert entries[-1] == (FREE, len(words))


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
        assert index.has_forwarded == trace.has_forwarded

    def test_random_access_chunk_read(self, tmp_path):
        trace = _valid_trace(chunk_events=2)
        path = tmp_path / "t.trace"
        trace.save(path)
        index = load_index(path)
        for i, chunk in enumerate(trace.chunks):
            assert index.read_chunk(i) == chunk
        with pytest.raises(TraceFormatError, match="out of range"):
            index.read_chunk(len(trace.chunks))

    def test_load_index_rejects_v2_with_path_and_version(self, tmp_path):
        path = tmp_path / "v2.trace"
        data = bytearray(_valid_trace().to_bytes())
        data[len(MAGIC)] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as excinfo:
            load_index(path)
        assert excinfo.value.path == str(path)
        assert excinfo.value.version == 2


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
        _, chunk_start = _parse_header(data)
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
        _, chunk_start = _parse_header(bytes(data))
        data[chunk_start] ^= 0xFF  # first byte of chunk 0's kinds blob
        with pytest.raises(TraceFormatError, match="chunk 0 column 'kinds'"):
            Trace.from_bytes(bytes(data))

    def test_missing_header_field(self):
        trace = _valid_trace()
        data = trace.to_bytes()
        header, chunk_start = _parse_header(data)
        del header["event_count"]
        blob = json.dumps(header, sort_keys=True).encode()
        out = bytearray(MAGIC)
        out.append(FORMAT_VERSION)
        append_uvarint(out, len(blob))
        out += blob
        out += data[chunk_start:]
        with pytest.raises(TraceFormatError, match="missing fields"):
            Trace.from_bytes(bytes(out))

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
        events=event_streams(),
        chunk_events=st.sampled_from(CHUNKINGS),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_streams_and_masks(self, events, chunk_events, where, mask):
        if _reference_entries(events) is None:
            return  # a cycle: never captured
        data = _record(events, chunk_events).to_bytes()
        original = _entries(Trace.from_bytes(data))
        mutated = bytearray(data)
        mutated[int(where * len(data))] ^= mask
        outcome = _decode_or_error(bytes(mutated))
        assert isinstance(outcome, TraceFormatError) or outcome == original
        cut = _decode_or_error(data[: int(where * len(data))])
        assert isinstance(cut, TraceFormatError)
