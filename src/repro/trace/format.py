"""The binary trace format: the resolved reference stream, chunked and columnar.

Forwarding resolution does not depend on the machine a stream is
replayed against: a reference's final address and hop chain are fixed
by the relocations before it, never by the simulated cache.  So the
recorder resolves every reference while it captures
(:mod:`repro.trace.recorder`), and format **v5** stores exactly the
*entries* replay consumes -- the ``(kind, op[, extra])`` stream of
:mod:`repro.core.kernel`'s entry kinds -- split into fixed-entry-count
*chunks*, each stored column-wise::

    magic "RTRC" | version u8 | uvarint header_len | header JSON
    | chunk 0: kinds || ops || extras      (each column zlib-compressed)
    | chunk 1: ...
    | footer JSON | footer_len u32 LE | footer magic "RTRF"

* ``kinds`` holds one byte per entry, a :mod:`repro.core.kernel` kind;
* ``ops`` holds each entry's operand as a little-endian int64;
* ``extras`` holds little-endian int64 rows keyed by the entry's index
  in its chunk: ``(i, lines)`` for a prefetch and
  ``(i, final, nhops, hop...)`` for a forwarded reference.

This module owns that layout: :func:`make_chunk` seals one chunk's
``(kinds, ops, extras)`` -- the arrays and sparse dict the replay
sessions and the generated kernel consume -- and :meth:`Chunk.unpack`
returns them again, checking everything the layout promises (entry
counts, kind range, one well-formed extras row per entry that needs
one).

The footer is ``{"event_count", "stream_sha256", "chunks"}``: the
stream shape, and a chunk directory recording per chunk the offset
into the chunk region, the entry count, and each column's compressed
length, raw length, and SHA-256 (of the *raw* bytes, so integrity is
independent of the compressor).  A fixed-size trailer (footer length +
footer magic) lets a reader load header and footer without touching
chunk data -- see :func:`load_index` -- and replay streams chunks one
at a time without ever materialising the whole trace.

The header carries the trace's identity (app, variant, scale, seed,
capturing line size, line-size sensitivity) and the run's semantic
outputs.  One parser reads the container -- magic, version, header,
trailer, footer -- for :meth:`Trace.from_bytes` and :func:`load_index`
alike, so both reject the same files with the same messages.
Corruption anywhere is detected at load time and named precisely: a
flipped byte in a column fails with the chunk index and column name.
A file of any other version is a cache miss, not a second decoder: it
fails with :class:`TraceFormatError` naming the version, and the store
recaptures.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.kernel import LOAD_FWD, PREFETCH, STORE_FWD, TRAP

MAGIC = b"RTRC"
FOOTER_MAGIC = b"RTRF"
#: Bump on any incompatible change to the header, footer, or column
#: encoding -- or to the captured-stats contract (version 3 was the
#: chunked raw-event layout; version 4 stored the resolved stream plus
#: an unread any-forwarded-reference footer flag, which version 5 drops).
FORMAT_VERSION = 5

#: Entries per sealed chunk.  Small enough that one chunk's arrays stay
#: well under a megabyte, large enough that the per-chunk overhead (zlib
#: headers, kernel re-entry, index rows) disappears into the decode cost.
CHUNK_EVENTS = 65536
COLUMN_NAMES = ("kinds", "ops", "extras")
#: Chunks seal on the capture hot path, so speed beats ratio; integrity
#: hashes cover the raw bytes, so the level is not part of identity.
_COMPRESS_LEVEL = 1
_TRAILER = struct.Struct("<I4s")
_BIG_ENDIAN = sys.byteorder == "big"
#: Every valid kind byte (deleting them from a kinds column leaves only
#: the invalid ones -- a C-speed scan).
_KINDS = bytes(range(TRAP + 1))


class TraceFormatError(Exception):
    """A trace file or byte string could not be decoded.

    ``path`` (when the failure came through :meth:`Trace.load` or
    :func:`load_index`) and ``version`` (when the file's version byte is
    not :data:`FORMAT_VERSION`) identify the offending file precisely --
    the CLI maps this error to its one-line-stderr + exit-2 contract.
    """

    def __init__(
        self,
        message: str,
        path: Any = None,
        version: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = str(path) if path is not None else None
        self.version = version

    def __str__(self) -> str:
        message = self.args[0] if self.args else ""
        if self.path is not None:
            return f"{self.path}: {message}"
        return message


# ----------------------------------------------------------------------
# Primitives: the header-length varint and the int64 columns
# ----------------------------------------------------------------------
def append_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one LEB128 varint at ``offset``; returns ``(value, next)``."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise TraceFormatError("truncated varint in trace header")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _int64_bytes(values: array) -> bytes:
    """``values`` as little-endian int64 bytes."""
    if _BIG_ENDIAN:
        values = array("q", values)
        values.byteswap()
    return values.tobytes()


def _int64_array(raw: bytes, where: str) -> array:
    """Inverse of :func:`_int64_bytes`."""
    if len(raw) % 8:
        raise TraceFormatError(
            f"corrupt {where}: {len(raw)} bytes is not a whole number of "
            "int64 values"
        )
    values = array("q")
    values.frombytes(raw)
    if _BIG_ENDIAN:
        values.byteswap()
    return values


# ----------------------------------------------------------------------
# Chunks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Chunk:
    """One sealed run of entries, stored as three compressed columns."""

    #: Entries encoded in this chunk.
    event_count: int
    #: Compressed column bytes, in :data:`COLUMN_NAMES` order.
    data: tuple[bytes, bytes, bytes]
    #: Uncompressed column lengths, same order.
    raw_lens: tuple[int, int, int]
    #: SHA-256 hex digests of the *uncompressed* columns, same order.
    shas: tuple[str, str, str]

    def columns(self, index: int, path: Any = None) -> tuple[bytes, bytes, bytes]:
        """Decompress and verify all three columns.

        Corruption fails with the chunk index and column name -- the
        error granularity the corpus tooling and tests rely on.
        """
        out = []
        for name, blob, raw_len, sha in zip(
            COLUMN_NAMES, self.data, self.raw_lens, self.shas
        ):
            where = f"chunk {index} column {name!r}"
            try:
                raw = zlib.decompress(blob)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"corrupt {where}: {exc}", path=path
                ) from exc
            if len(raw) != raw_len:
                raise TraceFormatError(
                    f"corrupt {where}: {len(raw)} raw bytes, index says "
                    f"{raw_len}",
                    path=path,
                )
            if hashlib.sha256(raw).hexdigest() != sha:
                raise TraceFormatError(
                    f"corrupt {where}: content hash mismatch", path=path
                )
            out.append(raw)
        return tuple(out)

    def unpack(self, index: int, path: Any = None) -> tuple[bytes, array, dict]:
        """Inflate, verify and unpack: ``(kinds, ops, extras)``.

        ``extras`` maps an entry index to its line count (prefetch) or
        ``(final, hops)`` (forwarded reference), in entry order -- the
        order the generated kernel consumes them in.  Anything the layout
        forbids, rows out of entry order included, fails with
        :class:`TraceFormatError` naming the chunk and column.
        """
        kinds, ops_raw, extras_raw = self.columns(index, path)
        n = len(kinds)
        if n != self.event_count:
            raise TraceFormatError(
                f"chunk {index}: {n} entries, index says {self.event_count}",
                path=path,
            )
        unknown = kinds.translate(None, _KINDS)
        if unknown:
            raise TraceFormatError(
                f"corrupt chunk {index} column 'kinds': unknown entry kind "
                f"{unknown[0]}",
                path=path,
            )
        ops = _int64_array(ops_raw, f"chunk {index} column 'ops'")
        if len(ops) != n:
            raise TraceFormatError(
                f"corrupt chunk {index} column 'ops': {len(ops)} operands "
                f"for {n} entries",
                path=path,
            )
        rows = _int64_array(extras_raw, f"chunk {index} column 'extras'")
        extras: dict = {}
        end = len(rows)
        pos = 0
        last = -1
        while pos < end:
            i = rows[pos]
            if not 0 <= i < n:
                bad = f"row for entry {i} out of range"
            elif i <= last:
                # The kernel takes extras in entry order.
                bad = f"row for entry {i} repeated or out of order after {last}"
            elif kinds[i] == PREFETCH and pos + 2 <= end:
                extras[i] = rows[pos + 1]
                pos += 2
                last = i
                continue
            elif (kinds[i] == LOAD_FWD or kinds[i] == STORE_FWD) and pos + 3 <= end:
                stop = pos + 3 + rows[pos + 2]
                if pos + 3 < stop <= end:
                    extras[i] = (rows[pos + 1], tuple(rows[pos + 3 : stop]))
                    pos = stop
                    last = i
                    continue
                bad = f"forwarded row for entry {i} has a bad hop count"
            else:
                bad = f"truncated or misplaced row for entry {i} (kind {kinds[i]})"
            raise TraceFormatError(
                f"corrupt chunk {index} column 'extras': {bad}", path=path
            )
        needed = (
            kinds.count(PREFETCH) + kinds.count(LOAD_FWD) + kinds.count(STORE_FWD)
        )
        if len(extras) != needed:
            raise TraceFormatError(
                f"corrupt chunk {index} column 'extras': {len(extras)} rows "
                f"for {needed} entries that need one",
                path=path,
            )
        return kinds, ops, extras


def _seal(raws: tuple[bytes, bytes, bytes], event_count: int) -> Chunk:
    return Chunk(
        event_count=event_count,
        data=tuple(zlib.compress(raw, _COMPRESS_LEVEL) for raw in raws),
        raw_lens=tuple(len(raw) for raw in raws),
        shas=tuple(hashlib.sha256(raw).hexdigest() for raw in raws),
    )


def make_chunk(kinds: bytes, ops: array, extras: dict) -> Chunk:
    """Seal one chunk's entries into a compressed, hashed :class:`Chunk`.

    The arguments are what :meth:`Chunk.unpack` returns: one kind byte
    and one int64 operand per entry, and ``extras`` mapping an entry
    index to its line count (prefetch) or ``(final, hops)`` (forwarded
    reference).
    """
    rows = array("q")
    for i, extra in extras.items():
        if kinds[i] == PREFETCH:
            rows.extend((i, extra))
        else:
            final, hops = extra
            rows.extend((i, final, len(hops), *hops))
    return _seal(
        (bytes(kinds), _int64_bytes(ops), _int64_bytes(rows)), len(kinds)
    )


def stream_digest(chunks: Iterable[Chunk]) -> str:
    """Digest of the whole stream: every chunk's entry count and column
    digests, in order (so it changes with the chunking too)."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(f"{chunk.event_count}:{':'.join(chunk.shas)};".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The trace object
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """One captured (resolved) reference stream plus its identity and outputs."""

    app: str
    variant: str
    scale: float
    seed: int
    #: Line size of the capturing machine config.
    line_size: int
    #: True if the stream is only valid at exactly ``line_size``.
    line_size_sensitive: bool
    #: Semantic output of the captured run (variant-invariant).
    checksum: int
    extras: dict[str, Any] = field(default_factory=dict)
    #: Full :meth:`~repro.core.stats.MachineStats.dump` of the capturing
    #: run.  Replay recomputes every config-dependent counter but copies
    #: the config-*invariant* ones (relocation activity, forwarding hop
    #: totals, heap footprint) from here -- they are properties of the
    #: reference stream, not of the cache the stream is replayed against.
    captured_stats: dict[str, Any] = field(default_factory=dict)
    #: Entries across all chunks.
    event_count: int = 0
    #: The sealed chunks, in stream order.
    chunks: tuple[Chunk, ...] = ()

    # ------------------------------------------------------------------
    def header_dict(self) -> dict[str, Any]:
        """The identity/output header (stream shape lives in the footer)."""
        return {
            "app": self.app,
            "variant": self.variant,
            "scale": self.scale,
            "seed": self.seed,
            "line_size": self.line_size,
            "line_size_sensitive": self.line_size_sensitive,
            "checksum": self.checksum,
            "extras": self.extras,
            "captured_stats": self.captured_stats,
            "event_count": self.event_count,
        }

    @property
    def stream_sha256(self) -> str:
        """Digest of the entry stream (see :func:`stream_digest`)."""
        return stream_digest(self.chunks)

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical identity (header + stream digest).

        This is the identity the artifact store keys replayed results
        by: it changes whenever the stream, the workload identity, or
        the format version changes.
        """
        return _content_digest(self.header_dict(), self.stream_sha256)

    def footer_dict(self) -> dict[str, Any]:
        """The index footer (chunk directory + stream shape)."""
        index = []
        offset = 0
        for chunk in self.chunks:
            columns = [
                [len(blob), raw_len, sha]
                for blob, raw_len, sha in zip(
                    chunk.data, chunk.raw_lens, chunk.shas
                )
            ]
            index.append([offset, chunk.event_count, columns])
            offset += sum(len(blob) for blob in chunk.data)
        return {
            "event_count": self.event_count,
            "stream_sha256": self.stream_sha256,
            "chunks": index,
        }

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = json.dumps(self.header_dict(), sort_keys=True).encode("utf-8")
        footer = json.dumps(self.footer_dict(), sort_keys=True).encode("utf-8")
        out = bytearray()
        out += MAGIC
        out.append(FORMAT_VERSION)
        append_uvarint(out, len(header))
        out += header
        for chunk in self.chunks:
            for blob in chunk.data:
                out += blob
        out += footer
        out += _TRAILER.pack(len(footer), FOOTER_MAGIC)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Trace":
        read = lambda offset, n: data[offset : offset + n]  # noqa: E731
        header, footer, chunk_start, footer_start = _read_container(
            read, len(data)
        )
        try:
            chunks = _load_chunks(
                read, chunk_start, footer_start, footer["chunks"]
            )
        except TraceFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(
                f"corrupt trace footer: {type(exc).__name__}: {exc}"
            ) from exc
        # Full verification pass: decompress every column once, checking
        # the per-column digests (corruption names chunk + column).
        for index, chunk in enumerate(chunks):
            chunk.columns(index)
        event_count = footer["event_count"]
        indexed = sum(chunk.event_count for chunk in chunks)
        if indexed != event_count:
            raise TraceFormatError(
                f"event count mismatch: chunks carry {indexed}, "
                f"footer says {event_count}"
            )
        if stream_digest(chunks) != footer["stream_sha256"]:
            raise TraceFormatError(
                "trace stream hash mismatch (corrupt or tampered)"
            )
        return cls(
            app=header["app"],
            variant=header["variant"],
            scale=header["scale"],
            seed=header["seed"],
            line_size=header["line_size"],
            line_size_sensitive=header["line_size_sensitive"],
            checksum=header["checksum"],
            extras=header["extras"],
            captured_stats=header["captured_stats"],
            event_count=event_count,
            chunks=chunks,
        )

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            return cls.from_bytes(data)
        except TraceFormatError as exc:
            if exc.path is None:
                exc.path = str(path)
            raise


def _content_digest(header: dict[str, Any], stream_sha256: str) -> str:
    """SHA-256 over the format version, the header and the stream digest."""
    digest = hashlib.sha256()
    digest.update(MAGIC)
    digest.update(bytes([FORMAT_VERSION]))
    digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    digest.update(stream_sha256.encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The container parser
# ----------------------------------------------------------------------
#: Each part's required fields and their JSON types (a JSON ``true`` is
#: no number).  Both are checked because :class:`TraceIndex` answers
#: from them unverified.
_HEADER_FIELDS = {
    "app": str,
    "variant": str,
    "scale": (int, float),
    "seed": int,
    "line_size": int,
    "line_size_sensitive": bool,
    "checksum": int,
    "extras": dict,
    "captured_stats": dict,
    "event_count": int,
}
_FOOTER_FIELDS = {"event_count": int, "stream_sha256": str, "chunks": list}
#: The longest header-length varint: ten bytes encode any 64-bit length.
_MAX_VARINT = 10


def _read_container(read, size: int) -> tuple[dict, dict, int, int]:
    """Parse a trace container through ``read(offset, n) -> bytes``.

    ``size`` is the container's length.  Checks the magic and version,
    then reads the header-length varint, the header JSON, the trailer and
    the footer JSON, and returns ``(header, footer, chunk_start,
    footer_start)``.  :meth:`Trace.from_bytes` reads over bytes and
    :func:`load_index` over a file, so both reject the same containers
    with the same :class:`TraceFormatError`.
    """
    head = read(0, len(MAGIC) + 1 + _MAX_VARINT)
    if len(head) <= len(MAGIC) or head[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("not a trace: bad magic")
    version = head[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version} (this build reads "
            f"only {FORMAT_VERSION}; recapture)",
            version=version,
        )
    header_len, offset = read_uvarint(head, len(MAGIC) + 1)
    chunk_start = offset + header_len
    if chunk_start > size:
        raise TraceFormatError("truncated trace header")
    header = _json_object(read(offset, header_len), "header", _HEADER_FIELDS)
    if size < chunk_start + _TRAILER.size:
        raise TraceFormatError("truncated trace: missing footer trailer")
    footer_len, footer_magic = _TRAILER.unpack(
        read(size - _TRAILER.size, _TRAILER.size)
    )
    if footer_magic != FOOTER_MAGIC:
        raise TraceFormatError("corrupt trace: bad footer magic")
    footer_start = size - _TRAILER.size - footer_len
    if footer_start < chunk_start:
        raise TraceFormatError("corrupt trace: footer overlaps chunk region")
    footer = _json_object(read(footer_start, footer_len), "footer", _FOOTER_FIELDS)
    if header["event_count"] != footer["event_count"]:
        raise TraceFormatError(
            f"event count mismatch: header says {header['event_count']}, "
            f"footer says {footer['event_count']}"
        )
    return header, footer, chunk_start, footer_start


def _json_object(
    blob: bytes, part: str, fields: dict[str, type | tuple[type, ...]]
) -> dict:
    """Decode the header or footer JSON and check its required fields."""
    try:
        value = json.loads(blob)
    except ValueError as exc:
        raise TraceFormatError(f"corrupt trace {part}: {exc}") from exc
    if not isinstance(value, dict):
        raise TraceFormatError(f"corrupt trace {part}: not a JSON object")
    missing = [key for key in fields if key not in value]
    if missing:
        raise TraceFormatError(f"trace {part} missing fields {missing}")
    mistyped = [
        key
        for key, kind in fields.items()
        if not isinstance(value[key], kind)
        or (isinstance(value[key], bool) and kind is not bool)
    ]
    if mistyped:
        raise TraceFormatError(f"trace {part} fields of the wrong type {mistyped}")
    return value


def _load_chunks(
    read, chunk_start: int, footer_start: int, directory
) -> tuple[Chunk, ...]:
    """Build one :class:`Chunk` per row of the footer's chunk directory.

    Each column's bounds are checked against the chunk region before it
    is read, so a truncated file fails cleanly rather than slicing short.
    """
    region_len = footer_start - chunk_start
    chunks = []
    for index, (offset, entries, columns) in enumerate(directory):
        if len(columns) != len(COLUMN_NAMES):
            raise TraceFormatError(
                f"chunk {index}: expected {len(COLUMN_NAMES)} columns, "
                f"footer lists {len(columns)}"
            )
        blobs = []
        raw_lens = []
        shas = []
        cursor = int(offset)
        for name, (comp_len, raw_len, sha) in zip(COLUMN_NAMES, columns):
            comp_len = int(comp_len)
            if cursor + comp_len > region_len:
                raise TraceFormatError(
                    f"truncated chunk {index} column {name!r}: needs "
                    f"{comp_len} bytes at region offset {cursor}"
                )
            blobs.append(read(chunk_start + cursor, comp_len))
            raw_lens.append(int(raw_len))
            shas.append(sha)
            cursor += comp_len
        chunks.append(
            Chunk(
                event_count=int(entries),
                data=tuple(blobs),
                raw_lens=tuple(raw_lens),
                shas=tuple(shas),
            )
        )
    return tuple(chunks)


# ----------------------------------------------------------------------
# The index: header + footer without the chunk region
# ----------------------------------------------------------------------
@dataclass
class TraceIndex:
    """Header + footer of a trace file, read without its chunk region.

    Enough to answer identity and shape questions (``corpus ls``/``stat``
    and the serve tier's warm probes) without reading a single chunk.
    """

    header: dict
    footer: dict

    @property
    def event_count(self) -> int:
        return self.footer["event_count"]

    @property
    def stream_sha256(self) -> str:
        return self.footer["stream_sha256"]

    @property
    def chunk_count(self) -> int:
        return len(self.footer["chunks"])

    @property
    def content_hash(self) -> str:
        """Equal to :attr:`Trace.content_hash` of the file's trace."""
        return _content_digest(self.header, self.stream_sha256)


def load_index(path) -> TraceIndex:
    """Load a trace's header and footer without its chunks.

    The container parser is :meth:`Trace.from_bytes`'s; only the bytes
    it asks for are read from the file.  A missing file raises
    :class:`FileNotFoundError`; an unreadable one, or one of any version
    other than :data:`FORMAT_VERSION`, raises :class:`TraceFormatError`
    with ``path`` (and, for a version mismatch, ``version``) attached.
    """
    try:
        with open(path, "rb") as handle:

            def read(offset: int, n: int) -> bytes:
                handle.seek(offset)
                return handle.read(n)

            header, footer, _, _ = _read_container(read, handle.seek(0, 2))
    except TraceFormatError as exc:
        exc.path = str(path)
        raise
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise TraceFormatError(f"unreadable trace: {exc}", path=path) from exc
    return TraceIndex(header=header, footer=footer)
