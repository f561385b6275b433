"""Byte-level record model and the length-prefixed wire format.

Everything that moves between PEs is a :class:`Record`: an opaque key and
an opaque value, both byte strings.  Benchmarks layer their own typed
encodings (counters, edges, scores) on top; the engine never interprets
record contents beyond hashing keys and measuring sizes.

Wire format of one record::

    [key_len: u32 LE][key bytes][value_len: u32 LE][value bytes]

Dumps and fixtures are plain concatenations of encoded records.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

# PEs and steps are identified by small ints; aliases document intent.
PeId = int
StepId = int

_LEN = struct.Struct("<I")
MAX_FIELD = 0xFFFFFFFF


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class EncodeError(ValueError):
    """A record field does not fit the wire format."""


class DecodeError(ValueError):
    """Malformed or truncated record bytes.

    ``offset`` is the position (relative to the start of the buffer) at
    which the undecodable field begins.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Record(NamedTuple):
    """One immutable key/value pair.

    A ``NamedTuple``, so field access, hashing and equality run in C;
    every record of a run passes through them several times.  Its hash
    is ``hash((key, value))``, and a record equals, sorts and unpacks
    like the tuple ``(key, value)``.
    """

    key: bytes
    value: bytes

    @property
    def size(self) -> int:
        """Payload size in bytes, excluding framing overhead."""
        return len(self.key) + len(self.value)


def records_size(records: Iterable[Record]) -> int:
    """Sum of :attr:`Record.size` over ``records``.

    A record iterates to exactly its key and value, so the sum runs over
    the fields in C instead of one property call per record.
    """
    return sum(map(len, chain.from_iterable(records)))


def records_from_pairs(pairs: Iterable[tuple[bytes, bytes]]) -> Iterator[Record]:
    """Records built from ``(key, value)`` pairs, lazily, as in
    ``list(records_from_pairs(zip(keys, values)))``.

    The ``NamedTuple`` constructor is a Python-level function; this maps
    ``tuple.__new__`` over the pairs, so building many records stays in
    C.  ``tuple.__new__(Record, pair)`` builds one record the same way.
    """
    return map(tuple.__new__, repeat(Record), pairs)


def encode_record(record: Record) -> bytes:
    """Serialize one record into the length-prefixed wire format."""
    key, value = record.key, record.value
    if len(key) > MAX_FIELD or len(value) > MAX_FIELD:
        raise EncodeError("record field exceeds u32 length prefix")
    return b"".join((_LEN.pack(len(key)), key, _LEN.pack(len(value)), value))


def decode_record(buf: bytes, offset: int = 0) -> tuple[Record, int]:
    """Decode one record starting at ``offset``.

    Returns the record and the number of bytes consumed.  Raises
    :class:`DecodeError` carrying the offset of the truncated field.
    :func:`decode_stream` applies this to a whole buffer; it is the
    reader for the ``pe<id>.bin`` dumps ``ftmr run --output-dir`` writes.
    """
    fields = []
    pos = offset
    for _ in range(2):
        if pos + 4 > len(buf):
            raise DecodeError("truncated length prefix", pos)
        (length,) = _LEN.unpack_from(buf, pos)
        pos += 4
        if pos + length > len(buf):
            raise DecodeError("truncated field body", pos)
        fields.append(bytes(buf[pos : pos + length]))
        pos += length
    return Record(fields[0], fields[1]), pos - offset


def decode_stream(buf: bytes) -> list[Record]:
    """Decode a concatenation of records; the buffer must end on a boundary."""
    records = []
    pos = 0
    while pos < len(buf):
        record, consumed = decode_record(buf, pos)
        records.append(record)
        pos += consumed
    return records


def encode_stream(records) -> bytes:
    """Concatenate the wire encodings of ``records``."""
    return b"".join(encode_record(r) for r in records)
