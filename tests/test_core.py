"""Record model and wire format."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ftmr.core as core
from ftmr.core import (
    DecodeError,
    EncodeError,
    Record,
    decode_record,
    decode_stream,
    encode_record,
    encode_stream,
)

payloads = st.binary(max_size=64)
records = st.builds(Record, key=payloads, value=payloads)


def test_known_encoding():
    got = encode_record(Record(b"ab", b"xyz"))
    assert got == b"\x02\x00\x00\x00ab\x03\x00\x00\x00xyz"


def test_record_size_excludes_framing():
    assert Record(b"ab", b"xyz").size == 5
    assert Record(b"", b"").size == 0
    assert len(encode_record(Record(b"", b""))) == 8


@given(records)
def test_round_trip(rec):
    decoded, consumed = decode_record(encode_record(rec))
    assert decoded == rec
    assert consumed == rec.size + 8


@given(st.lists(records, max_size=10))
def test_stream_round_trip(recs):
    assert decode_stream(encode_stream(recs)) == recs


def test_decode_at_offset():
    buf = b"junk" + encode_record(Record(b"k", b"v"))
    rec, consumed = decode_record(buf, 4)
    assert rec == Record(b"k", b"v")
    assert consumed == len(buf) - 4


def test_truncated_length_prefix():
    with pytest.raises(DecodeError) as exc:
        decode_record(b"\x01\x02")
    assert exc.value.offset == 0
    assert "length prefix" in str(exc.value)


def test_truncated_field_body():
    # prefix says 10 key bytes, only 3 follow
    with pytest.raises(DecodeError) as exc:
        decode_record(b"\x0a\x00\x00\x00abc")
    assert exc.value.offset == 4
    assert "field body" in str(exc.value)


def test_truncated_second_field():
    whole = encode_record(Record(b"key", b"value"))
    with pytest.raises(DecodeError) as exc:
        decode_record(whole[:-1])
    # value body begins after [4][key][4]
    assert exc.value.offset == 11


def test_stream_must_end_on_boundary():
    buf = encode_stream([Record(b"a", b"b"), Record(b"c", b"d")])
    with pytest.raises(DecodeError):
        decode_stream(buf[:-1])


def test_oversized_field_rejected(monkeypatch):
    # shrink the limit instead of allocating 4 GiB
    monkeypatch.setattr(core, "MAX_FIELD", 4)
    with pytest.raises(EncodeError):
        encode_record(Record(b"12345", b""))
    with pytest.raises(EncodeError):
        encode_record(Record(b"", b"12345"))
    assert encode_record(Record(b"1234", b"1234"))


def test_records_hashable_and_frozen():
    rec = Record(b"k", b"v")
    assert rec in {Record(b"k", b"v")}
    assert rec == Record(b"k", b"v") == (b"k", b"v")
    assert hash(rec) == hash(Record(b"k", b"v")) == hash((b"k", b"v"))
    assert Record(b"ab", b"c") != Record(b"a", b"bc")
    with pytest.raises(AttributeError):
        rec.key = b"other"
    with pytest.raises(AttributeError):
        rec.value = b"other"
    assert Record(b"ab", b"xyz").size == 5
    # perfbench pickles its reference ledgers, which hold records
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is Record
    # the ledger checks and every Counter of records hash each record; a
    # Python-level __hash__ would put that cost back per record
    assert Record.__hash__ is tuple.__hash__
    assert Record.__eq__ is tuple.__eq__


def test_record_unpacks_and_sorts_like_its_tuple():
    key, value = Record(b"k", b"v")
    assert (key, value) == (b"k", b"v")
    assert sorted([Record(b"b", b""), Record(b"a", b"z"), Record(b"a", b"y")]) == [
        (b"a", b"y"), (b"a", b"z"), (b"b", b""),
    ]

