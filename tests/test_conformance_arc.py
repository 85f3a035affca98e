"""ARC conformance: the reference's test vectors ported to py3 bytes.

Golden literals from /root/reference/warc/tests/test_arc.py (line refs
in comments).
"""

import datetime
import io

import pytest

from warc_ray.core import ARCFile, ARCHeader, ARCRecord


class NamedBytesIO(io.BytesIO):
    """BytesIO that can carry a .name (plain BytesIO forbids new attrs)."""

    def __init__(self, name="sample.arc"):
        super().__init__()
        self.name = name


FULL_V2_HEADER = dict(
    url="http://archive.org",
    ip_address="127.0.0.1",
    date="20120301093000",
    content_type="text/html",
    length="500",
    result_code="200",
    checksum="a123456",
    location="http://www.archive.org",
    offset="300",
    filename="sample.arc.gz",
)


# test_arc.py:9-12
def test_init_arc_header():
    with pytest.raises(TypeError):
        ARCHeader(test="1234")


# test_arc.py:14-38
def test_arc_header_attributes():
    header = ARCHeader(**FULL_V2_HEADER)
    assert header.url == "http://archive.org"
    assert header.ip_address == "127.0.0.1"
    assert header.date == datetime.datetime.strptime("20120301093000", "%Y%m%d%H%M%S")
    assert header["date"] == "20120301093000"
    assert header.content_type == "text/html"
    assert header.length == 500
    assert header["length"] == "500"
    assert header.result_code == "200"
    assert header.checksum == "a123456"
    assert header.location == "http://www.archive.org"
    assert header.offset == 300
    assert header.filename == "sample.arc.gz"


# test_arc.py:40-55
def test_arc_v1_header_creation():
    header = ARCHeader(**FULL_V2_HEADER)
    assert header.header_string(1) == (
        "http://archive.org 127.0.0.1 20120301093000 text/html 500"
    )


# test_arc.py:58-73
def test_arc_v2_header_creation():
    header = ARCHeader(**FULL_V2_HEADER)
    assert header.header_string() == (
        "http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 "
        "http://www.archive.org 300 sample.arc.gz 500"
    )


# test_arc.py:76-92
def test_arc_v1_record_creation():
    record = ARCRecord(ARCHeader(**FULL_V2_HEADER), b"BlahBlah")
    assert record.to_bytes(1) == (
        b"http://archive.org 127.0.0.1 20120301093000 text/html 500\nBlahBlah\n"
    )


# test_arc.py:94-110
def test_arc_v2_record_creation():
    record = ARCRecord(payload=b"BlahBlah", headers=FULL_V2_HEADER)
    assert record.to_bytes() == (
        b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 "
        b"http://www.archive.org 300 sample.arc.gz 500\nBlahBlah\n"
    )


# test_arc.py:112-133 — full-file golden incl. the autogenerated
# filedesc:// header record
def test_arc_v1_writer():
    now = "20120302193210"
    file_headers = dict(ip_address="127.0.0.1", date=now, org="Internet Archive")
    opfile = NamedBytesIO("sample.arc")
    f = ARCFile(fileobj=opfile, version=1, file_headers=file_headers)
    for payload in "Payload1 Payload2".split():
        header = dict(url="http://www.archive.org", ip_address="127.0.0.1",
                      date=now, content_type="text/html", length=len(payload))
        f.write(ARCRecord(headers=header, payload=payload.encode()))
    expected = (
        b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 76\n"
        b"1 0 Internet Archive\n"
        b"URL IP-address Archive-date Content-type Archive-length\n\n"
        b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\nPayload1\n\n"
        b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\nPayload2\n\n"
    )
    assert opfile.getvalue() == expected


# test_arc.py:135-154 — default org 'Unknown'
def test_arc_v1_writer_default_headers():
    now = datetime.datetime(year=2012, month=3, day=2, hour=19, minute=32, second=10)
    opfile = NamedBytesIO("sample.arc")
    with pytest.warns(UserWarning):
        f = ARCFile(fileobj=opfile, version=1, file_headers=dict(date=now))
        for payload in "Payload1 Payload2".split():
            header = dict(url="http://www.archive.org", ip_address="127.0.0.1",
                          date=now, content_type="text/html", length=len(payload))
            f.write(ARCRecord(headers=header, payload=payload.encode()))
    expected = (
        b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 67\n"
        b"1 0 Unknown\n"
        b"URL IP-address Archive-date Content-type Archive-length\n\n"
        b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\nPayload1\n\n"
        b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\nPayload2\n\n"
    )
    assert opfile.getvalue() == expected


# test_arc.py:157-182 — v2 golden, incl. the length-before-interpolation
# quirk (reference arc.py:288 vs :294 → filedesc length 113)
def test_arc_v2_writer():
    now = "20120302193210"
    file_headers = dict(ip_address="127.0.0.1", date=now, org="Internet Archive")
    opfile = NamedBytesIO("sample.arc")
    f = ARCFile(fileobj=opfile, file_headers=file_headers)
    for payload in "Payload1 Payload2".split():
        f.write(ARCRecord(headers=FULL_V2_HEADER, payload=payload.encode()))
    expected = (
        b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 200 - - 0 sample.arc 113\n"
        b"2 0 Internet Archive\n"
        b"URL IP-address Archive-date Content-type Result-code Checksum Location Offset Filename Archive-length\n\n"
        b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 http://www.archive.org 300 sample.arc.gz 500\nPayload1\n\n"
        b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 http://www.archive.org 300 sample.arc.gz 500\nPayload2\n\n"
    )
    assert opfile.getvalue() == expected


V1_FILE = (
    b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 68\n"
    b"1 0 Unknown\nURL IP-address Archive-date Content-type Archive-length\n\n\n"
    b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\n\nPayload1\n"
    b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\n\nPayload2"
)
V2_FILE = (
    b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 200 - - 0 sample.arc 114\n"
    b"2 0 Internet Archive\n"
    b"URL IP-address Archive-date Content-type Result-code Checksum Location Offset Filename Archive-length\n\n\n"
    b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 http://www.archive.org 300 sample.arc.gz 500\n\nPayload1\n"
    b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 http://www.archive.org 300 sample.arc.gz 500\n\nPayload2"
)


# test_arc.py:184-196
def test_arc_reader_guess_version():
    arc_v1 = ARCFile(fileobj=io.BytesIO(V1_FILE))
    arc_v2 = ARCFile(fileobj=io.BytesIO(V2_FILE))
    arc_v1.read()
    arc_v2.read()
    assert arc_v1.version == 1
    assert arc_v2.version == 2


# test_arc.py:198-205
def test_arc_reader_read_file_headers():
    arc_file = ARCFile(fileobj=io.BytesIO(V2_FILE))
    arc_file.read()
    assert arc_file.file_headers["ip_address"] == "127.0.0.1"
    assert arc_file.file_headers["date"] == datetime.datetime.strptime(
        "20120302193210", "%Y%m%d%H%M%S")
    assert arc_file.file_headers["org"] == "Internet Archive"


# test_arc.py:208-228
def test_arc_reader_v1():
    v1 = io.BytesIO(
        b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 68\n"
        b"1 0 Unknown\nURL IP-address Archive-date Content-type Archive-length\n\n\n"
        b"http://www.archive.org 127.0.0.1 20120302193210 text/html 8\nPayload1\n"
        b"http://archive.org 127.0.0.1 20120302193211 text/plain 8\nPayload2"
    )
    arc_file = ARCFile(fileobj=v1)
    r1 = arc_file.read()
    r2 = arc_file.read()
    assert r1["url"] == "http://www.archive.org"
    assert r1["ip_address"] == "127.0.0.1"
    assert r1["date"] == "20120302193210"
    assert r1["content_type"] == "text/html"
    assert r1["length"] == "8"
    assert r1.payload == b"Payload1"
    assert r2["url"] == "http://archive.org"
    assert r2["ip_address"] == "127.0.0.1"
    assert r2["date"] == "20120302193211"
    assert r2["content_type"] == "text/plain"
    assert r2["length"] == "8"
    assert r2.payload == b"Payload2"


# test_arc.py:231-246
def test_arc_reader_v2():
    v2 = io.BytesIO(
        b"filedesc://sample.arc 127.0.0.1 20120302193210 text/plain 200 - - 0 sample.arc 114\n"
        b"2 0 Internet Archive\n"
        b"URL IP-address Archive-date Content-type Result-code Checksum Location Offset Filename Archive-length\n\n\n"
        b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 http://www.archive.org 300 sample.arc.gz 8\nPayload1\n"
        b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 http://www.archive.org 300 sample.arc.gz 8\nPayload2"
    )
    arc_file = ARCFile(fileobj=v2)
    r1, r2 = list(arc_file)
    assert r1["url"] == "http://archive.org"
    assert r1["ip_address"] == "127.0.0.1"
    assert r1["date"] == "20120301093000"
    assert r1["content_type"] == "text/html"
    assert r1["checksum"] == "a123456"
    assert r1["location"] == "http://www.archive.org"
    assert r1["offset"] == "300"
    assert r1["filename"] == "sample.arc.gz"
    assert r1["length"] == "8"
    assert r1.payload == b"Payload1"
    assert r2.payload == b"Payload2"


# test_arc.py:248-258
def test_arc_v1_record_from_string():
    record = ARCRecord.from_string(
        "http://www.archive.org 127.0.0.1 20120301093000 text/html 500\nBlahBlah", 1)
    assert record["url"] == "http://www.archive.org"
    assert record["ip_address"] == "127.0.0.1"
    assert record["date"] == "20120301093000"
    assert record["content_type"] == "text/html"
    assert record["length"] == "500"
    assert record.payload == b"BlahBlah"


# test_arc.py:261-275
def test_arc_v2_record_from_string():
    record = ARCRecord.from_string(
        "http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 "
        "http://www.archive.org 300 sample.arc.gz 500\nBlahBlah", 2)
    assert record["url"] == "http://archive.org"
    assert record["checksum"] == "a123456"
    assert record["location"] == "http://www.archive.org"
    assert record["offset"] == "300"
    assert record["filename"] == "sample.arc.gz"
    assert record["length"] == "500"
    assert record.payload == b"BlahBlah"


# test_arc.py:277-299
def test_arc_record_versions():
    record_1 = ARCRecord(payload=b"BlahBlah", headers=FULL_V2_HEADER, version=1)
    record_2 = ARCRecord(payload=b"BlahBlah", headers=FULL_V2_HEADER, version=2)
    assert record_1.to_bytes() == (
        b"http://archive.org 127.0.0.1 20120301093000 text/html 500\nBlahBlah\n"
    )
    assert record_2.to_bytes() == (
        b"http://archive.org 127.0.0.1 20120301093000 text/html 200 a123456 "
        b"http://www.archive.org 300 sample.arc.gz 500\nBlahBlah\n"
    )


# ---------------------------------------------------------------------------
# distributed ARC sink fast path (warc_ray/sinks/arc_sink.py)
# ---------------------------------------------------------------------------

def _sink_batch():
    import pyarrow as pa

    return pa.table({
        "url": ["http://example.com/a", "http://example.com/b",
                "http://h.net/page?q=1"],
        "ip_address": ["1.2.3.4"] * 3,
        "date": ["20260101000000"] * 3,
        "content_type": ["text/html", "text/plain", "text/html"],
        "body": [b"hello world", b"", b"x" * 100],
    })


def test_arc_sink_fast_path_parity():
    """Templated v2 serializer == ARCHeader/ARCRecord object path,
    byte for byte (including running offsets and separators)."""
    from warc_ray.sinks.arc_sink import (serialize_arc_records,
                                         serialize_arc_records_reference)

    batch = _sink_batch()
    fast = serialize_arc_records(batch, "part-x.arc.gz", 123)
    ref = serialize_arc_records_reference(batch, "part-x.arc.gz", 123)
    assert fast == ref


def test_arc_gz_member_per_record(tmp_path):
    """.arc.gz shards carry one gzip member per record (+1 filedesc) —
    the record-splittable layout — and decompress to the exact bytes of
    the uncompressed ARC stream."""
    import glob
    import gzip

    from warc_ray.core.arcrec import ARCFile
    from warc_ray.sinks.arc_sink import WriteArcShard

    batch = _sink_batch()
    out = tmp_path / "arc"
    WriteArcShard(str(out))(batch)
    shard = glob.glob(str(out / "*.arc.gz"))[0]
    raw = open(shard, "rb").read()
    n_members = raw.count(b"\x1f\x8b\x08")
    assert n_members == batch.num_rows + 1  # +1: filedesc member
    # logical stream parity: members concatenate to filedesc + records
    # (shard name is part of every header, so rebuild with the same name)
    import io
    import os

    from warc_ray.sinks.arc_sink import filedesc_bytes, serialize_arc_records

    name = os.path.basename(shard)
    head = filedesc_bytes(name, org="warc-ray", ip_address="127.0.0.1",
                          date="20260101000000")
    decomp = gzip.decompress(raw)
    assert decomp == head + b"".join(
        serialize_arc_records(batch, name, len(head)))
    # read back through the conformance reader: offsets self-consistent
    af = ARCFile(fileobj=io.BytesIO(decomp))
    recs = list(af)
    assert [r.header["url"] for r in recs] == batch["url"].to_pylist()
    for r in recs:
        assert decomp[int(r.header["offset"]):].startswith(
            r.header["url"].encode())


def test_arc_gz_member_bytes(tmp_path):
    """Each .arc.gz member is compress_member of its record, or
    compress_member_stored for an application/octet-stream row — the
    per-record form the sink's one member loop must keep."""
    import glob
    import os

    import pyarrow as pa

    from warc_ray.core.gzipm import compress_member, compress_member_stored
    from warc_ray.sinks.arc_sink import (WriteArcShard, filedesc_bytes,
                                         serialize_arc_records)

    batch = _sink_batch()
    batch = batch.set_column(
        3, "content_type",
        pa.array(["text/html", "application/octet-stream", "text/html"]))
    WriteArcShard(str(tmp_path))(batch)
    (shard,) = glob.glob(str(tmp_path / "*.arc.gz"))
    name = os.path.basename(shard)
    head = filedesc_bytes(name, org="warc-ray", ip_address="127.0.0.1",
                          date="20260101000000")
    recs = serialize_arc_records(batch, name, len(head))
    want = compress_member(head) + b"".join(
        compress_member_stored(r) if ct == "application/octet-stream"
        else compress_member(r)
        for r, ct in zip(recs, batch["content_type"].to_pylist()))
    with open(shard, "rb") as f:
        assert f.read() == want


def test_arcfile_fileobj_compress_write_roundtrip():
    """ARCFile(fileobj=buf, mode="wb", compress=True) wraps gzip for
    WRITING (the gzip mode used to be inferred unconditionally as "rb"
    when a bare fileobj was passed — every write then failed)."""
    import gzip
    import io

    now = "20120302193210"
    buf = io.BytesIO()
    f = ARCFile(fileobj=buf, mode="wb", compress=True, version=1,
                file_headers=dict(ip_address="127.0.0.1", date=now,
                                  org="Internet Archive"))
    f.write(ARCRecord(headers=dict(
        url="http://www.archive.org", ip_address="127.0.0.1", date=now,
        content_type="text/html", length=8), payload=b"BlahBlah"))
    f.fileobj.close()          # finish the gzip member
    raw = buf.getvalue()
    assert raw[:2] == b"\x1f\x8b"                 # actually gzip framing
    plain = gzip.decompress(raw)
    assert b"filedesc://" in plain and b"BlahBlah" in plain
    # read back through the same fileobj+compress path
    f2 = ARCFile(fileobj=io.BytesIO(raw), mode="rb", compress=True)
    recs = list(f2)
    assert len(recs) == 1
    assert recs[0].payload == b"BlahBlah"
