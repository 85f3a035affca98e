"""WARC shard sink: Dataset of records → ``.warc.gz`` shards + CDX index.

Write-path invariants (reference parity):
  * exactly one gzip member per record, level 9
    (warc/warc.py:269-272, gzip2.py:17,54; test_warc.py:100-109);
  * one ``warcinfo`` record leads every shard (G12);
  * the sink emits a CDX-like index row per record — (uri, shard,
    compressed offset, length, digest) — the distributed counterpart of
    ``WARCFile.browse()``/``tell()`` (warc/warc.py:284-313).

Scale/resumability design:
  * one shard file per input block (`map_batches` task) — no shuffle;
  * shard names are content-addressed (sha1 of record ids) → reruns
    overwrite the same file, so a restarted job is idempotent;
  * files land via write-temp-then-rename (atomic on one node; on a
    real cluster each worker renames on its own mount / object store).
"""

from __future__ import annotations

import hashlib
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import gzipm
from ..core.warcrec import WARCHeader, sha1_digest
from ..schema import CDX_SCHEMA
from ..stages.assemble import _NS_BYTES, logical_date, record_id_for
from ..stages.urls import _sha1_digests


def _as_array(col) -> pa.Array:
    """Column → one Array: a one-chunk column's chunk as it is (a slice
    keeps its offset, no copy), several chunks combined."""
    if not isinstance(col, pa.ChunkedArray):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


WARCINFO_FIELDS = (
    "software: warc-ray/0.1\r\nformat: WARC File Format 1.0\r\n"
)


def warcinfo_bytes(shard_name: str, date: str) -> bytes:
    """The shard-leading warcinfo record (deterministic id from name)."""
    payload = WARCINFO_FIELDS.encode("ascii")
    h = WARCHeader({})
    h["WARC-Type"] = "warcinfo"
    h["WARC-Record-ID"] = record_id_for("urn:warcinfo:" + shard_name, "warcinfo")
    h["WARC-Date"] = date
    h["WARC-Filename"] = shard_name
    h["Content-Type"] = "application/warc-fields"
    h["Content-Length"] = str(len(payload))
    h["WARC-Payload-Digest"] = sha1_digest(payload)
    return h.to_bytes() + payload + b"\r\n\r\n"


class WriteWarcShard:
    """``map_batches`` callable: one batch → one ``.warc.gz`` shard file.

    Emits CDX index rows as its output table, so the pipeline's sink
    stage doubles as index construction (zero extra passes).
    """

    def __init__(self, out_dir: str, date: str = "2026-01-01T00:00:00Z"):
        self.out_dir = out_dir
        self.date = date
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({f.name: [] for f in CDX_SCHEMA}, schema=CDX_SCHEMA)
        rec_ids = batch["record_id"].to_pylist()
        name_h = hashlib.sha1("|".join(rec_ids).encode()).hexdigest()[:16]
        shard_name = f"part-{name_h}.warc.gz"
        shard_path = os.path.join(self.out_dir, shard_name)

        # content-type-driven effort: high-entropy media payloads get
        # STORED members (level-9 match search over them is ~12x the
        # CPU for zero ratio gain); text keeps level 9
        stored = (batch["entropy_hint"].to_numpy()
                  if "entropy_hint" in batch.column_names else None)
        head = gzipm.compress_member(warcinfo_bytes(shard_name, self.date))
        body, rec_lengths = gzipm.compress_members(batch["record_bytes"],
                                                   stored)
        return _land_shard(shard_path, head, body, rec_lengths,
                           batch["target_uri"], batch["record_id"],
                           batch["rec_type"], batch["payload_digest"])


def _land_shard(shard_path: str, head: bytes, body: bytes, rec_lengths,
                uris, ids, types, digests) -> pa.Table:
    """Write ``head`` (the warcinfo member) then ``body`` (the records'
    members) to ``shard_path`` by temp-then-rename, and return the
    shard's CDX rows: the warcinfo row, then one per record."""
    tmp = shard_path + ".tmp-%s" % uuid.uuid4().hex[:8]
    with open(tmp, "wb") as f:
        f.write(head)
        f.write(body)
    os.replace(tmp, shard_path)  # idempotent overwrite on rerun

    lengths = np.concatenate([[len(head)], rec_lengths]).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    shard_name = os.path.basename(shard_path)

    def lead(value: str, col) -> pa.Array:
        return pa.concat_arrays([pa.array([value], type=pa.string()),
                                 _as_array(col)])

    return pa.table({
        "target_uri": lead("", uris),
        "record_id": lead(record_id_for("urn:warcinfo:" + shard_name,
                                        "warcinfo"), ids),
        "rec_type": lead("warcinfo", types),
        "shard": pa.repeat(pa.scalar(shard_path, pa.string()), len(lengths)),
        "offset": offsets,
        "length": lengths,
        "payload_digest": lead(
            sha1_digest(WARCINFO_FIELDS.encode("ascii")), digests),
    }, schema=CDX_SCHEMA)


def write_warc_shards(records_ds, out_dir: str, *,
                      date: str = "2026-01-01T00:00:00Z",
                      batch_size: int = 2048, clean: bool = True):
    """Serialize+write a Dataset of serialized records; returns the CDX
    index Dataset (lazy — consume it to drive the write).

    ``clean=True``: the sink owns ``out_dir`` — stale shards from a
    previous (possibly differently-batched) run are removed first, so a
    rerun is idempotent at directory granularity.  Resumable pipelines
    give each partition/round its own directory and skip completed ones
    via their manifest (G16), rather than merging files in place.
    """
    if clean and os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".warc.gz") or ".tmp-" in name:
                os.unlink(os.path.join(out_dir, name))
    return records_ds.map_batches(
        WriteWarcShard(out_dir, date=date),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


_TYPES = ("request", "response", "metadata")
_CRLF2 = "\r\n\r\n"
# per record type: the header up to the record id, and the text between
# the target URI and the Content-Length value
_HEAD = pa.array(["WARC/1.0\r\nWARC-Type: %s\r\nWARC-Record-ID: " % t
                  for t in _TYPES])
_CTYPE = pa.array(["\r\nContent-Type: %s\r\nContent-Length: " % c for c in (
    "application/http; msgtype=request",
    "application/http; msgtype=response",
    "application/warc-fields")])
_KEY_MID = pa.array(["|%s|" % t for t in _TYPES], type=pa.binary())
_DATES = pa.array([logical_date(r) for r in range(60)])
_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _join(*parts) -> pa.Array:
    """Row-wise concatenation; plain ``str`` parts broadcast, in the
    type of the first Arrow part."""
    t = next(p.type for p in parts if not isinstance(p, str))
    return pc.binary_join_element_wise(
        *[pa.scalar(p, t) if isinstance(p, str) else p for p in parts],
        pa.scalar("", t))


def _hex(d: np.ndarray) -> np.ndarray:
    """Lower-case ASCII hex of each row of a ``(m, k)`` uint8 array."""
    out = np.empty((d.shape[0], 2 * d.shape[1]), dtype=np.uint8)
    out[:, 0::2] = _HEX[d >> 4]
    out[:, 1::2] = _HEX[d & 15]
    return out


def _fixed_width(chars: np.ndarray) -> pa.Array:
    """A string array whose rows are the rows of a ``(m, w)`` uint8 array."""
    m, w = chars.shape
    offs = np.arange(0, (m + 1) * w, w, dtype=np.int32)
    return pa.StringArray.from_buffers(
        m, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(chars)))


def _record_ids(digests: bytes, m: int) -> np.ndarray:
    """``(m, 47)`` ``<urn:uuid:...>`` rows from the SHA-1 digests of the
    uuid5 names (namespace bytes + name): version 5 and the RFC 4122
    variant set as ``uuid.uuid5`` sets them."""
    d = np.frombuffer(digests, dtype=np.uint8).reshape(m, 20)[:, :16].copy()
    d[:, 6] = (d[:, 6] & 0x0F) | 0x50
    d[:, 8] = (d[:, 8] & 0x3F) | 0x80
    h = _hex(d)
    out = np.empty((m, 47), dtype=np.uint8)
    out[:, :10] = np.frombuffer(b"<urn:uuid:", dtype=np.uint8)
    out[:, 46] = ord(">")
    pos = 10
    for a, b in ((0, 8), (8, 12), (12, 16), (16, 20), (20, 32)):
        out[:, pos:pos + b - a] = h[:, a:b]
        pos += b - a
        if pos < 46:
            out[:, pos] = ord("-")
            pos += 1
    return out


def write_fused_round(batch: pa.Table, out_dir: str, date: str,
                      timing: dict | None = None) -> pa.Table:
    """Fetch-log rows (``crawl.WRITER_COLS``) → one ``.warc.gz`` shard
    and its CDX rows, built column-wise.

    Every URL gives a request, a response and a metadata record, in
    that order.  Paths, dates, salts, status lines, payloads and
    Content-Length values are Arrow kernels over the chunk
    (``replace_substring_regex``, a ``take`` from the 60 logical
    dates, ``binary_join_element_wise``, ``binary_length``).  Record
    ids (uuid5) and payload digests hash their bytes in place from the
    Arrow buffers and are formatted as fixed-width rows with numpy.
    Each record is one row of a single ``large_binary`` column
    (header, payload, body, trailer) joined once: the small parts are
    interleaved by ``take``, the bodies by an offsets array into their
    own buffer, so a body is copied once, into that column.  ``gzipm.compress_members``
    then deflates the column, with stored members for
    ``application/octet-stream`` responses: the only per-record Python.

    File bytes, shard name and CDX rows equal
    ``WriteWarcShard(out_dir, date)(fused_fetch_records(batch))``, the
    per-row parity reference (tests/test_archive_slice.py and
    tests/test_fused_writer_props.py).  When ``timing`` is a dict, the
    deflate loop's seconds are added to ``timing["deflate"]``."""
    n = batch.num_rows
    if n == 0:
        return pa.table({f.name: [] for f in CDX_SCHEMA}, schema=CDX_SCHEMA)
    os.makedirs(out_dir, exist_ok=True)

    def col(name: str) -> pa.Array:
        return _as_array(batch[name])

    def text(name: str) -> pa.Array:
        # an int column as decimal text; "0" when the column is absent
        if name not in batch.column_names:
            return pa.repeat(pa.scalar("0"), n)
        return col(name).cast(pa.string())

    url, host, ctype = col("url"), col("host"), col("content_type")
    status = col("status")
    rnd = col("round")
    body = col("body")
    if body.null_count:
        body = body.fill_null(b"")
    if body.type != pa.large_binary():
        body = body.cast(pa.large_binary())

    # per-URL parts (n rows)
    path = pc.replace_substring_regex(url, pattern=r"^.*?://[^/]*(/|$)",
                                      replacement="/", max_replacements=1)
    rnd_s, status_s = text("round"), status.cast(pa.string())
    req_payload = _join("GET ", path, " HTTP/1.1\r\nHost: ", host,
                        "\r\nUser-Agent: warc-ray/0.1\r\n\r\n")
    status_line = pc.if_else(pc.equal(status, 200), "HTTP/1.1 200 OK",
                             _join("HTTP/1.1 ", status_s, " X"))
    http_hdr = _join(status_line, "\r\nContent-Type: ", ctype,
                     "\r\nContent-Length: ",
                     pc.binary_length(body).cast(pa.string()), _CRLF2)
    meta_payload = _join("hopsFromSeed: ", text("depth"),
                         "\r\nfetchSeq: ", text("fetch_seq"),
                         "\r\nfetchStatus: ", status_s,
                         "\r\nfetchRound: ", rnd_s, "\r\n")

    # per-record parts (3n rows, URL i at rows 3i, 3i+1, 3i+2)
    m = 3 * n
    row = np.repeat(np.arange(n), 3)
    kind = np.tile(np.arange(3), n)
    by_type = kind * n + row             # row of concat([req, resp, meta])
    url3 = url.take(row)
    payload = pa.concat_arrays([req_payload, http_hdr,
                                meta_payload]).take(by_type)
    # bodies at the response rows, addressed in place: no copy
    bo = np.frombuffer(body.buffers()[1], dtype=np.int64,
                       count=body.offset + n + 1)[body.offset:]
    b3 = np.empty(m + 1, dtype=np.int64)
    b3[0:m:3] = b3[1:m:3] = bo[:-1]
    b3[2:m:3] = bo[1:]
    b3[m] = bo[n]
    body3 = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), m,
        [None, pa.py_buffer(b3), body.buffers()[2] or pa.py_buffer(b"")])

    key = _join(pa.scalar(_NS_BYTES, pa.binary()), url3.cast(pa.binary()),
                _KEY_MID.take(kind),
                _join("r", rnd_s).take(row).cast(pa.binary()))
    ids = _record_ids(_sha1_digests(key), m)
    ids_arr = _fixed_width(ids)
    digs = np.empty((m, 45), dtype=np.uint8)
    digs[:, :5] = np.frombuffer(b"sha1:", dtype=np.uint8)
    digs[:, 5:] = _hex(np.frombuffer(_sha1_digests(payload, body3),
                                     dtype=np.uint8).reshape(m, 20))
    digs_arr = _fixed_width(digs)
    length = (pc.binary_length(payload).to_numpy()
              + np.diff(b3)).astype(np.int64)
    concurrent = pc.if_else(
        pa.array(kind == 0), _CRLF2,
        _join("\r\nWARC-Concurrent-To: ",
              _fixed_width(ids[0:m:3]).take(row), _CRLF2))
    header = _join(_HEAD.take(kind), ids_arr, "\r\nWARC-Date: ",
                   _DATES.take(np.minimum(rnd.to_numpy(), 59)).take(row),
                   "\r\nWARC-Target-URI: ", url3, _CTYPE.take(kind),
                   pa.array(length).cast(pa.string()),
                   "\r\nWARC-Payload-Digest: ", digs_arr, concurrent)
    lb = pa.large_binary()
    records = _join(header.cast(lb), payload.cast(lb), body3, _CRLF2)
    stored = np.zeros(m, dtype=bool)
    stored[1::3] = pc.equal(ctype, "application/octet-stream").to_numpy(
        zero_copy_only=False)

    # content-addressed name: sha1 of the "|"-joined record ids
    sep = np.full((m, 48), ord("|"), dtype=np.uint8)
    sep[:, :47] = ids
    name_h = hashlib.sha1(sep.tobytes()[:-1]).hexdigest()[:16]
    shard_path = os.path.join(out_dir, f"part-{name_h}.warc.gz")
    t0 = time.perf_counter()
    members, rec_lengths = gzipm.compress_members(records, stored)
    if timing is not None:
        timing["deflate"] = (timing.get("deflate", 0.0)
                             + time.perf_counter() - t0)
    head = gzipm.compress_member(
        warcinfo_bytes(os.path.basename(shard_path), date))
    return _land_shard(shard_path, head, members, rec_lengths, url3,
                       ids_arr, pa.array(_TYPES).take(kind), digs_arr)
