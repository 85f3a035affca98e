"""Record assembly: fetched/parsed docs → WARC record rows → record bytes.

The columnar counterpart of the reference's write path:
``WARCRecord(payload=..., headers=...)`` defaults (warc/warc.py:137-157)
and ``WARCRecord.write_to`` (warc/warc.py:159-164), built on the same
``warc_ray.core`` serializer so distributed output is byte-identical to
the single-process library.

Determinism: record ids are uuid5 of ``(uri, rec_type, salt)`` and dates
come from a logical clock — the reference's ``uuid1()``/``utcnow()``
defaults (warc/warc.py:84-86) are nondeterministic and never asserted
by its tests (see SURVEY.md §7 Hard parts #2).
"""

from __future__ import annotations

import hashlib
import uuid

import numpy as np
import pyarrow as pa

from ..core.warcrec import CONTENT_TYPES, WARCHeader, sha1_digest
from ..schema import WARC_RECORD_SCHEMA

NAMESPACE = uuid.UUID("6ba7b811-9dad-11d1-80b4-00c04fd430c8")  # RFC 4122 URL ns


def record_id_for(uri: str, rec_type: str, salt: str = "") -> str:
    return "<urn:uuid:%s>" % uuid.uuid5(NAMESPACE, f"{uri}|{rec_type}|{salt}")


def logical_date(round_no: int, base: str = "2026-01-01T00:00:") -> str:
    """ISO-8601Z date from the crawl's logical clock (round number)."""
    return f"{base}{min(59, round_no):02d}Z"


def render_payloads(spans: pa.ListArray) -> pa.Array:
    """Vectorized ``http_response_payload(render_body(...))`` for a
    whole spans column → large_binary array.  MUST stay byte-identical
    to the per-row Python pair below (the oracle's path) — pinned by
    tests/test_archive_slice.py::test_vectorized_render_parity."""
    import pyarrow.compute as pc

    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    kind = flat.field("kind")
    text = flat.field("text")
    ref = flat.field("media_ref")
    a = pc.binary_join_element_wise('<a href="', ref, '">', text, "</a>", "")
    img = pc.binary_join_element_wise('<img src="', ref, '">', "")
    vid = pc.binary_join_element_wise('<video src="', ref, '">', "")
    piece = pc.if_else(pc.equal(kind, "text"), text,
                       pc.if_else(pc.equal(kind, "link"), a,
                                  pc.if_else(pc.equal(kind, "image"), img, vid)))
    # a sliced column's offsets start past 0; flatten() does not
    offsets = spans.offsets
    if spans.offset:
        offsets = pc.subtract(offsets, offsets[0])
    rebuilt = pa.ListArray.from_arrays(offsets, piece)
    bodies = pc.binary_join(rebuilt, "\n")
    blen = pc.binary_length(pc.cast(bodies, pa.binary()))
    head = pc.binary_join_element_wise(
        "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: ",
        pc.cast(blen, pa.string()), "\r\n\r\n", "")
    payload = pc.binary_join_element_wise(head, bodies, "")
    return pc.cast(pc.cast(payload, pa.binary()), pa.large_binary())


def render_body(spans: list[dict]) -> bytes:
    """Deterministic HTML-ish rendering of an interleaved span sequence.

    The inverse direction (span extraction) must recover exactly
    ``(kind, text, media_ref, order)`` — the per-row invariant of
    BASELINE.json.
    """
    parts = []
    for s in spans:
        k = s["kind"]
        if k == "text":
            parts.append(s["text"])
        elif k == "link":
            parts.append('<a href="%s">%s</a>' % (s["media_ref"], s["text"]))
        elif k == "image":
            parts.append('<img src="%s">' % s["media_ref"])
        else:
            parts.append('<video src="%s">' % s["media_ref"])
    return "\n".join(parts).encode("utf-8")


def _splitmix64(z: "np.ndarray") -> "np.ndarray":
    """Vectorized splitmix64 finalizer over a uint64 array.

    Mutates ``z`` in place (callers pass a temporary) — the out=
    forms halve allocator traffic on multi-MB streams, which is the
    hot path of media-heavy crawl rounds."""
    t = z >> np.uint64(30)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.right_shift(z, np.uint64(27), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, np.uint64(0x94D049BB133111EB), out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def media_body_array(urls) -> pa.LargeBinaryArray:
    """Deterministic pseudo-binary blobs for /media/ URLs (an Arrow
    string array or a list of str), as one ``large_binary`` array.

    Per URL: seed = sha1(url)[4:12], size = 256 + sha1[:2] % 3840, and
    the payload is the splitmix64 stream of (seed + word-index) — a
    vectorized uint64 pass (the previous per-URL PCG64 construction
    cost ~31 µs/URL and dominated media-heavy crawl rounds; media
    rounds are 80-95% of late-round traffic).  The URLs hash from the
    Arrow buffer (``urls._sha1_digests``), and the blobs land in one
    preallocated data buffer behind offsets summed from the sizes.
    The stream is generated CHUNKED so peak ephemeral allocation stays
    ~10 MB: many fetch actors synthesizing media concurrently with
    unbounded batch-sized arrays (~1 GB of allocator traffic per call)
    stalled each other on memory bandwidth/page faults at full-node
    concurrency."""
    from .urls import _sha1_digests

    n = len(urls)
    h = np.frombuffer(_sha1_digests(urls), dtype=np.uint8).reshape(n, 20)
    sizes = 256 + ((h[:, 0].astype(np.int64) << 8) | h[:, 1]) % 3840
    seeds = h[:, 4:12].copy().view(">u8").ravel().astype(np.uint64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    data = np.empty(int(offsets[-1]), dtype=np.uint8)
    for lo in range(0, n, 4096):
        hi = min(lo + 4096, n)
        _media_stream(seeds[lo:hi], sizes[lo:hi],
                      data[offsets[lo]:offsets[hi]])
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n,
        [None, pa.py_buffer(offsets), pa.py_buffer(data)])


def _media_stream(seeds: np.ndarray, sizes: np.ndarray,
                  out: np.ndarray) -> None:
    """Write the blobs of ``seeds``/``sizes`` back to back into ``out``."""
    words = (sizes + 7) >> 3
    total = int(words.sum())
    starts = np.cumsum(words) - words
    # stream_i[j] = splitmix(seed_i + (j+1)*G) with j local to blob i;
    # folding the per-blob restart into ONE repeated adjustment term
    # (seed_i - start_i*G) lets the counter be a single global arange:
    # one np.repeat instead of two, and every op runs in place.
    G = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        adj = seeds - starts.astype(np.uint64) * G
        z = np.arange(1, total + 1, dtype=np.uint64)
        np.multiply(z, G, out=z)
        np.add(z, np.repeat(adj, words), out=z)
        stream = _splitmix64(z)
    # drop each blob's word padding: every word but its last is whole,
    # and the last keeps the first ((size - 1) % 8 + 1) bytes
    keep = np.ones((total, 8), dtype=bool)
    keep[starts + words - 1] = np.arange(8) < ((sizes - 1) % 8 + 1)[:, None]
    out[:] = stream.view(np.uint8)[keep.ravel()]


def media_bodies(urls: list[str]) -> list[bytes]:
    """``media_body_array`` as a list of ``bytes``."""
    return media_body_array(urls).to_pylist()


def media_body(url: str) -> bytes:
    """Deterministic pseudo-binary blob for a /media/ URL (scalar
    wrapper over the batched generator — byte-identical by
    construction)."""
    return media_bodies([url])[0]


def http_response_payload(body: bytes, content_type: str = "text/html") -> bytes:
    """Status line + headers + body, the ``from_response`` layout
    (reference warc/warc.py:228-236)."""
    head = ("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n"
            % (content_type, len(body))).encode("ascii")
    return head + body


def http_request_payload(url: str, host: str) -> bytes:
    path = "/" + url.split("://", 1)[1].split("/", 1)[1] if "/" in url.split("://", 1)[1] else "/"
    return ("GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: warc-ray/0.1\r\n\r\n"
            % (path, host)).encode("ascii")


def make_record_row(rec_type: str, uri: str, payload: bytes, date: str,
                    ip: str = "", salt: str = "",
                    extra: list[tuple[str, str]] | None = None) -> dict:
    """One WARC_RECORD_SCHEMA row with write-path defaults applied."""
    return {
        "record_id": record_id_for(uri, rec_type, salt),
        "rec_type": rec_type,
        "target_uri": uri,
        "date": date,
        "ip_address": ip,
        "content_type": CONTENT_TYPES.get(rec_type, "application/octet-stream"),
        "content_length": len(payload),
        "payload_digest": sha1_digest(payload),
        "extra_headers": extra or [],
        "payload": payload,
    }


def docs_to_response_records(batch: pa.Table,
                             date: str = "2026-01-01T00:00:00Z",
                             emit_metadata: bool = True) -> pa.Table:
    """Interleaved docs → ``response`` (+ ``metadata``) records per doc.

    The minimum end-to-end slice (SURVEY.md §7 step 3): doc body is the
    deterministic span rendering wrapped in an HTTP response payload.
    The companion ``metadata`` record (application/warc-fields —
    reference warc/warc.py:52-55) carries the span-provenance fields.
    """
    rows = []
    doc_ids = batch["doc_id"].to_pylist()
    spans_col = batch["spans"].to_pylist()
    for doc_id, spans in zip(doc_ids, spans_col):
        uri = "urn:doc:%s" % doc_id
        payload = http_response_payload(render_body(spans))
        rows.append(make_record_row("response", uri, payload, date))
        if emit_metadata:
            n_media = sum(1 for s in spans if s["media_ref"])
            meta = ("nSpans: %d\r\nnMediaRefs: %d\r\n"
                    % (len(spans), n_media)).encode("ascii")
            rows.append(make_record_row("metadata", uri, meta, date))
    return pa.Table.from_pylist(rows, schema=WARC_RECORD_SCHEMA)


def fetch_to_warc_records(batch: pa.Table,
                          emit_metadata: bool = True) -> pa.Table:
    """Fetch-log rows → ``request`` + ``response`` (+ ``metadata``)
    records per fetch (G12).

    The crawl-loop assembly stage; ``warcinfo`` records are emitted per
    output shard by the sink, matching the reference's one-warcinfo-
    per-file convention.  The ``metadata`` record (reference
    warc/warc.py:52-55 enumerates the type; application/warc-fields
    payload) carries the crawl provenance fields (hopsFromSeed,
    fetchSeq, status, round) the log itself holds — deterministic, so
    roundtrips are byte-stable.
    """
    c: dict[str, list] = {f.name: [] for f in WARC_RECORD_SCHEMA}
    req_ct = CONTENT_TYPES["request"]
    resp_ct = CONTENT_TYPES["response"]
    meta_ct = CONTENT_TYPES["metadata"]
    depths = (batch["depth"].to_pylist() if "depth" in batch.column_names
              else [0] * batch.num_rows)
    seqs = (batch["fetch_seq"].to_pylist() if "fetch_seq" in batch.column_names
            else [0] * batch.num_rows)
    for url, host, status, rnd, ctype, body, depth, seq in zip(
            batch["url"].to_pylist(), batch["host"].to_pylist(),
            batch["status"].to_pylist(), batch["round"].to_pylist(),
            batch["content_type"].to_pylist(), batch["body"].to_pylist(),
            depths, seqs):
        date = logical_date(rnd)
        salt = "r%d" % rnd
        req_id = record_id_for(url, "request", salt)
        req_payload = http_request_payload(url, host)
        c["record_id"].append(req_id)
        c["rec_type"].append("request")
        c["target_uri"].append(url)
        c["date"].append(date)
        c["ip_address"].append("")
        c["content_type"].append(req_ct)
        c["content_length"].append(len(req_payload))
        c["payload_digest"].append(sha1_digest(req_payload))
        c["extra_headers"].append([])
        c["payload"].append(req_payload)

        body = body or b""
        status_line = "HTTP/1.1 200 OK" if status == 200 else "HTTP/1.1 %d X" % status
        payload = (("%s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n"
                    % (status_line, ctype, len(body))).encode("ascii") + body)
        c["record_id"].append(record_id_for(url, "response", salt))
        c["rec_type"].append("response")
        c["target_uri"].append(url)
        c["date"].append(date)
        c["ip_address"].append("")
        c["content_type"].append(resp_ct)
        c["content_length"].append(len(payload))
        c["payload_digest"].append(sha1_digest(payload))
        c["extra_headers"].append([("warc-concurrent-to", req_id)])
        c["payload"].append(payload)

        if emit_metadata:
            meta_payload = ("hopsFromSeed: %d\r\nfetchSeq: %d\r\n"
                            "fetchStatus: %d\r\nfetchRound: %d\r\n"
                            % (depth, seq, status, rnd)).encode("ascii")
            c["record_id"].append(record_id_for(url, "metadata", salt))
            c["rec_type"].append("metadata")
            c["target_uri"].append(url)
            c["date"].append(date)
            c["ip_address"].append("")
            c["content_type"].append(meta_ct)
            c["content_length"].append(len(meta_payload))
            c["payload_digest"].append(sha1_digest(meta_payload))
            c["extra_headers"].append([("warc-concurrent-to", req_id)])
            c["payload"].append(meta_payload)
    return pa.table(
        {f.name: pa.array(c[f.name], type=f.type) for f in WARC_RECORD_SCHEMA},
        schema=WARC_RECORD_SCHEMA)


def serialize_records_reference(batch: pa.Table) -> pa.Table:
    """WARC record rows → raw record bytes via core ``WARCHeader``
    (the slow, obviously-correct formulation; kept as the parity oracle
    for the templated fast path below)."""
    out_bytes = []
    for row in batch.to_pylist():
        headers = WARCHeader({})
        headers["WARC-Type"] = row["rec_type"]
        headers["WARC-Record-ID"] = row["record_id"]
        headers["WARC-Date"] = row["date"]
        if row["target_uri"]:
            headers["WARC-Target-URI"] = row["target_uri"]
        if row["ip_address"]:
            headers["WARC-IP-Address"] = row["ip_address"]
        headers["Content-Type"] = row["content_type"]
        headers["Content-Length"] = str(row["content_length"])
        headers["WARC-Payload-Digest"] = row["payload_digest"]
        for k, v in row["extra_headers"] or []:
            headers[k] = v
        out_bytes.append(headers.to_bytes() + (row["payload"] or b"") + b"\r\n\r\n")
    return pa.table({
        "record_id": batch["record_id"],
        "rec_type": batch["rec_type"],
        "target_uri": batch["target_uri"],
        "payload_digest": batch["payload_digest"],
        "record_bytes": pa.array(out_bytes, type=pa.large_binary()),
    })


def serialize_records(batch: pa.Table) -> pa.Table:
    """WARC record rows → raw record bytes (header + payload + CRLF CRLF).

    Byte-identical to ``serialize_records_reference`` (asserted by
    tests/test_archive_slice.py::test_serialize_fast_path_parity) but
    templated: WARCHeader preserves insertion order and the insertion
    sequence here is fixed, so the header block is one string format —
    this stage runs once per record at ~100k records/s/core and the
    dict machinery was a third of its cost."""
    from ..core.warcrec import canonical_header_name

    out_bytes = []
    for rec_type, rid, date, uri, ip, ctype, clen, dig, extras, payload in zip(
            batch["rec_type"].to_pylist(), batch["record_id"].to_pylist(),
            batch["date"].to_pylist(), batch["target_uri"].to_pylist(),
            batch["ip_address"].to_pylist(), batch["content_type"].to_pylist(),
            batch["content_length"].to_pylist(),
            batch["payload_digest"].to_pylist(),
            batch["extra_headers"].to_pylist(), batch["payload"].to_pylist()):
        parts = ["WARC/1.0\r\nWARC-Type: %s\r\nWARC-Record-ID: %s\r\n"
                 "WARC-Date: %s\r\n" % (rec_type, rid, date)]
        if uri:
            parts.append("WARC-Target-URI: %s\r\n" % uri)
        if ip:
            parts.append("WARC-IP-Address: %s\r\n" % ip)
        parts.append("Content-Type: %s\r\nContent-Length: %s\r\n"
                     "WARC-Payload-Digest: %s\r\n" % (ctype, clen, dig))
        for k, v in extras or []:
            parts.append("%s: %s\r\n" % (canonical_header_name(k), v))
        parts.append("\r\n")
        # ascii-replace, not strict: matches WARCHeader.to_bytes (the
        # parity oracle) for foreign records with non-ASCII header values
        out_bytes.append("".join(parts).encode("ascii", "replace")
                         + (payload or b"") + b"\r\n\r\n")
    return pa.table({
        "record_id": batch["record_id"],
        "rec_type": batch["rec_type"],
        "target_uri": batch["target_uri"],
        "payload_digest": batch["payload_digest"],
        "record_bytes": pa.array(out_bytes, type=pa.large_binary()),
    })


_NS_BYTES = NAMESPACE.bytes


def _record_id_fast(uri: str, rec_type: str, salt: str) -> str:
    """uuid5 without the uuid.UUID object machinery (3 ids per URL in
    fused_fetch_records) — bit-identical to record_id_for, pinned by
    tests/test_archive_slice.py::test_fused_writer_parity."""
    h = bytearray(hashlib.sha1(
        _NS_BYTES + ("%s|%s|%s" % (uri, rec_type, salt)).encode()).digest()[:16])
    h[6] = (h[6] & 0x0F) | 0x50
    h[8] = (h[8] & 0x3F) | 0x80
    x = h.hex()
    return "<urn:uuid:%s-%s-%s-%s-%s>" % (x[:8], x[8:12], x[12:16],
                                          x[16:20], x[20:])


def fused_fetch_records(batch: pa.Table,
                        emit_metadata: bool = True) -> pa.Table:
    """Fetch-log rows → serialized request+response(+metadata) record
    bytes in ONE per-row Python pass.

    Byte-identical to serialize_records(fetch_to_warc_records(batch))
    (pinned by test_fused_writer_parity) but skips the intermediate
    WARC_RECORD_SCHEMA table.  ``WriteWarcShard`` over this table is
    the parity reference of the crawl writers' columnar
    ``sinks.warc_sink.write_fused_round`` (file bytes, shard name and
    CDX rows; tests/test_fused_writer_props.py), so it stays a plain
    row loop: each line maps to one header field."""
    sha1 = hashlib.sha1
    ids, types, uris, digs, blobs = [], [], [], [], []
    hints: list[bool] = []   # True = high-entropy payload (media) —
    #                          the sink skips deflate match search
    depths = (batch["depth"].to_pylist() if "depth" in batch.column_names
              else [0] * batch.num_rows)
    seqs = (batch["fetch_seq"].to_pylist() if "fetch_seq" in batch.column_names
            else [0] * batch.num_rows)
    for url, host, status, rnd, ctype, body, depth, seq in zip(
            batch["url"].to_pylist(), batch["host"].to_pylist(),
            batch["status"].to_pylist(), batch["round"].to_pylist(),
            batch["content_type"].to_pylist(), batch["body"].to_pylist(),
            depths, seqs):
        date = logical_date(rnd)
        salt = "r%d" % rnd
        rest = url.split("://", 1)[1]
        path = "/" + rest.split("/", 1)[1] if "/" in rest else "/"

        req_id = _record_id_fast(url, "request", salt)
        req_payload = ("GET %s HTTP/1.1\r\nHost: %s\r\n"
                       "User-Agent: warc-ray/0.1\r\n\r\n"
                       % (path, host)).encode("ascii")
        dig = "sha1:" + sha1(req_payload).hexdigest()
        ids.append(req_id)
        types.append("request")
        uris.append(url)
        digs.append(dig)
        hints.append(False)
        blobs.append((
            "WARC/1.0\r\nWARC-Type: request\r\nWARC-Record-ID: %s\r\n"
            "WARC-Date: %s\r\nWARC-Target-URI: %s\r\n"
            "Content-Type: application/http; msgtype=request\r\n"
            "Content-Length: %d\r\nWARC-Payload-Digest: %s\r\n\r\n"
            % (req_id, date, url, len(req_payload), dig)).encode("ascii")
            + req_payload + b"\r\n\r\n")

        body = body or b""
        status_line = ("HTTP/1.1 200 OK" if status == 200
                       else "HTTP/1.1 %d X" % status)
        payload = (("%s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n"
                    % (status_line, ctype, len(body))).encode("ascii")
                   + body)
        dig = "sha1:" + sha1(payload).hexdigest()
        rid = _record_id_fast(url, "response", salt)
        ids.append(rid)
        types.append("response")
        uris.append(url)
        digs.append(dig)
        hints.append(ctype == "application/octet-stream")
        blobs.append((
            "WARC/1.0\r\nWARC-Type: response\r\nWARC-Record-ID: %s\r\n"
            "WARC-Date: %s\r\nWARC-Target-URI: %s\r\n"
            "Content-Type: application/http; msgtype=response\r\n"
            "Content-Length: %d\r\nWARC-Payload-Digest: %s\r\n"
            "WARC-Concurrent-To: %s\r\n\r\n"
            % (rid, date, url, len(payload), dig, req_id)).encode("ascii")
            + payload + b"\r\n\r\n")

        if emit_metadata:
            meta_payload = ("hopsFromSeed: %d\r\nfetchSeq: %d\r\n"
                            "fetchStatus: %d\r\nfetchRound: %d\r\n"
                            % (depth, seq, status, rnd)).encode("ascii")
            dig = "sha1:" + sha1(meta_payload).hexdigest()
            rid = _record_id_fast(url, "metadata", salt)
            ids.append(rid)
            types.append("metadata")
            uris.append(url)
            digs.append(dig)
            hints.append(False)
            blobs.append((
                "WARC/1.0\r\nWARC-Type: metadata\r\nWARC-Record-ID: %s\r\n"
                "WARC-Date: %s\r\nWARC-Target-URI: %s\r\n"
                "Content-Type: application/warc-fields\r\n"
                "Content-Length: %d\r\nWARC-Payload-Digest: %s\r\n"
                "WARC-Concurrent-To: %s\r\n\r\n"
                % (rid, date, url, len(meta_payload), dig, req_id)
            ).encode("ascii") + meta_payload + b"\r\n\r\n")
    return pa.table({
        "record_id": pa.array(ids, type=pa.string()),
        "rec_type": pa.array(types, type=pa.string()),
        "target_uri": pa.array(uris, type=pa.string()),
        "payload_digest": pa.array(digs, type=pa.string()),
        "record_bytes": pa.array(blobs, type=pa.large_binary()),
        "entropy_hint": pa.array(hints, type=pa.bool_()),
    })


def fused_doc_records(batch: pa.Table, date: str = "2026-01-01T00:00:00Z",
                      emit_metadata: bool = True) -> pa.Table:
    """Docs → serialized response(+metadata) record bytes in one pass:
    bodies via the VECTORIZED span renderer (render_payloads), headers
    templated.  Byte-identical to
    serialize_records(docs_to_response_records(batch)) — pinned by
    tests/test_archive_slice.py::test_fused_doc_records_parity."""
    import pyarrow.compute as pc

    sha1 = hashlib.sha1
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    payloads = render_payloads(spans)
    doc_ids = batch["doc_id"].to_pylist()
    n_spans = pc.list_value_length(spans).to_pylist()
    # media-ref counts per doc: prefix sums over the flattened refs
    flat_ref = spans.flatten().field("media_ref")
    has_ref = pc.cast(pc.not_equal(flat_ref, ""), pa.int64()) \
        .to_numpy(zero_copy_only=False)
    offs = spans.offsets.to_numpy(zero_copy_only=False)
    offs = offs - offs[0]  # sliced arrays: offsets need not start at 0
    cs = np.concatenate([[0], np.cumsum(has_ref)])
    n_media = (cs[offs[1:]] - cs[offs[:-1]]).tolist()
    ids, types, uris, digs, blobs = [], [], [], [], []
    for i, doc_id in enumerate(doc_ids):
        uri = "urn:doc:%s" % doc_id
        payload = payloads[i].as_py()
        dig = "sha1:" + sha1(payload).hexdigest()
        rid = _record_id_fast(uri, "response", "")
        ids.append(rid)
        types.append("response")
        uris.append(uri)
        digs.append(dig)
        blobs.append((
            "WARC/1.0\r\nWARC-Type: response\r\nWARC-Record-ID: %s\r\n"
            "WARC-Date: %s\r\nWARC-Target-URI: %s\r\n"
            "Content-Type: application/http; msgtype=response\r\n"
            "Content-Length: %d\r\nWARC-Payload-Digest: %s\r\n\r\n"
            % (rid, date, uri, len(payload), dig)).encode("ascii")
            + payload + b"\r\n\r\n")
        if emit_metadata:
            meta = ("nSpans: %d\r\nnMediaRefs: %d\r\n"
                    % (n_spans[i], n_media[i] or 0)).encode("ascii")
            dig = "sha1:" + sha1(meta).hexdigest()
            rid = _record_id_fast(uri, "metadata", "")
            ids.append(rid)
            types.append("metadata")
            uris.append(uri)
            digs.append(dig)
            blobs.append((
                "WARC/1.0\r\nWARC-Type: metadata\r\nWARC-Record-ID: %s\r\n"
                "WARC-Date: %s\r\nWARC-Target-URI: %s\r\n"
                "Content-Type: application/warc-fields\r\n"
                "Content-Length: %d\r\nWARC-Payload-Digest: %s\r\n\r\n"
                % (rid, date, uri, len(meta), dig)).encode("ascii")
                + meta + b"\r\n\r\n")
    return pa.table({
        "record_id": pa.array(ids, type=pa.string()),
        "rec_type": pa.array(types, type=pa.string()),
        "target_uri": pa.array(uris, type=pa.string()),
        "payload_digest": pa.array(digs, type=pa.string()),
        "record_bytes": pa.array(blobs, type=pa.large_binary()),
    })


def parse_record_rows(records: list) -> pa.Table:
    """core WARCRecord objects → WARC_RECORD_SCHEMA rows (read path)."""
    from ..core.warcrec import KNOWN_HEADERS

    fixed = {v.lower() for v in KNOWN_HEADERS.values()} | {"warc-payload-digest"}
    rows = []
    for rec in records:
        h = rec.header
        extras = [(k, v) for k, v in h.items() if k not in fixed]
        rows.append({
            "record_id": h.get("warc-record-id", ""),
            "rec_type": h.get("warc-type", ""),
            "target_uri": h.get("warc-target-uri", ""),
            "date": h.get("warc-date", ""),
            "ip_address": h.get("warc-ip-address", ""),
            "content_type": h.get("content-type", ""),
            "content_length": int(h.get("content-length", 0)),
            "payload_digest": h.get("warc-payload-digest", ""),  # verbatim
            "extra_headers": extras,
            "payload": rec.payload_bytes(),
        })
    return pa.Table.from_pylist(rows, schema=WARC_RECORD_SCHEMA)


def arc_rows_to_warc_records(batch: pa.Table,
                             rec_type: str = "response") -> pa.Table:
    """ARC record rows (schema.ARC_RECORD_SCHEMA) → WARC record rows —
    the field mapping of the classic ARC→WARC archive migration: ARC's
    positional header fields become named WARC headers (url →
    WARC-Target-URI, ip → WARC-IP-Address), the ARC ``YYYYmmddHHMMSS``
    date becomes an ISO-8601 WARC-Date (reference date formats:
    warc/arc.py:47-53 vs warc/warc.py:86), payloads move verbatim, and
    the write path mints fresh record ids + sha1 payload digests
    (reference defaults, warc/warc.py:147-157)."""
    rows = []
    for url, d, ip, pay in zip(batch["url"].to_pylist(),
                               batch["date"].to_pylist(),
                               batch["ip_address"].to_pylist(),
                               batch["payload"].to_pylist()):
        iso = (f"{d[0:4]}-{d[4:6]}-{d[6:8]}T{d[8:10]}:{d[10:12]}:{d[12:14]}Z"
               if d and len(d) == 14 else d or "")
        rows.append(make_record_row(rec_type, url, pay, iso, ip=ip or ""))
    return pa.Table.from_pylist(rows, schema=WARC_RECORD_SCHEMA)
