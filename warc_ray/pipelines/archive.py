"""Archive slice: docs table → WARC response records → gz shards + CDX.

The "minimum end-to-end slice" of SURVEY.md §7 step 3 — read →
map_batches → write, zero shuffles.  Every stage is a vectorized Arrow
batch transform; output shards are record-per-gzip-member and carry a
leading warcinfo record, so they round-trip through both this package's
distributed reader and the single-process core ``WARCFile``.
"""

from __future__ import annotations

import ray.data as rd

from ..sinks.warc_sink import write_warc_shards
from ..sources._util import read_parquet
from ..stages.assemble import fused_doc_records
from ..stages.exchange import (bucket_exchange, collect, combine_buckets,
                               sort_result)


def archive_docs(docs_ds: "rd.Dataset", out_dir: str, *,
                 date: str = "2026-01-01T00:00:00Z",
                 records_per_shard: int = 2048) -> "rd.Dataset":
    """Returns the (lazy) CDX index Dataset; consuming it drives the write.

    Assembly uses the fused docs→record-bytes pass (vectorized span
    rendering + templated headers); byte-parity with the two-step
    docs_to_response_records → serialize_records path is pinned by
    tests/test_archive_slice.py::test_fused_doc_records_parity."""
    serialized = docs_ds.map_batches(
        lambda b: fused_doc_records(b, date=date),
        batch_format="pyarrow",
    )
    return write_warc_shards(serialized, out_dir, date=date,
                             batch_size=records_per_shard)


def archive_corpus(corpus_docs_path: str, out_dir: str, **kwargs) -> "rd.Dataset":
    from .. import io as wio

    return archive_docs(wio.read_docs(corpus_docs_path), out_dir, **kwargs)


def cdx_replay_batch(b: "pa.Table") -> "pa.Table":
    """Replay a batch of CDX rows by compressed offset: seek each shard
    at ``offset``, gunzip exactly one member (record-per-member makes
    any record independently decodable — reference warc/warc.py:269-272
    invariant), parse, and verify the payload digest.  Rows are served
    shard-grouped/offset-sorted so a shard is opened once per batch.
    Used by q65 (__ray_entry__._cdx_lookup_q) and the corruption test."""
    import numpy as np
    import pyarrow as pa

    from ..core.gzipm import decompress_members
    from ..core.warcrec import parse_record_bytes, sha1_digest

    order = pa.compute.sort_indices(
        b, sort_keys=[("shard", "ascending"), ("offset", "ascending")])
    b = b.take(order)
    ok = np.zeros(b.num_rows, dtype=bool)
    fh, cur = None, None
    for i, (sh, off, ln, dig) in enumerate(zip(
            b["shard"].to_pylist(), b["offset"].to_pylist(),
            b["length"].to_pylist(), b["payload_digest"].to_pylist())):
        if sh != cur:
            if fh is not None:
                fh.close()
            fh, cur = open(sh, "rb"), sh
        fh.seek(off)
        rec = parse_record_bytes(decompress_members(fh.read(ln)))
        payload = rec.payload if isinstance(rec.payload, bytes) \
            else rec.payload.read()
        ok[i] = (sha1_digest(payload) == dig
                 and rec.header.get("warc-payload-digest", dig) == dig)
    if fh is not None:
        fh.close()
    return pa.table({
        "record_id": b["record_id"],
        "target_uri": b["target_uri"],
        "rec_type": b["rec_type"],
        "length": b["length"],
        "digest_ok": pa.array(ok),
    })


def revisit_decisions(archive_dir: str, corpus_docs_path: str,
                      npart: int = 32) -> "rd.Dataset":
    """q96: WARC ``revisit``-record dedup — the Heritrix/IA dedup
    contract (reference CONTENT_TYPES enumerate the record type,
    warc/warc.py:52-55): on a re-crawl, a payload whose sha1 digest
    matches what the archive already holds for that URI is written as
    a tiny ``revisit`` record referencing the original instead of a
    full ``response``.

    Inputs: the existing archive's CDX (uri → payload digest — the
    dedup index IS the offset index the sink already emits) and a
    deterministic re-crawl snapshot (q71's rules: doc i%101==7 gone,
    i%89==5 mutated — here the RENDERED body mutates, so the decision
    is a real digest comparison, not a coin flip).  Returns the
    decision summary: per decision the record count and payload bytes
    (bytes WRITTEN for responses, bytes SAVED for revisits).

    Scale shape: both sides reduce scan-side to (uri, digest[, len])
    rows — the corpus body never shuffles — and meet in ONE uri-hash
    exchange; each bucket compares via a vectorized Arrow join.  The
    revisit-record serialization itself is pinned by
    tests/test_analytics.py::test_revisit_record_roundtrip."""
    import hashlib
    import re as _re

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.assemble import render_payloads
    from ..stages.exchange import with_part

    INT64 = pa.int64()

    def cdx_side(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["rec_type"], "response"))
        t = pa.table({
            "target_uri": b["target_uri"],
            "dig_a": b["payload_digest"],
            "dig_b": pa.nulls(b.num_rows, pa.string()),
            "body_len": pa.nulls(b.num_rows, INT64),
        })
        return with_part(t, "target_uri", npart)

    num_re = _re.compile(r"(\d+)$")

    def recrawl_side(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        i = np.array([int(num_re.search(d).group(1)) for d in ids],
                     dtype=np.int64)
        keep = i % 101 != 7
        b = b.filter(pa.array(keep))
        i = i[keep]
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        payloads = render_payloads(spans)
        sha1 = hashlib.sha1
        mutate = i % 89 == 5
        pl = payloads.to_pylist()               # ONE C call, not per-row
        digs = ["sha1:" + sha1(p + b"!" if m else p).hexdigest()
                for p, m in zip(pl, mutate)]
        lens = (pc.binary_length(payloads).to_numpy(zero_copy_only=False)
                .astype(np.int64) + mutate.astype(np.int64))
        t = pa.table({
            "target_uri": pa.array(
                ["urn:doc:%s" % d for d, k in zip(ids, keep) if k],
                type=pa.string()),
            "dig_a": pa.nulls(b.num_rows, pa.string()),
            "dig_b": pa.array(digs, type=pa.string()),
            "body_len": pa.array(lens, type=INT64),
        })
        return with_part(t, "target_uri", npart)

    def bucket(g: pa.Table) -> pa.Table:
        # archive side: distinct (uri, digest) — an archive may hold
        # several responses per uri; revisit iff ANY digest matches
        a = g.filter(pc.is_valid(g["dig_a"])) \
            .select(["target_uri", "dig_a"]) \
            .group_by(["target_uri", "dig_a"]).aggregate([])
        bb = g.filter(pc.is_valid(g["dig_b"])) \
            .select(["target_uri", "dig_b", "body_len"])
        bb = bb.append_column(
            "row", pa.array(np.arange(bb.num_rows), type=INT64))
        j = bb.join(a, keys=["target_uri"], join_type="left outer")
        same = pc.fill_null(pc.equal(j["dig_b"], j["dig_a"]), False)
        hit = pa.table({"row": j["row"], "body_len": j["body_len"],
                        "same": pc.cast(same, INT64)}) \
            .group_by(["row"]).aggregate(
                [("same", "max"), ("body_len", "min")])
        dec = pc.if_else(pc.equal(hit["same_max"], 1),
                         "revisit", "response")
        return pa.table({"decision": dec,
                         "payload_bytes": hit["body_len_min"]})

    cdx = read_parquet(archive_dir + "-cdx") \
        .map_batches(cdx_side, batch_format="pyarrow")
    snap = read_parquet(corpus_docs_path, columns=["doc_id", "spans"]) \
        .map_batches(recrawl_side, batch_format="pyarrow")
    agg = combine_buckets(
        bucket_exchange(cdx.union(snap),
                        lambda g: bucket(g.drop_columns(["part"]))),
        "decision", [("n_records", "count"), ("payload_bytes", "sum")])
    return collect(agg) \
        .sort_by("decision")


def wet_extraction(archive_dir: str) -> "rd.Dataset":
    """q157: WET-style text-extraction derivative — the classic
    Common-Crawl companion pipeline (WARC → WET "conversion" records):
    read the archive's ``response`` records, strip the HTTP head, strip
    markup from the HTML body, and emit per-document plain text with a
    line count, byte length, and md5 (the digest a real WET conversion
    record would carry).

    Extraction rules (mirrored exactly by the DuckDB oracle over the
    corpus spans): anchor tags keep their anchor TEXT, ``<img>`` /
    ``<video>`` tags contribute nothing, blank lines are dropped.  The
    whole strip is three RE2 passes + a trim over the payload column —
    no per-row Python except the md5 loop (one C call per record, like
    the digest checks in q53).

    Scale shape: embarrassingly parallel over gzip members — one pass,
    zero shuffles; per-record output is O(text), never materialized
    driver-side.  Reference parity: payload framing per
    warc/warc.py:269-272 (member-per-record), HTTP-head split per
    warc/utils.py FilePart semantics."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sources import read_warc

    def extract(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["rec_type"], "response"))
        pay = pc.cast(pc.cast(b["payload"], pa.binary()), pa.string())
        body = pc.list_element(
            pc.split_pattern(pay, "\r\n\r\n", max_splits=1), 1)
        t = pc.replace_substring_regex(
            body, r'<a href="[^"]*">([^<]*)</a>', r"\1")
        t = pc.replace_substring_regex(t, r'<(?:img|video) src="[^"]*">', "")
        t = pc.replace_substring_regex(t, r"\n{2,}", "\n")
        t = pc.utf8_trim(t, "\n")
        nonempty = pc.cast(pc.not_equal(t, ""), pa.int64())
        n_lines = pc.add(
            pc.cast(pc.count_substring(t, "\n"), pa.int64()), nonempty)
        md5 = hashlib.md5
        digs = [md5(s.encode()).hexdigest() for s in t.to_pylist()]
        return pa.table({
            "doc_id": pc.replace_substring(b["target_uri"], "urn:doc:", ""),
            "n_lines": n_lines,
            "text_len": pc.cast(pc.utf8_length(t), pa.int64()),
            "text_md5": pa.array(digs, type=pa.string()),
        })

    return sort_result(
        read_warc(archive_dir).map_batches(extract,
                                           batch_format="pyarrow"),
        ["doc_id"])


def serialize_revisit_records(uris: list[str], refers_to: list[str],
                              digests: list[str],
                              date: str = "2026-01-01T00:00:00Z") -> "pa.Table":
    """Serialized WARC ``revisit`` records (zero-length payload,
    ``WARC-Refers-To`` = the original response's record id,
    ``WARC-Payload-Digest`` = the shared digest) — the write side of
    the q96 decision, compatible with ``write_warc_shards``."""
    import pyarrow as pa

    from ..stages.assemble import _record_id_fast

    ids, blobs = [], []
    for uri, ref, dig in zip(uris, refers_to, digests):
        rid = _record_id_fast(uri, "revisit", "")
        ids.append(rid)
        blobs.append((
            "WARC/1.0\r\nWARC-Type: revisit\r\nWARC-Record-ID: %s\r\n"
            "WARC-Date: %s\r\nWARC-Target-URI: %s\r\n"
            "WARC-Refers-To: %s\r\nWARC-Payload-Digest: %s\r\n"
            "Content-Length: 0\r\n\r\n\r\n\r\n"
            % (rid, date, uri, ref, dig)).encode("ascii"))
    return pa.table({
        "record_id": pa.array(ids, type=pa.string()),
        "rec_type": pa.array(["revisit"] * len(ids), type=pa.string()),
        "target_uri": pa.array(uris, type=pa.string()),
        "payload_digest": pa.array(digests, type=pa.string()),
        "record_bytes": pa.array(blobs, type=pa.large_binary()),
    })


def wat_extraction(archive_dir: str) -> "rd.Dataset":
    """q258: WAT-style metadata-extraction derivative — the third
    Common-Crawl companion (WARC → WAT): per ``response`` record, the
    outlink list parsed from the rendered body (order-preserving), the
    embedded-media count, and an md5 over the '|'-joined outlink
    sequence (the digest a WAT metadata record would carry for the
    link table).  Completes the derivative trio with q157 (WET text)
    and q65 (CDX index).

    Fully vectorized: one ``split_pattern`` per tag shape over the
    payload column, list-offset arithmetic for the per-record href
    slices, ``binary_join`` + batched numpy MD5 for the digest — no
    per-row Python anywhere.  Scale shape: embarrassingly parallel
    over gzip members, zero shuffles.  The DuckDB oracle reproduces
    every field from the corpus spans (link spans in offset order),
    so any defect in archive framing, HTTP-head split or href parsing
    value-mismatches."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sources import read_warc
    from ..stages.md5vec import md5_hex

    def extract(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["rec_type"], "response"))
        pay = pc.cast(pc.cast(b["payload"], pa.binary()), pa.string())
        body = pc.list_element(
            pc.split_pattern(pay, "\r\n\r\n", max_splits=1), 1)
        parts = pc.split_pattern(body, '<a href="').combine_chunks()
        offs = parts.offsets.to_numpy(zero_copy_only=False)
        n_out = (np.diff(offs) - 1).astype(np.int64)   # first = preamble
        flat = pc.list_flatten(parts)
        total = len(flat)
        starts = offs[:-1]
        par = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
        pos = np.arange(total, dtype=np.int64) - starts[par]
        keep = pos >= 1
        hrefs = pc.list_element(
            pc.split_pattern(flat.filter(pa.array(keep)), '"',
                             max_splits=1), 0)
        new_offs = np.concatenate(
            ([0], np.cumsum(n_out))).astype(np.int32)
        if isinstance(hrefs, pa.ChunkedArray):
            hrefs = hrefs.combine_chunks()
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(new_offs), hrefs), "|")
        n_media = pc.add(
            pc.cast(pc.count_substring(body, '<img src="'), pa.int64()),
            pc.cast(pc.count_substring(body, '<video src="'),
                    pa.int64()))
        return pa.table({
            "doc_id": pc.replace_substring(b["target_uri"],
                                           "urn:doc:", ""),
            "n_outlinks": pa.array(n_out, type=pa.int64()),
            "n_media": n_media,
            "outlinks_md5": md5_hex(joined),
        })

    return sort_result(
        read_warc(archive_dir).map_batches(extract,
                                           batch_format="pyarrow"),
        ["doc_id"])
