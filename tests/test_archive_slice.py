"""End-to-end archive slice: docs → WARC shards → read back → verify.

Validates (per SURVEY.md §7 step 3): record counts, digests, the gzip
member-per-record invariant, CDX offsets, and that shards are readable
by BOTH the distributed datasource and the single-process core reader.
"""

import glob
import os

import pyarrow as pa
import pytest

from warc_ray import corpus
from warc_ray.core import WARCFile, gzipm
from warc_ray.core.warcrec import sha1_digest


@pytest.fixture(scope="module")
def archive_out(ray_session, tmp_path_factory):
    from warc_ray.pipelines.archive import archive_corpus

    root = str(tmp_path_factory.mktemp("corpus"))
    cdir = corpus.ensure_corpus("t1", root=root)
    out = str(tmp_path_factory.mktemp("warc_out"))
    cdx = archive_corpus(corpus.docs_path(cdir), out).materialize()
    return cdir, out, cdx


def test_counts_and_cdx(archive_out):
    cdir, out, cdx = archive_out
    p = corpus.PROFILES["t1"]
    t = cdx.to_pandas()
    n_info = (t.rec_type == "warcinfo").sum()
    n_resp = (t.rec_type == "response").sum()
    assert n_resp == p.n_docs
    shards = glob.glob(os.path.join(out, "*.warc.gz"))
    assert len(shards) == n_info >= 1


def test_member_invariant_and_offsets(archive_out):
    _cdir, out, cdx = archive_out
    t = cdx.to_pandas()
    for shard, grp in t.groupby("shard"):
        data = open(shard, "rb").read()
        members = gzipm.split_members(data)
        assert len(members) == len(grp)  # one member per record (+warcinfo)
        grp = grp.sort_values("offset")
        assert list(grp.offset) == [m[0] for m in members]
        assert list(grp.length) == [m[1] for m in members]


def test_readback_core_reader(archive_out):
    """Shards written distributed are readable by the single-process
    WARCFile — and digests match the recorded CDX digests."""
    _cdir, out, cdx = archive_out
    t = cdx.to_pandas()
    shard = sorted(t.shard.unique())[0]
    expected = t[t.shard == shard].sort_values("offset")
    f = WARCFile(shard)
    recs = list(f)
    assert len(recs) == len(expected)
    assert recs[0].type == "warcinfo"
    for rec, (_, row) in zip(recs, expected.iterrows()):
        payload = rec.payload.read()
        assert sha1_digest(payload) == row.payload_digest
        assert rec["WARC-Record-ID"] == row.record_id


def test_readback_distributed(archive_out):
    from warc_ray.sources import read_warc

    _cdir, out, cdx = archive_out
    ds = read_warc(out)
    t = ds.to_pandas()
    c = cdx.to_pandas()
    assert len(t) == len(c)
    # digests recomputed from payloads match the written digests
    got = {r.record_id: sha1_digest(bytes(r.payload)) for r in t.itertuples()}
    want = dict(zip(c.record_id, c.payload_digest))
    assert got == want
    # provenance offsets agree with CDX
    got_off = {(r.shard, r.record_id): r.offset for r in t.itertuples()}
    want_off = {(r.shard, r.record_id): r.offset for r in c.itertuples()}
    assert got_off == want_off


def test_span_roundtrip_via_body(archive_out):
    """Body rendering is invertible enough to carry the span invariant:
    re-reading a response body yields the original interleaving order."""
    cdir, out, _cdx = archive_out
    from warc_ray.sources import read_warc
    from warc_ray.stages.assemble import render_body

    docs = corpus.read_bucket(cdir, 0)
    doc_id = docs["doc_id"][0].as_py()
    spans = docs["spans"][0].as_py()
    ds = read_warc(out).filter(
        lambda r: r["target_uri"] == f"urn:doc:{doc_id}"
        and r["rec_type"] == "response")
    rows = ds.take_all()
    assert len(rows) == 1
    body = bytes(rows[0]["payload"]).split(b"\r\n\r\n", 1)[1]
    assert body == render_body(spans)


def test_vectorized_render_parity():
    # render_payloads (Arrow kernels) must byte-match the per-row
    # python pair http_response_payload(render_body(...)) — the oracle
    # fetch path depends on it.
    import pyarrow as pa

    from warc_ray import corpus
    from warc_ray.stages.assemble import (
        http_response_payload,
        render_body,
        render_payloads,
    )

    t = corpus._gen_bucket(corpus.PROFILES["t2"], 3)
    spans = t["spans"].combine_chunks()
    vec = render_payloads(spans).to_pylist()
    for i, s in enumerate(spans.to_pylist()):
        assert vec[i] == http_response_payload(render_body(s)), i


def test_fetch_group_matches_fetch_rows(tmp_path):
    # The vectorized FetchGroup and the oracle's per-row fetch_rows
    # must produce identical (url -> doc_id/status/body/spans) maps.
    import pyarrow as pa

    from warc_ray import corpus
    from warc_ray.schema import SPAN_STRUCT
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column, fetch_rows

    cdir = corpus.ensure_corpus("t1", root=str(tmp_path))
    p = corpus.PROFILES["t1"]
    urls = ([corpus.doc_url(i, p.n_hosts) for i in range(0, p.n_docs, 7)]
            + [corpus.media_url(i, p.n_hosts) for i in range(0, p.n_docs, 13)]
            + [corpus.doc_url(p.n_docs + 5, p.n_hosts),  # miss
               "http://host-0.example/robots.txt"])      # non-doc
    n = len(urls)
    group = pa.table({
        "url": pa.array(urls),
        "host": pa.array(["h"] * n),
        "priority": pa.array([1] * n, type=pa.int32()),
        "depth": pa.array([0] * n, type=pa.int32()),
        "round": pa.array([0] * n, type=pa.int32()),
        "fetch_seq": pa.array(list(range(n)), type=pa.int64()),
    })
    group = add_bucket_column(group, p.n_buckets)
    got = FetchGroup(cdir, p.n_buckets)(group)
    exp = dict(zip(urls, fetch_rows(urls, cdir, p.n_buckets)))
    assert got.num_rows == n
    for row in got.to_pylist():
        doc_id, status, ctype, body, spans = exp[row["url"]]
        assert row["doc_id"] == doc_id
        assert row["status"] == status
        assert row["content_type"] == ctype
        assert row["body"] == body
        assert row["spans"] == list(spans)


def test_arc_shard_sink_roundtrip(ray_session, tmp_path):
    # Dataset of fetched rows → .arc.gz shards → read back with the
    # distributed ARC reader: payload + header fields survive.
    import pyarrow as pa
    import ray.data as rd

    from warc_ray.sinks.arc_sink import write_arc_shards
    from warc_ray.sources import read_arc

    rows = pa.table({
        "url": [f"http://h{i}.example/p/{i}" for i in range(50)],
        "ip_address": ["10.0.0.%d" % (i % 250) for i in range(50)],
        "date": ["2026010100%04d" % (i % 60) for i in range(50)],
        "content_type": ["text/html"] * 50,
        "body": pa.array([b"body-%d" % i for i in range(50)],
                         type=pa.large_binary()),
    })
    out = str(tmp_path / "arcs")
    idx = write_arc_shards(rd.from_arrow(rows), out, batch_size=16).to_pandas()
    assert len(idx) == 50

    back = read_arc(out).to_pandas()
    # the reader consumes each shard's filedesc header into the
    # file_org/file_date columns (reference _read_file_header semantics)
    assert len(back) == 50
    assert (back.file_org == "warc-ray").all()
    got = dict(zip(back.url, back.payload))
    for i in range(50):
        assert bytes(got[f"http://h{i}.example/p/{i}"]) == b"body-%d" % i
    assert idx.shard.nunique() == 4  # ceil(50/16) shards


def test_serialize_fast_path_parity():
    # templated serialize_records must be byte-identical to the
    # WARCHeader-based reference formulation, including extras
    import pyarrow as pa

    from warc_ray import corpus
    from warc_ray.stages.assemble import (
        fetch_to_warc_records,
        serialize_records,
        serialize_records_reference,
    )
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column

    cdir = corpus.ensure_corpus("t1", root="/tmp/wr_parity_corpus")
    p = corpus.PROFILES["t1"]
    urls = [corpus.doc_url(i, p.n_hosts) for i in range(0, 100, 3)]
    n = len(urls)
    g = pa.table({
        "url": pa.array(urls), "host": pa.array(["h"] * n),
        "priority": pa.array([1] * n, type=pa.int32()),
        "depth": pa.array([0] * n, type=pa.int32()),
        "round": pa.array([i % 4 for i in range(n)], type=pa.int32()),
        "fetch_seq": pa.array(list(range(n)), type=pa.int64()),
    })
    fetched = FetchGroup(cdir, p.n_buckets)(add_bucket_column(g, p.n_buckets))
    records = fetch_to_warc_records(fetched)
    fast = serialize_records(records)["record_bytes"].to_pylist()
    slow = serialize_records_reference(records)["record_bytes"].to_pylist()
    assert fast == slow
    assert len(fast) == 3 * n  # request + response + metadata per fetch
    types = records["rec_type"].to_pylist()
    assert types.count("request") == types.count("response") == \
        types.count("metadata") == n
    # metadata payloads are warc-fields and deterministic
    meta = [p for t, p in zip(types, records["payload"].to_pylist())
            if t == "metadata"]
    assert all(bytes(m).startswith(b"hopsFromSeed: ") for m in meta)


def test_fused_writer_parity(tmp_path):
    """fused_fetch_records (one per-row pass, fast uuid5; the writer's
    parity reference) must be byte-identical to
    serialize_records(fetch_to_warc_records)."""
    import pyarrow as pa

    from warc_ray import corpus
    from warc_ray.stages.assemble import (
        fetch_to_warc_records,
        fused_fetch_records,
        serialize_records,
    )
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column

    cdir = corpus.ensure_corpus("t1", root=str(tmp_path))
    p = corpus.PROFILES["t1"]
    urls = ([corpus.doc_url(i, p.n_hosts) for i in range(0, 90, 3)]
            + [corpus.media_url(7, p.n_hosts),              # media fetch
               corpus.doc_url(p.n_docs + 5, p.n_hosts)])    # 404 miss
    n = len(urls)
    g = pa.table({
        "url": pa.array(urls), "host": pa.array(["h"] * n),
        "priority": pa.array([1] * n, type=pa.int32()),
        "depth": pa.array([i % 6 for i in range(n)], type=pa.int32()),
        "round": pa.array([i % 4 for i in range(n)], type=pa.int32()),
        "fetch_seq": pa.array(list(range(n)), type=pa.int64()),
    })
    fetched = FetchGroup(cdir, p.n_buckets)(add_bucket_column(g, p.n_buckets))
    ref = serialize_records(fetch_to_warc_records(fetched))
    fus = fused_fetch_records(fetched)
    # fused carries one extra sink-hint column; the serialized record
    # columns must be byte-identical
    assert fus.column_names[:len(ref.column_names)] == ref.column_names
    for c in ref.column_names:
        assert ref[c].to_pylist() == fus[c].to_pylist(), c
    hints = fus["entropy_hint"].to_pylist()
    types = fus["rec_type"].to_pylist()
    assert all(t == "response" for t, h in zip(types, hints) if h)


def test_fused_doc_records_parity(tmp_path):
    """fused_doc_records (archive hot path) == the two-step
    docs_to_response_records -> serialize_records, byte for byte."""
    from warc_ray import corpus
    from warc_ray.stages.assemble import (
        docs_to_response_records,
        fused_doc_records,
        serialize_records,
    )

    cdir = corpus.ensure_corpus("t1", root=str(tmp_path))
    t = corpus.read_bucket(cdir, 0)
    ref = serialize_records(docs_to_response_records(t))
    fus = fused_doc_records(t)
    assert ref.column_names == fus.column_names
    for c in ref.column_names:
        assert ref[c].to_pylist() == fus[c].to_pylist(), c
    # sliced input (non-zero list offsets) must decode identically
    s = t.slice(3, 40)
    assert fused_doc_records(s)["record_bytes"].to_pylist() == \
        serialize_records(docs_to_response_records(s))["record_bytes"].to_pylist()


def test_write_fused_round_parity(tmp_path):
    """write_fused_round (columnar assembly, one deflate loop) must
    produce byte-identical shard FILES and identical CDX rows to
    WriteWarcShard(fused_fetch_records(batch)) on real fetched rows —
    including mixed rounds, 404s, and stored-member media hints
    (tests/test_fused_writer_props.py covers the edge cases)."""
    import glob

    import pyarrow as pa

    from warc_ray import corpus
    from warc_ray.sinks.warc_sink import WriteWarcShard, write_fused_round
    from warc_ray.stages.assemble import fused_fetch_records
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column

    cdir = corpus.ensure_corpus("t1", root=str(tmp_path))
    p = corpus.PROFILES["t1"]
    urls = ([corpus.doc_url(i, p.n_hosts) for i in range(0, 90, 3)]
            + [corpus.media_url(7, p.n_hosts),
               corpus.doc_url(p.n_docs + 5, p.n_hosts)])
    n = len(urls)
    g = pa.table({
        "url": pa.array(urls), "host": pa.array(["h"] * n),
        "priority": pa.array([1] * n, type=pa.int32()),
        "depth": pa.array([i % 6 for i in range(n)], type=pa.int32()),
        "round": pa.array([i % 4 for i in range(n)], type=pa.int32()),
        "fetch_seq": pa.array(list(range(n)), type=pa.int64()),
    })
    fetched = FetchGroup(cdir, p.n_buckets)(add_bucket_column(g, p.n_buckets))
    date = "2026-01-04T00:00:00Z"
    old_dir, new_dir = str(tmp_path / "old"), str(tmp_path / "new")
    cdx_old = WriteWarcShard(old_dir, date=date)(fused_fetch_records(fetched))
    cdx_new = write_fused_round(fetched, new_dir, date)
    (fo,) = glob.glob(old_dir + "/*.warc.gz")
    (fn,) = glob.glob(new_dir + "/*.warc.gz")
    assert os.path.basename(fo) == os.path.basename(fn)
    with open(fo, "rb") as a, open(fn, "rb") as b:
        assert a.read() == b.read()
    assert cdx_old.drop_columns(["shard"]).equals(
        cdx_new.drop_columns(["shard"]))


def test_compress_members_parity():
    """compress_members (the sinks' one member loop) == compress_member
    / compress_member_stored of each record, byte for byte: binary,
    large_binary and string columns, sliced and chunked, empty records,
    mixed stored masks."""
    import numpy as np

    from warc_ray.core.gzipm import (compress_member, compress_member_stored,
                                     compress_members, split_members)

    rng = np.random.default_rng(5)
    recs = [bytes(rng.integers(0, 256, size=int(k), dtype=np.uint8))
            + b"WARC/1.0 repeated text " * int(k % 7)
            for k in rng.integers(0, 700, size=40)]
    recs[3] = recs[17] = b""
    stored = rng.random(len(recs)) < 0.3

    def check(col, rows, mask):
        blob, lengths = compress_members(col, mask)
        assert lengths.dtype == np.int64 and len(lengths) == len(rows)
        want = [compress_member_stored(r) if s else compress_member(r)
                for r, s in zip(rows, mask if mask is not None
                                else [False] * len(rows))]
        assert blob == b"".join(want)
        assert lengths.tolist() == [len(w) for w in want]
        assert [raw for _, _, raw in split_members(blob)] == list(rows)

    for typ in (pa.binary(), pa.large_binary()):
        arr = pa.array(recs, type=typ)
        check(arr, recs, stored)
        check(arr, recs, None)
        check(arr.slice(5, 20), recs[5:25], stored[5:25])
        check(arr.slice(40), [], stored[40:])
        check(pa.chunked_array([arr.slice(0, 9), arr.slice(9)]), recs, stored)
    text = ["", "a", "WARC/1.0\r\n" * 30, "é"]
    check(pa.array(text).slice(1), [t.encode() for t in text[1:]],
          np.array([True, False, True]))
    check(pa.array(text, type=pa.large_string()),
          [t.encode() for t in text], None)
    with pytest.raises(ValueError):
        compress_members(pa.array([b"x", None]))


def test_cdx_replay_random_access_and_corruption(archive_out):
    """q65's replay kernel: every CDX row is independently readable at
    its compressed offset with a verified digest, and a flipped payload
    byte (re-framed as valid gzip so only the CONTENT changed) is
    caught by digest_ok=False — the check is not vacuous."""
    import shutil

    from warc_ray.pipelines.archive import cdx_replay_batch

    cdir, out, cdx = archive_out
    rows = cdx.take(50)
    t = pa.Table.from_pylist(rows)
    got = cdx_replay_batch(t)
    assert got.num_rows == 50
    assert all(got["digest_ok"].to_pylist())

    # corrupt one record's payload, keep gzip framing valid
    victim = next(r for r in rows if r["rec_type"] == "response")
    raw = open(victim["shard"], "rb").read()
    member = raw[victim["offset"]:victim["offset"] + victim["length"]]
    rec_bytes = bytearray(gzipm.decompress_members(member))
    rec_bytes[-10] ^= 0xFF               # inside the payload tail
    bad_member = gzipm.compress_member_stored(bytes(rec_bytes))
    bad_shard = victim["shard"] + ".corrupt"
    with open(bad_shard, "wb") as f:
        f.write(raw[:victim["offset"]] + bad_member)
    bad_row = dict(victim, shard=bad_shard, length=len(bad_member))
    got2 = cdx_replay_batch(pa.Table.from_pylist([bad_row]))
    assert got2["digest_ok"].to_pylist() == [False]
    os.remove(bad_shard)


def test_wet_extraction(archive_out):
    """q157 WET derivative: per-doc extracted text must equal the
    corpus's text+anchor spans in span order (media spans dropped),
    md5-exact; docs whose spans are ALL media come back with empty
    text and n_lines == 0 rather than vanishing."""
    import hashlib

    import pyarrow.parquet as pq

    from warc_ray.pipelines.archive import wet_extraction

    cdir, out, _cdx = archive_out
    got = {r["doc_id"]: r for b in
           wet_extraction(out).iter_batches(batch_format="pyarrow")
           for r in b.to_pylist()}
    docs = pq.read_table(corpus.docs_path(cdir), columns=["doc_id", "spans"])
    n_all_media = 0
    assert len(got) == docs.num_rows
    for doc_id, spans in zip(docs["doc_id"].to_pylist(),
                             docs["spans"].to_pylist()):
        wet = "\n".join(s["text"] for s in spans
                        if s["kind"] in ("text", "link"))
        r = got[doc_id]
        assert r["n_lines"] == sum(
            s["kind"] in ("text", "link") for s in spans)
        assert r["text_len"] == len(wet)
        assert r["text_md5"] == hashlib.md5(wet.encode()).hexdigest()
        n_all_media += not wet
    assert n_all_media > 0  # the edge case is actually exercised at t1
