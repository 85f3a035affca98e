"""G11 (hot-host salted aggregation) and G13 (span-invariant verifier)."""

import pyarrow as pa
import pytest

from warc_ray import corpus


@pytest.fixture(scope="module")
def t1_dir(tmp_path_factory):
    return corpus.ensure_corpus("t1", root=str(tmp_path_factory.mktemp("c")))


def estimate_host_counts(ds, url_col: str = "url") -> dict[str, int]:
    """EXACT count pre-pass — TEST ORACLE ONLY (moved out of
    stages/hoststats per round-3 What's-wrong #4: it materializes a
    host-cardinality driver dict, which production salting must never
    do; the engine path is the bounded Misra-Gries fold).  Per-batch
    partials -> bucket combine -> driver dict."""
    import pyarrow as pa

    from warc_ray.stages.exchange import combine_buckets
    from warc_ray.stages.hoststats import add_host_column

    def hosts(b: pa.Table) -> pa.Table:
        return add_host_column(b, url_col).select(["host"])

    agg = combine_buckets(
        ds.map_batches(hosts, batch_format="pyarrow", batch_size=None),
        "host", [("n", "count")], npart=8)
    t = pa.Table.from_pandas(agg.to_pandas())
    return dict(zip(t["host"].to_pylist(),
                    (int(n) for n in t["n"].to_pylist())))


def test_salted_host_stats_match_unsalted(ray_session, t1_dir):
    import ray.data as rd

    from warc_ray.stages.hoststats import host_link_stats
    from warc_ray.stages.urls import extract_links

    links = rd.read_parquet(corpus.docs_path(t1_dir)).map_batches(
        lambda b: extract_links(b), batch_format="pyarrow")
    # force salting: tiny threshold → every host above 20 links is hot
    got = host_link_stats(links, target_per_group=20).sort("host").to_pandas()
    counts = estimate_host_counts(links)
    assert any(n > 20 for n in counts.values())  # skew actually present

    # ground truth: plain pandas aggregate of the same links
    df = links.to_pandas()
    df["host"] = df.url.str.extract(r"^https?://([^/:]+)")
    exp = (df.groupby("host")
           .agg(n_links=("url", "size"), min_src=("src_doc", "min"),
                max_src=("src_doc", "max"))
           .reset_index().sort_values("host").reset_index(drop=True))
    got = got.reset_index(drop=True)
    assert got.host.tolist() == exp.host.tolist()
    assert got.n_links.tolist() == exp.n_links.tolist()
    assert got.min_src.tolist() == exp.min_src.tolist()
    assert got.max_src.tolist() == exp.max_src.tolist()


def test_mg_hot_hosts_bounded_and_complete(ray_session, t1_dir):
    """The MG salting pre-pass ``host_link_stats`` runs must (a) keep
    driver state ≤ cells, (b) surface every host whose true count
    clears the threshold, and (c) never under-estimate a surviving
    host (upper-bound counts)."""
    import ray.data as rd

    from warc_ray.stages.hoststats import _host_partials, _mg_fold
    from warc_ray.stages.urls import extract_links

    links = rd.read_parquet(corpus.docs_path(t1_dir)).map_batches(
        lambda b: extract_links(b), batch_format="pyarrow")
    exact = estimate_host_counts(links)
    target = 20
    true_hot = {h for h, n in exact.items() if n > target}
    assert true_hot  # skew actually present

    # guarantee boundary: every host with count > target survives
    # whenever cells+1 >= total/target
    n_total = sum(exact.values())
    cells = n_total // target + 1
    hot, total = _mg_fold(_host_partials(links, "url"), target, cells)
    assert total == n_total
    assert len(hot) <= cells
    assert true_hot <= set(hot)                 # completeness
    for h, ub in hot.items():
        assert ub >= exact.get(h, 0)            # upper bound


def test_body_to_spans_inverse():
    from warc_ray.pipelines.verify import body_to_spans
    from warc_ray.stages.assemble import render_body

    spans = [
        {"kind": "text", "text": "w1 w2", "media_ref": "", "offset": 0},
        {"kind": "link", "text": "w3", "media_ref": "http://h/doc/1", "offset": 6},
        {"kind": "image", "text": "", "media_ref": "http://h/media/2", "offset": 9},
        {"kind": "video", "text": "", "media_ref": "http://h/media/3", "offset": 12},
    ]
    got = body_to_spans(render_body(spans))
    assert got == [(s["kind"], s["text"], s["media_ref"]) for s in spans]


def test_verify_archive_spans(ray_session, t1_dir, tmp_path_factory):
    from warc_ray.pipelines.archive import archive_corpus
    from warc_ray.pipelines.verify import verify_archive_spans

    out = str(tmp_path_factory.mktemp("warc"))
    archive_corpus(corpus.docs_path(t1_dir), out).materialize()
    v = verify_archive_spans(out, corpus.docs_path(t1_dir)).to_pandas()
    assert len(v) == corpus.PROFILES["t1"].n_docs
    assert v.ok.all()
    assert (v.n_sides == 2).all()


def test_verifier_catches_corruption(ray_session, t1_dir, tmp_path_factory):
    # flip one byte in one record's body → exactly that doc must fail
    import glob
    import gzip as _g

    from warc_ray.pipelines.archive import archive_corpus
    from warc_ray.pipelines.verify import verify_archive_spans

    out = str(tmp_path_factory.mktemp("warc"))
    archive_corpus(corpus.docs_path(t1_dir), out).materialize()
    # corrupt: rewrite the first shard with one body byte changed
    shard = sorted(glob.glob(out + "/*.warc.gz"))[0]
    import warc_ray.core as wc

    recs = list(wc.open_archive(shard))
    bad_doc = None
    tmp = shard[:-8] + ".tmp.warc.gz"
    with wc.open_archive(tmp, "wb") as f:
        for r in recs:
            payload = r.payload.read() if hasattr(r.payload, "read") else r.payload
            if bad_doc is None and r.type == "response" and b"\r\n\r\n" in payload:
                head, body = payload.split(b"\r\n\r\n", 1)
                if body:
                    body = (b"X" if body[:1] != b"X" else b"Y") + body[1:]
                    payload = head + b"\r\n\r\n" + body
                    bad_doc = r.url.removeprefix("urn:doc:")
            f.write_record(wc.WARCRecord(
                payload=payload, headers=dict(r.header), defaults=False))
    import os

    os.replace(tmp, shard)
    assert bad_doc is not None
    v = verify_archive_spans(out, corpus.docs_path(t1_dir)).to_pandas()
    bad = v[~v.ok]
    assert bad.doc_id.tolist() == [bad_doc]


def test_verify_spans_summary_fast_and_fallback(ray_session, t1_dir,
                                                tmp_path_factory):
    """Fingerprint fast path reports all-ok on an intact archive; a
    corrupted archive routes through the per-doc fallback and counts
    the failure."""
    import glob
    import shutil

    from warc_ray import corpus
    from warc_ray.pipelines.archive import archive_corpus
    from warc_ray.pipelines.verify import verify_spans_summary

    out = str(tmp_path_factory.mktemp("vsum") / "warc")
    archive_corpus(corpus.docs_path(t1_dir), out).materialize()
    s = verify_spans_summary(out, corpus.docs_path(t1_dir))
    n = s["n_docs"][0].as_py()
    assert n == corpus.PROFILES["t1"].n_docs
    assert s["n_ok"][0].as_py() == n

    # corrupt one shard: flip a byte inside some member payload region
    bad_dir = str(tmp_path_factory.mktemp("vsum2") / "warc")
    shutil.copytree(out, bad_dir)
    shard = sorted(glob.glob(bad_dir + "/*.warc.gz"))[0]
    raw = bytearray(open(shard, "rb").read())
    # re-write one whole member with altered doc text: decompress,
    # patch, recompress keeps the gzip framing valid
    from warc_ray.core import gzipm

    members = gzipm.split_members(bytes(raw))
    off, size, data = members[1]  # member 0 is warcinfo
    patched = data.replace(b"w", b"W", 1)
    assert patched != data
    blob = gzipm.compress_member(patched)
    open(shard, "wb").write(bytes(raw[:off]) + blob + bytes(raw[off + size:]))
    s2 = verify_spans_summary(bad_dir, corpus.docs_path(t1_dir))
    assert s2["n_ok"][0].as_py() < s2["n_docs"][0].as_py()
