"""FetchGroup output pinned to the oracle's per-row ``fetch_rows``.

The vectorized fetcher must return, table for table, what a row-by-row
build from ``fetch_rows`` returns: same rows in the documented order
(stable bucket sort when a ``bucket`` column exists; then doc hits,
media, misses, each in input order), same bytes, ``FETCH_SCHEMA``.
"""

import numpy as np
import pyarrow as pa
import pytest

from warc_ray import corpus
from warc_ray.schema import FETCH_SCHEMA
from warc_ray.stages.fetch import FetchGroup, add_bucket_column, fetch_rows

P = corpus.PROFILES["t1"]


@pytest.fixture(scope="module")
def cdir(tmp_path_factory):
    return corpus.ensure_corpus("t1", root=str(tmp_path_factory.mktemp("c")))


def _group(urls: list[str], bucket: bool = True) -> pa.Table:
    n = len(urls)
    t = pa.table({
        "url": pa.array(urls, type=pa.string()),
        "host": pa.array(["h%d" % (i % 3) for i in range(n)]),
        "priority": pa.array([1] * n, type=pa.int32()),
        "depth": pa.array([i % 4 for i in range(n)], type=pa.int32()),
        "round": pa.array([2] * n, type=pa.int32()),
        "fetch_seq": pa.array(range(n), type=pa.int64()),
    })
    return add_bucket_column(t, P.n_buckets) if bucket else t


def _reference(group: pa.Table, cdir: str) -> pa.Table:
    """The fetch table built row by row from fetch_rows."""
    if "bucket" in group.column_names:
        group = group.take(pa.array(np.argsort(
            group["bucket"].to_numpy(), kind="stable")))
    rows = group.to_pylist()
    res = fetch_rows([r["url"] for r in rows], cdir, P.n_buckets)

    def rank(i):
        doc_id = res[i][0]
        return (0 if doc_id.startswith("doc-")
                else 1 if doc_id.startswith("media-") else 2)

    out = []
    for i in sorted(range(len(rows)), key=rank):
        doc_id, status, ctype, body, spans = res[i]
        r = rows[i]
        out.append({"url": r["url"], "host": r["host"], "doc_id": doc_id,
                    "status": status, "round": r["round"],
                    "fetch_seq": r["fetch_seq"], "content_type": ctype,
                    "body": body, "spans": list(spans), "depth": r["depth"]})
    return pa.Table.from_pylist(out, schema=FETCH_SCHEMA)


def _check(fg: FetchGroup, group: pa.Table, cdir: str) -> pa.Table:
    got = fg(group)
    want = _reference(group, cdir)
    assert got.schema.equals(FETCH_SCHEMA)
    assert got.equals(want)
    return got


def test_mixed_slice_matches_fetch_rows(cdir):
    h = P.n_hosts
    urls = (
        [corpus.doc_url(i, h) for i in range(0, P.n_docs, 7)]  # all buckets
        + [corpus.media_url(i, h) for i in range(3, P.n_docs, 13)]
        + [corpus.doc_url(P.n_docs + 5, h),          # absent from its bucket
           "http://host-0.example/robots.txt",
           "http://host-1.example/doc/12/",
           "http://host-2.example/doc/1234567890123456789",    # 19 digits
           "http://host-2.example/media/1234567890123456789",
           "http://host-3.example/doc/12345678901234567890",   # > int64
           "http://host-3.example/media/12345678901234567890",
           "http://HOST-3.example/doc/3",            # fails the strict form
           "http://host-4.example/doc/0007",         # leading zeros
           "http://host-5.example/doc/-5"])          # below every key
    rng = np.random.default_rng(5)
    urls = [urls[i] for i in rng.permutation(len(urls))]
    got = _check(FetchGroup(cdir, P.n_buckets), _group(urls), cdir)
    assert set(got["status"].to_pylist()) == {200, 404}
    assert "doc-3" in got["doc_id"].to_pylist()   # uppercase host resolves


def test_bucket_of_a_digit_run_past_int64():
    big = 12345678901234567890
    t = _group([f"http://host-0.example/media/{big}",
                f"http://host-1.example/doc/{big * 10 + 7}",
                "http://host-2.example/doc/9223372036854775807",  # int64 max
                "http://host-3.example/doc/5",
                "http://host-4.example/robots.txt"])
    assert t["bucket"].to_pylist() == [
        big % P.n_buckets, (big * 10 + 7) % P.n_buckets,
        ((1 << 63) - 1) % P.n_buckets, 5 % P.n_buckets, 0]


def test_group_without_bucket_and_one_row(cdir):
    h = P.n_hosts
    fg = FetchGroup(cdir, P.n_buckets)
    urls = ([corpus.doc_url(i, h) for i in (9, 2, 401, 2, 17)]
            + [corpus.media_url(4, h),
               "http://host-0.example/media/12345678901234567890",  # > int64
               corpus.doc_url(P.n_docs + 1, h)])
    _check(fg, _group(urls, bucket=False), cdir)
    for u in (corpus.doc_url(5, h), corpus.media_url(5, h),
              "http://host-0.example/robots.txt"):
        _check(fg, _group([u]), cdir)
    _check(fg, _group([]).slice(0, 0), cdir)


def test_incremental_loads_keep_several_chunks(cdir):
    # Each call loads the buckets it newly touches as one store chunk;
    # a later call whose hits span several chunks must still return the
    # fetch_rows rows in order.
    h, nb = P.n_hosts, P.n_buckets
    fg = FetchGroup(cdir, nb)
    docs = {b: [i for i in range(b, P.n_docs, nb)][:20] for b in range(nb)}
    _check(fg, _group([corpus.doc_url(i, h) for i in docs[0]]), cdir)
    _check(fg, _group([corpus.doc_url(i, h) for i in docs[1]]
                      + [corpus.media_url(1, h)]), cdir)
    mixed = [corpus.doc_url(i, h)
             for row in zip(docs[2], docs[0], docs[3], docs[1]) for i in row]
    _check(fg, _group(mixed, bucket=False), cdir)
    assert len(fg._spans) == 3
    # warm: no new bucket, hits from every chunk, with and without sort
    _check(fg, _group(mixed[::-1]), cdir)
    _check(fg, _group(mixed[::3] + [corpus.doc_url(P.n_docs + 2, h)],
                      bucket=False), cdir)
    assert len(fg._spans) == 3


def test_render_payloads_on_a_slice():
    # FetchGroup renders a loaded chunk a row range at a time, so
    # render_payloads must honor a sliced spans column's offset
    from warc_ray.stages.assemble import render_payloads

    spans = corpus._gen_bucket(corpus.PROFILES["t2"], 3)["spans"] \
        .combine_chunks()
    whole = render_payloads(spans)
    for lo, n in ((0, 7), (5, 40), (len(spans) - 3, 10)):
        assert render_payloads(spans.slice(lo, n)).equals(whole.slice(lo, n))


def test_media_body_bytes_pinned():
    """The media bodies of 1,000 URLs (non-ASCII, empty and long ones
    included), length-prefixed, hash to the value of the per-URL
    generator they replaced; a sliced or chunked input, the scalar
    wrapper and a call spanning several generation chunks give the
    same bytes."""
    import hashlib

    from warc_ray.stages.assemble import (media_bodies, media_body,
                                          media_body_array)

    urls = [f"http://host-{i % 37}.example/media/{i * 7919}" for i in range(990)]
    urls += ["http://h.example/media/é", "http://x/", "",
             "http://ü.example/media/0", "http://h.example/media/" + "9" * 40,
             "http://h.example/media/1?q=2", "a", "http://h.example/media/ä" * 3,
             "http://e/media/ø", "http://e/media/1"]
    bodies = media_bodies(urls)
    h = hashlib.sha1()
    for b in bodies:
        h.update(len(b).to_bytes(4, "big"))
        h.update(b)
    assert h.hexdigest() == "dbd6820eae71b8b346e7b32591f8c423313b2007"
    assert sum(map(len, bodies)) == 2_174_946
    arr = pa.array(urls)
    got = media_body_array(arr.slice(985, 10))
    assert got.type == pa.large_binary() and got.to_pylist() == bodies[985:995]
    chunked = pa.chunked_array([arr.slice(0, 7), arr.slice(7, 5)])
    assert media_body_array(chunked).to_pylist() == bodies[:12]
    assert media_body(urls[990]) == bodies[990]
    assert len(media_body_array(pa.array([], type=pa.string()))) == 0
    # past one 4,096-URL generation chunk: the chunks land back to back
    many = pa.array([f"http://m.example/media/{i}" for i in range(5000)])
    assert media_body_array(many).to_pylist() == (
        media_body_array(many.slice(0, 2500)).to_pylist()
        + media_body_array(many.slice(2500)).to_pylist())
