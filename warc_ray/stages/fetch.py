"""Simulated fetcher (G10): resolve canonical URLs against the corpus.

No network exists (or is allowed) here; "fetching" a synthetic URL
deterministically reconstructs the document from the corpus table:

  * ``/doc/<i>``   → HTTP 200, body = rendered span interleaving,
                     parse result = the original spans (the per-row
                     span-sequence invariant rides on this);
  * ``/media/<i>`` → HTTP 200, deterministic binary blob (image/video
                     stand-in), no out-links;
  * anything else  → HTTP 404, empty body.

Scale design: each crawl worker actor holds one ``FetchGroup`` and
calls it directly, once per frontier slice
(``CrawlWorker.process_round``).  Inside a call URLs group by **corpus
bucket** (doc_index mod n_buckets) and each bucket reads exactly one
bucket file of the corpus (locality), with a small per-worker LRU
cache.  Nothing holds the whole corpus in memory; at 100 TB the bucket
files are the unit of co-partitioning.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa

from .. import corpus as corpus_mod
from ..schema import FETCH_SCHEMA, SPAN_STRUCT
from .assemble import (http_response_payload, media_bodies, media_body,
                       render_body)

_EMPTY_SPANS: list = []
_BUCKET_CACHE: OrderedDict = OrderedDict()
_BUCKET_CACHE_CAP = 8


def _load_bucket(corpus_dir: str, bucket: int, cache: OrderedDict | None = None,
                 cap: int | None = None) -> dict[int, list]:
    """doc_index -> spans (pylist) for one corpus bucket, LRU-cached.

    The cap MUST cover the caller's working set: a crawl worker owning
    k buckets with cap < k reloads every bucket file every round."""
    if cache is None:
        cache = _BUCKET_CACHE
    cap = cap or _BUCKET_CACHE_CAP
    key = (corpus_dir, bucket)
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    t = corpus_mod.read_bucket(corpus_dir, bucket)
    idx = {int(d.removeprefix("doc-")): s
           for d, s in zip(t["doc_id"].to_pylist(), t["spans"].to_pylist())}
    cache[key] = idx
    if len(cache) > cap:
        cache.popitem(last=False)
    return idx


def add_bucket_column(batch: pa.Table, n_buckets: int) -> pa.Table:
    """bucket = doc_index % n_buckets, parsed from the synthetic URL.

    Vectorized (runs on the crawl driver every round): the doc index is
    the digit suffix after the last '/'; non-conforming URLs → 0."""
    import pyarrow.compute as pc

    urls = batch["url"]
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    m = pc.extract_regex(urls, r"/(?P<idx>[0-9]+)$")
    digits = pc.if_else(pc.is_valid(m), pc.struct_field(m, "idx"), "0")
    idx = pc.cast(digits, pa.int64()).to_numpy(zero_copy_only=False)
    buckets = (idx % n_buckets).astype(np.int32)
    return batch.append_column("bucket", pa.array(buckets))


def fetch_rows(urls: list[str], corpus_dir: str, n_buckets: int,
               cache: OrderedDict | None = None, cap: int | None = None):
    """(doc_id, status, content_type, body, spans) per URL — the shared
    inner fetch used by BOTH the distributed group fetcher and the
    single-process oracle (parity by construction)."""
    out = []
    for u in urls:
        kind, idx = corpus_mod.parse_synthetic_url(u)
        if kind == "doc":
            spans = _load_bucket(corpus_dir, idx % n_buckets, cache, cap).get(idx)
            if spans is None:
                out.append(("", 404, "text/plain", b"", _EMPTY_SPANS))
                continue
            body = http_response_payload(render_body(spans))
            out.append((f"doc-{idx}", 200, "text/html", body, spans))
        elif kind == "media":
            out.append((f"media-{idx}", 200, "application/octet-stream",
                        media_body(u), _EMPTY_SPANS))
        else:
            out.append(("", 404, "text/plain", b"", _EMPTY_SPANS))
    return out


def _load_bucket_arrow(corpus_dir: str, bucket: int, cache: OrderedDict,
                       cap: int):
    """Arrow-native bucket entry: (idx2row, spans ListArray, payload
    large_binary) with payloads PRE-RENDERED once per bucket load —
    the fetch hot path then only does zero-copy ``take``s, never
    Python-dict span conversion (which cost ~200µs/URL)."""
    from .assemble import render_payloads

    key = (corpus_dir, bucket)
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    t = corpus_mod.read_bucket(corpus_dir, bucket)
    spans = t["spans"].combine_chunks()
    payload = render_payloads(spans)
    ids = [int(d[4:]) for d in t["doc_id"].to_pylist()]  # strip "doc-"
    entry = ({i: r for r, i in enumerate(ids)}, spans, payload)
    cache[key] = entry
    if len(cache) > cap:
        cache.popitem(last=False)
    return entry


_MISS = ("", 404, "text/plain")


class FetchGroup:
    """Per-worker fetcher, called once per URL slice.

    Vectorized: doc hits resolve to row indices in the (cached) bucket
    tables and their spans/payload columns are gathered with Arrow
    ``take``; only media blobs and the (rare) misses touch Python.
    Output row order = doc hits (bucket-contiguous), then media, then
    misses — deterministic given the input slice."""

    def __init__(self, corpus_dir: str, n_buckets: int,
                 cache_cap: int | None = None):
        self.corpus_dir = corpus_dir
        self.n_buckets = n_buckets
        # private LRU sized to THIS worker's bucket share (the memory
        # budget knob at scale); default holds every bucket it owns
        self.cache: OrderedDict = OrderedDict()
        self.cache_cap = cache_cap or n_buckets + 1

    def __call__(self, group: pa.Table) -> pa.Table:
        # bucket-contiguous: a worker can own more buckets than the LRU
        # holds, and interleaved access would reload per URL
        if "bucket" in group.column_names and group.num_rows > 1:
            order = np.argsort(
                group["bucket"].to_numpy(zero_copy_only=False), kind="stable")
            if not np.array_equal(order, np.arange(len(order))):
                group = group.take(pa.array(order))
        urls = group["url"].to_pylist()

        doc_pos: list[int] = []      # positions in group (doc hits)
        doc_ids: list[str] = []
        seg: list[tuple] = []        # (bucket, [bucket rows]) segments
        media_pos: list[int] = []
        media_ids: list[str] = []
        media_urls: list[str] = []
        miss_pos: list[int] = []
        cur_bucket = -1
        cur_rows: list[int] = []
        for p, u in enumerate(urls):
            kind, idx = corpus_mod.parse_synthetic_url(u)
            if kind == "doc":
                b = idx % self.n_buckets
                entry = _load_bucket_arrow(self.corpus_dir, b, self.cache,
                                           self.cache_cap)
                r = entry[0].get(idx)
                if r is None:
                    miss_pos.append(p)
                    continue
                if b != cur_bucket:
                    if cur_rows:
                        seg.append((cur_bucket, cur_rows))
                    cur_bucket, cur_rows = b, []
                cur_rows.append(r)
                doc_pos.append(p)
                doc_ids.append("doc-%d" % idx)
            elif kind == "media":
                media_pos.append(p)
                media_ids.append("media-%d" % idx)
                media_urls.append(u)
            else:
                miss_pos.append(p)
        if cur_rows:
            seg.append((cur_bucket, cur_rows))

        n_doc, n_med, n_miss = len(doc_pos), len(media_pos), len(miss_pos)
        empty_spans_t = pa.list_(SPAN_STRUCT)

        span_chunks, body_chunks = [], []
        for b, rows in seg:
            _idx2row, spans, payload = self.cache[(self.corpus_dir, b)]
            take = pa.array(rows, type=pa.int32())
            span_chunks.append(spans.take(take))
            body_chunks.append(payload.take(take))
        if n_med:
            body_chunks.append(pa.array(media_bodies(media_urls),
                                        type=pa.large_binary()))
            span_chunks.append(pa.array([[]] * n_med, type=empty_spans_t))
        if n_miss:
            body_chunks.append(pa.array([b""] * n_miss, type=pa.large_binary()))
            span_chunks.append(pa.array([[]] * n_miss, type=empty_spans_t))

        perm = pa.array(doc_pos + media_pos + miss_pos, type=pa.int32())
        g = group.take(perm)
        body = (pa.concat_arrays(body_chunks) if body_chunks
                else pa.array([], type=pa.large_binary()))
        spans_col = (pa.concat_arrays(span_chunks) if span_chunks
                     else pa.array([], type=empty_spans_t))
        return pa.table({
            "url": g["url"],
            "host": g["host"],
            "doc_id": pa.array(doc_ids + media_ids + [""] * n_miss,
                               type=pa.string()),
            "status": pa.array([200] * (n_doc + n_med) + [404] * n_miss,
                               type=pa.int32()),
            "round": g["round"],
            "fetch_seq": g["fetch_seq"],
            "content_type": pa.array(
                ["text/html"] * n_doc
                + ["application/octet-stream"] * n_med
                + ["text/plain"] * n_miss, type=pa.string()),
            "body": body,
            "spans": spans_col,
            "depth": g["depth"],
        }, schema=FETCH_SCHEMA)
