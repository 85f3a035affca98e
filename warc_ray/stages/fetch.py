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
(``CrawlWorker.process_round``).  The bucket → worker assignment is
stable (``bucket % n_workers``), so each worker reads only its own
corpus buckets, each bucket file once, and keeps them for the life of
the actor in a per-instance Arrow store: spans plus pre-rendered
payloads, indexed by a sorted doc-index array.  A slice then costs one
regex pass, one ``np.searchsorted`` and one ``take`` per column, not a
Python step per URL or an Arrow call per bucket.  Nothing holds more
than a worker's bucket share of the corpus; at 100 TB the bucket files
are the unit of co-partitioning.

``fetch_rows`` is the single-process oracle's per-row path, with a
small module-level LRU of bucket dicts; ``FetchGroup`` returns row for
row what it returns (pinned by tests/test_fetch_group.py).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import corpus as corpus_mod
from ..schema import FETCH_SCHEMA, SPAN_STRUCT
from .assemble import (http_response_payload, media_body, media_body_array,
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

    Vectorized (runs shard-side on every emitted slice): the doc index
    is the digit suffix after the last '/'; non-conforming URLs → 0.
    A suffix of 19 or more digits may not fit int64; those rows take
    Python's exact ``int(digits) % n_buckets``."""
    urls = batch["url"]
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    m = pc.extract_regex(urls, r"/(?P<idx>[0-9]+)$")
    digits = pc.if_else(pc.is_valid(m), pc.struct_field(m, "idx"), "0")
    wide = pc.greater(pc.utf8_length(digits), 18)
    pos = np.flatnonzero(wide.to_numpy(zero_copy_only=False))
    big = [int(d) % n_buckets for d in digits.take(pa.array(pos)).to_pylist()]
    idx = pc.cast(pc.if_else(wide, "0", digits),
                  pa.int64()).to_numpy(zero_copy_only=False)
    buckets = (idx % n_buckets).astype(np.int32)
    buckets[pos] = big
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


# A canonical synthetic doc/media URL, parsed in one Arrow call.  At
# most 18 digits, so every match fits int64; any other row (a robots
# path, a trailing slash, an uppercase host, a 19-digit index) takes
# corpus.parse_synthetic_url row by row, the parse fetch_rows uses.
_SYNTH_URL_RE = (r"^http://host-[0-9]+\.example/"
                 r"(?P<kind>doc|media)/(?P<idx>[0-9]{1,18})$")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_DOC, _MEDIA, _MISS = 0, 1, 2
_CONTENT_TYPES = pa.array(["text/html", "application/octet-stream",
                           "text/plain"], type=pa.string())
_STATUS = np.array([200, 200, 404], dtype=np.int32)
_RENDER_ROWS = 8192  # docs per render_payloads call when a bucket loads


def _empty_spans(n: int) -> pa.Array:
    """``n`` empty span lists (media and 404 rows)."""
    return pa.ListArray.from_arrays(
        pa.array(np.zeros(n + 1, dtype=np.int32)),
        pa.array([], type=SPAN_STRUCT))


def _parse_urls(urls: pa.Array) -> tuple[np.ndarray, np.ndarray, dict]:
    """Per row: kind code (doc / media / miss), int64 index, and the
    media rows whose index does not fit int64 (position -> index)."""
    m = pc.extract_regex(urls, _SYNTH_URL_RE)
    fast = m.is_valid().to_numpy(zero_copy_only=False)
    is_doc = pc.equal(pc.struct_field(m, "kind"), "doc").fill_null(False)
    kind = np.where(fast, np.where(is_doc.to_numpy(zero_copy_only=False),
                                   _DOC, _MEDIA), _MISS).astype(np.int8)
    idx = (pc.cast(pc.struct_field(m, "idx"), pa.int64()).fill_null(0)
           .to_numpy(zero_copy_only=False).copy())
    big_media: dict = {}
    if not fast.all():
        slow = np.flatnonzero(~fast)
        for p, u in zip(slow.tolist(), urls.take(slow).to_pylist()):
            k, i = corpus_mod.parse_synthetic_url(u)
            if k is None:
                continue
            if _INT64_MIN <= i <= _INT64_MAX:
                kind[p], idx[p] = (_DOC if k == "doc" else _MEDIA), i
            elif k == "media":  # a doc index past int64 stays a miss
                kind[p], big_media[p] = _MEDIA, i
    return kind, idx, big_media


class FetchGroup:
    """Per-worker fetcher, called once per URL slice.

    The instance keeps every corpus bucket it has loaded for its whole
    life, as Arrow columns: the buckets' spans and their pre-rendered
    HTTP payloads, one concatenated chunk per call that loaded buckets
    (a crawl worker's first call usually loads all its buckets, so a
    warm store is one chunk).  A sorted int64 doc-index key array and
    a packed ``(chunk << 32) | row`` location array index the store;
    only a call that loads buckets rebuilds them.  Memory is the loaded
    buckets' spans plus their payloads, plus 16 bytes of index per doc.
    Nothing is evicted: an instance holds every bucket its calls have
    touched, which for a crawl worker is its own bucket share.

    A call parses the slice's URLs in one regex pass, loads the missing
    buckets (``doc_index % n_buckets``), finds every doc row with one
    ``np.searchsorted`` and gathers spans and payloads with one
    ``take`` per column per chunk touched.  Only media blobs and URLs
    outside the strict synthetic form touch Python per row.  Output
    row order = doc hits (bucket-contiguous, input order within a
    bucket), then media, then misses — deterministic given the input
    slice, and row for row what ``fetch_rows`` returns."""

    def __init__(self, corpus_dir: str, n_buckets: int):
        self.corpus_dir = corpus_dir
        self.n_buckets = n_buckets
        self._loaded: set[int] = set()
        self._spans: list[pa.Array] = []
        self._payload: list[pa.Array] = []
        self._keys = np.zeros(0, dtype=np.int64)
        self._loc = np.zeros(0, dtype=np.int64)

    def _load(self, buckets: list[int]) -> None:
        """Read ``buckets`` into one new store chunk and re-sort the
        index.  Payloads render from the concatenated spans a bounded
        row range at a time, so the render's transient arrays stay
        small and the only transient copy is one column's worth (the
        rendered pieces, while they are concatenated)."""
        from .assemble import render_payloads

        tables = [corpus_mod.read_bucket(self.corpus_dir, b) for b in buckets]
        keys = np.concatenate([
            pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4), pa.int64())
            .to_numpy() for t in tables])  # strip "doc-"
        spans = pa.concat_arrays(
            [c for t in tables for c in t["spans"].chunks])
        del tables
        payload = pa.concat_arrays([
            render_payloads(spans.slice(lo, _RENDER_ROWS))
            for lo in range(0, len(spans), _RENDER_ROWS)]
            or [pa.array([], type=pa.large_binary())])
        chunk = len(self._spans)
        self._spans.append(spans)
        self._payload.append(payload)
        self._loaded.update(buckets)
        loc = (np.int64(chunk) << 32) | np.arange(len(keys), dtype=np.int64)
        keys = np.concatenate([self._keys, keys])
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._loc = np.concatenate([self._loc, loc])[order]

    def _gather(self, loc: np.ndarray) -> tuple[pa.Array, pa.Array]:
        """(spans, payload) of the store rows at packed ``loc``, in
        ``loc`` order: one take per column per chunk touched."""
        if not len(loc):
            return (_empty_spans(0), pa.array([], type=pa.large_binary()))
        chunk = loc >> 32
        row = loc & 0xFFFFFFFF
        first = int(chunk[0])
        if (chunk == first).all():
            take = pa.array(row)
            return (self._spans[first].take(take),
                    self._payload[first].take(take))
        order = np.argsort(chunk, kind="stable")
        spans, payload = [], []
        for c in np.unique(chunk).tolist():
            take = pa.array(row[chunk == c])
            spans.append(self._spans[c].take(take))
            payload.append(self._payload[c].take(take))
        back = pa.array(np.argsort(order))  # inverse permutation
        return (pa.concat_arrays(spans).take(back),
                pa.concat_arrays(payload).take(back))

    def __call__(self, group: pa.Table) -> pa.Table:
        # bucket-contiguous: fixes the output order of doc hits
        if "bucket" in group.column_names and group.num_rows > 1:
            order = np.argsort(
                group["bucket"].to_numpy(zero_copy_only=False), kind="stable")
            if not np.array_equal(order, np.arange(len(order))):
                group = group.take(pa.array(order))
        urls = group["url"]
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        kind, idx, big_media = _parse_urls(urls)

        doc = np.flatnonzero(kind == _DOC)
        doc_idx = idx[doc]
        missing = set(np.unique(doc_idx % self.n_buckets).tolist()) \
            - self._loaded
        if missing:
            self._load(sorted(missing))
        at = np.searchsorted(self._keys, doc_idx)
        hit = at < len(self._keys)
        hit[hit] = self._keys[at[hit]] == doc_idx[hit]
        kind[doc[~hit]] = _MISS
        doc_pos, doc_idx, at = doc[hit], doc_idx[hit], at[hit]
        media_pos = np.flatnonzero(kind == _MEDIA)
        miss_pos = np.flatnonzero(kind == _MISS)
        n_med, n_miss = len(media_pos), len(miss_pos)

        perm = np.concatenate([doc_pos, media_pos, miss_pos])
        g = group.take(pa.array(perm))
        doc_spans, doc_body = self._gather(self._loc[at])
        body = pa.concat_arrays([
            doc_body, media_body_array(urls.take(pa.array(media_pos))),
            pa.array([b""] * n_miss, type=pa.large_binary())])
        media_ids = pc.cast(pa.array(idx[media_pos]), pa.string())
        if big_media:
            media_ids = pa.array(
                [str(big_media.get(p, i))
                 for p, i in zip(media_pos.tolist(), idx[media_pos].tolist())],
                type=pa.string())
        doc_id = pa.concat_arrays([
            pc.binary_join_element_wise(
                "doc-", pc.cast(pa.array(doc_idx), pa.string()), ""),
            pc.binary_join_element_wise("media-", media_ids, ""),
            pa.array([""] * n_miss, type=pa.string()),
        ])
        codes = kind[perm]
        return pa.table({
            "url": g["url"],
            "host": g["host"],
            "doc_id": doc_id,
            "status": pa.array(_STATUS[codes]),
            "round": g["round"],
            "fetch_seq": g["fetch_seq"],
            "content_type": _CONTENT_TYPES.take(pa.array(codes)),
            "body": body,
            "spans": pa.concat_arrays(
                [doc_spans, _empty_spans(n_med + n_miss)]),
            "depth": g["depth"],
        }, schema=FETCH_SCHEMA)
