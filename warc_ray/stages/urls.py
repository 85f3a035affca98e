"""URL layer: RFC 3986 canonicalization, SHA-1 hashing, link extraction.

Stateless ``map_batches`` transforms (G2-G4).  The canonicalizer is a
pure function (property-tested): scheme/host lower-cased, default ports
stripped, dot-segments removed, percent-encoding normalized (uppercase
hex, unreserved characters decoded), fragment dropped, query preserved.

Link extraction explodes the interleaved ``spans`` column with
``pyarrow.compute`` list kernels — no Python loop over rows for the
flatten; only the (inherently per-string) canonicalization loops.
"""

from __future__ import annotations

import hashlib
import re
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_PORTS = {"http": "80", "https": "443"}
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_PCT_RE = re.compile(r"%([0-9a-fA-F]{2})")


def _normalize_pct(s: str) -> str:
    """Uppercase %XX escapes; decode escapes of unreserved characters."""

    def repl(m):
        ch = chr(int(m.group(1), 16))
        return ch if ch in _UNRESERVED else "%" + m.group(1).upper()

    return _PCT_RE.sub(repl, s)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4."""
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out and out[-1] != "":
                out.pop()
            continue
        out.append(seg)
    # preserve leading slash; re-add trailing slash semantics for ./..
    p = "/".join(out)
    if path.endswith(("/.", "/..", "/")) and not p.endswith("/"):
        p += "/"
    if not p.startswith("/"):
        p = "/" + p
    return p


def canonicalize_url(url: str) -> str | None:
    """Canonical form, or None for non-http(s)/malformed URLs."""
    try:
        parts = urlsplit(url.strip())
        # .port raises ValueError for non-numeric / out-of-range ports
        # ('http://h:99999/'), so it must be read inside the guard too
        scheme = parts.scheme.lower()
        if scheme not in ("http", "https") or not parts.hostname:
            return None
        host = parts.hostname.lower().rstrip(".")
        port = parts.port
    except ValueError:
        return None
    netloc = host if (port is None or str(port) == DEFAULT_PORTS[scheme]) else f"{host}:{port}"
    path = _normalize_pct(_remove_dot_segments(parts.path or "/"))
    query = _normalize_pct(parts.query)
    return f"{scheme}://{netloc}{path}" + (f"?{query}" if query else "")


def host_of(url: str) -> str:
    rest = url.split("://", 1)[1]
    return rest.split("/", 1)[0].split(":")[0]


def url_sha1(url: str) -> bytes:
    """20-byte digest of the canonical URL (G4)."""
    return hashlib.sha1(url.encode("utf-8")).digest()


# Already-canonical fast path: lowercase http scheme+host (no port, no
# trailing dot), non-empty path containing no '%', '?', '#', or '.'
# → canonicalize_url(u) == u by construction.  Covers ~all in-crawl
# links (they come from canonical media_ref columns); seed variants,
# dotted paths and anything unusual take the per-string slow path.
# Property-tested: tests/test_urls.py::test_canonical_fast_path.
_CANON_FAST_RE = (
    r"^http://"
    r"[a-z0-9-]+(\.[a-z0-9-]+)+"
    r"(/[A-Za-z0-9\-_~!$&'()*+,;=:@]*)+$"
)


def _sha1_digests(arr: pa.Array, tail: pa.Array | None = None) -> bytes:
    """The 20-byte SHA-1 digests of a string or binary array's rows,
    concatenated; with ``tail``, of each row followed by the same row
    of ``tail``.

    Hashes memoryview slices of the Arrow data buffers, as
    ``dedup.add_text_hash`` does: no ``to_pylist()`` and no per-row
    ``encode()``, so hashlib does only the hashing.  ``_buffers``
    honors a sliced array's offset."""
    from .md5vec import _buffers

    data, starts, lens = _buffers(arr)
    mv = memoryview(data)
    sha1 = hashlib.sha1
    if tail is None:
        return b"".join(sha1(mv[s:e]).digest() for s, e in
                        zip(starts.tolist(), (starts + lens).tolist()))
    tdata, tstarts, tlens = _buffers(tail)
    tmv = memoryview(tdata)
    out = []
    for s, e, ts, te in zip(starts.tolist(), (starts + lens).tolist(),
                            tstarts.tolist(), (tstarts + tlens).tolist()):
        h = sha1(mv[s:e])
        h.update(tmv[ts:te])
        out.append(h.digest())
    return b"".join(out)


def canonicalize_batch(batch: pa.Table, url_col: str = "url",
                       with_hashes: bool = True) -> pa.Table:
    """Add ``url`` (canonical) and — when ``with_hashes`` —
    ``url_sha1``, ``host`` and ``hash64`` columns; drops rows whose URL
    doesn't canonicalize.

    Rows that match the already-canonical fast regex pass through as
    they are; only the others run ``canonicalize_url`` in Python, and
    one ``take`` puts them back in input order.

    ``with_hashes=False`` is for pure URL-dedup/report pipelines that
    group on the canonical string itself: sha1 over millions of links
    is the dominant cost of this stage and those pipelines throw the
    digest away."""
    url_arr = batch[url_col]
    if isinstance(url_arr, pa.ChunkedArray):
        url_arr = url_arr.combine_chunks()
    fast = pc.match_substring_regex(url_arr, _CANON_FAST_RE).fill_null(
        False).to_numpy(zero_copy_only=False)
    if fast.all():
        canon_arr = url_arr
        batch = batch.drop_columns([url_col])
    else:
        slow = np.flatnonzero(~fast)
        canon = [canonicalize_url(u)
                 for u in url_arr.take(pa.array(slow)).to_pylist()]
        ok = np.array([c is not None for c in canon], dtype=bool)
        keep = fast.copy()
        keep[slow] = ok
        batch = batch.drop_columns([url_col]).filter(pa.array(keep))
        # kept rows as [fast rows..., canonicalized slow rows...], then
        # one take back into input order
        n_fast = int(fast.sum())
        src = np.empty(len(fast), dtype=np.int64)
        src[fast] = np.arange(n_fast)
        src[slow[ok]] = n_fast + np.arange(int(ok.sum()))
        parts = pa.concat_arrays([
            url_arr.filter(pa.array(fast)).cast(pa.string()),
            pa.array([c for c in canon if c is not None], type=pa.string()),
        ])
        canon_arr = parts.take(pa.array(src[keep]))
    out = batch.add_column(0, "url", canon_arr)
    if not with_hashes:
        return out
    digests = _sha1_digests(canon_arr)
    n = len(canon_arr)
    sha = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(20), n, [None, pa.py_buffer(digests)])
    # host: vectorized regex (equals host_of on canonical URLs)
    m = pc.extract_regex(canon_arr, r"^https?://(?P<host>[^/:]+)")
    hosts = pc.cast(pc.struct_field(m, "host"), pa.string())
    # hash64 = first 8 digest bytes, big-endian — the cuckoo-filter key
    # (G4/G5).  Computed HERE (parallel map_batches workers), so the
    # serialized frontier shards never touch a hash function.
    h64 = (np.frombuffer(digests, dtype=np.uint8).reshape(n, 20)[:, :8]
           .copy().view(">u8").astype(np.uint64).ravel())
    return out.append_column("url_sha1", sha) \
        .append_column("host", hosts) \
        .append_column("hash64", pa.array(h64, type=pa.uint64()))


def extract_links(batch: pa.Table, spans_col: str = "spans",
                  doc_col: str = "doc_id", depth_col: str | None = None) -> pa.Table:
    """Explode span lists → candidate URL rows (G2).

    Emits ``(url, src_doc, src_offset, priority, depth)`` for every
    link/image/video span; discovery order is carried by
    ``(src_doc, src_offset)`` — the deterministic tie-break the frontier
    sorts on, so no global sequence counter (and no global shuffle) is
    needed.
    """
    spans = batch[spans_col]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    kind = flat.field("kind")
    is_ref = pc.is_in(kind, value_set=pa.array(["link", "image", "video"]))
    refs = flat.field("media_ref").filter(is_ref)
    offs = flat.field("offset").filter(is_ref)
    par = parents.filter(is_ref)
    src_doc = pc.take(batch[doc_col], par)
    if depth_col is not None:
        depth = pc.add(pc.take(batch[depth_col], par), 1)
    else:
        depth = pa.array(np.zeros(len(par), dtype=np.int32))
    # priority: media fetches lower priority (1) than page links (5)
    prio = pc.if_else(pc.equal(kind.filter(is_ref), "link"),
                      pa.scalar(5, type=pa.int32()), pa.scalar(1, type=pa.int32()))
    return pa.table({
        "url": refs,
        "priority": prio,
        "src_doc": src_doc,
        "src_offset": offs,
        "depth": pc.cast(depth, pa.int32()),
    })


def urls_from_seeds(seeds: pa.Table, offsets=None) -> pa.Table:
    """Seed table → canonical URL rows with seed discovery order.

    ``offsets`` are the rows' indices in the whole seed list (default
    ``0 … n-1``): parallel seeding hands each task a subset of the rows
    with their global indices, so the global ``src_offset`` ordering
    (and therefore frontier ingestion order) is identical to the serial
    path."""
    n = seeds.num_rows
    if offsets is None:
        offsets = np.arange(n)
    t = pa.table({
        "url": seeds["url"],
        "priority": pc.cast(seeds["priority"], pa.int32()),
        "src_doc": pa.array([""] * n, type=pa.string()),
        "src_offset": pa.array(np.asarray(offsets, dtype=np.int32)),
        "depth": pa.array(np.zeros(n, dtype=np.int32)),
    })
    return canonicalize_batch(t)
