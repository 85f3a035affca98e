"""Span-invariant verifier (G13): per-row output↔corpus equality.

BASELINE.json input_hint: "per-row invariant vs the reference:
span-sequence equality (kind, text, media_ref, order)".  The archived
WARC response body is the rendered span interleaving
(stages/assemble.py render_body).  Rendering is injective over the
corpus span alphabet (``body_to_spans`` below is its exact inverse,
property-tested), so the verifier compares 64-bit hashes of the
rendered bytes — corpus side re-rendered with the vectorized Arrow
kernels, archive side hashed directly — as a distributed hash-shuffle
join on ``doc_id`` (union both sides, group by key, one vectorized
aggregate), never materializing either side on the driver.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..sources._util import scan_parquet
from ..stages.exchange import collect, combine_buckets

_LINK_RE = re.compile(r'^<a href="(?P<ref>[^"]*)">(?P<text>.*)</a>$', re.S)
_IMG_RE = re.compile(r'^<img src="(?P<ref>[^"]*)">$')
_VID_RE = re.compile(r'^<video src="(?P<ref>[^"]*)">$')


def body_to_spans(body: bytes) -> list[tuple[str, str, str]]:
    """Inverse of render_body: rendered bytes → [(kind, text,
    media_ref)] in document order.  Exact for the corpus' span alphabet
    (span text never contains newlines)."""
    if not body:
        return []
    out = []
    for line in body.decode("utf-8").split("\n"):
        m = _LINK_RE.match(line)
        if m:
            out.append(("link", m.group("text"), m.group("ref")))
            continue
        m = _IMG_RE.match(line)
        if m:
            out.append(("image", "", m.group("ref")))
            continue
        m = _VID_RE.match(line)
        if m:
            out.append(("video", "", m.group("ref")))
            continue
        out.append(("text", line, ""))
    return out


def _seq_hashes(seqs: list[str]) -> pa.Array:
    """Vectorized deterministic 64-bit hash of each canonical sequence
    (pandas' C siphash with its fixed default key — stable across
    processes, unlike PYTHONHASHSEED-dependent hash())."""
    h = pd.util.hash_pandas_object(
        pd.Series(seqs, dtype=object), index=False).to_numpy()
    return pa.array(h.view(np.int64), type=pa.int64())


def _corpus_side(batch: pa.Table) -> pa.Table:
    """Corpus rows → (doc_id, hash of the RENDERED span sequence).

    Rendering is injective over the corpus span alphabet (span text
    never contains newlines; ``body_to_spans`` above is the exact
    inverse, property-tested in tests/test_salting_verify.py), so
    rendered-body equality IS (kind, text, media_ref, order) equality
    — and the rendering is fully vectorized (Arrow list kernels),
    where the previous per-span tuple canonicalization was a Python
    loop over ~10 spans x every corpus row."""
    import pyarrow.compute as pc

    spans = batch["spans"]
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
    rebuilt = pa.ListArray.from_arrays(spans.offsets, piece)
    bodies = pc.binary_join(rebuilt, "\n")
    return pa.table({
        "doc_id": batch["doc_id"],
        "side_flag": pa.array(np.full(batch.num_rows, 1, dtype=np.int64)),
        "seq_hash": _seq_hashes(bodies.to_pylist()),
    })


def _warc_side(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    keep = pc.and_(pc.equal(batch["rec_type"], "response"),
                   pc.starts_with(batch["target_uri"], "urn:doc:"))
    sub = batch.filter(keep)
    doc_ids = [u[8:] for u in sub["target_uri"].to_pylist()]
    # strip the HTTP header block; the remainder is the rendered body
    seqs = [bytes(p).split(b"\r\n\r\n", 1)[1].decode("utf-8")
            for p in sub["payload"].to_pylist()]
    n = len(doc_ids)
    return pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "side_flag": pa.array(np.full(n, 2, dtype=np.int64)),
        "seq_hash": _seq_hashes(seqs),
    })


def _finish(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    # ok ⇔ exactly one row per side (n==2, flag-sum==3) and both hashes
    # equal.  Count+Sum make this a strict multiset check: a duplicate
    # archived response (even a correct one) or a missing side fails.
    n = batch["n_sides"]
    ok = pc.and_(
        pc.and_(pc.equal(n, 2), pc.equal(batch["side_sum"], 3)),
        pc.equal(batch["h_min"], batch["h_max"]))
    return pa.table({
        "doc_id": batch["doc_id"],
        "ok": ok,
        "n_sides": pc.cast(n, pa.int32()),
    })


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
        return x ^ (x >> np.uint64(33))


def _fp_partial(batch: pa.Table) -> pa.Table:
    """(doc_id, seq_hash) rows → one (n, fp) partial row.

    fp = Σ mix64(hash(doc_id) ⊕ rot(seq_hash)) mod 2^64 — an order-
    independent set fingerprint, so the two sides reduce WITHOUT any
    shuffle; addition mod 2^64 is associative/commutative across
    batches.  Stored as int64 two's complement."""
    ids = pd.util.hash_pandas_object(
        pd.Series(batch["doc_id"].to_pylist(), dtype=object),
        index=False).to_numpy().view(np.uint64)
    seq = batch["seq_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
    with np.errstate(over="ignore"):
        mixed = _mix64(ids ^ ((seq << np.uint64(17)) | (seq >> np.uint64(47))))
        s = int(mixed.sum(dtype=np.uint64))
    if s >= 1 << 63:
        s -= 1 << 64
    return pa.table({"n": pa.array([batch.num_rows], type=pa.int64()),
                     "fp": pa.array([s], type=pa.int64())})


def _fp_reduce(ds: rd.Dataset) -> tuple[int, int]:
    rows = collect(ds.map_batches(_fp_partial,
                                  batch_format="pyarrow")).to_pylist()
    n = sum(r["n"] for r in rows)
    fp = sum(r["fp"] for r in rows) & ((1 << 64) - 1)
    return n, fp


def verify_spans_summary(warc_dir: str, corpus_docs_path: str) -> pa.Table:
    """(n_docs, n_ok) archive↔corpus verdict WITHOUT a shuffle.

    Both sides stream to an order-independent (count, fingerprint)
    pair (the standard replica-verification checksum: no key
    co-location needed, so nothing moves between nodes).  On match,
    every doc verified (n_ok == n_docs; collision odds ~2^-64); on
    mismatch, fall back to the per-doc shuffle join
    (verify_archive_spans) to COUNT and localize failures."""
    from ..sources import read_warc

    ref = scan_parquet(corpus_docs_path).map_batches(
        _corpus_side, batch_format="pyarrow")
    out = read_warc(warc_dir).map_batches(_warc_side, batch_format="pyarrow")
    n_ref, fp_ref = _fp_reduce(ref)
    n_out, fp_out = _fp_reduce(out)
    if n_ref == n_out and fp_ref == fp_out:
        return pa.table({"n_docs": pa.array([n_ref], type=pa.int64()),
                         "n_ok": pa.array([n_ref], type=pa.int64())})
    verdicts = verify_archive_spans(warc_dir, corpus_docs_path)
    n_docs = 0
    n_ok = 0
    for b in verdicts.iter_batches(batch_format="pyarrow"):
        n_docs += b.num_rows
        n_ok += int(np.count_nonzero(b["ok"].to_numpy(zero_copy_only=False)))
    return pa.table({"n_docs": pa.array([n_docs], type=pa.int64()),
                     "n_ok": pa.array([n_ok], type=pa.int64())})


def verify_archive_spans(warc_dir: str, corpus_docs_path: str) -> rd.Dataset:
    """(doc_id, ok, n_sides) per document: archived span sequence ==
    corpus span sequence.  Shuffle key = doc_id (G13).

    Both sides reduce each doc to one 64-bit sequence hash, so the
    comparator is a single vectorized aggregate (Count/Sum/Min/Max) —
    no per-group Python.  False pass probability per doc ≈ 2^-64."""
    from ..sources import read_warc
    def measures(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "side_sum": b["side_flag"],
                         "h_min": b["seq_hash"], "h_max": b["seq_hash"]})

    ref = scan_parquet(corpus_docs_path).map_batches(
        _corpus_side, batch_format="pyarrow")
    out = read_warc(warc_dir).map_batches(_warc_side, batch_format="pyarrow")
    agg = combine_buckets(
        ref.union(out).map_batches(measures, batch_format="pyarrow"),
        "doc_id", [("n_sides", "count"), ("side_sum", "sum"),
                   ("h_min", "min"), ("h_max", "max")])
    return agg.map_batches(_finish, batch_format="pyarrow")
