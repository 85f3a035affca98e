"""Segment / n-gram corpus-hygiene operators (training-data graft).

Three LLM-data-pipeline operators over the ``documents`` table, each
DuckDB-oracle-exact (see ``warc_ray/oracle_sql/training.py``):

* **segment-level exact dedup** (q44) — the CCNet/C4 "line dedup"
  shaped for a corpus whose documents carry no newlines: documents are
  split into non-overlapping ``seg_len``-token segments, each DISTINCT
  segment string keeps only its first occurrence (global order =
  ``(doc_id, seg_idx)``), and surviving segments are re-assembled into
  the deduplicated document text.
* **benchmark-contamination check** (q45) — word n-gram overlap of
  every candidate document against a benchmark set (here the
  deterministic ``doc_id % 97 == 0`` slice standing in for a held-out
  eval set).  Production uses 13-grams; the synthetic corpus' tiny
  vocabulary makes 3-grams the size that actually exercises the
  operator, so ``n`` is a parameter.
* **group centroids** (q46) — per-label mean embedding in exact
  integer arithmetic (``floor(v * 2^20)`` fixed-point, summed in
  int64), the summary stage of a clustering / IVF build.

Scale shape: tokenization / segment assembly is one Arrow regex split
+ ``binary_join`` per BATCH (no per-row Python); the global keep-first
and the contamination semi-join are hash-bucket exchanges where every
occurrence of a segment / n-gram routes to one bucket and is resolved
by a single vectorized pass — shuffle volume is one row per (doc,
segment), never the token stream.  Centroid partials fold each batch
to ``labels × dim`` rows before the (tiny) global merge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import hash64_strings

_SEG_SHIFT = 20   # key = doc_id * 2^20 + seg_idx (seg_idx < 2^20 always)


def _token_explode(batch: pa.Table, text_col: str = "text"):
    """Lower + regex-split every row: returns ``(flat_tokens, p)``
    where ``p`` (ascending int64) maps each non-empty token to its
    batch row.  Token rule matches the oracle's
    ``regexp_extract_all(lower(text), '[a-z0-9]+')``."""
    low = pc.utf8_lower(batch[text_col])
    toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
    flat = pc.list_flatten(toks).combine_chunks()
    parents = pc.list_parent_indices(toks).combine_chunks()
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask)
    p = parents.filter(mask).to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, p


def segment_explode(batch: pa.Table, *, seg_len: int = 16,
                    npart: int = 64, id_col: str = "doc_id",
                    text_col: str = "text") -> pa.Table:
    """Explode docs into non-overlapping ``seg_len``-token segments:
    ``(doc_id, seg_idx, n_seg, seg, key, part)``.

    One Arrow split + one ``binary_join`` builds every segment string;
    ``part = hash64(seg) % npart`` routes all occurrences of a segment
    to one bucket; ``key`` is the global first-occurrence order."""
    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "seg_idx": pa.array([], type=pa.int64()),
        "n_seg": pa.array([], type=pa.int64()),
        "seg": pa.array([], type=pa.string()),
        "key": pa.array([], type=pa.int64()),
        "part": pa.array([], type=pa.int32()),
    })
    if batch.num_rows == 0:
        return empty
    flat, p = _token_explode(batch, text_col)
    m = len(p)
    if m == 0:
        return empty
    ntok = np.bincount(p, minlength=batch.num_rows)
    row_first = np.concatenate(([0], np.cumsum(ntok)))
    tok_ord = np.arange(m, dtype=np.int64) - row_first[p]
    seg_local = tok_ord // seg_len
    brk = np.flatnonzero((p[1:] != p[:-1])
                         | (seg_local[1:] != seg_local[:-1]))
    starts = np.concatenate(([0], brk + 1))
    offs = np.concatenate((starts, [m])).astype(np.int32)
    la = pa.ListArray.from_arrays(pa.array(offs), flat)
    seg = pc.binary_join(la, " ")
    row_ix = p[starts]
    seg_idx = seg_local[starts]
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    doc = ids[row_ix]
    n_seg = ((ntok + seg_len - 1) // seg_len)[row_ix]
    key = (doc << _SEG_SHIFT) + seg_idx
    part = (hash64_strings(seg) % np.uint64(npart)).astype(np.int32)
    return pa.table({
        "doc_id": pa.array(doc),
        "seg_idx": pa.array(seg_idx),
        "n_seg": pa.array(n_seg.astype(np.int64)),
        "seg": seg,
        "key": pa.array(key),
        "part": pa.array(part),
    })


def bucket_keep_first(g: pa.Table) -> pa.Table:
    """One segment-hash bucket: keep each distinct segment STRING's
    first global occurrence (min key).  Exact — grouping is on the
    string; the hash only routed the rows here."""
    seg = g["seg"].combine_chunks()
    codes = seg.dictionary_encode().indices \
        .to_numpy(zero_copy_only=False)
    key = g["key"].to_numpy(zero_copy_only=False)
    order = np.lexsort((key, codes))
    cs = codes[order]
    first = np.concatenate(([True], cs[1:] != cs[:-1]))
    return g.take(order[first]).select(
        ["doc_id", "seg_idx", "n_seg", "seg"])


def bucket_reassemble(g: pa.Table) -> pa.Table:
    """One doc-hash bucket: surviving segments → deduplicated document
    text (ordered by seg_idx) + kept/total segment counts."""
    ids = g["doc_id"].to_numpy(zero_copy_only=False)
    seg_idx = g["seg_idx"].to_numpy(zero_copy_only=False)
    order = np.lexsort((seg_idx, ids))
    ids_s = ids[order]
    brk = np.flatnonzero(ids_s[1:] != ids_s[:-1])
    starts = np.concatenate(([0], brk + 1))
    offs = np.concatenate((starts, [len(ids_s)])).astype(np.int32)
    segs = g["seg"].combine_chunks().take(pa.array(order))
    la = pa.ListArray.from_arrays(pa.array(offs), segs)
    text_kept = pc.binary_join(la, " ")
    n_kept = (offs[1:] - offs[:-1]).astype(np.int64)
    n_seg = g["n_seg"].to_numpy(zero_copy_only=False)[order][starts]
    return pa.table({
        "doc_id": pa.array(ids_s[starts]),
        "n_seg": pa.array(n_seg),
        "n_kept": pa.array(n_kept),
        "text_kept": text_kept,
    })


def ngram_explode(batch: pa.Table, *, n: int = 3, npart: int = 64,
                  bench_mod: int = 97, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    """Distinct word n-grams per doc, tagged by side:
    ``(doc_id, gh, n_grams, bench, part)``.

    STRICT n-gram rule (docs with < n tokens emit nothing — matches
    the oracle's list_transform over range).  ``gh`` is the 64-bit
    hash of the n-gram string (collision odds ~1e-8 at 1e6 grams; a
    128-bit digest is the drop-in at larger scale); benchmark rows
    (``doc_id % bench_mod == 0``) are deduped per batch."""
    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "gh": pa.array([], type=pa.int64()),
        "n_grams": pa.array([], type=pa.int64()),
        "bench": pa.array([], type=pa.bool_()),
        "part": pa.array([], type=pa.int32()),
    })
    if batch.num_rows == 0:
        return empty
    flat, p = _token_explode(batch, text_col)
    m = len(p)
    if m < n:
        return empty
    w = m - n + 1
    gram = pc.binary_join_element_wise(
        *(flat.slice(i, w) for i in range(n)), " ")
    ok = p[:w] == p[n - 1:]
    rows = p[:w][ok]
    gh = hash64_strings(gram.filter(pa.array(ok))).view(np.int64)
    # distinct per (row, gram hash)
    order = np.lexsort((gh, rows))
    rs, hs = rows[order], gh[order]
    keep = np.concatenate(([True], (rs[1:] != rs[:-1]) | (hs[1:] != hs[:-1])))
    rs, hs = rs[keep], hs[keep]
    sizes = np.bincount(rs, minlength=batch.num_rows)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    doc = ids[rs]
    return pa.table({
        "doc_id": pa.array(doc),
        "gh": pa.array(hs),
        "n_grams": pa.array(sizes[rs].astype(np.int64)),
        "bench": pa.array(doc % bench_mod == 0),
        "part": pa.array((hs.view(np.uint64) % np.uint64(npart))
                         .astype(np.int32)),
    })


def bucket_contamination(g: pa.Table) -> pa.Table:
    """One gram-hash bucket: per-doc count of candidate n-grams that
    appear in the benchmark side → partial ``(doc_id, n_grams,
    n_hits)`` rows (only docs with hits emit anything)."""
    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "n_grams": pa.array([], type=pa.int64()),
        "n_hits": pa.array([], type=pa.int64()),
    })
    bench = g["bench"].combine_chunks().to_numpy(zero_copy_only=False)
    gh = g["gh"].to_numpy(zero_copy_only=False)
    bset = np.unique(gh[bench])
    if bset.size == 0:
        return empty
    cand = ~bench
    hit = cand & np.isin(gh, bset)
    if not hit.any():
        return empty
    ids = g["doc_id"].to_numpy(zero_copy_only=False)[hit]
    ng = g["n_grams"].to_numpy(zero_copy_only=False)[hit]
    order = np.argsort(ids, kind="stable")
    ids_s, ng_s = ids[order], ng[order]
    brk = np.flatnonzero(ids_s[1:] != ids_s[:-1])
    starts = np.concatenate(([0], brk + 1))
    counts = np.diff(np.concatenate((starts, [len(ids_s)])))
    return pa.table({
        "doc_id": pa.array(ids_s[starts]),
        "n_grams": pa.array(ng_s[starts]),
        "n_hits": pa.array(counts.astype(np.int64)),
    })


def centroid_partials(batch: pa.Table, *, scale: int = 1 << 20,
                      emb_col: str = "embedding",
                      label_col: str = "label") -> pa.Table:
    """Fold one batch of embeddings to ``labels × dim`` partial rows
    ``(label, pos, sum_q, n_vecs)`` in exact fixed-point arithmetic:
    ``q = floor(float64(v) * scale)`` summed in int64 (order-free, so
    any partition of the rows merges to bit-identical totals)."""
    empty = pa.table({
        "label": pa.array([], type=pa.int32()),
        "pos": pa.array([], type=pa.int64()),
        "sum_q": pa.array([], type=pa.int64()),
        "n_vecs": pa.array([], type=pa.int64()),
    })
    nrows = batch.num_rows
    if nrows == 0:
        return empty
    emb = batch[emb_col].combine_chunks()
    offs_np = emb.offsets.to_numpy(zero_copy_only=False)
    offs = np.diff(offs_np)
    dim = int(offs[0])
    assert (offs == dim).all(), "ragged embedding column"
    vals = emb.values.to_numpy(zero_copy_only=False)[
        offs_np[0]:offs_np[-1]]
    q = np.floor(vals.astype(np.float64) * float(scale)) \
        .astype(np.int64).reshape(nrows, dim)
    labels = batch[label_col].to_numpy(zero_copy_only=False)
    order = np.argsort(labels, kind="stable")
    ls = labels[order]
    brk = np.flatnonzero(ls[1:] != ls[:-1])
    starts = np.concatenate(([0], brk + 1))
    sums = np.add.reduceat(q[order], starts, axis=0)
    counts = np.diff(np.concatenate((starts, [nrows])))
    nlab = len(starts)
    return pa.table({
        "label": pa.array(np.repeat(ls[starts], dim).astype(np.int32)),
        "pos": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                nlab)),
        "sum_q": pa.array(sums.ravel()),
        "n_vecs": pa.array(np.repeat(counts, dim).astype(np.int64)),
    })
