"""Interleaved-corpus span analytics (the BASELINE.json input shape).

Operators over the ``spans: list<struct<kind,text,media_ref,offset>>``
column itself — the corpus-side complements of the crawl family: what
the interleaved documents CONTAIN, not what the crawler did with them.
All Arrow list kernels (``list_flatten`` / ``list_parent_indices``);
no per-row Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources._util import scan_parquet
from ..stages.exchange import bucket_exchange, collect, from_arrow, with_part

INT64 = pa.int64()


def _flat(batch: pa.Table):
    """(doc_idx, kind, text, media_ref) flattened span views."""
    spans = batch["spans"].combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    return (parents,
            pc.struct_field(flat, "kind"),
            pc.struct_field(flat, "text"),
            pc.struct_field(flat, "media_ref"))


def span_census(docs_path: str):
    """q256: per span kind — span count, total text characters, and
    the number of DISTINCT documents containing the kind (the corpus
    composition audit a multimodal training mix is planned from).

    Scale shape: the corpus invariant "one row = one whole document"
    means a (kind, doc) pair can never appear in two batches — so the
    distinct-doc count needs NO exchange at all: each batch folds
    straight to ≤kinds rows (spans, chars, docs-with-kind) and the
    ≤kinds × blocks partials concat-fold on the driver.  (If documents
    ever split across rows, the distinct-doc leg goes back through a
    doc-hash exchange — the round-3 shape.)  Round-4: this removed
    the 800k-pair exchange + a native Aggregate, 9.8 s → ~2 s at
    sf0.1.  Output ≤4 rows.
    """

    def partial(b: pa.Table) -> pa.Table:
        parents, kind, text, _ = _flat(b)
        chars = pc.fill_null(pc.utf8_length(text), 0)
        t = pa.table({
            "kind": kind,
            "doc_id": pc.take(b["doc_id"].combine_chunks(), parents),
            "n": pa.nulls(len(kind), INT64).fill_null(1),
            "chars": pc.cast(chars, INT64)})
        g = t.group_by(["kind", "doc_id"]).aggregate(
            [("n", "sum"), ("chars", "sum")])
        return pa.table({
            "kind": g["kind"],
            "n_spans": g["n_sum"],
            "text_chars": g["chars_sum"],
            "docs": pa.nulls(g.num_rows, INT64).fill_null(1),
        }).group_by(["kind"]).aggregate(
            [("n_spans", "sum"), ("text_chars", "sum"),
             ("docs", "sum")]) \
            .rename_columns(["kind", "n_spans", "text_chars", "n_docs"])

    parts = collect(scan_parquet(docs_path, columns=["doc_id", "spans"])
                    .map_batches(partial, batch_format="pyarrow"))
    out = from_arrow(
        parts.group_by(["kind"]).aggregate(
            [("n_spans", "sum"), ("text_chars", "sum"),
             ("n_docs", "sum")])
        .rename_columns(["kind", "n_spans", "text_chars", "n_docs"]))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "kind": b["kind"],
            "n_spans": pc.cast(b["n_spans"], INT64),
            "text_chars": pc.cast(b["text_chars"], INT64),
            "n_docs": pc.cast(b["n_docs"], INT64)})

    # ≤4 rows: sort on the driver, not a distributed sort stage
    return from_arrow(
        finish(collect(out))
        .sort_by("kind"))


def anchor_text_index(docs_path: str, k: int = 50, npart: int = 32):
    """q257: per link target — reference count, distinct anchor texts,
    and the modal anchor with deterministic ties (count DESC, anchor
    ASC); top-``k`` targets by (n_refs DESC, target ASC).  The classic
    web-corpus anchor-text feature (search/training pipelines attach
    it to the TARGET page's text).

    Scale shape: per-batch (target, anchor) counts collapse each block
    before ONE target-hash exchange; each bucket resolves the modal
    anchor with a single lexsort + reduceat pass and emits one row per
    target; per-bucket top-k caps the driver merge at k × npart rows.
    """

    def partial(b: pa.Table) -> pa.Table:
        _, kind, text, ref = _flat(b)
        is_link = pc.equal(kind, "link")
        # null anchor text → '' (matching the SQL twin's COALESCE):
        # None is unorderable against str in the bucket lexsort, so a
        # corpus with a null-text link span would otherwise TypeError
        # (round-3 ADVICE; the synthetic corpus never produces one)
        t = pa.table({"target": ref, "anchor": pc.fill_null(text, ""),
                      "n": pa.nulls(len(kind), INT64).fill_null(1)}) \
            .filter(is_link)
        g = t.group_by(["target", "anchor"]).aggregate([("n", "sum")])
        return with_part(g.rename_columns(["target", "anchor", "n"]),
                         "target", npart)

    def bucket(g: pa.Table) -> pa.Table:
        t = g.group_by(["target", "anchor"]).aggregate([("n", "sum")])
        tgt = t["target"].combine_chunks().dictionary_encode()
        code = tgt.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n_sum"].to_numpy(zero_copy_only=False)
        anchor = t["anchor"].combine_chunks()
        names = tgt.dictionary.to_pylist()
        # modal anchor: sort (target, -count, anchor); group head wins.
        # Dense ranks order the anchors exactly as the strings compare.
        arank = pc.rank(anchor, tiebreaker="dense").to_numpy()
        order = np.lexsort((arank, -n, code))
        code_s, n_s = code[order], n[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], code_s[1:] != code_s[:-1])))
        sizes = np.diff(np.append(starts, len(code_s)))
        head = order[starts]
        out = pa.table({
            "target": pa.array([names[int(c)] for c in code_s[starts]],
                               type=pa.string()),
            "n_refs": pa.array(np.add.reduceat(n_s, starts), type=INT64),
            "n_anchors": pa.array(sizes.astype(np.int64), type=INT64),
            "top_anchor": anchor.take(pa.array(head))})
        idx = pc.sort_indices(out, sort_keys=[("n_refs", "descending"),
                                              ("target", "ascending")])
        return out.take(idx.slice(0, k))

    ds = bucket_exchange(
        scan_parquet(docs_path, columns=["spans"])
        .map_batches(partial, batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"])))
    merged = collect(ds)
    idx = pc.sort_indices(merged, sort_keys=[("n_refs", "descending"),
                                             ("target", "ascending")])
    return merged.take(idx.slice(0, k))
