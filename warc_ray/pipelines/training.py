"""Training-data pipeline entry points over the testdata tables.

Each function takes ``sf_dir`` and returns a Dataset / Arrow table —
these are the ``queries()`` implementations for the dedup / text /
similarity / multimodal operator families (SURVEY.md §2.B extensions).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources._util import scan_parquet
from ..stages import dedup as dd
from ..stages.exchange import (bucket_exchange, collect, combine_buckets,
                               materialize, segment_bounds, sort_result)
from ..stages import similarity as sim
from ..stages import textstats as ts


def _docs(sf_dir: str, columns: list[str] | None = None):
    return scan_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=columns)


def _emb(sf_dir: str):
    return scan_parquet(os.path.join(sf_dir, "embeddings.parquet"))


def _head_rows(path: str, n: int, columns: list[str] | None = None) -> pa.Table:
    """First ``n`` rows of a parquet file WITHOUT reading the whole
    table (streamed record batches) — for query vectors and centroid
    seeding samples."""
    pf = pq.ParquetFile(path)
    got, batches = 0, []
    for b in pf.iter_batches(batch_size=n, columns=columns):
        batches.append(b)
        got += b.num_rows
        if got >= n:
            break
    return pa.Table.from_batches(batches).slice(0, n)


def _seeded_sample_rows(path: str, n: int,
                        columns: list[str] | None = None,
                        id_col: str = "vec_id") -> pa.Table:
    """Deterministic UNIFORM ``n``-row sample: bottom-``n`` by a
    64-bit splitmix hash of the id column (the q39 KMV discipline).

    Round-4 VERDICT item 6: a first-K-rows head sample is not a
    uniform sample of a sorted-by-anything table at 100 TB — k-means
    centroids / PQ codebooks seeded from it inherit whatever the sort
    key correlates with.  Bottom-k-by-hash is (a) uniform regardless
    of table order, (b) deterministic (splitmix64 is bijective, so
    unique ids give unique hashes — no tie ambiguity), and (c)
    partition-independent: per-block bottom-k partials merge
    associatively, so the identical sample is computable distributed
    at any scale.  Runs as a Ray pipeline — each block reduces to its
    ``n`` smallest-hash rows; the driver merges ≤ n·nblocks rows,
    never the table."""
    from ..stages.dedup import _mix64

    def partial(b: pa.Table) -> pa.Table:
        h = _mix64(b[id_col].to_numpy(zero_copy_only=False)
                   .astype(np.uint64))
        if len(h) > n:
            idx = np.argpartition(h, n - 1)[:n]
            b = b.take(pa.array(idx))
            h = h[idx]
        return b.append_column("_h", pa.array(h, type=pa.uint64()))

    parts = scan_parquet(path, columns=columns) \
        .map_batches(partial, batch_format="pyarrow")
    t = collect(parts)
    h = t["_h"].to_numpy()
    order = np.argsort(h, kind="stable")[:n]
    return t.take(pa.array(order)).drop_columns(["_h"])


# -- text analysis ----------------------------------------------------------

def token_counts(sf_dir: str):
    return sort_result(_docs(sf_dir).map_batches(
        ts.token_counts, batch_format="pyarrow"), "doc_id")


def quality_scores(sf_dir: str):
    return sort_result(_docs(sf_dir).map_batches(
        ts.quality_scores, batch_format="pyarrow"), "doc_id")


def lang_id(sf_dir: str):
    return sort_result(_docs(sf_dir).map_batches(
        ts.lang_id, batch_format="pyarrow"), "doc_id")


def doc_fingerprints(sf_dir: str):
    return sort_result(_docs(sf_dir).map_batches(
        ts.fingerprints, batch_format="pyarrow"), "doc_id")


def quality_model_scores(sf_dir: str):
    """q62: linear quality-classifier inference — the batched model
    scoring pattern: ``QualityModel`` is an actor POOL (weights
    materialized once per actor in ``__init__``, the slot where a real
    deployment loads fastText/ONNX), each batch scored with vectorized
    Arrow kernels.  Integer micro-logits, DuckDB-value-exact."""
    return sort_result(_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(ts.QualityModel, batch_format="pyarrow",
                     concurrency=(1, 8)), "doc_id")


# -- dedup ------------------------------------------------------------------

def exact_dedup(sf_dir: str):
    """Hash-partitioned exact dedup through ``combine_buckets``: one
    surviving (keep_doc, n_copies) per distinct text."""
    ds = _docs(sf_dir).map_batches(
        lambda b: dd.add_text_hash(b).select(["text_hash", "doc_id"])
        .rename_columns(["text_hash", "keep_doc"]), batch_format="pyarrow")
    out = combine_buckets(ds, "text_hash",
                          [("keep_doc", "min"), ("n_copies", "count")])
    return sort_result(out.drop_columns(["text_hash"]), ["keep_doc"])


def minhash_pairs(sf_dir: str, threshold_ppm: int = 500_000):
    """MinHash-LSH near-dup candidate pairs, exact-Jaccard verified via
    the hash-partitioned pairs⋈docs join (no whole-table actor load)."""
    return sort_result(
        dd.minhash_dedup_pairs(_docs(sf_dir, columns=["doc_id", "text"]),
                               threshold_ppm=threshold_ppm),
        ["doc_a", "doc_b"])


def ngram_jaccard(sf_dir: str, threshold_ppm: int = 500_000):
    """EXACT 3-gram Jaccard near-dup pairs (inverted-index path — the
    100%-recall complement to q21's MinHash sketch)."""
    return sort_result(
        dd.ngram_jaccard_pairs(_docs(sf_dir, columns=["doc_id", "text"]),
                               threshold_ppm=threshold_ppm),
        ["doc_a", "doc_b"])


def simhash(sf_dir: str):
    return sort_result(_docs(sf_dir).map_batches(
        dd.simhash64, batch_format="pyarrow"), "doc_id")


def embedding_neardup(sf_dir: str, threshold: float = 0.4):
    """Cosine-threshold pairs (a<b), integer ids only — EXACT, via the
    triangle block join (no driver read, no full-matrix broadcast)."""
    return sort_result(
        sim.neardup_pairs_blocked(_emb(sf_dir), threshold),
        ["vec_a", "vec_b"])


def embedding_quantize(sf_dir: str):
    """Per-dimension int8 scalar quantization of the embedding table
    (4→1 byte per dim, the standard ANN memory step): tiny two-phase
    stats→quantize, integer-exact incl. the reconstruction-error
    checksum (q48 oracle)."""
    return sort_result(sim.quantize_embeddings(_emb(sf_dir)), "vec_id")


def embedding_lsh_pairs(sf_dir: str, threshold: float = 0.4):
    """Sign-LSH (random-hyperplane) near-dup pairs — the sub-quadratic
    scale path complementing q23's exact triangle join; band-local
    verify (see similarity.lsh_neardup_pairs), and every step up to
    the cosine is integer-exact (fixed-point quantize + int
    hyperplanes) so the q47 oracle reproduces candidates bit-for-bit.
    Recall 1-(1-p^4)^16 at sign-agreement p."""
    return sort_result(sim.lsh_neardup_pairs(_emb(sf_dir), threshold),
                       ["vec_a", "vec_b"])


# -- similarity search ------------------------------------------------------

def knn_topk(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Brute-force cosine top-k for the first ``n_queries`` vectors
    (query vectors from a streamed head read, not a full-table load)."""
    t = _head_rows(os.path.join(sf_dir, "embeddings.parquet"), n_queries)
    ids = t["vec_id"].to_pylist()
    qm = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    return sim.knn_topk(_emb(sf_dir), ids, qm, k=k)


KMEANS_SAMPLE_ROWS = 4096


def knn_topk_ivf(sf_dir: str, n_queries: int = 5, k: int = 10,
                 n_clusters: int = 16, nprobe: int = 4):
    """IVF-bucketed ANN variant (approximate — the scale path).

    Centroids are seeded from a bounded UNIFORM sample
    (bottom-KMEANS_SAMPLE_ROWS by id hash — ``_seeded_sample_rows``,
    unbiased on sorted tables), never the full matrix; query vectors
    stay on the head contract so they equal q30's, and recall vs the
    exact q30 path is pinned by tests/test_dedup.py."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    sample = _seeded_sample_rows(path, KMEANS_SAMPLE_ROWS,
                                 columns=["vec_id", "embedding"])
    smat = np.array(sample["embedding"].to_pylist(), dtype=np.float64)
    cent = sim.kmeans_lite(smat, n_clusters)
    q = _head_rows(path, n_queries)
    ids = q["vec_id"].to_pylist()
    qm = np.array(q["embedding"].to_pylist(), dtype=np.float64)
    return sim.ivf_topk(_emb(sf_dir), ids, qm, cent, k=k, nprobe=nprobe)


def semdedup(sf_dir: str, n_clusters: int = 16, threshold: float = 0.4):
    """q60: SemDeDup embedding curation — k-means clusters from a
    bounded driver-side sample (as q31), within-cluster cosine dedup,
    greedy keep-min.  Approximate (cross-cluster pairs missed), so
    rows-only for the driver; the operator laws — determinism, no
    surviving within-cluster pair, recall vs the exact q23 pair set —
    are pytest-pinned (tests/test_dedup.py)."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    sample = _seeded_sample_rows(path, KMEANS_SAMPLE_ROWS,
                                 columns=["vec_id", "embedding"])
    smat = np.array(sample["embedding"].to_pylist(), dtype=np.float64)
    cent = sim.kmeans_lite(smat, n_clusters)
    return sim.semdedup_keep(_emb(sf_dir), cent, threshold=threshold)


# -- multimodal -------------------------------------------------------------
#
# All four pipelines run payload synthesis FUSED into the consuming
# actor stage (SynthesizedStage): only bare int64 media indices enter
# the actors and only feature/report rows leave — the multi-KB payload
# column never crosses the object store (it was ~1.7 GB/query at sf0.1
# and dominated the wall).

def _media_index(sf_dir: str):
    from .. import corpus as corpus_mod
    from ..stages.multimodal import media_index_from_corpus

    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    cdir = corpus_mod.ensure_corpus(prof)
    return media_index_from_corpus(cdir), prof


def _q40_post(t: pa.Table) -> pa.Table:
    return t.drop_columns(["feature", "midx"])


def _only_media(idx, kind: str):
    """Pre-filter the bare media index to one media type BEFORE payload
    synthesis: media_type is a pure function of midx (midx%3==0 →
    video, else image), so stages that consume a single type (frames,
    resize, audio tracks) should never synthesize the other 1/3–2/3."""
    want_video = kind == "video"

    def only(batch: pa.Table) -> pa.Table:
        m = batch["midx"].to_numpy(zero_copy_only=False)
        keep = (m % 3 == 0) if want_video else (m % 3 != 0)
        return batch.take(np.flatnonzero(keep))

    return idx.map_batches(only, batch_format="pyarrow")


def media_features(sf_dir: str):
    """Decode/feature-extract pipeline over the synthetic corpus' media
    blobs (actor-pool stage; codec stubbed — see stages/multimodal.py)."""
    from ..stages.multimodal import DecodeMediaFeatures, SynthesizedStage

    idx, prof = _media_index(sf_dir)
    # no output sort: the index's bucket exchange already yields
    # per-bucket-sorted rows and the driver check is order-insensitive
    return idx.map_batches(
        SynthesizedStage,
        fn_constructor_args=(prof.n_hosts, DecodeMediaFeatures),
        fn_constructor_kwargs={"post": _q40_post},
        batch_format="pyarrow", concurrency=(2, 28), batch_size=8192)


def _q42_post(t: pa.Table) -> pa.Table:
    return t.drop_columns(["media_type", "midx"])


def media_resize(sf_dir: str):
    """Multimodal resize stage (decode → fit-into-box → re-encode, stub
    codec): per-image source/target dimensions + resized byte counts.
    Payload bytes are produced (and sized like a real resize) but
    dropped from the report — the driver check is rows-only."""
    from ..stages.multimodal import ResizeMedia, SynthesizedStage

    idx, prof = _media_index(sf_dir)
    # emit_payload=False: the resize (including the byte gather — the
    # stand-in for real codec work) runs in-actor, only sizes ship out
    return _only_media(idx, "image").map_batches(
        SynthesizedStage,
        fn_constructor_args=(prof.n_hosts, ResizeMedia),
        fn_constructor_kwargs={"stage_kwargs": {"emit_payload": False},
                               "post": _q42_post},
        batch_format="pyarrow", concurrency=(2, 24), batch_size=8192)


_FRAME_NPART = 64


def _frame_partials(b: pa.Table) -> pa.Table:
    """Per-batch combiner fused into the sampler actor: int group key
    only, no frame bytes leave the actor — one row per (video, batch)
    instead of one per frame."""
    import pyarrow.compute as pc

    t = pa.table({
        "midx": b["midx"],
        "frame_bytes": pc.cast(pc.binary_length(
            pc.cast(b["frame"], pa.binary())), pa.int64())})
    return t.group_by(["midx"]).aggregate(
        [("frame_bytes", "sum"), ("midx", "count")]) \
        .rename_columns(["midx", "frame_bytes", "n_frames"])


def frame_samples(sf_dir: str):
    """Video frame sampling (multimodal stage 2): media blobs →
    ≤4 deterministic frames per video via the FrameSampler actor pool;
    returns per-video frame counts + byte sums (integer-only)."""
    import pyarrow.compute as pc

    from ..stages.multimodal import FrameSampler, SynthesizedStage

    idx, prof = _media_index(sf_dir)
    partial = _only_media(idx, "video").map_batches(
        SynthesizedStage,
        fn_constructor_args=(prof.n_hosts, FrameSampler),
        fn_constructor_kwargs={"post": _frame_partials},
        batch_format="pyarrow", concurrency=(2, 24), batch_size=8192)

    def with_media_id(b: pa.Table) -> pa.Table:
        mid = pc.binary_join_element_wise(
            "media-", pc.cast(b["midx"], pa.string()), "")
        return pa.table({"media_id": mid, "n_frames": b["n_frames"],
                         "frame_bytes": b["frame_bytes"],
                         "midx": b["midx"]})

    per_video = combine_buckets(
        partial, "midx", [("frame_bytes", "sum"), ("n_frames", "sum")],
        npart=_FRAME_NPART)
    return sort_result(per_video.map_batches(with_media_id,
                                             batch_format="pyarrow"),
                       ["midx"]).drop_columns(["midx"])


def audio_features(sf_dir: str):
    """Audio slice of the multimodal family: video blobs → demuxed
    audio track (stub demux — the payload bytes stand in for the s16le
    PCM track) → AudioFeatures actor pool (RMS, zero crossings,
    duration, amplitude histogram; all single-pass numpy over the
    batch).  Semantics pinned by the per-row reference in
    tests/test_dedup.py; driver check is rows-only."""
    from ..stages.multimodal import AudioFeatures, SynthesizedStage

    idx, prof = _media_index(sf_dir)
    return _only_media(idx, "video").map_batches(
        SynthesizedStage,
        fn_constructor_args=(prof.n_hosts, AudioFeatures),
        fn_constructor_kwargs={"post": _q40_post},
        batch_format="pyarrow", concurrency=(2, 24), batch_size=8192)


def curation(sf_dir: str):
    """End-to-end training-data curation: exact dedup (hash-partition,
    keep min doc_id per distinct text) → quality gate (n_tokens>=10 AND
    alpha_ppm>=500000) → per-doc stats of the surviving set.

    The dedup is a groupby on the content hash with the doc rows riding
    along (no separate join pass); the quality stats are the same Arrow
    kernels as q11 — so every number is integer-exact vs the SQL oracle.
    """
    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        dd.add_text_hash, batch_format="pyarrow")

    # keep-min per distinct text as a VECTORIZED aggregate (not a
    # per-group Python take): doc_id = min over the group; text rides
    # along via min too, which is exact because every row in a
    # text_hash group has the identical text.
    survivors = combine_buckets(ds, "text_hash",
                                [("doc_id", "min"), ("text", "min")])

    def stats_and_gate(batch: pa.Table) -> pa.Table:
        q = ts.quality_scores(batch)
        q = q.filter(q["is_quality"])
        return q.select(["doc_id", "n_tokens", "alpha_ppm"])

    return sort_result(survivors.map_batches(
        stats_and_gate, batch_format="pyarrow"), "doc_id")


# ---------------------------------------------------------------------------
# Q28: TF-IDF top terms per doc (integer scores, exchange-joined DF)
# ---------------------------------------------------------------------------

def tfidf_topk(sf_dir: str, k: int = 3, npart: int = 32):
    """Top-k characteristic terms per document, scored
    ``tf * 1_000_000 // df`` (integer — raw inverse document frequency
    without the float log, so the distributed answer is bit-equal to
    the SQL oracle regardless of reduce order; ties break on term asc).

    Scale shape: per-batch tokenize → TF (COMPLETE per doc — a doc is
    one row, so no tf merge exchange exists at all), ONE bucket
    exchange on term computes DF and joins it back (each bucket sees
    every row of its terms), then per-batch partial top-k per doc (≤k
    rows/doc/batch survive) → ONE bucket exchange on doc for the final
    vectorized re-rank.  Shuffle volume: O(distinct (doc, term)) then
    O(docs · k) — never the token stream.
    """
    from ..stages.exchange import with_part

    def tf_batch(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        doc = b["doc_id"].take(pc.list_parent_indices(toks))
        t = pa.table({"doc_id": doc, "term": flat})
        t = t.filter(pc.not_equal(t["term"], ""))
        tf = t.group_by(["doc_id", "term"]).aggregate([("term", "count")])
        return tf.rename_columns(["doc_id", "term", "tf"])

    def score_bucket(g: pa.Table) -> pa.Table:
        tt = g.drop_columns(["part"]).combine_chunks()
        df = tt.group_by(["term"]).aggregate([("term", "count")]) \
            .rename_columns(["term", "df"])
        j = tt.join(df, keys="term")
        score = (j["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
                 * 1_000_000
                 // j["df"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": j["doc_id"], "term": j["term"],
                         "score": pa.array(score)})

    def topk(t: pa.Table, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            cols = {"doc_id": pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "score": pa.array([], type=pa.int64())}
            cols["rank" if with_rank else "part"] = pa.array(
                [], type=pa.int64() if with_rank else pa.int32())
            return pa.table(cols)
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("doc_id", "ascending"), ("score", "descending"),
            ("term", "ascending")]))
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        _, rank = segment_bounds(d)
        keep = rank < k
        out = t.filter(pa.array(keep))
        if with_rank:
            return out.append_column(
                "rank", pa.array(rank[keep] + 1, type=pa.int64()))
        return out.append_column(
            "part", pa.array((d[keep] % 16).astype(np.int32)))

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    scored = bucket_exchange(
        docs.map_batches(tf_batch, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "term", npart),
                     batch_format="pyarrow"), score_bucket)
    return sort_result(bucket_exchange(
        scored.map_batches(lambda b: topk(b, False),
                           batch_format="pyarrow"),
        lambda g: topk(g.drop_columns(["part"]), True)), ["doc_id", "rank"])


# ---------------------------------------------------------------------------
# Q27: near-duplicate CLUSTERS (connected components over q25's pairs)
# ---------------------------------------------------------------------------

_DUP_CLUSTERS_CACHE: dict = {}


def dup_clusters(sf_dir: str, threshold_ppm: int = 500_000):
    """Dedup families: connected components over the exact n-gram
    Jaccard near-dup pairs (q25) — component id = min doc_id reachable,
    i.e. the canonical keeper each duplicate collapses to.  Min-label
    propagation over the bucket-sharded BSP fabric (pipelines/graph.py);
    docs in no pair are omitted (singleton ≙ its own keeper).

    The result (a small Arrow table — duplicate-family members only)
    is memoized per (sf_dir, threshold): the computation is
    deterministic, and q27 and q59 both need it in one session — the
    pairs + BSP propagation was re-run from scratch per query."""
    key = (os.path.abspath(sf_dir), threshold_ppm)
    hit = _DUP_CLUSTERS_CACHE.get(key)
    if hit is not None:
        return hit
    from . import graph

    pairs = dd.ngram_jaccard_pairs(_docs(sf_dir, columns=["doc_id", "text"]),
                                   threshold_ppm=threshold_ppm)

    def to_edges(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False)
        bb = b["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(np.concatenate([a, bb])),
                         "dst": pa.array(np.concatenate([bb, a]))})

    cc = graph.connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"), nparts=8)
    out = cc.rename_columns(["doc_id", "cluster"]).sort_by("doc_id")
    _DUP_CLUSTERS_CACHE[key] = out
    return out


def neardup_curation(sf_dir: str, threshold_ppm: int = 500_000):
    """End-to-end near-dup corpus curation (q59): keep exactly one doc
    per q27 duplicate family — the canonical member (cluster id = min
    reachable doc_id) — and every doc in no family.

    Scale shape: the drop set is the NON-canonical family members only
    (duplicates — orders of magnitude smaller than the corpus at real
    dup rates), so it broadcasts via ``ray.put`` to the document scan
    as a vectorized ``np.isin`` anti-filter; the corpus itself never
    shuffles.  The family computation reuses q27's BSP
    connected-components fabric over the q25 exact-Jaccard pairs."""
    import ray

    cc = dup_clusters(sf_dir, threshold_ppm)
    d = cc["doc_id"].to_numpy(zero_copy_only=False)
    c = cc["cluster"].to_numpy(zero_copy_only=False)
    drop_ref = ray.put(np.sort(d[c < d]))

    def keep(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        mask = ~np.isin(ids, np.asarray(ray.get(drop_ref)))
        return pa.table({"doc_id": pa.array(ids[mask], type=pa.int64())})

    return sort_result(_docs(sf_dir, columns=["doc_id"])
        .map_batches(keep, batch_format="pyarrow"), "doc_id")


# ---------------------------------------------------------------------------
# Q32: inverted index (term -> sorted posting list)
# ---------------------------------------------------------------------------

def inverted_index(sf_dir: str, npart: int = 32):
    """Full-text inverted index: per term, the document frequency and
    the comma-joined sorted posting list of doc_ids.

    Scale shape: per-batch tokenize → DISTINCT (term, doc_id) pairs
    (complete per doc — a doc is one row, so batch-local distinct is
    global distinct), ONE bucket exchange on term, then a per-bucket
    fully vectorized build: sort by (term, doc_id), group offsets via
    one scan, ``ListArray.from_arrays`` + ``pc.binary_join`` join the
    postings without any per-term Python.  Shuffle volume is
    O(distinct (term, doc) pairs) — never the token stream.  At real
    scale hot stopword terms need posting-list sharding (term, shard)
    — the bucket exchange already spreads TERMS; a per-term cap/shard
    split would bolt on here."""
    from ..stages.exchange import with_part

    def pairs_batch(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        doc = b["doc_id"].take(pc.list_parent_indices(toks))
        t = pa.table({"term": flat, "doc_id": doc})
        t = t.filter(pc.not_equal(t["term"], ""))
        return t.group_by(["term", "doc_id"]).aggregate([])

    def build_bucket(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks()
        if t.num_rows == 0:
            return pa.table({"term": pa.array([], type=pa.string()),
                             "df": pa.array([], type=pa.int64()),
                             "postings": pa.array([], type=pa.string())})
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("term", "ascending"), ("doc_id", "ascending")]))
        # group offsets over the sorted term column (one vectorized
        # scan over the dictionary CODES — adjacent-equality of codes
        # is adjacent-equality of terms, without materializing objects)
        terms = t["term"].combine_chunks()
        codes = terms.dictionary_encode().indices.to_numpy(
            zero_copy_only=False)
        starts, _ = segment_bounds(codes)
        offsets = np.append(starts, t.num_rows).astype(np.int32)
        doc_str = pc.cast(t["doc_id"], pa.string()).combine_chunks()
        lists = pa.ListArray.from_arrays(pa.array(offsets), doc_str)
        return pa.table({
            "term": terms.take(pa.array(starts)),
            "df": pa.array(np.diff(offsets).astype(np.int64)),
            "postings": pc.binary_join(lists, ","),
        })

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    return sort_result(bucket_exchange(
        docs.map_batches(pairs_batch, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "term", npart),
                     batch_format="pyarrow"), build_bucket), "term")


# ---------------------------------------------------------------------------
# Q61: sliding-window context materialization (training examples)
# ---------------------------------------------------------------------------

def window_chunks(sf_dir: str, win: int = 64, stride: int = 32):
    """Per-doc token windows [s, s+win) at every stride-multiple start
    s < n_tokens (tail windows included, so each token lands in at
    least one example) — the overlapping context-window materialization
    a pretraining loader runs when documents exceed the model context.
    Output (doc_id, win_idx, n_tok, win_md5 = hex md5 of the
    space-joined window).

    Scale shape: a doc is one row, so every window is batch-local —
    stateless map_batches, no shuffle at ANY scale; the DuckDB twin
    slices the identical token lists (value-exact incl. the md5)."""
    import hashlib

    def wins(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        out_id: list[int] = []
        out_w: list[int] = []
        out_n: list[int] = []
        digests: list[str] = []
        md5 = hashlib.md5
        for d, t in zip(ids, b["text"].to_pylist()):
            toks = dd._WORD_RE.findall(t.lower())
            n = len(toks)
            for w in range((n + stride - 1) // stride):
                seg = toks[w * stride:w * stride + win]
                out_id.append(int(d))
                out_w.append(w)
                out_n.append(len(seg))
                digests.append(md5(" ".join(seg).encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(out_id, type=pa.int64()),
            "win_idx": pa.array(out_w, type=pa.int64()),
            "n_tok": pa.array(out_n, type=pa.int64()),
            "win_md5": pa.array(digests, type=pa.string()),
        })

    return sort_result(_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(wins, batch_format="pyarrow"), ["doc_id", "win_idx"])


# ---------------------------------------------------------------------------
# Q33: sequence packing by global token prefix-sum (two-pass scan)
# ---------------------------------------------------------------------------

def pack_chunks(sf_dir: str, budget: int = 2048, npart: int = 16):
    """Assign each doc (in doc_id order) to a fixed token-budget pack:
    ``pack_id = (tokens before this doc) // budget`` — the contiguous-
    fill packing an LLM pretraining loader uses when documents may
    split across context windows.

    Scale shape: the global running offset is a classic distributed
    prefix sum — docs are RANGE-partitioned by doc_id (parquet
    max-stat, no data pass), each part computes its token subtotal
    (tiny table driver-merged into per-part exclusive offsets), then
    each part independently cumsums its own sorted rows + its offset.
    Two passes over (doc_id, n_tokens) — the text column is read
    once, never shuffled."""
    # range bounds from parquet stats (driver-side metadata only)
    meta = pq.read_metadata(os.path.join(sf_dir, "documents.parquet"))
    hi = 0
    idx = meta.schema.to_arrow_schema().get_field_index("doc_id")
    for rg in range(meta.num_row_groups):
        st = meta.row_group(rg).column(idx).statistics
        hi = max(hi, st.max)
    span = hi + 1

    def tok_batch(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b["text"], "[^A-Za-z0-9]+")
        # split_pattern_regex yields empty-string fragments at the
        # edges; count non-empty tokens exactly like q10's oracle
        flat = pc.list_flatten(toks)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        n = np.bincount(parents[nonempty], minlength=b.num_rows) \
            .astype(np.int64)
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        part = np.minimum(d * npart // span, npart - 1).astype(np.int32)
        return pa.table({"doc_id": b["doc_id"], "n_tokens": pa.array(n),
                         "part": pa.array(part)})

    toks = materialize(_docs(sf_dir, columns=["doc_id", "text"])
                       .map_batches(tok_batch, batch_format="pyarrow"))

    # pass 1: per-part subtotals -> exclusive offsets (npart rows)
    sub = combine_buckets(toks, "part", [("n_tokens", "sum")]) \
        .to_pandas().sort_values("part")
    offs = np.zeros(npart, dtype=np.int64)
    np.add.at(offs, sub["part"].to_numpy()[1:],
              sub["n_tokens"].to_numpy().cumsum()[:-1])
    offs = np.maximum.accumulate(offs)

    def pack_part(g: pa.Table) -> pa.Table:
        t = g.combine_chunks()
        order = pc.sort_indices(t, sort_keys=[("doc_id", "ascending")])
        t = t.take(order)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        before = offs[t["part"][0].as_py()] + np.concatenate(
            ([0], n.cumsum()[:-1]))
        return pa.table({"doc_id": t["doc_id"], "n_tokens": t["n_tokens"],
                         "pack_id": pa.array(before // budget)})

    return sort_result(bucket_exchange(toks, pack_part), "doc_id")


# ---------------------------------------------------------------------------
# Q34: PII scrub (vectorized regex redaction counts)
# ---------------------------------------------------------------------------

_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_NUM = r"[0-9]{3,}"


def pii_scrub(sf_dir: str):
    """Per-doc PII redaction stats: email-like and long-digit-run
    matches counted and replaced with a fixed tag; emits the redacted
    length.  All four kernels are single pyarrow.compute RE2 calls per
    batch (the same RE2 the DuckDB oracle runs) — no Python per row,
    trivially streaming at any scale."""

    def scrub(b: pa.Table) -> pa.Table:
        txt = b["text"]
        n_email = pc.cast(pc.count_substring_regex(txt, _PII_EMAIL),
                          pa.int64())
        red = pc.replace_substring_regex(txt, _PII_EMAIL, "[EMAIL]")
        n_num = pc.cast(pc.count_substring_regex(red, _PII_NUM), pa.int64())
        red = pc.replace_substring_regex(red, _PII_NUM, "[NUM]")
        return pa.table({"doc_id": b["doc_id"], "n_emails": n_email,
                         "n_numbers": n_num,
                         "clean_len": pc.cast(pc.utf8_length(red),
                                              pa.int64())})

    return sort_result(_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(scrub, batch_format="pyarrow"), "doc_id")


# ---------------------------------------------------------------------------
# Q35: deterministic train/val/test split (splitmix64, SQL-reproducible)
# ---------------------------------------------------------------------------

def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (mod-2^64 wraparound is the
    point — the SQL oracle reproduces it exactly in HUGEINT)."""
    x = x.astype(np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def split_assign(sf_dir: str, train_pct: int = 80, val_pct: int = 10):
    """Stable split assignment by an integer hash of doc_id — the
    fixed-point splitmix64 finalizer, chosen because HUGEINT
    arithmetic reproduces it EXACTLY in the SQL oracle (both sides
    compute mod-2^64 products; no float, no library hash).  Adding
    docs never reassigns existing ones (pure function of id)."""

    def assign(b: pa.Table) -> pa.Table:
        x = _splitmix64(b["doc_id"].to_numpy(zero_copy_only=False))
        bucket = (x % np.uint64(100)).astype(np.int64)
        split = np.where(bucket < train_pct, "train",
                         np.where(bucket < train_pct + val_pct, "val",
                                  "test"))
        return pa.table({"doc_id": b["doc_id"],
                         "bucket": pa.array(bucket),
                         "split": pa.array(split)})

    return sort_result(_docs(sf_dir, columns=["doc_id"])
        .map_batches(assign, batch_format="pyarrow"), "doc_id")


# ---------------------------------------------------------------------------
# Q36-Q38: trigram family — repetition filter, stratified sample,
# corpus n-gram counts
# ---------------------------------------------------------------------------

def _word_trigrams(b: pa.Table):
    """Vectorized word-trigram expansion for one batch: returns
    (doc_idx ChunkedArray into b, trigram StringArray, n_tokens per
    row).  One regex split + three array slices + one
    ``binary_join_element_wise`` — no per-row Python.  Complete per
    doc (a doc is one row), so every downstream per-doc statistic is
    batch-local."""
    low = pc.utf8_lower(b["text"])
    toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
    flat = pc.list_flatten(toks).combine_chunks()
    parents = pc.list_parent_indices(toks).combine_chunks()
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask)
    p = parents.filter(mask).to_numpy(zero_copy_only=False)
    n_tokens = np.bincount(p, minlength=b.num_rows).astype(np.int64)
    n = len(p)
    if n < 3:
        return (pa.array([], type=pa.int64()),
                pa.array([], type=pa.string()), n_tokens)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    tri = pc.binary_join_element_wise(
        flat.slice(0, n - 2), flat.slice(1, n - 2), flat.slice(2, n - 2),
        " ")
    ok = p[:-2] == p[2:]
    return (pa.array(p[:-2][ok]), tri.filter(pa.array(ok)), n_tokens)


def repetition_stats(sf_dir: str, max_dup_ppm: int = 200_000):
    """Gopher-style repetition quality gate: per doc, the fraction of
    word trigrams that are repeats of an earlier trigram in the same
    doc (`1 - distinct/total`, integer ppm).  Boilerplate and spam pages
    score high; the flag marks docs a pretraining curation pass drops.

    Stateless per-batch kernel (trigram stats are complete per doc) —
    one vectorized trigram expansion, one Arrow group_by per batch; no
    shuffle at any scale."""

    def stats(b: pa.Table) -> pa.Table:
        doc_idx, tri, n_tokens = _word_trigrams(b)
        n_tri = np.maximum(n_tokens - 2, 0)
        distinct = np.zeros(b.num_rows, dtype=np.int64)
        if len(doc_idx):
            per = pa.table({"d": doc_idx, "g": tri}) \
                .group_by(["d", "g"]).aggregate([])
            dd_ = per["d"].to_numpy(zero_copy_only=False)
            distinct = np.bincount(dd_, minlength=b.num_rows).astype(np.int64)
        n_dup = n_tri - distinct
        ppm = n_dup * 1_000_000 // np.maximum(n_tri, 1)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": pa.array(n_tokens),
            "n_tri": pa.array(n_tri),
            "dup_tri_ppm": pa.array(ppm),
            "is_repetitive": pa.array(ppm >= max_dup_ppm),
        })

    return sort_result(_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(stats, batch_format="pyarrow"), "doc_id")


def stratified_sample(sf_dir: str, k: int = 20):
    """Deterministic stratified sample: the k docs with the smallest
    splitmix64(doc_id) per language — every stratum is represented
    regardless of its share of the corpus, and the pick is a pure
    function of ids (stable under appends, cluster size, row order).

    Scale shape: per-batch partial top-k (≤k rows per lang survive any
    batch), then ONE tiny final pass over langs×k rows — the shuffle
    never carries the corpus."""

    def partial(b: pa.Table) -> pa.Table:
        h = _splitmix64(b["doc_id"].to_numpy(zero_copy_only=False))
        # keep h UNSIGNED (uint64) — the SQL oracle orders the raw
        # 0..2^64-1 value; a signed view would flip the top half
        t = pa.table({"lang": b["lang"], "doc_id": b["doc_id"],
                      "h": pa.array(h)})
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("lang", "ascending"), ("h", "ascending"),
            ("doc_id", "ascending")]))
        codes = t["lang"].combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False)
        _, rank = segment_bounds(codes)
        return t.filter(pa.array(rank < k))

    def final(g: pa.Table) -> pa.Table:
        t = partial(g)
        codes = t["lang"].combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False)
        _, rank = segment_bounds(codes)
        return t.drop_columns(["h"]).append_column(
            "rank", pa.array(rank + 1, type=pa.int64()))

    # langs are a handful: one global group is langs*k*nblocks rows max
    return sort_result(bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: b.append_column(
            "part", pa.array(np.zeros(b.num_rows, dtype=np.int32))),
            batch_format="pyarrow"),
        lambda g: final(g.drop_columns(["part"]))), ["lang", "rank"])


def weighted_sample(sf_dir: str, k: int = 20):
    """q63: Efraimidis–Spirakis weighted sample without replacement —
    key_i = -ln(u_i)/w_i with u_i = (splitmix64(doc_id)+0.5)/2^64 and
    w_i = n_chars, smallest-k keys win: inclusion probability tracks
    the weight, and the pick is a pure function of ids + weights
    (stable under appends, cluster size, row order).  Both engines
    compute the IDENTICAL IEEE-double key (same uint64→double
    rounding, same libm ln), so the DuckDB oracle is value-exact —
    the weighted complement to q37's uniform stratified sample.

    Scale shape: per-batch partial top-k (≤k rows survive any batch)
    → one tiny final cut; the shuffle never carries the corpus."""

    def topk(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t, sort_keys=[
            ("ky", "ascending"), ("doc_id", "ascending")])
        return t.take(order.slice(0, k))

    def partial(b: pa.Table) -> pa.Table:
        h = _splitmix64(b["doc_id"].to_numpy(zero_copy_only=False))
        w = np.maximum(b["n_chars"].to_numpy(zero_copy_only=False), 1)
        u = (h.astype(np.float64) + 0.5) / 18446744073709551616.0
        ky = -np.log(u) / w
        t = pa.table({"doc_id": b["doc_id"], "n_chars": b["n_chars"],
                      "ky": pa.array(ky)})
        t = topk(t)
        return t.append_column(
            "part", pa.array(np.zeros(t.num_rows, dtype=np.int32)))

    def final(g: pa.Table) -> pa.Table:
        t = topk(g)
        return t.drop_columns(["ky"]).append_column(
            "rank", pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)))

    return sort_result(bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow"),
        lambda g: final(g.drop_columns(["part"]))), "rank")


def ngram_counts(sf_dir: str, topn: int = 50, npart: int = 32):
    """Corpus-wide word-trigram counts, top-n by frequency — the LM
    n-gram statistics pass.  Per-batch trigram expansion + local
    group_by combiner (shuffle carries (trigram, partial_count), never
    the token stream), ONE bucket exchange on trigram, per-bucket sum
    + partial top-n, tiny global re-rank."""
    from ..stages.exchange import with_part

    def partial(b: pa.Table) -> pa.Table:
        _, tri, _ = _word_trigrams(b)
        t = pa.table({"trigram": tri})
        return t.group_by(["trigram"]).aggregate([("trigram", "count")]) \
            .rename_columns(["trigram", "n"])

    def bucket_top(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks()
        summed = t.group_by(["trigram"]).aggregate([("n", "sum")]) \
            .rename_columns(["trigram", "n"])
        summed = summed.take(pc.sort_indices(summed, sort_keys=[
            ("n", "descending"), ("trigram", "ascending")]))
        return summed.slice(0, topn)

    def final(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks()
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("n", "descending"), ("trigram", "ascending")]))
        t = t.slice(0, topn)
        return t.append_column(
            "rank", pa.array(np.arange(1, t.num_rows + 1)))

    tops = bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "trigram", npart),
                     batch_format="pyarrow"), bucket_top)
    return sort_result(bucket_exchange(
        tops.map_batches(lambda b: b.append_column(
            "part", pa.array(np.zeros(b.num_rows, dtype=np.int32))),
            batch_format="pyarrow"), final), "rank")


# ---------------------------------------------------------------------------
# Q39: bottom-k (KMV) distinct sketch — oracle-exact estimate
# ---------------------------------------------------------------------------

def bottomk_distinct(sf_dir: str, k: int = 16):
    """Approximate distinct-text count per language via a bottom-k
    (KMV) sketch — the oracle-exact complement to q26's HLL: the
    estimate is a pure integer function of the k smallest md5-prefix
    hashes, so DuckDB reproduces it bit-for-bit (stages/sketch.py).

    Scale shape: per-batch partials keep ≤k distinct hashes per group
    (shuffle carries ≤ groups×k×blocks rows, never the corpus), one
    tiny final merge re-applies the same cut and evaluates the
    estimator."""
    from ..stages import sketch as sk

    I64_MAX = (1 << 63) - 1

    def partial(b: pa.Table) -> pa.Table:
        h = sk.md5_prefix64(b["text"].to_pylist())
        lang = b["lang"].combine_chunks()
        codes = lang.dictionary_encode().indices.to_numpy(
            zero_copy_only=False)
        keep = sk.bottomk_partial(codes, h, k)
        return pa.table({"lang": lang.take(pa.array(keep)),
                         "h": pa.array(h[keep]),
                         "part": pa.array(
                             np.zeros(len(keep), dtype=np.int32))})

    def final(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks()
        lang = t["lang"].combine_chunks()
        codes = lang.dictionary_encode().indices.to_numpy(
            zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False)
        keep = sk.bottomk_partial(codes, h, k)   # rows sorted (lang, h)
        lang = lang.take(pa.array(keep))
        codes = codes[keep]
        h = h[keep]
        starts = np.flatnonzero(np.concatenate(
            ([True], codes[1:] != codes[:-1]))) if len(codes) \
            else np.empty(0, np.int64)
        ends = np.append(starts[1:], len(codes))
        ests = [min(sk.bottomk_estimate(int(e - s), int(h[e - 1]), k),
                    I64_MAX) for s, e in zip(starts, ends)]
        return pa.table({
            "lang": lang.take(pa.array(starts)),
            "est_distinct": pa.array(ests, type=pa.int64()),
        })

    return sort_result(bucket_exchange(
        _docs(sf_dir, columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow"), final), "lang")


def segment_dedup(sf_dir: str, seg_len: int = 16, npart: int = 64):
    """Segment-level exact dedup (q44) — CCNet/C4 line-dedup shaped
    for newline-free docs: non-overlapping ``seg_len``-token segments,
    global keep-first per distinct segment string, per-doc reassembly.

    Two hash-bucket exchanges: (1) all occurrences of a segment meet in
    one bucket keyed by hash64(seg) and keep-first resolves in one
    vectorized pass; (2) surviving rows regroup by doc hash and
    reassemble ordered text.  Shuffle carries one row per (doc,
    segment) — never the token stream."""
    from ..stages import segments as sg

    ex = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: sg.segment_explode(b, seg_len=seg_len, npart=npart),
        batch_format="pyarrow")
    kept = bucket_exchange(ex, sg.bucket_keep_first)

    def with_dpart(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "part", pa.array((d % npart).astype(np.int32)))

    return bucket_exchange(
        kept.map_batches(with_dpart, batch_format="pyarrow"),
        lambda g: sg.bucket_reassemble(g.drop_columns(["part"])))


def contamination(sf_dir: str, n: int = 3, npart: int = 64,
                  bench_mod: int = 97):
    """Benchmark-contamination check (q45): per-candidate-doc count of
    distinct word n-grams shared with the benchmark slice
    (``doc_id % bench_mod == 0``).  One exploding pass tags both sides,
    one gram-hash bucket exchange runs the semi-join (np.isin against
    the bucket's benchmark grams), and a tiny groupby merges per-doc
    partials.  Production n is 13; the synthetic corpus' vocabulary
    needs n=3 to produce overlap."""
    from ..stages import segments as sg

    partials = bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
            lambda b: sg.ngram_explode(b, n=n, npart=npart,
                                       bench_mod=bench_mod),
            batch_format="pyarrow"),
        lambda g: sg.bucket_contamination(g.drop_columns(["part"])))
    return sort_result(combine_buckets(
        partials, "doc_id", [("n_grams", "max"), ("n_hits", "sum")]),
        ["doc_id"])


def group_centroids(sf_dir: str, scale: int = 1 << 20):
    """Per-label embedding centroid sums (q46) in exact fixed-point:
    each batch folds to labels×dim partial rows (order-free int64
    sums), a tiny global groupby merges them — shuffle volume is
    independent of the row count."""
    from ..stages import segments as sg

    return sort_result(combine_buckets(
        _emb(sf_dir).map_batches(
            lambda b: sg.centroid_partials(b, scale=scale),
            batch_format="pyarrow"),
        ["label", "pos"], [("sum_q", "sum"), ("n_vecs", "sum")]),
        ["label", "pos"])


# -- incremental re-crawl (snapshot delta) -----------------------------------

def snapshot_diff(sf_dir: str):
    """q71: crawl snapshot diff — the incremental re-crawl scheduler's
    input: given two crawl snapshots of (doc_id, content fingerprint),
    emit the delta rows a scheduler acts on — ``added`` (new URL in
    the fresh crawl), ``removed`` (gone from it) and ``changed``
    (fingerprint moved); unchanged rows — the overwhelming bulk at
    real re-crawl rates — are filtered inside the join bucket and
    never leave it.

    Snapshots derive deterministically from the documents table (no
    external data): snapshot A drops doc_id % 97 == 3, snapshot B
    drops doc_id % 101 == 7 and mutates the text of doc_id % 89 == 5
    before fingerprinting.  Both sides flow through the general
    ``exchange.hash_join`` full-outer path — the schedule-shaped
    consumer of the engine's one-exchange join primitive.

    Scale shape: fingerprints are computed scan-side (16-byte md5 per
    doc, the text never shuffles), the join exchanges 2 small columns
    per side, and the output is delta-sized."""
    import hashlib

    from ..stages.exchange import hash_join

    def snap(mutate: bool):
        def fp(b: pa.Table) -> pa.Table:
            did = b["doc_id"].to_numpy(zero_copy_only=False)
            texts = b["text"].to_pylist()
            if mutate:
                keep = did % 101 != 7
                texts = [t + "!" if d % 89 == 5 else t
                         for t, d, m in zip(texts, did, keep) if m]
            else:
                keep = did % 97 != 3
                texts = [t for t, m in zip(texts, keep) if m]
            from ..stages.md5vec import md5_hex
            return pa.table({
                "doc_id": pa.array(did[keep]),
                ("fp_b" if mutate else "fp_a"): md5_hex(texts),
            })
        return _docs(sf_dir, columns=["doc_id", "text"]) \
            .map_batches(fp, batch_format="pyarrow")

    joined = hash_join(snap(False), snap(True), "doc_id", how="full outer")

    def classify(b: pa.Table) -> pa.Table:
        fa = b["fp_a"].to_numpy(zero_copy_only=False)
        fb = b["fp_b"].to_numpy(zero_copy_only=False)
        a_null = pc.is_null(b["fp_a"]).to_numpy(zero_copy_only=False)
        b_null = pc.is_null(b["fp_b"]).to_numpy(zero_copy_only=False)
        status = np.where(a_null, "added",
                          np.where(b_null, "removed", "changed"))
        delta = a_null | b_null | (fa != fb)
        return pa.table({
            "doc_id": pa.array(
                b["doc_id"].to_numpy(zero_copy_only=False)[delta]),
            "status": pa.array(status[delta].astype(object),
                               type=pa.string()),
        })

    return joined.map_batches(classify, batch_format="pyarrow")


def compression_signal(sf_dir: str):
    """q75: per-doc zlib compression-ratio quality gate — stateless
    ``map_batches`` scan (stages/textstats.compression_signal), no
    shuffle at any scale.  Rows-only vs the driver (no SQL zlib);
    per-row reference parity pinned in tests/test_textstats.py."""
    return _docs(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(ts.compression_signal, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q76: cross-document duplicate-span detection (substring-dedup shape)
# ---------------------------------------------------------------------------

def duplicate_spans(sf_dir: str, win: int = 16, npart: int = 32):
    """q76: find every ``win``-token span that appears in ≥ 2 distinct
    documents — the window-granular form of exact substring dedup
    (Lee et al. 2022, "Deduplicating Training Data Makes Language
    Models Better"): stride-1 rolling windows catch duplication q44's
    ALIGNED segments miss (a copied paragraph at any offset).

    Scale shape: the scan emits batch-local-DISTINCT (fp, doc_id)
    pairs — one row per distinct window per doc, the inherent cost of
    substring-level dedup (the suffix-array construction pays the same
    n rows; the hash-window form shards trivially).  One hash exchange
    on the fingerprint co-locates claims; each bucket counts distinct
    docs per fingerprint vectorized.  Output is duplicated-span-sized.
    """
    import hashlib

    from ..stages.exchange import with_part

    def spans(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        fps: list[str] = []
        out_ids: list[int] = []
        md5 = hashlib.md5
        for d, t in zip(ids, b["text"].to_pylist()):
            toks = dd._WORD_RE.findall(t.lower())
            n = len(toks)
            if n < win:
                continue
            seen: set[str] = set()
            for i in range(n - win + 1):
                seen.add(md5(" ".join(toks[i:i + win]).encode()).hexdigest())
            # sorted, not set order: the bucket rows (and so the
            # output order) must not depend on PYTHONHASHSEED
            fps.extend(sorted(seen))
            out_ids.extend([int(d)] * len(seen))
        t = pa.table({"fp": pa.array(fps, type=pa.string()),
                      "doc_id": pa.array(out_ids, type=pa.int64())})
        return with_part(t, "fp", npart)

    def bucket(g: pa.Table) -> pa.Table:
        codes = g["fp"].combine_chunks().dictionary_encode()
        vc = codes.indices.to_numpy(zero_copy_only=False)
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, vc))
        vc, ids = vc[order], ids[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], vc[1:] != vc[:-1], [True])))
        n_docs = np.diff(starts)
        keep = n_docs >= 2
        if not keep.any():
            return pa.table({"fp": pa.array([], type=pa.string()),
                             "n_docs": pa.array([], type=pa.int64()),
                             "min_doc": pa.array([], type=pa.int64()),
                             "max_doc": pa.array([], type=pa.int64())})
        s = starts[:-1][keep]
        e = starts[1:][keep] - 1
        return pa.table({
            "fp": codes.dictionary.take(pa.array(vc[s])),
            "n_docs": pa.array(n_docs[keep].astype(np.int64)),
            "min_doc": pa.array(ids[s]),        # sorted per run: first=min
            "max_doc": pa.array(ids[e]),
        })

    return bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(spans, batch_format="pyarrow"), bucket)


# ---------------------------------------------------------------------------
# Q79: partitioned corpus export (hive layout, resumable-output shape)
# ---------------------------------------------------------------------------

def export_partitioned(sf_dir: str, out_dir: str | None = None):
    """q79: route the corpus into hive-partitioned parquet by detected
    language — the EXPORT side of a training-data pipeline (CCNet-style
    per-language shards) and the brief's resumable-output contract:
    one directory per partition key (``lang=xx/``), many files per
    partition (never one giant file), so a re-run skips or replaces
    whole partitions instead of merging in place.

    The query returns the post-export manifest — per-language doc
    count and byte size aggregated from a DISTRIBUTED READ-BACK of the
    exported files (hive partition column recovered from the path) —
    so the oracle check verifies the full write→read round trip, not
    just the routing."""
    import shutil

    out = out_dir or os.path.join("/tmp/warc_ray_bench",
                                  f"export-{os.path.basename(sf_dir.rstrip('/'))}")
    shutil.rmtree(out, ignore_errors=True)

    def route(b: pa.Table) -> pa.Table:
        lid = ts.lang_id(b)                     # (doc_id, stop_ppm, lang_pred)
        return pa.table({"doc_id": b["doc_id"],
                         "lang_pred": lid["lang_pred"],
                         "text": b["text"]})

    _docs(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(route, batch_format="pyarrow") \
        .write_parquet(out, partition_cols=["lang_pred"])

    back = scan_parquet(out)

    def manifest(b: pa.Table) -> pa.Table:
        return pa.table({
            "lang_pred": pc.cast(b["lang_pred"], pa.string()),
            "n_bytes": pc.cast(pc.binary_length(
                pc.cast(b["text"], pa.string())), pa.int64()),
        })

    return sort_result(combine_buckets(
        back.map_batches(manifest, batch_format="pyarrow"), "lang_pred",
        [("n_docs", "count"), ("n_bytes", "sum")]), ["lang_pred"])


def mode_lang_by_source(sf_dir: str):
    """q80: grouped MODE — the most frequent lang per source with a
    deterministic tie-break (smallest lang among the argmax counts),
    e.g. "dominant language per domain" in a crawl report.

    Scale shape: per-batch (source, lang) count partials → one tiny
    groupby reduces them exactly (the (source × lang) domain is tiny
    regardless of row count), then the argmax is driver arithmetic
    over the reduced table — the same partials-then-tiny-reduce shape
    as q01/q66."""
    fine = combine_buckets(_docs(sf_dir, columns=["source", "lang"]),
                           ["source", "lang"], [("n", "count")])
    t = collect(fine)
    src = np.asarray(t["source"].to_pylist(), dtype=object)
    lang = np.asarray(t["lang"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    # sort by (source, -n, lang): first row per source is the mode
    order = np.lexsort((lang, -n, src))
    src, lang, n = src[order], lang[order], n[order]
    first = np.concatenate(([True], src[1:] != src[:-1]))
    return pa.table({
        "source": pa.array(src[first], type=pa.string()),
        "mode_lang": pa.array(lang[first], type=pa.string()),
        "n_docs": pa.array(n[first].astype(np.int64)),
    })


def pq_retrieval(sf_dir: str, n_queries: int = 5, k: int = 10,
                 m_sub: int = 16, k_codes: int = 256):
    """q255: product-quantization ANN retrieval (PQ-ADC) — codebooks
    from the bounded seeded sample (as q31/q60), each stored vector
    compressed to ``m_sub`` code bytes, queries answered from per-query
    (M × K) distance LUTs.  Approximate by construction (quantization
    error), so rows-only for the driver; recall@k vs the exact q30
    path, determinism, and the code-range law are pytest-pinned
    (tests/test_dedup.py::test_pq_recall_vs_bruteforce).

    Complements the ANN family: IVF (q31) prunes WHICH vectors are
    scored, int8 (q48) shrinks the scalar width, PQ compresses the
    DISTANCE COMPUTATION itself (D·4 bytes → M bytes per vector)."""
    from ..stages import similarity as sim

    path = os.path.join(sf_dir, "embeddings.parquet")
    sample = _seeded_sample_rows(path, KMEANS_SAMPLE_ROWS,
                                 columns=["vec_id", "embedding"])
    smat = np.array(sample["embedding"].to_pylist(), dtype=np.float64)
    books = sim.pq_train(smat, m_sub=m_sub, k_codes=k_codes)
    q = _head_rows(path, n_queries)
    ids = q["vec_id"].to_pylist()
    qm = np.array(q["embedding"].to_pylist(), dtype=np.float64)
    return sim.pq_topk(_emb(sf_dir), ids, qm, books, k=k)
