"""Segment dedup / contamination / centroid operators (q44-q46).

Kernel parity is pinned against per-row pure-Python references; the
distributed pipelines are pinned against the single-bucket kernel path
(and, in the driver, against the DuckDB oracles in
warc_ray/oracle_sql/training.py)."""

import re

import numpy as np
import pyarrow as pa
import pytest

from warc_ray.stages import segments as sg

SF_DIR = "/root/testdata/sf0.001"


def _ref_segments(text: str, seg_len: int = 16):
    toks = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
    return [" ".join(toks[i:i + seg_len])
            for i in range(0, len(toks), seg_len)]


TRICKY = pa.table({
    "doc_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
    "text": [
        "a b c",                               # < seg_len tokens
        " ".join(f"w{i}" for i in range(16)),  # exactly one segment
        " ".join(f"w{i}" for i in range(33)),  # 2 full + 1 tail
        "",                                    # empty
        "!!! ,,, ...",                         # punctuation only
        "A B c " * 8,                          # case folding, dup text
    ],
})


def test_segment_explode_matches_reference():
    out = sg.segment_explode(TRICKY)
    got = {}
    for d, i, s, ns in zip(out["doc_id"].to_pylist(),
                           out["seg_idx"].to_pylist(),
                           out["seg"].to_pylist(),
                           out["n_seg"].to_pylist()):
        got.setdefault(d, []).append((i, s, ns))
    for row in range(TRICKY.num_rows):
        ref = _ref_segments(TRICKY["text"][row].as_py())
        mine = sorted(got.get(row, []))
        assert [s for _, s, _ in mine] == ref, row
        assert [i for i, _, _ in mine] == list(range(len(ref)))
        assert all(ns == len(ref) for _, _, ns in mine)


def test_keep_first_and_reassemble_reference():
    """Global single-bucket path == brute-force first-occurrence scan."""
    ex = sg.segment_explode(TRICKY)
    out = sg.bucket_reassemble(sg.bucket_keep_first(ex)) \
        .sort_by("doc_id").to_pydict()
    seen, ref = set(), {}
    for row in range(TRICKY.num_rows):
        kept = []
        segs = _ref_segments(TRICKY["text"][row].as_py())
        for s in segs:
            if s not in seen:
                seen.add(s)
                kept.append(s)
        if kept:
            ref[row] = (len(segs), len(kept), " ".join(kept))
    assert out["doc_id"] == sorted(ref)
    for d, ns, nk, tx in zip(out["doc_id"], out["n_seg"],
                             out["n_kept"], out["text_kept"]):
        assert (ns, nk, tx) == ref[d]
    # doc 5's repeated "a b c"-prefixed segments dedup against doc 0
    assert 5 in ref and ref[5][1] <= ref[5][0]


def test_ngram_explode_strict_and_distinct():
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": ["a b", "a b c a b c a b c", ""],
    })
    out = sg.ngram_explode(t, n=3, npart=4)
    docs = out["doc_id"].to_pylist()
    assert 0 not in docs and 2 not in docs      # <3 tokens: no grams
    # doc 1 trigrams: 'a b c','b c a','c a b' → 3 DISTINCT
    assert docs.count(1) == 3
    assert set(out["n_grams"].to_pylist()) == {3}
    assert len(set(out["gh"].to_pylist())) == 3


def test_bucket_contamination_counts():
    # doc 0 is benchmark (0 % 97 == 0); doc 1 shares 2 of its 3 grams
    t = pa.table({
        "doc_id": pa.array([0, 1, 194], type=pa.int64()),
        "text": ["x y z w", "x y z q", "a b c"],
    })
    ex = sg.ngram_explode(t, n=3, npart=1)
    out = sg.bucket_contamination(ex).to_pydict()
    # doc 1: grams {x y z, y z q}; bench {x y z, y z w} → 1 hit.
    # doc 194 is also benchmark (194 % 97 == 0) → excluded as candidate.
    assert out["doc_id"] == [1]
    assert out["n_grams"] == [2]
    assert out["n_hits"] == [1]


def test_centroid_partials_merge_invariance():
    rng = np.random.default_rng(5)
    n, dim = 61, 8
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    labels = rng.integers(0, 3, size=n).astype(np.int32)
    t = pa.table({
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32())),
        "label": pa.array(labels),
    })
    whole = sg.centroid_partials(t).sort_by([("label", "ascending"),
                                             ("pos", "ascending")])
    parts = [sg.centroid_partials(t.slice(0, 23)),
             sg.centroid_partials(t.slice(23))]
    merged = pa.concat_tables(parts).group_by(["label", "pos"]) \
        .aggregate([("sum_q", "sum"), ("n_vecs", "sum")]) \
        .sort_by([("label", "ascending"), ("pos", "ascending")])
    assert merged["sum_q_sum"].to_pylist() == whole["sum_q"].to_pylist()
    assert merged["n_vecs_sum"].to_pylist() == whole["n_vecs"].to_pylist()
    # exact fixed-point vs per-row python
    q_ref = {}
    for v, l in zip(vecs, labels):
        acc = q_ref.setdefault(int(l), np.zeros(dim, dtype=np.int64))
        acc += np.floor(v.astype(np.float64) * (1 << 20)).astype(np.int64)
    for l in sorted(q_ref):
        rows = whole.filter(pa.compute.equal(whole["label"], l))
        assert rows["sum_q"].to_pylist() == q_ref[l].tolist()


def test_segment_dedup_pipeline(ray_session):
    """Distributed two-exchange pipeline == single-bucket kernel path."""
    from warc_ray.pipelines.training import segment_dedup

    import pyarrow.parquet as pq

    got = pa.Table.from_pandas(
        segment_dedup(SF_DIR, npart=8).to_pandas()).sort_by("doc_id")
    docs = pq.read_table(SF_DIR + "/documents.parquet",
                         columns=["doc_id", "text"])
    ref = sg.bucket_reassemble(
        sg.bucket_keep_first(sg.segment_explode(docs))).sort_by("doc_id")
    assert got.num_rows == ref.num_rows
    for c in ["doc_id", "n_seg", "n_kept", "text_kept"]:
        assert got[c].to_pylist() == ref[c].to_pylist(), c


def test_contamination_pipeline(ray_session):
    from warc_ray.pipelines.training import contamination

    got = pa.Table.from_pandas(
        contamination(SF_DIR, npart=8).to_pandas()).sort_by("doc_id")
    docs = __import__("pyarrow.parquet", fromlist=["x"]).read_table(
        SF_DIR + "/documents.parquet", columns=["doc_id", "text"])
    ref = sg.bucket_contamination(
        sg.ngram_explode(docs, n=3, npart=1)).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == ref["doc_id"].to_pylist()
    assert got["n_hits"].to_pylist() == ref["n_hits"].to_pylist()
    assert got["n_grams"].to_pylist() == ref["n_grams"].to_pylist()


def test_window_chunks_edges(ray_session, tmp_path):
    """q61 window materialization: empty docs emit nothing, short docs
    emit one short window, stride tiling covers every token, window
    hashes match a per-row reference."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from warc_ray.pipelines.training import window_chunks

    texts = {
        10: "",
        11: "one",
        12: " ".join(f"w{i}" for i in range(64)),    # exactly one window
        13: " ".join(f"w{i}" for i in range(65)),    # 64 + stride tail
        14: " ".join(f"w{i}" for i in range(96)),    # 2 windows + tail
        15: "A b. C  d!" * 20,                       # folding + punct
    }
    tab = pa.table({"doc_id": pa.array(sorted(texts), type=pa.int64()),
                    "text": [texts[k] for k in sorted(texts)]})
    pq.write_table(tab, os.path.join(tmp_path, "documents.parquet"))

    got = window_chunks(str(tmp_path)).to_pandas()

    exp = []
    for d in sorted(texts):
        toks = re.findall(r"[a-z0-9]+", texts[d].lower())
        n = len(toks)
        for w in range((n + 31) // 32):
            seg = toks[w * 32:w * 32 + 64]
            exp.append((d, w, len(seg),
                        hashlib.md5(" ".join(seg).encode()).hexdigest()))
    assert [tuple(r) for r in got.itertuples(index=False)] == exp
    # tiling law: every token index of every doc is inside >= 1 window
    for d in sorted(texts):
        n = len(re.findall(r"[a-z0-9]+", texts[d].lower()))
        covered = set()
        for w in range((n + 31) // 32):
            covered |= set(range(w * 32, min(w * 32 + 64, n)))
        assert covered == set(range(n))
