"""Correctness oracles for the dedup family (q20-q23, q47) and ANN
recall.

The MinHash/SimHash operators are ALSO DuckDB-oracle-exact since the
md5-prefix-64 hash switch (q21/q22 in warc_ray/oracle_sql/training.py);
these tests remain their structural gate:

  * Mersenne-61 hash parity vs Python-int arithmetic (the universal
    hash the LSH recall formula relies on);
  * LSH recall vs brute-force exact Jaccard on a controlled corpus;
  * hash-partitioned verify join == broadcast verify;
  * simhash vectorized path == per-token reference formulation, plus
    the Hamming-locality property;
  * band bucket fan-out cap (chain keeps connectivity, bounds output);
  * IVF recall@k vs the exact brute-force q30 path;
  * blocked exact near-dup == full-broadcast near-dup.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from warc_ray.stages import dedup as dd

SF_DIR = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# Mersenne-61 universal hash
# ---------------------------------------------------------------------------

def test_mersenne_hash_parity():
    """minhash h_i(x) == (a_i*x + b_i) mod (2^61-1) in exact Python-int
    arithmetic, for adversarial and random uint64 inputs."""
    p = (1 << 61) - 1
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        np.array([0, 1, 2, p - 1, p, p + 1, (1 << 64) - 1, 1 << 63, 1 << 32],
                 dtype=np.uint64),
        rng.integers(0, 1 << 63, size=200, dtype=np.uint64) * np.uint64(2)
        + rng.integers(0, 2, size=200, dtype=np.uint64),
    ])
    for x in xs:
        got = dd.minhash_signature(np.array([x], dtype=np.uint64))
        exp = np.array([(int(a) * int(x) + int(b)) % p
                        for a, b in zip(dd._A, dd._B)], dtype=np.uint64)
        assert (got == exp).all(), hex(int(x))


# ---------------------------------------------------------------------------
# LSH recall / precision vs brute force
# ---------------------------------------------------------------------------

def _synth_docs(n_base: int = 40, n_dups: int = 30, seed: int = 13):
    """Word docs with controlled near-duplicates: each dup copies a base
    doc and substitutes a few words -> high 3-gram Jaccard pairs."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    ids, texts = [], []
    for i in range(n_base):
        words = [vocab[j] for j in rng.integers(0, len(vocab), size=60)]
        ids.append(i)
        texts.append(" ".join(words))
    for d in range(n_dups):
        src = int(rng.integers(0, n_base))
        words = texts[src].split()
        for _ in range(int(rng.integers(0, 4))):  # 0-3 substitutions
            words[int(rng.integers(0, len(words)))] = \
                vocab[int(rng.integers(0, len(vocab)))]
        ids.append(n_base + d)
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def _lsh_candidates(t: pa.Table) -> set[tuple[int, int]]:
    bands = dd.minhash_bands(t)
    import pandas as pd

    df = bands.to_pandas()
    out = set()
    for _, grp in df.groupby(["band", "key"]):
        ids = sorted(grp.doc_id.tolist())
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out.add((ids[i], ids[j]))
    return out


def test_batch_shingle_sets_parity():
    """The vectorized batch shingle path must produce exactly the
    scalar per-doc shingle-hash sets, including the short-row (<n
    tokens), empty, punctuation-only, and mixed-case edge cases."""
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",                        # no tokens -> no shingles
        "only two",                # short row -> one whole-join shingle
        "ONE",                     # single token
        "a b a b a b a b",         # repeated trigrams -> distinct set
        "...!!!   ",               # punctuation only -> no tokens
        "Tabs\tand\nnewlines separate tokens 42 x9",
        "word " * 500,             # one long degenerate row
    ]
    t = pa.table({"text": pa.array(texts)})
    rows, sh, sizes = dd.batch_shingle_sets(t)
    got = {r: set() for r in range(len(texts))}
    for r, h in zip(rows.tolist(), sh.tolist()):
        got[r].add(h)
    for r, text in enumerate(texts):
        exp = set(dd.shingle_hashes(text).tolist())
        assert got[r] == exp, (r, text[:40])
        assert sizes[r] == len(exp)


def test_batch_signatures_parity():
    """batch_signatures == per-row minhash_signature(shingle_hashes)
    across a synthetic near-dup corpus plus edge rows, for several
    chunking boundaries (the reduceat windows)."""
    t = _synth_docs(n_base=12, n_dups=8)
    extra = pa.table({
        "doc_id": pa.array([100, 101, 102], type=pa.int64()),
        "text": pa.array(["", "one two", "z " * 300]),
    })
    t = pa.concat_tables([t, extra])
    got = dd.batch_signatures(t)
    for i, text in enumerate(t["text"].to_pylist()):
        exp = dd.minhash_signature(dd.shingle_hashes(text))
        assert (got[i] == exp).all(), i


def test_perm_into_parity():
    """The in-place scratch evaluation must be bit-identical to the
    allocating spec (_perm_matrix), including values that hit the
    conditional-subtract boundary (multiples of p and near-p folds)."""
    p = (1 << 61) - 1
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        np.array([0, 1, p - 1, p, p + 1, 2 * p, 3 * p,
                  (1 << 64) - 1, 1 << 63, (1 << 62) + 5],
                 dtype=np.uint64),
        rng.integers(0, 1 << 64, size=3000, dtype=np.uint64),
    ])
    ref = dd._perm_matrix(xs)
    out = np.empty((len(xs), dd.N_PERM), dtype=np.uint64)
    got = dd._perm_into(xs, out)
    assert (ref == got).all()


def test_minhash_lsh_recall_and_precision():
    t = _synth_docs()
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    # brute-force exact Jaccard ground truth
    truth = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter, union = dd.jaccard(texts[i], texts[j])
            if union:
                truth[(ids[i], ids[j])] = inter / union
    high = {p for p, s in truth.items() if s >= 0.6}
    assert len(high) >= 20  # the corpus actually contains near-dups
    cand = _lsh_candidates(t)
    # analytic recall at s=0.6 with b=32,r=2 is 1-(1-0.36)^32 > 0.999993;
    # with ~30 true pairs P(any miss) < 1e-3 -> assert total recall
    missed = high - cand
    assert not missed, f"LSH missed {len(missed)} of {len(high)} pairs"
    # precision side: the exact verifier keeps only pairs >= threshold
    verified = dd._verify_joined(
        pa.table({
            "doc_a": pa.array([a for a, _ in sorted(cand)], type=pa.int64()),
            "doc_b": pa.array([b for _, b in sorted(cand)], type=pa.int64()),
            "text_a": pa.array([texts[a] for a, _ in sorted(cand)]),
            "text_b": pa.array([texts[b] for _, b in sorted(cand)]),
        }), threshold_ppm=600_000)
    got = set(zip(verified["doc_a"].to_pylist(), verified["doc_b"].to_pylist()))
    exp = {p for p, s in truth.items() if s >= 0.6 and p in cand}
    assert got == exp
    for ppm, (a, b) in zip(verified["jaccard_ppm"].to_pylist(), sorted(got)):
        inter, union = dd.jaccard(texts[a], texts[b])
        assert ppm == inter * 1_000_000 // union


def test_verify_join_matches_broadcast(ray_session):
    """The hash-partitioned pairs⋈docs join and the broadcast verifier
    produce identical verified pairs on the real documents table."""
    import ray.data as rd

    docs_pq = os.path.join(SF_DIR, "documents.parquet")
    ds = rd.read_parquet(docs_pq, columns=["doc_id", "text"])
    a = dd.minhash_dedup_pairs(ds, threshold_ppm=500_000, verify="join") \
        .sort(["doc_a", "doc_b"]).to_pandas()
    ds2 = rd.read_parquet(docs_pq, columns=["doc_id", "text"])
    b = dd.minhash_dedup_pairs(ds2, docs_pq, threshold_ppm=500_000,
                               verify="broadcast") \
        .sort(["doc_a", "doc_b"]).to_pandas()
    assert a.values.tolist() == b.values.tolist()
    assert len(a) > 0  # the table actually contains near-dups


def test_ngram_jaccard_exact_vs_bruteforce(ray_session):
    """The inverted-index pipeline equals the all-pairs brute force —
    including empty docs, <3-token docs, exact dups, and a stop-shingle
    shared by many docs."""
    import ray.data as rd

    t = _synth_docs()
    ids = t["doc_id"].to_pylist() + [900, 901, 902, 903, 904]
    texts = t["text"].to_pylist() + [
        "", "one two", "one two", "common tail here", "common tail here x"]
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    thr = 500_000
    exp = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter, union = dd.jaccard(texts[i], texts[j])
            if union and inter * 1_000_000 >= thr * union:
                a, b = sorted((ids[i], ids[j]))
                exp[(a, b)] = inter * 1_000_000 // union
    assert len(exp) >= 20 and (900, 901) not in exp and (901, 902) in exp
    got_t = dd.ngram_jaccard_pairs(
        rd.from_arrow(t), threshold_ppm=thr).to_pandas()
    got = {(a, b): p for a, b, p in zip(got_t.doc_a, got_t.doc_b,
                                        got_t.jaccard_ppm)}
    assert got == exp


def test_ngram_jaccard_max_df_drops_stop_shingles():
    """posting_pairs with max_df skips postings longer than the cap."""
    part = pa.table({
        "doc_id": pa.array([1, 2, 3, 1, 2], type=pa.int64()),
        "sh": pa.array([7, 7, 7, 9, 9], type=pa.int64()),
        "size": pa.array([4, 4, 4, 4, 4], type=pa.int64()),
    })
    exact = dd.posting_pairs(part)
    assert exact.num_rows == 3  # (1,2) c=2, (1,3), (2,3)
    assert dict(zip(zip(exact["doc_a"].to_pylist(), exact["doc_b"].to_pylist()),
                    exact["c"].to_pylist())) == {(1, 2): 2, (1, 3): 1, (2, 3): 1}
    capped = dd.posting_pairs(part, max_df=2)
    assert dict(zip(zip(capped["doc_a"].to_pylist(), capped["doc_b"].to_pylist()),
                    capped["c"].to_pylist())) == {(1, 2): 1}


# ---------------------------------------------------------------------------
# band bucket cap
# ---------------------------------------------------------------------------

def test_band_group_pairs_cap():
    ids = pa.table({"doc_id": pa.array(list(range(10)), type=pa.int64())})
    full = dd.band_group_pairs(ids)
    assert full.num_rows == 45  # all pairs below the cap
    capped = dd.band_group_pairs(ids, max_bucket=5)
    assert capped.num_rows == 9  # chain: n-1 pairs
    a = capped["doc_a"].to_pylist()
    b = capped["doc_b"].to_pylist()
    assert a == list(range(9)) and b == list(range(1, 10))  # connected


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def _simhash_reference(text: str) -> str:
    """Per-token reference formulation (hash every occurrence)."""
    import hashlib

    toks = dd._WORD_RE.findall(text.lower())
    if not toks:
        return "0" * 16
    bitw = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    hs = np.array([int.from_bytes(
        hashlib.md5(w.encode()).digest()[:8], "big")
        for w in toks], dtype=np.uint64)
    votes = ((hs[:, None] & bitw[None, :]) != 0).sum(axis=0) * 2 - len(hs)
    val = np.uint64(0)
    for j in np.flatnonzero(votes > 0):
        val |= bitw[j]
    return format(int(val), "016x")


def test_simhash_reference_parity():
    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"]).slice(0, 60)
    extra = pa.table({
        "doc_id": pa.array(["e1", "e2", "e3"]),
        "text": pa.array(["", "one one one two", "Mixed CASE mixed case!"]),
    })
    for table in (t, extra):
        got = dd.simhash64(table)["simhash"].to_pylist()
        exp = [_simhash_reference(x) for x in table["text"].to_pylist()]
        assert got == exp


def test_simhash_hamming_locality():
    base = " ".join(f"tok{i}" for i in range(200))
    perturbed = base.replace("tok5 ", "tokX ").replace("tok100 ", "tokY ")
    rng = np.random.default_rng(3)
    unrelated = " ".join(f"z{int(v)}" for v in rng.integers(0, 10_000, 200))
    h = {s: dd.simhash64(pa.table({
        "doc_id": ["d"], "text": [s]}))["simhash"][0].as_py()
        for s in (base, perturbed, unrelated)}
    near, far = (bin(int(h[base], 16) ^ int(h[x], 16)).count("1")
                 for x in (perturbed, unrelated))
    assert near <= 10 < far


# ---------------------------------------------------------------------------
# ANN: IVF recall vs exact; blocked exact == broadcast exact
# ---------------------------------------------------------------------------

def test_ivf_recall_vs_bruteforce(ray_session):
    from warc_ray.pipelines import training as tr

    exact = tr.knn_topk(SF_DIR, n_queries=5, k=10).to_pandas()
    ivf = tr.knn_topk_ivf(SF_DIR, n_queries=5, k=10).to_pandas()
    assert set(ivf.query_id) == set(exact.query_id)
    recalls = []
    for qid in sorted(set(exact.query_id)):
        e = set(exact[exact.query_id == qid].vec_id)
        i = set(ivf[ivf.query_id == qid].vec_id)
        recalls.append(len(e & i) / len(e))
    # nprobe=4 of 16 clusters; empirical floor with margin for the
    # deterministic seed — guards against centroid/probe regressions
    assert np.mean(recalls) >= 0.5, recalls


def test_pq_recall_vs_bruteforce(ray_session):
    """q255 laws: PQ-ADC retrieval recalls a usable fraction of the
    exact top-k, is deterministic, and codes stay in [0, K)."""
    import pyarrow.parquet as _pq

    from warc_ray.pipelines import training as tr
    from warc_ray.stages import similarity as sim

    exact = tr.knn_topk(SF_DIR, n_queries=5, k=10).to_pandas()
    run1 = tr.pq_retrieval(SF_DIR, n_queries=5, k=10).to_pandas()
    run2 = tr.pq_retrieval(SF_DIR, n_queries=5, k=10).to_pandas()
    assert run1.equals(run2)                      # determinism
    assert set(run1.query_id) == set(exact.query_id)
    recalls = []
    for qid in sorted(set(exact.query_id)):
        e = set(exact[exact.query_id == qid].vec_id)
        p = set(run1[run1.query_id == qid].vec_id)
        recalls.append(len(e & p) / len(e))
    # M=16 subspaces × K=256 codes on 64-dim vectors (16× compressed
    # vs float32) + in-block exact refine of the 4k-deep ADC shortlist
    # (round-4): empirical recall 1.0 on this near-orthogonal
    # synthetic corpus (was 0.74 pure-ADC); floor with margin for the
    # deterministic seed — round-3 VERDICT item 8 asked for ≥0.7
    assert np.mean(recalls) >= 0.9, recalls

    t = _pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    books = sim.pq_train(mat[:256], m_sub=8, k_codes=16)
    codes = sim.pq_encode(mat[:64], books)
    assert codes.shape == (64, 8)
    assert codes.max() < 16                       # code-range law


def test_blocked_neardup_matches_broadcast(ray_session):
    import ray.data as rd

    from warc_ray.stages import similarity as sim

    emb_pq = os.path.join(SF_DIR, "embeddings.parquet")
    got = sim.neardup_pairs_blocked(
        rd.read_parquet(emb_pq), threshold=0.4, n_blocks=4) \
        .sort(["vec_a", "vec_b"]).to_pandas()
    t = pq.read_table(emb_pq)
    ids = np.array(t["vec_id"].to_pylist())
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ref = rd.read_parquet(emb_pq).map_batches(
        sim.NearDupPairs, fn_constructor_args=(ids, mat, 0.4),
        batch_format="pyarrow", concurrency=2) \
        .sort(["vec_a", "vec_b"]).to_pandas()
    assert got.values.tolist() == ref.values.tolist()
    assert len(got) > 0


# ---------------------------------------------------------------------------
# multimodal frame sampling
# ---------------------------------------------------------------------------

def test_frame_sampler_deterministic_slices():
    from warc_ray.stages.multimodal import FrameSampler

    payload = bytes(range(256)) * 4  # 1024 bytes
    batch = pa.table({
        "media_id": ["v1", "i1", "v2"],
        "media_type": ["video", "image", "video"],
        "payload": pa.array([payload, payload, b"tiny"],
                            type=pa.large_binary()),
    })
    out = FrameSampler(max_frames=4, frame_bytes=64)(batch)
    d = out.to_pydict()
    # images are skipped; videos get deterministic byte-slice frames
    assert set(d["media_id"]) == {"v1", "v2"}
    v1 = [(i, f) for m, i, f in zip(d["media_id"], d["frame_idx"], d["frame"])
          if m == "v1"]
    assert [i for i, _ in v1] == [0, 1, 2, 3]
    step = len(payload) // 4
    for i, f in v1:
        assert bytes(f) == payload[i * step:i * step + 64]
    v2 = [f for m, _, f in zip(d["media_id"], d["frame_idx"], d["frame"])
          if m == "v2"]
    assert v2 == [b"tiny"]  # short payload -> one truncated frame


def test_frame_samples_query(ray_session):
    from warc_ray.pipelines.training import frame_samples

    t = frame_samples(SF_DIR).to_pandas()
    assert len(t) > 0
    assert (t.n_frames >= 1).all() and (t.n_frames <= 4).all()
    assert (t.frame_bytes > 0).all()
    # deterministic: repeat run produces identical results (sorted —
    # block arrival order varies with preserve_order off)
    t2 = frame_samples(SF_DIR).to_pandas()
    t = t.sort_values("media_id").reset_index(drop=True)
    t2 = t2.sort_values("media_id").reset_index(drop=True)
    assert t.values.tolist() == t2.values.tolist()


def test_decode_media_features_deterministic():
    from warc_ray.stages.multimodal import (DecodeMediaFeatures,
                                            FEATURE_SCHEMA, _fake_decode)

    payloads = [b"\x89PNG" + bytes(range(100)), b"", b"x" * 2048]
    batch = pa.table({
        "media_id": ["m1", "m2", "m3"],
        "url": ["u1", "u2", "u3"],
        "media_type": ["image", "image", "video"],
        "payload": pa.array(payloads, type=pa.large_binary()),
    })
    out = DecodeMediaFeatures()(batch)
    assert out.schema == FEATURE_SCHEMA
    d = out.to_pydict()
    assert d["n_bytes"] == [len(p) for p in payloads]
    # stage dims == the documented stub decoder's dims
    for i, p in enumerate(payloads):
        w, h = _fake_decode(p)
        assert (d["width"][i], d["height"][i]) == (w, h)
    assert d["n_frames"] == [1, 1, 1 + 2048 // 1024]
    # features are L2-normalized 16-dim vectors (zero vector for empty)
    for i, feat in enumerate(d["feature"]):
        assert len(feat) == 16
        n = float(np.linalg.norm(feat))
        assert abs(n - (0.0 if not payloads[i] else 1.0)) < 1e-5
    # deterministic across instances (actor restarts)
    again = DecodeMediaFeatures()(batch)
    assert again.equals(out)


def test_decode_media_features_empty_and_trailing_rows():
    """Edge cases of the buffer-vectorized decode: empty payloads in
    the middle and at the END of the batch (trailing row boundaries
    fall outside the values buffer)."""
    from warc_ray.stages.multimodal import DecodeMediaFeatures, _fake_decode

    payloads = [b"", b"abc" * 100, b"", b""]
    batch = pa.table({
        "media_id": ["m0", "m1", "m2", "m3"],
        "url": ["u0", "u1", "u2", "u3"],
        "media_type": ["image", "video", "image", "video"],
        "payload": pa.array(payloads, type=pa.large_binary()),
    })
    out = DecodeMediaFeatures()(batch).to_pydict()
    assert out["n_bytes"] == [0, 300, 0, 0]
    for i, p in enumerate(payloads):
        assert (out["width"][i], out["height"][i]) == _fake_decode(p)
    # empty rows get the zero feature vector; non-empty are L2-normed
    assert all(v == 0.0 for v in out["feature"][0])
    assert abs(sum(v * v for v in out["feature"][1]) - 1.0) < 1e-5
    # sliced batches (non-zero Arrow offset) decode identically
    sliced = DecodeMediaFeatures()(batch.slice(1, 3)).to_pydict()
    assert sliced["n_bytes"] == [300, 0, 0]
    assert sliced["width"] == out["width"][1:]


def test_resize_media_stage():
    import hashlib

    import numpy as np

    from warc_ray.stages.multimodal import ResizeMedia, _fake_decode

    payloads = [b"\x89PNG" + bytes(range(200)) * 40,   # 8KB image
                b"tiny-img",                            # shorter than target
                b"v" * 4096]                            # video: filtered out
    batch = pa.table({
        "media_id": ["i1", "i2", "v1"],
        "media_type": ["image", "image", "video"],
        "payload": pa.array(payloads, type=pa.large_binary()),
    })
    out = ResizeMedia(box_w=32, box_h=16)(batch)
    d = out.to_pydict()
    assert d["media_id"] == ["i1", "i2"]
    for k in range(2):
        sw, sh = _fake_decode(payloads[k])
        assert (d["src_width"][k], d["src_height"][k]) == (sw, sh)
        tw, th = d["width"][k], d["height"][k]
        # fits the box, binding side exact, aspect preserved within floor
        assert tw <= 32 and th <= 16 and (tw == 32 or th == 16)
        if th == 16:
            assert tw == max(1, sw * 16 // sh)
        # payload sized like a real resize (capped by the source bytes)
        expect_len = min(tw * th, len(payloads[k]))
        assert len(d["payload"][k]) == expect_len
        # strided downsample reference (per-row formulation)
        src = payloads[k]
        ref = bytes(src[j * len(src) // expect_len] for j in range(expect_len))
        assert bytes(d["payload"][k]) == ref
    # deterministic + sliced-batch safe
    out2 = ResizeMedia(box_w=32, box_h=16)(batch.slice(0, 2))
    assert out2.to_pydict()["payload"] == d["payload"][:2]
    # empty input
    empty = ResizeMedia()(batch.slice(0, 0))
    assert empty.num_rows == 0


def test_media_resize_query(ray_session):
    from warc_ray.pipelines.training import media_resize

    t = media_resize(SF_DIR).to_pandas()
    assert len(t) > 0
    assert (t.width <= 64).all() and (t.height <= 64).all()
    assert ((t.width == 64) | (t.height == 64)).all()
    assert (t.out_bytes > 0).all()
    t2 = media_resize(SF_DIR).to_pandas()
    t = t.sort_values("media_id").reset_index(drop=True)
    t2 = t2.sort_values("media_id").reset_index(drop=True)
    assert t.values.tolist() == t2.values.tolist()


def test_audio_features_reference_parity():
    """AudioFeatures (stub s16le 'demux') vs a per-row pure-Python
    reference: RMS, zero crossings, rate/duration, amplitude histogram.
    Covers empty, 1-byte and odd-length payloads and sliced batches."""
    import math
    import struct

    from warc_ray.stages.multimodal import AudioFeatures

    rng = np.random.default_rng(3)
    payloads = [
        bytes(rng.integers(0, 256, size=2048, dtype=np.uint8)),
        b"",                       # no samples
        b"\x07",                   # 1 byte: no samples, rate from header
        bytes(rng.integers(0, 256, size=333, dtype=np.uint8)),  # odd len
        b"\x00\x00" * 64,          # silence: rms 0, zc 0
    ]
    batch = pa.table({
        "media_id": [f"a{i}" for i in range(len(payloads))],
        "media_type": ["video", "audio", "video", "audio", "video"],
        "payload": pa.array(payloads, type=pa.large_binary()),
    })
    out = AudioFeatures()(batch).to_pydict()

    def ref(p: bytes):
        ns = len(p) // 2
        samples = struct.unpack(f"<{ns}h", p[:ns * 2])
        rms = (math.floor(1000.0 * math.sqrt(sum(s * s for s in samples) / ns))
               if ns else 0)
        zc = sum(1 for i in range(1, ns)
                 if (samples[i] >= 0) != (samples[i - 1] >= 0))
        rate = 8000 << (p[0] % 3) if p else 8000
        hist = [0] * 8
        for s in samples:
            hist[min(abs(s) >> 12, 7)] += 1
        n = math.sqrt(sum(v * v for v in hist)) or 1.0
        return ns, rate, ns * 1000 // rate, rms, zc, [v / n for v in hist]

    for i, p in enumerate(payloads):
        ns, rate, dur, rms, zc, hist = ref(p)
        assert out["n_samples"][i] == ns
        assert out["sample_rate"][i] == rate
        assert out["duration_ms"][i] == dur
        assert out["rms_milli"][i] == rms, (i, out["rms_milli"][i], rms)
        assert out["zero_crossings"][i] == zc
        np.testing.assert_allclose(out["feature"][i], hist, atol=1e-6)
    # sliced batches (non-zero Arrow offset) are identical
    sliced = AudioFeatures()(batch.slice(2, 3)).to_pydict()
    assert sliced["rms_milli"] == out["rms_milli"][2:]
    assert sliced["zero_crossings"] == out["zero_crossings"][2:]
    # empty input
    assert AudioFeatures()(batch.slice(0, 0)).num_rows == 0


def test_audio_features_query(ray_session):
    from warc_ray.pipelines.training import audio_features

    t = audio_features(SF_DIR).to_pandas()
    assert len(t) > 0
    assert (t.n_samples == t.n_bytes // 2).all()
    assert t.sample_rate.isin([8000, 16000, 32000]).all()
    t2 = audio_features(SF_DIR).to_pandas()
    # block arrival order is not deterministic (preserve_order is off);
    # value determinism is per media_id
    t = t.sort_values("media_id").reset_index(drop=True)
    t2 = t2.sort_values("media_id").reset_index(drop=True)
    assert t.values.tolist() == t2.values.tolist()


# ---------------------------------------------------------------------------
# q47 sign-LSH embedding near-dup
# ---------------------------------------------------------------------------

def _lsh_sig_reference(vec, planes, quant=1_000_000):
    """Per-row reference: quantize, sign of integer dots, 4-bit keys."""
    q = [int(np.floor(float(np.float64(x)) * quant + 0.5)) for x in vec]
    keys = []
    for band in range(16):
        key = 0
        for r in range(4):
            j = band * 4 + r
            d = sum(qk * int(p) for qk, p in zip(q, planes[j]))
            if d >= 0:
                key |= 1 << r
        keys.append(key)
    return keys


def test_lsh_band_rows_reference_parity():
    from warc_ray.stages import similarity as sim

    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet")).slice(0, 40)
    out = sim.lsh_band_rows(t)
    planes = sim.lsh_planes(64)
    got = {}
    for band, key, vid in zip(out["band"].to_pylist(),
                              out["key"].to_pylist(),
                              out["doc_id"].to_pylist()):
        got.setdefault(vid, {})[band] = key & 0xF
    embs = t["embedding"].to_pylist()
    ids = t["vec_id"].to_pylist()
    for vid, vec in zip(ids, embs):
        ref = _lsh_sig_reference(vec, planes)
        assert [got[vid][b] for b in range(16)] == ref


def test_lsh_neardup_recall_and_subset(ray_session):
    """LSH pairs ⊆ exact pairs; recall >= 0.9 at this corpus (b=16,
    r=4: 1-(1-p^4)^16 ≈ 0.94 at s=0.4)."""
    import ray.data as rd

    from warc_ray.stages import similarity as sim

    emb_pq = os.path.join(SF_DIR, "embeddings.parquet")
    exact = sim.neardup_pairs_blocked(
        rd.read_parquet(emb_pq), threshold=0.4, n_blocks=4).to_pandas()
    lsh = sim.lsh_neardup_pairs(rd.read_parquet(emb_pq)).to_pandas()
    e = set(map(tuple, exact.values.tolist()))
    l = set(map(tuple, lsh.values.tolist()))
    assert l <= e
    assert len(e) > 0
    assert len(l) / len(e) >= 0.9
    # determinism
    lsh2 = sim.lsh_neardup_pairs(rd.read_parquet(emb_pq)).to_pandas()
    assert l == set(map(tuple, lsh2.values.tolist()))


def test_embedding_quantize(ray_session):
    """q48: codes are valid int8 hex, reconstruction error is within the
    per-dim half-step bound, dequantized vectors are close, and the
    pipeline is deterministic."""
    import ray.data as rd

    from warc_ray.stages import similarity as sim

    emb_pq = os.path.join(SF_DIR, "embeddings.parquet")
    t = sim.quantize_embeddings(rd.read_parquet(emb_pq)) \
        .sort("vec_id").to_pandas()
    raw = pq.read_table(emb_pq)
    assert len(t) == raw.num_rows
    X = sim._fixed_point(np.array(raw["embedding"].to_pylist(),
                                  dtype=np.float64))
    mn, mx = X.min(axis=0), X.max(axis=0)
    rng = mx - mn
    # error bound: per dim |x'*255 - q*rng| <= rng/2 + 1 (half-up step)
    bound = ((rng // 2 + 1) ** 2).sum()
    assert (t.err_scaled >= 0).all() and (t.err_scaled <= bound).all()
    # codes decode to within one step of the source values
    ids = raw["vec_id"].to_pylist()
    order = np.argsort(ids)
    for row_i, (_, row) in zip(order[:50], t.iloc[:50].iterrows()):
        q = np.frombuffer(bytes.fromhex(row.code_hex), dtype=np.uint8) \
            .astype(np.int64)
        xhat = mn + np.where(rng == 0, 0, q * rng // 255)
        assert (np.abs(xhat - X[row_i]) <= rng // 2 + rng // 255 + 2).all()
    t2 = sim.quantize_embeddings(rd.read_parquet(emb_pq)) \
        .sort("vec_id").to_pandas()
    assert t.values.tolist() == t2.values.tolist()


def test_lsh_bucket_verify_blocking_parity():
    """The row-blocked per-run matmul in lsh_bucket_verify emits exactly
    the full-matrix upper-triangle pairs, including a run larger than
    the 1024-row block and multi-run partitions."""
    from warc_ray.stages import similarity as sim

    rng = np.random.default_rng(5)
    # one run of 1500 near-identical vectors (crosses the block size),
    # one run of 7, one singleton
    base = rng.normal(size=8)
    rows = []
    for i in range(1500):
        rows.append((0, 1, i, base + rng.normal(scale=0.01, size=8)))
    for i in range(7):
        rows.append((1, 9, 2000 + i, rng.normal(size=8)))
    rows.append((2, 4, 9999, rng.normal(size=8)))
    band = pa.array([r[0] for r in rows], type=pa.int32())
    key = pa.array([r[1] for r in rows], type=pa.int64())
    ids = pa.array([r[2] for r in rows], type=pa.int64())
    m = np.array([r[3] for r in rows], dtype="<f4")
    offs = np.arange(0, (len(rows) + 1) * 32, 32, dtype=np.int32)
    emb = pa.Array.from_buffers(
        pa.binary(), len(rows),
        [None, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(m))])
    part = pa.table({"band": band, "key": key, "doc_id": ids, "emb": emb})
    t = 0.9
    got = set(zip(*[sim.lsh_bucket_verify(part, t)[c].to_pylist()
                    for c in ("vec_a", "vec_b")]))
    # reference: full matrices per run
    mm = sim.normalize_rows(m.astype(np.float64))
    exp = set()
    for sel in (range(1500), range(1500, 1507)):
        idx = list(sel)
        sub = mm[idx]
        sims = sub @ sub.T
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                if sims[i, j] >= t:
                    a, b = ids[idx[i]].as_py(), ids[idx[j]].as_py()
                    exp.add((min(a, b), max(a, b)))
    assert got == exp
    assert len(got) > 1000  # the big run actually produced dense pairs


def test_semdedup_laws(ray_session):
    """q60 SemDeDup: (1) deterministic across block partitioning,
    (2) no within-cluster near-dup pair survives in the kept set,
    (3) most exact near-dup pairs (q23 brute force) are resolved —
    cross-cluster misses are the documented approximation."""
    import ray.data as rd

    from warc_ray.pipelines import training as tr
    from warc_ray.stages import similarity as sim

    t = 0.4
    kept = tr.semdedup(SF_DIR, threshold=t).to_pandas()
    kept2 = tr.semdedup(SF_DIR, threshold=t).to_pandas()
    assert kept.values.tolist() == kept2.values.tolist()

    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    ids = emb["vec_id"].to_numpy(zero_copy_only=False)
    m = sim.normalize_rows(
        np.array(emb["embedding"].to_pylist(), dtype=np.float64))
    # recompute the pipeline's cluster assignment (seeded uniform
    # bottom-k-by-hash sample — the round-5 head-bias fix)
    sample = tr._seeded_sample_rows(
        os.path.join(SF_DIR, "embeddings.parquet"),
        tr.KMEANS_SAMPLE_ROWS, columns=["vec_id", "embedding"])
    cent = sim.kmeans_lite(
        np.array(sample["embedding"].to_pylist(), dtype=np.float64), 16)
    top = np.argsort(-(m @ sim.normalize_rows(cent).T), axis=1)[:, :3]

    kset = set(kept.vec_id)
    assert kset <= set(ids.tolist()) and len(kset) == len(kept)
    sims = m @ m.T
    iu, ju = np.nonzero(np.triu(sims >= t, k=1))
    exact_pairs = list(zip(ids[iu], ids[ju]))
    assert exact_pairs, "test corpus must contain near-dup pairs"
    same_cl = [(a, b) for (a, b), i, j in zip(exact_pairs, iu, ju)
               if set(top[i]) & set(top[j])]
    # law 2: a same-cluster pair never survives whole
    for a, b in same_cl:
        assert not (a in kset and b in kset), (a, b)
    # law 3: the clustered path resolves most exact pairs (near-dups
    # are near-identical vectors, so they co-cluster almost surely)
    resolved = sum(1 for a, b in exact_pairs
                   if not (a in kset and b in kset))
    assert resolved / len(exact_pairs) >= 0.8, \
        (resolved, len(exact_pairs))


def test_minhash_prune_docs_parity(ray_session):
    """The Bloom-pruned attach path (the cluster-scale shape) returns
    the identical verified pair set as the streaming default."""
    import ray.data as rd

    docs = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                           columns=["doc_id", "text"])
    base = dd.minhash_dedup_pairs(docs, threshold_ppm=500_000) \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    docs2 = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                            columns=["doc_id", "text"])
    pruned = dd.minhash_dedup_pairs(docs2, threshold_ppm=500_000,
                                    prune_docs=True) \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert base.values.tolist() == pruned.values.tolist()
    assert len(base) > 0


def test_add_text_hash_rejects_null_text():
    """Null text must fail loud (the zero-copy buffer path would
    otherwise silently hash a null as sha1('') and dedup it against
    genuinely-empty documents)."""
    import pyarrow as pa
    import pytest

    from warc_ray.stages.dedup import add_text_hash

    t = pa.table({"doc_id": [1, 2], "text": ["a", None]})
    with pytest.raises(ValueError, match="null"):
        add_text_hash(t)


def test_seeded_sample_rows_laws(ray_session, tmp_path):
    """_seeded_sample_rows (round-5 head-bias fix): bottom-k-by-hash
    is (1) exactly n rows, (2) deterministic, (3) independent of table
    ORDER — the property a head sample lacks on sorted tables."""
    import pyarrow.parquet as pqw

    from warc_ray.pipelines import training as tr

    rng = np.random.default_rng(5)
    ids = np.arange(1000, dtype=np.int64)
    emb = rng.normal(size=(1000, 4))
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(emb.tolist())})
    p1 = str(tmp_path / "a.parquet")
    pqw.write_table(t, p1)
    # the same rows in a shuffled (e.g. sorted-by-quality) order
    perm = rng.permutation(1000)
    p2 = str(tmp_path / "b.parquet")
    pqw.write_table(t.take(pa.array(perm)), p2)

    s1 = tr._seeded_sample_rows(p1, 64, columns=["vec_id", "embedding"])
    s1b = tr._seeded_sample_rows(p1, 64, columns=["vec_id", "embedding"])
    s2 = tr._seeded_sample_rows(p2, 64, columns=["vec_id", "embedding"])
    assert s1.num_rows == 64
    assert s1.to_pydict() == s1b.to_pydict()          # deterministic
    assert s1.to_pydict() == s2.to_pydict()           # order-free
    # and it is NOT the head (the bias being fixed)
    assert sorted(s1["vec_id"].to_pylist()) != list(range(64))
