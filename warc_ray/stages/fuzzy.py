"""Fuzzy (edit-distance-1) similarity join — entity-resolution blocking.

The FastSS / deletion-neighborhood scheme (Bocek et al. 2007, "Fast
Similarity Search in Large Dictionaries"): every key emits itself plus
its ``len(key)`` single-character deletions as blocking variants; two
keys at Levenshtein distance ≤ 1 necessarily SHARE a variant string —

  * substitution at position i  → both deletions-at-i are equal,
  * insertion / deletion        → the shorter key itself equals one of
                                  the longer key's deletions,

so hashing rows to buckets by variant string makes candidate
generation COMPLETE: the verify step never recovers pairs the
blocking missed, it only rejects false candidates.  For distance-1
pairs the shared variant is unique (any second deletion position
still exposes the differing character), so pairs emerge exactly once
and no cross-bucket dedup exchange is needed — pinned by
``tests/test_fuzzy.py``.

Scale shape: the explode is ×(len+1) on the KEY column only (ids +
short strings — the fact table never moves), one hash exchange on the
variant string co-locates candidates, each bucket runs a vectorized
run-detection over sorted variants and a per-CANDIDATE exact verify
(candidates ≪ rows at real typo rates; the Python verify loop touches
only them, mirroring VerifyJaccard's candidate-only contract).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import bucket_exchange, hash64_strings


def is_lev1(a: str, b: str) -> bool:
    """Exact check: Levenshtein distance == 1."""
    if a == b:
        return False
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def deletion_variants(batch: pa.Table, key_col: str, id_col: str,
                      npart: int = 32) -> pa.Table:
    """Explode each row to its blocking variants: the key itself plus
    every single-character deletion, each routed by variant hash.
    Batch-local distinct on (variant, id) collapses the duplicate
    variants repeated characters produce ("aab" → "ab" twice)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    keys = batch[key_col].to_pylist()
    v_ids: list[int] = []
    v_keys: list[str] = []
    v_vars: list[str] = []
    for rid, k in zip(ids, keys):
        seen = {k}
        for i in range(len(k)):
            seen.add(k[:i] + k[i + 1:])
        for v in seen:
            v_ids.append(int(rid))
            v_keys.append(k)
            v_vars.append(v)
    t = pa.table({
        "variant": pa.array(v_vars, type=pa.string()),
        id_col: pa.array(v_ids, type=pa.int64()),
        key_col: pa.array(v_keys, type=pa.string()),
    })
    part = (hash64_strings(t["variant"]) % np.uint64(npart)).astype(np.int32)
    return t.append_column("part", pa.array(part))


def lev1_bucket_pairs(group: pa.Table, key_col: str, id_col: str,
                      max_bucket: int = 1024) -> pa.Table:
    """One variant-hash bucket → verified distance-1 pairs (a < b).

    Vectorized run detection over dictionary-encoded variants; the
    exact ``is_lev1`` verify runs per CANDIDATE only.  ``max_bucket``
    caps a degenerate variant's fan-out at the sorted-consecutive
    chain (connectivity preserved), like the LSH band expansion."""
    empty = pa.table({"a_id": pa.array([], type=pa.int64()),
                      "b_id": pa.array([], type=pa.int64())})
    if group.num_rows < 2:
        return empty
    codes = group["variant"].combine_chunks().dictionary_encode()
    vc = codes.indices.to_numpy(zero_copy_only=False)
    ids = group[id_col].to_numpy(zero_copy_only=False)
    keys = np.asarray(group[key_col].to_pylist(), dtype=object)
    order = np.lexsort((ids, vc))
    vc, ids, keys = vc[order], ids[order], keys[order]
    # distinct (variant, id): deletion variants of DIFFERENT source
    # rows may repeat inside one bucket after coalescing
    keep = np.ones(len(vc), dtype=bool)
    keep[1:] = (vc[1:] != vc[:-1]) | (ids[1:] != ids[:-1])
    vc, ids, keys = vc[keep], ids[keep], keys[keep]
    starts = np.flatnonzero(np.concatenate(
        ([True], vc[1:] != vc[:-1], [True])))
    a_out: list[int] = []
    b_out: list[int] = []
    seen: set[tuple[int, int]] = set()
    for s, e in zip(starts[:-1], starts[1:]):
        n = e - s
        if n < 2:
            continue
        if n > max_bucket:
            iu, ju = np.arange(n - 1), np.arange(1, n)
        else:
            iu, ju = np.triu_indices(n, k=1)
        for i, j in zip(iu, ju):
            ai, bj = int(ids[s + i]), int(ids[s + j])
            if ai > bj:
                ai, bj = bj, ai
            if (ai, bj) in seen:
                continue
            if is_lev1(str(keys[s + i]), str(keys[s + j])):
                seen.add((ai, bj))
                a_out.append(ai)
                b_out.append(bj)
    if not a_out:
        return empty
    return pa.table({"a_id": pa.array(a_out, type=pa.int64()),
                     "b_id": pa.array(b_out, type=pa.int64())})


def lev1_join(ds, key_col: str, id_col: str, npart: int = 32):
    """Self-join: all id pairs whose keys are at edit distance exactly
    1.  One hash exchange on the variant string; see module docstring
    for the completeness argument."""
    exploded = ds.map_batches(
        lambda b: deletion_variants(b, key_col, id_col, npart),
        batch_format="pyarrow")
    return bucket_exchange(
        exploded, lambda g: lev1_bucket_pairs(g, key_col, id_col))
