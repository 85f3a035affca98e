"""Mergeable distinct-count sketch: vectorized HyperLogLog.

The scale path for "distinct URLs per host" style questions where the
exact bucket exchange (stages/exchange.py) would still move one row per
distinct key: an HLL register array is a fixed 2^P bytes per group no
matter how many keys it absorbed, and merging is an element-wise max —
associative, commutative, idempotent, so partials compose across
batches, blocks, and nodes in any order.

Layout: one ``fixed_size_binary(2^P)`` cell per (group, batch) partial;
the bucket exchange co-locates a group's partials and one
``np.maximum.reduceat`` pass merges every group in the bucket at once.
P=12 → 4096 registers → σ ≈ 1.04/√4096 ≈ 1.6% relative error
(Flajolet et al. 2007, the analysis HyperLogLog ships with everywhere).

Accuracy + merge associativity are pinned by tests/test_sketch.py, and
since the md5-prefix-64 key hash + integer estimator the whole sketch
is ALSO SQL-reproducible: the q26 oracle recomputes registers and the
estimate bit-for-bit in DuckDB (HUGEINT arithmetic; only the rarely-hit
linear-counting branch uses a double ln, identical libm on this host).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .exchange import bucket_exchange, segment_bounds

P = 12
M = 1 << P
_ALPHA = 0.7213 / (1.0 + 1.079 / M)     # standard alpha_m for m >= 128
# the integer-estimator constant: round(1e9 * alpha_4096); the raw
# estimate is the single exact integer division
#   floor(ALPHA_PPB * M^2 * 2^53 / (10^9 * S)),  S = sum 2^(53 - M_j)
ALPHA_PPB = int(round(_ALPHA * 1_000_000_000))
_EST_NUM = ALPHA_PPB * M * M * (1 << 53)
_REST_BITS = 64 - P


def registers_for(hashes: np.ndarray, group_id: np.ndarray,
                  n_groups: int) -> np.ndarray:
    """(n_groups, M) uint8 register matrix from 64-bit key hashes.

    Fully vectorized: register index = top P bits, rho = leading-zero
    count of the remaining bits + 1, merged per (group, register) with
    one ``np.maximum.at``.
    """
    h = hashes.astype(np.uint64, copy=False)
    reg = (h >> np.uint64(_REST_BITS)).astype(np.int64)
    w = h & np.uint64((1 << _REST_BITS) - 1)
    rho = np.full(len(h), _REST_BITS + 1, dtype=np.uint8)
    nz = w > 0
    # w < 2^52 → exactly representable in float64, so floor(log2) is safe
    rho[nz] = (_REST_BITS - np.floor(np.log2(w[nz].astype(np.float64)))
               ).astype(np.uint8)
    out = np.zeros((n_groups, M), dtype=np.uint8)
    np.maximum.at(out.reshape(-1), group_id * M + reg, rho)
    return out


def merge_registers(stacked: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
    """Merge rows of an (n_partials, M) register matrix into one row per
    group; ``group_starts`` are the first-row offsets of each group in
    (sorted-by-group) row order.  One reduceat pass, no Python loop."""
    return np.maximum.reduceat(stacked, group_starts, axis=0)


def estimate(registers: np.ndarray) -> np.ndarray:
    """Cardinality estimates (int64) for an (n_groups, M) register
    matrix — raw HLL harmonic mean with the standard small-range
    (linear-counting) correction.

    Deterministic INTEGER spec (the q26 oracle reproduces it in SQL):
    S = sum_j 2^(53 - M_j) is exact (M_j <= 53), the raw estimate is
    one floor division of the ALPHA_PPB numerator, and the correction
    branch condition (raw <= 2.5*M and zero registers exist) is an
    integer compare.  Only the linear-counting value itself uses a
    double ln (same libm call in numpy and DuckDB)."""
    n = registers.shape[0]
    out = np.empty(n, dtype=np.int64)
    for g in range(n):
        hist = np.bincount(registers[g], minlength=_REST_BITS + 2)
        # S <= M * 2^53 = 2^65 — Python ints over the 54-entry histogram
        s = sum(int(c) << (_REST_BITS + 1 - r)
                for r, c in enumerate(hist.tolist()) if c)
        raw = _EST_NUM // (s * 1_000_000_000)
        zeros = int(hist[0])
        if raw * 2 <= 5 * M and zeros > 0:
            out[g] = int(np.floor(M * np.log(M / zeros) + 0.5))
        else:
            out[g] = raw
    return out


def registers_to_binary(regs: np.ndarray) -> pa.Array:
    """(n, M) uint8 → fixed_size_binary(M) column (one cell per group)."""
    n = regs.shape[0]
    return pa.Array.from_buffers(
        pa.binary(M), n, [None, pa.py_buffer(np.ascontiguousarray(regs))])


def binary_to_registers(col) -> np.ndarray:
    """fixed_size_binary(M) column → (n, M) uint8 matrix (zero-copy)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    buf = arr.buffers()[1]
    return np.frombuffer(buf, dtype=np.uint8,
                         count=len(arr) * M,
                         offset=arr.offset * M).reshape(len(arr), M)


def md5_hash64_strings(col) -> np.ndarray:
    """md5-prefix-64 per string — the SQL-reproducible key hash (same
    big-endian md5 prefix as dedup._hash64_str), computed by the
    batched numpy MD5 (md5vec: ~0.7 µs/key, no per-row Python — the
    round-2 generator pass was ~1.4 µs/key)."""
    from .md5vec import md5_prefix64
    return md5_prefix64(col)


def hll_distinct(ds, key_col: str, group_col: str, npart: int = 16,
                 est_name: str = "est_distinct", key_hash: str = "md5"):
    """Distributed distinct-count-by-group over a Dataset.

    Per-batch partial: hash keys, fold into one register row per group
    in the batch, ship ``(group, fixed_size_binary(4096))``.  Exchange
    on group hash, then one reduceat merge + estimate per bucket.  The
    shuffle volume is 4 KB per (group, batch) regardless of key
    cardinality — the whole point of the sketch at 100 TB.

    ``key_hash="md5"`` (default, what q26 runs) is SQL-reproducible so
    the DuckDB oracle value-matches; ``"fast"`` swaps in the vectorized
    polars hash (~45× cheaper per key) for production pipelines that
    don't need an SQL twin — every sketch law (merge associativity,
    accuracy bound) is hash-independent and pytest covers both.
    """
    from .exchange import hash64_strings

    keyfn = md5_hash64_strings if key_hash == "md5" else hash64_strings

    def partial(b: pa.Table) -> pa.Table:
        groups = b[group_col].combine_chunks() \
            if isinstance(b[group_col], pa.ChunkedArray) else b[group_col]
        codes = groups.dictionary_encode()
        gid = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = codes.dictionary
        h = keyfn(b[key_col])
        regs = registers_for(h, gid, len(uniq))
        part = (hash64_strings(uniq) % np.uint64(npart)).astype(np.int32)
        return pa.table({group_col: uniq,
                         "regs": registers_to_binary(regs),
                         "part": pa.array(part)})

    def combine(g: pa.Table) -> pa.Table:
        groups = g[group_col].combine_chunks()
        order = pa.compute.sort_indices(groups)
        o = order.to_numpy(zero_copy_only=False)
        sorted_groups = groups.take(order)
        stacked = binary_to_registers(g["regs"])[o]
        keys = sorted_groups.to_numpy(zero_copy_only=False)
        new = np.empty(len(keys), dtype=bool)
        if len(keys):
            new[0] = True
            new[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        merged = merge_registers(stacked, starts)
        return pa.table({
            group_col: sorted_groups.take(pa.array(starts, type=pa.int64())),
            est_name: pa.array(estimate(merged)),
        })

    return bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), combine)


# ---------------------------------------------------------------------------
# Mergeable Bloom filter (join pruning / membership broadcast)
# ---------------------------------------------------------------------------
# The build side of a semi-join collapses to a FIXED-size bit array no
# matter how many keys it holds: per-batch partials are plain byte
# arrays, the merge is a bitwise OR (associative, commutative,
# idempotent — composes across batches/blocks/nodes in any order), and
# the merged filter is broadcast once (ray.put) to the probe scan,
# which drops non-members before any shuffle.  False positives are
# removed by an exact confirming exchange, so results stay value-exact
# (Bloom 1970; the classic join-pruning sideways information pass).

BLOOM_BITS = 1 << 20           # 128 KiB — FPR ≈ (1-e^(-2n/m))^2, <1% @ n=65k
_BLOOM_MASK = np.uint64(BLOOM_BITS - 1)
_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _bloom_positions(keys: np.ndarray,
                     nbits: int = BLOOM_BITS) -> tuple[np.ndarray,
                                                       np.ndarray]:
    mask = np.uint64(nbits - 1)        # nbits must be a power of two
    k = keys.astype(np.uint64, copy=False)
    h1 = k * _MIX1
    h1 ^= h1 >> np.uint64(29)
    h2 = (k ^ (k >> np.uint64(33))) * _MIX2
    h2 ^= h2 >> np.uint64(31)
    return (h1 & mask).astype(np.int64), (h2 & mask).astype(np.int64)


def bloom_partial(keys: np.ndarray,
                  nbits: int = BLOOM_BITS) -> np.ndarray:
    """uint8[nbits/8] partial with this batch's keys set."""
    bits = np.zeros(nbits >> 3, dtype=np.uint8)
    for pos in _bloom_positions(keys, nbits):
        np.bitwise_or.at(bits, pos >> 3,
                         np.left_shift(np.uint8(1), pos & 7).astype(np.uint8))
    return bits


def bloom_merge(partials: list[np.ndarray]) -> np.ndarray:
    return np.bitwise_or.reduce(np.stack(partials), axis=0)


def bloom_contains(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized membership probe (may return false positives); the
    filter size is inferred from the byte array (power-of-two bits)."""
    nbits = len(bits) << 3
    p1, p2 = _bloom_positions(keys, nbits)
    hit1 = (bits[p1 >> 3] >> (p1 & 7).astype(np.uint8)) & 1
    hit2 = (bits[p2 >> 3] >> (p2 & 7).astype(np.uint8)) & 1
    return (hit1 & hit2).astype(bool)


# ---------------------------------------------------------------------------
# Bottom-k distinct sketch (KMV): the ORACLE-EXACT complement to HLL
# ---------------------------------------------------------------------------
#
# Keeps the k smallest distinct 64-bit hashes per group.  Mergeable
# (global bottom-k = bottom-k of the union of per-part bottom-k sets —
# every global winner survives its part's cut), and the estimator
# ((k-1) * 2^64 // h_(k), integer floor) is a pure function of the
# hash values — so with a hash both engines can compute (md5 prefix)
# the ESTIMATE is DuckDB-value-exact, unlike HLL's register estimate.
# Error ~ 1/sqrt(k-2) relative (Bar-Yossef et al. 2002 / KMV).

BOTTOMK_K = 16


def md5_prefix64(texts) -> np.ndarray:
    """First 8 md5 bytes of each utf-8 string as uint64 (big-endian —
    equal to the integer value of the first 16 hex chars, which is the
    form a SQL oracle reproduces from ``md5(text)``).  Batched numpy
    MD5 (md5vec) — the round-2 per-row hashlib loop is gone."""
    from .md5vec import md5_prefix64 as _vec
    return _vec(texts)


def bottomk_partial(group_codes: np.ndarray, hashes: np.ndarray,
                    k: int = BOTTOMK_K) -> np.ndarray:
    """Per-group bottom-k of DISTINCT hashes: returns the row indices
    (into the inputs) that survive.  One lexsort + boundary scan."""
    order = np.lexsort((hashes, group_codes))
    g = group_codes[order]
    h = hashes[order]
    new_group = np.empty(len(g), dtype=bool)
    if len(g):
        new_group[0] = True
        np.not_equal(g[1:], g[:-1], out=new_group[1:])
    # drop duplicate hashes within a group (sorted ⇒ adjacent)
    first = new_group.copy()
    if len(g) > 1:
        first[1:] |= h[1:] != h[:-1]
    order = order[first]
    g = g[first]
    # rank within group (after dedup), keep rank < k
    _, rank = segment_bounds(g)
    return order[rank < k]


def bottomk_estimate(m: int, kth_hash: int, k: int = BOTTOMK_K) -> int:
    """Distinct-count estimate from a merged bottom-k set of size m
    whose largest kept hash is ``kth_hash``: exact m when the set never
    filled, else the KMV floor-integer estimator (bit-reproducible in
    any engine with 128-bit integer division)."""
    if m < k:
        return m
    return ((k - 1) << 64) // max(int(kth_hash), 1)


# ---------------------------------------------------------------------------
# Count-min sketch (frequency estimation / heavy hitters)
# ---------------------------------------------------------------------------
#
# The frequency complement to HLL's distinct count: a (D x W) int64
# counter grid absorbs any number of (key, count) increments into a
# FIXED 256 KiB cell, merging by element-wise sum (associative,
# commutative — partials compose across batches/blocks/nodes in any
# order), and answers point queries with min over D counters
# (Cormode & Muthukrishnan 2005).  Estimates never under-count; the
# over-count is bounded by e*N/W per row w.p. 1-e^-D over the hash
# draw.  The D row hashes are the four big-endian 32-bit chunks of ONE
# md5 digest per key — one hash call per key, and a SQL oracle folds
# the same hex chunks to reproduce every counter and estimate
# bit-for-bit (q49).

CMS_D = 4
CMS_W = 8192


def md5_chunks_u32(texts) -> np.ndarray:
    """(n, 4) uint32 big-endian 32-bit chunks of each utf-8 string's
    md5 digest — chunk r = hex chars [8r, 8r+8) of ``md5(text)`` read
    as an integer, which is what the SQL twin folds.  Batched numpy
    MD5 (md5vec) — no per-key hashlib call."""
    from .md5vec import md5_chunks_u32 as _vec
    return _vec(texts)


def cms_partial(chunks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(CMS_D, CMS_W) int64 counter partial from per-key md5 chunks and
    multiplicities.  One scatter-add per row — no Python per key."""
    out = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for r in range(CMS_D):
        out[r] = np.bincount(chunks[:, r] % np.uint32(CMS_W),
                             weights=counts, minlength=CMS_W
                             ).astype(np.int64)
    return out


def cms_estimate(sketch: np.ndarray, chunks: np.ndarray) -> np.ndarray:
    """Point-query estimates (int64): min over the D row counters each
    key hashes to.  Never under-counts."""
    est = sketch[0][chunks[:, 0] % np.uint32(CMS_W)]
    for r in range(1, CMS_D):
        est = np.minimum(est, sketch[r][chunks[:, r] % np.uint32(CMS_W)])
    return est


def cms_freq(ds, key_col: str, probe_mod: int = 97,
             est_name: str = "est_refs", npart: int = 16):
    """Estimated occurrence count per key, for the deterministic
    1/probe_mod md5-hash sample of the key space, from ONE streaming
    scan — the fixed-size-sketch alternative to the exact per-key
    exchange (q51/q56) when key cardinality is too large to shuffle.

    Scale shape: the scan emits (a) one 256 KiB counter cell per block
    and (b) the batch-distinct sampled probe keys — never the key
    stream — so the materialized intermediate is sketch-cells +
    ~(1/probe_mod) of per-block distinct keys.  Cells fold driver-side
    into one sketch (streaming, one accumulator — same pattern as the
    q19 Bloom build; a tree-reduce exchange would cut driver bandwidth
    at extreme block counts), the merged sketch is broadcast
    (``ray.put``) to the probe rows, and one SMALL bucket exchange
    dedups probe keys (min over identical estimates).  Estimates never
    under-count; over-count ≤ e·N/W per row w.p. 1-e^-D.
    """
    import ray
    import pyarrow.compute as pc

    from .exchange import combine_buckets, materialize, sort_result

    def partial(b: pa.Table) -> pa.Table:
        col = b[key_col]
        codes = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                 else col).dictionary_encode()
        counts = np.bincount(
            codes.indices.to_numpy(zero_copy_only=False),
            minlength=len(codes.dictionary)).astype(np.int64)
        uniq = codes.dictionary.to_pylist()
        chunks = md5_chunks_u32(uniq)
        cell = cms_partial(chunks, counts).tobytes()
        h64 = ((chunks[:, 0].astype(np.uint64) << np.uint64(32))
               | chunks[:, 1])
        probe = np.flatnonzero(h64 % np.uint64(probe_mod) == 0)
        keys = pa.array([""] + [uniq[i] for i in probe], type=pa.string())
        kind = pa.array([0] + [1] * len(probe), type=pa.int32())
        bits = pa.array([cell] + [b""] * len(probe), type=pa.binary())
        return pa.table({"kind": kind, key_col: keys, "bits": bits})

    emitted = materialize(ds.map_batches(partial, batch_format="pyarrow",
                                         batch_size=None))

    acc = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for bt in emitted.iter_batches(batch_format="pyarrow"):
        for kind, cell in zip(bt["kind"].to_pylist(), bt["bits"].to_pylist()):
            if kind == 0:
                acc += np.frombuffer(cell, dtype=np.int64) \
                    .reshape(CMS_D, CMS_W)
    sketch_ref = ray.put(acc)

    def probe_est(b: pa.Table) -> pa.Table:
        sub = b.filter(pc.equal(b["kind"], 1))
        keys = sub[key_col].to_pylist()
        if not keys:
            return pa.table({key_col: pa.array([], type=pa.string()),
                             est_name: pa.array([], type=pa.int64())})
        est = cms_estimate(np.asarray(ray.get(sketch_ref)),
                           md5_chunks_u32(keys))
        return pa.table({key_col: sub[key_col],
                         est_name: pa.array(est, type=pa.int64())})

    return sort_result(combine_buckets(
        emitted.map_batches(probe_est, batch_format="pyarrow"),
        key_col, [(est_name, "min")], npart=npart), key_col)


# ---------------------------------------------------------------------------
# KLL-style quantile sketch (bounded-memory distributed percentiles)
# ---------------------------------------------------------------------------
#
# The quantile complement to HLL/CMS: q15's exact path ships the full
# value HISTOGRAM, which is only bounded when values are discretized;
# for continuous high-cardinality values the mergeable compactor
# sketch (Karnin, Lang & Liberty 2016) keeps O(k log n) values total.
# This implementation uses uniform level capacity k and DETERMINISTIC
# alternating compaction (a per-level flip-flop offset instead of a
# coin), trading the paper's randomized guarantee for bit-reproducible
# results; rank error stays ~O(log(n/k)/k) empirically and is pinned
# by pytest against the exact q15 order statistics.  Merging is
# levelwise concatenation + the same compaction sweep — associative
# but NOT order-independent, so distributed use runs partials over
# deterministic RANGE parts and merges in part order (the q33
# prefix-sum discipline, not the HLL any-order fold).

KLL_K = 256


class KLLSketch:
    __slots__ = ("k", "levels", "flip", "n")

    def __init__(self, k: int = KLL_K):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.flip: list[int] = [0]
        self.n = 0

    def _compact_sweep(self) -> None:
        j = 0
        while j < len(self.levels):
            if len(self.levels[j]) >= self.k:
                a = np.sort(self.levels[j], kind="stable")
                off = self.flip[j]
                self.flip[j] ^= 1
                promoted = a[off::2]
                self.levels[j] = np.empty(0, dtype=np.float64)
                if j + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                    self.flip.append(0)
                self.levels[j + 1] = np.concatenate(
                    [self.levels[j + 1], promoted])
            j += 1

    def add_many(self, vals: np.ndarray) -> None:
        """Absorb a chunk IN ORDER (chunk order is part of the
        deterministic contract)."""
        vals = np.asarray(vals, dtype=np.float64)
        self.n += len(vals)
        for lo in range(0, len(vals), self.k):
            self.levels[0] = np.concatenate(
                [self.levels[0], vals[lo:lo + self.k]])
            self._compact_sweep()

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        """self ⊕ other (in this order — order is part of determinism)."""
        self.n += other.n
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
            self.flip.append(0)
        for j, lv in enumerate(other.levels):
            self.levels[j] = np.concatenate([self.levels[j], lv])
        self._compact_sweep()
        return self

    def quantile(self, q: float) -> float:
        """Approximate order statistic: the retained value whose
        weighted cumulative rank first reaches ceil(q*n) (weight of a
        level-j survivor is 2^j)."""
        vals = np.concatenate(self.levels)
        if len(vals) == 0:
            return float("nan")
        wts = np.concatenate([
            np.full(len(lv), 1 << j, dtype=np.int64)
            for j, lv in enumerate(self.levels)])
        order = np.argsort(vals, kind="stable")
        v, w = vals[order], wts[order]
        target = max(1, int(np.ceil(q * self.n)))
        idx = int(np.searchsorted(np.cumsum(w), target))
        return float(v[min(idx, len(v) - 1)])

    # -- serialization (partial rows through the object store) --------
    def to_bytes(self) -> bytes:
        import struct

        parts = [struct.pack("<qqq", self.n, self.k, len(self.levels))]
        for lv, fl in zip(self.levels, self.flip):
            parts.append(struct.pack("<qq", len(lv), fl))
            parts.append(np.ascontiguousarray(lv).tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "KLLSketch":
        import struct

        n, k, nlev = struct.unpack_from("<qqq", raw, 0)
        off = 24
        s = cls(k)
        s.n = n
        s.levels, s.flip = [], []
        for _ in range(nlev):
            ln, fl = struct.unpack_from("<qq", raw, off)
            off += 16
            s.levels.append(np.frombuffer(
                raw, dtype=np.float64, count=ln, offset=off).copy())
            s.flip.append(fl)
            off += 8 * ln
        return s


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters (two-pass EXACT heavy hitters at bounded memory)
# ---------------------------------------------------------------------------

MG_K = 64


def mg_prune(keys: np.ndarray, counts: np.ndarray,
             k: int = MG_K) -> tuple[np.ndarray, np.ndarray]:
    """Prune an exact (or merged) counter table to a Misra-Gries
    summary with at most ``k`` counters: subtract the (k+1)-th largest
    count from every counter and keep the positive ones.  The summary
    under-counts each key by at most the subtracted offset, and
    offsets accumulated over prunes total < n/(k+1) — so every key
    with true count > n/(k+1) is guaranteed to survive (the classic
    MG guarantee; merging summaries preserves it, Agarwal et al.,
    "Mergeable Summaries")."""
    if len(counts) <= k:
        return keys, counts
    off = np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1]
    keep = counts > off
    return keys[keep], counts[keep] - off


def mg_heavy_hitters(ds, key_col: str, k: int = MG_K,
                     phi_inv: int = MG_K, count_name: str = "n_refs"):
    """EXACT phi-heavy hitters (count·phi_inv > n_total) in two bounded
    passes — the heavy-hitter complement to the CMS (estimates for a
    key SAMPLE) when the answer must be exact and complete:

      pass 1 — per-batch exact vectorized counts pruned to a ≤k-row
        MG summary (plus one null-key row carrying the batch total);
        the driver folds the tiny summaries (dict accumulate, re-prune
        when oversized).  MG's guarantee makes the surviving ≤k keys a
        SUPERSET of every true phi-heavy hitter for phi ≥ 1/(k+1) —
        nothing key-shaped ever shuffles, the scan emits ≤k+1 rows per
        block regardless of key cardinality.
      pass 2 — the candidate list broadcasts (``ray.put``); one more
        scan exact-counts ONLY candidate keys (vectorized ``np.isin``
        filter + group count partials, ≤k rows per block), the driver
        folds and applies the integer threshold count·phi_inv > n.

    Requires k+1 ≥ phi_inv (else the superset guarantee breaks — the
    constructor asserts).  Returns a pyarrow Table (key, count) of the
    exact heavy hitters, sorted by key.
    """
    import ray

    assert k + 1 >= phi_inv, "MG needs k+1 >= phi_inv for completeness"

    def partial(b: pa.Table) -> pa.Table:
        col = b[key_col]
        codes = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                 else col).dictionary_encode()
        counts = np.bincount(
            codes.indices.to_numpy(zero_copy_only=False),
            minlength=len(codes.dictionary)).astype(np.int64)
        keys = np.asarray(codes.dictionary.to_pylist(), dtype=object)
        pk, pc_ = mg_prune(keys, counts, k)
        return pa.table({
            key_col: pa.array(list(pk) + [None], type=pa.string()),
            "c": pa.array(np.concatenate([pc_, [counts.sum()]])),
        })

    acc: dict[str, int] = {}
    n_total = 0
    for t in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        ks = t[key_col].to_pylist()
        cs = t["c"].to_pylist()
        for key, c in zip(ks, cs):
            if key is None:
                n_total += c
            else:
                acc[key] = acc.get(key, 0) + c
        if len(acc) > 8 * k:
            ak, ac = mg_prune(np.array(list(acc), dtype=object),
                              np.array(list(acc.values()), dtype=np.int64), k)
            acc = dict(zip(ak, (int(x) for x in ac)))
    ak, ac = mg_prune(np.array(list(acc), dtype=object),
                      np.array(list(acc.values()), dtype=np.int64), k)
    cand_ref = ray.put(np.sort(ak.astype(str)))

    def exact_partial(b: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        col = b[key_col]
        keys = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col).to_numpy(zero_copy_only=False)
        m = np.isin(keys, cand)
        if not m.any():
            return pa.table({key_col: pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        codes = pa.array(keys[m]).dictionary_encode()
        counts = np.bincount(
            codes.indices.to_numpy(zero_copy_only=False),
            minlength=len(codes.dictionary)).astype(np.int64)
        return pa.table({key_col: codes.dictionary, "c": pa.array(counts)})

    exact: dict[str, int] = {}
    for t in ds.map_batches(exact_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for key, c in zip(t[key_col].to_pylist(), t["c"].to_pylist()):
            exact[key] = exact.get(key, 0) + c
    hh = sorted((key, c) for key, c in exact.items()
                if c * phi_inv > n_total)
    return pa.table({
        key_col: pa.array([x[0] for x in hh], type=pa.string()),
        count_name: pa.array([x[1] for x in hh], type=pa.int64()),
    })
