"""Relational pipelines over the testdata star schema.

The reference library has NO wide operators (SURVEY.md §2.A #27); these
implement the graft layer's aggregate / join / sort / filter patterns
(G11 host-grouping analog, G15 metrics aggs, G17 top-k reports) with
Ray-Data-at-scale idioms:

  * partial aggregation inside ``map_batches`` (one row per key per
    batch) before the global ``groupby`` — the shuffle moves partials,
    not rows;
  * small dimension tables broadcast (read once per task closure, dict
    lookup per batch) instead of a shuffle join;
  * top-k via ``sort().limit()``.

Cross-engine exactness: every aggregated measure is converted to
INTEGER units per row (cents, milli-units) BEFORE summing, so sums are
associative and bit-identical to the DuckDB oracle regardless of
accumulation order.  ``round`` is applied only to values that are
integral up to fp noise (prices ×100, integral quantities) — never to
values that can tie at .5, where the engines' tie-break modes differ.
Column names match the oracle SQL exactly (driver hash-compares).
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources._util import scan_parquet
from ..stages.exchange import (bucket_exchange, collect, combine_buckets,
                               from_arrow, i64_key, ordered_bits_f64,
                               ordered_bits_i64, segment_bounds, sort_result)

INT64 = pa.int64()


def _pq(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _i64(x) -> pa.Array:
    return pc.cast(x, INT64)


# ---------------------------------------------------------------------------
# Q: pricing summary (TPC-H Q1 pattern: filter → partial agg → groupby)
# ---------------------------------------------------------------------------

CUTOFF = datetime.datetime(1998, 9, 1)


def _q1_partial(batch: pa.Table) -> pa.Table:
    batch = batch.filter(pc.less(batch["l_shipdate"], pa.scalar(CUTOFF)))
    qty = _i64(pc.round(batch["l_quantity"]))                       # integral
    cents = _i64(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)))
    disc_pct = _i64(pc.round(pc.multiply(batch["l_discount"], 100.0)))
    # revenue in (cents × percent) integer units: exact, order-free
    rev = pc.multiply(cents, pc.subtract(pa.scalar(100, type=INT64), disc_pct))
    return pa.table({
        "l_returnflag": batch["l_returnflag"],
        "l_linestatus": batch["l_linestatus"],
        "sum_qty": qty, "sum_rev_c2": rev,
    })


def _q1_fine(ds):
    """The pricing summary's (flag, status) groups over lineitem ``ds``."""
    return combine_buckets(
        ds.map_batches(_q1_partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("sum_qty", "sum"), ("sum_rev_c2", "sum"), ("n_rows", "count")])


def agg_lineitem(sf_dir: str):
    """Pricing summary: per-block combine, tiny bucket combine."""
    ds = scan_parquet(_pq(sf_dir, "lineitem"),
                      columns=["l_returnflag", "l_linestatus", "l_quantity",
                                  "l_extendedprice", "l_discount", "l_shipdate"])
    return sort_result(_q1_fine(ds), ["l_returnflag", "l_linestatus"])


def segment_order_stats(sf_dir: str):
    """q68: per-market-segment order stats through the GENERAL
    bucket-exchange hash join (stages/exchange.hash_join) — the
    both-sides-large join shape, complementing q02's broadcast-dict
    join of the same tables: one union exchange on the key hash, one
    vectorized pyarrow join per bucket, then the usual partial-agg
    reduce.  Integer cents keep the DuckDB oracle value-exact."""
    from ..stages.exchange import hash_join

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_custkey", "o_totalprice"])
    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda b: b.rename_columns(
            ["o_custkey", "c_mktsegment"]), batch_format="pyarrow")
    joined = hash_join(orders, cust, "o_custkey", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        cents = _i64(pc.round(pc.multiply(b["o_totalprice"], 100.0)))
        return pa.table({"c_mktsegment": b["c_mktsegment"],
                         "revenue_cents": cents})

    return sort_result(combine_buckets(
        joined.map_batches(partial, batch_format="pyarrow"), "c_mktsegment",
        [("revenue_cents", "sum"), ("n_orders", "count")]), ["c_mktsegment"])


def rollup_lineitem(sf_dir: str):
    """q66: ROLLUP aggregation — the q01 pricing summary with subtotal
    rows at every prefix level: (flag, status), (flag, ALL) and
    (ALL, ALL), NULLs encoded as the literal 'ALL' so ordering is
    engine-independent.

    Scale shape: every coarser level is derivable from the FINEST
    level's partials, so only (flag, status) partial rows ever move —
    one tiny groupby reduces them exactly (q01's shuffle), and the
    rollup expansion is driver-side arithmetic over the handful of
    reduced rows (groups × levels, never the fact table)."""
    ds = scan_parquet(_pq(sf_dir, "lineitem"),
                      columns=["l_returnflag", "l_linestatus", "l_quantity",
                                  "l_extendedprice", "l_discount", "l_shipdate"])
    t = collect(_q1_fine(ds))
    flags = t["l_returnflag"].to_pylist()
    stats = t["l_linestatus"].to_pylist()
    q = np.asarray(t["sum_qty"].to_pylist(), dtype=np.int64)
    r = np.asarray(t["sum_rev_c2"].to_pylist(), dtype=np.int64)
    n = np.asarray(t["n_rows"].to_pylist(), dtype=np.int64)
    rows = [(f, s, int(qq), int(rr), int(nn))
            for f, s, qq, rr, nn in zip(flags, stats, q, r, n)]
    for f in sorted(set(flags)):
        m = np.array([x == f for x in flags])
        rows.append((f, "ALL", int(q[m].sum()), int(r[m].sum()),
                     int(n[m].sum())))
    rows.append(("ALL", "ALL", int(q.sum()), int(r.sum()), int(n.sum())))
    rows.sort()
    return pa.table({
        "l_returnflag": pa.array([x[0] for x in rows], type=pa.string()),
        "l_linestatus": pa.array([x[1] for x in rows], type=pa.string()),
        "sum_qty": pa.array([x[2] for x in rows], type=pa.int64()),
        "sum_rev_c2": pa.array([x[3] for x in rows], type=pa.int64()),
        "n_rows": pa.array([x[4] for x in rows], type=pa.int64()),
    })


def cube_lineitem(sf_dir: str):
    """q69: CUBE aggregation — q66's ROLLUP generalized to ALL 2^k
    grouping sets: (flag, status), (flag, ALL), (ALL, status) and
    (ALL, ALL), NULL subtotal keys coalesced to 'ALL'.

    Same scale shape as the ROLLUP: every grouping set is derivable
    from the FINEST level's exactly-reduced partials, so only
    (flag, status) partial rows ever shuffle (q01's tiny groupby); the
    cube expansion is driver arithmetic over groups × 2^k, never the
    fact table.  The one NEW set vs ROLLUP — (ALL, status) — folds the
    same fine rows along the other axis."""
    ds = scan_parquet(_pq(sf_dir, "lineitem"),
                      columns=["l_returnflag", "l_linestatus", "l_quantity",
                                  "l_extendedprice", "l_discount", "l_shipdate"])
    t = collect(_q1_fine(ds))
    flags = np.asarray(t["l_returnflag"].to_pylist(), dtype=object)
    stats = np.asarray(t["l_linestatus"].to_pylist(), dtype=object)
    meas = [np.asarray(t[c].to_pylist(), dtype=np.int64)
            for c in ("sum_qty", "sum_rev_c2", "n_rows")]
    rows = []
    for keep_f, keep_s in ((True, True), (True, False),
                           (False, True), (False, False)):
        kf = flags if keep_f else np.asarray(["ALL"] * len(flags), dtype=object)
        ks = stats if keep_s else np.asarray(["ALL"] * len(stats), dtype=object)
        for f, s in sorted(set(zip(kf, ks))):
            m = (kf == f) & (ks == s)
            rows.append((f, s) + tuple(int(v[m].sum()) for v in meas))
    rows.sort()
    return pa.table({
        "l_returnflag": pa.array([x[0] for x in rows], type=pa.string()),
        "l_linestatus": pa.array([x[1] for x in rows], type=pa.string()),
        "sum_qty": pa.array([x[2] for x in rows], type=pa.int64()),
        "sum_rev_c2": pa.array([x[3] for x in rows], type=pa.int64()),
        "n_rows": pa.array([x[4] for x in rows], type=pa.int64()),
    })


# ---------------------------------------------------------------------------
# Q: revenue by nation (broadcast dimension join + partial agg)
# ---------------------------------------------------------------------------

def revenue_by_nation(sf_dir: str):
    """orders ⋈ customer ⋈ nation with both dims broadcast as dicts;
    the fact table streams — no shuffle join."""
    cust = pq.read_table(_pq(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(_pq(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    cust_nation = dict(zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist()))
    nation_name = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["o_custkey"].to_numpy(zero_copy_only=False)
        names = [nation_name.get(cust_nation.get(int(k), -1), "") for k in keys]
        cents = _i64(pc.round(pc.multiply(batch["o_totalprice"], 100.0)))
        return pa.table({"n_name": pa.array(names, type=pa.string()),
                         "revenue_cents": cents})

    ds = scan_parquet(_pq(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    out = combine_buckets(ds.map_batches(partial, batch_format="pyarrow"),
                          "n_name",
                          [("revenue_cents", "sum"), ("n_orders", "count")])
    return sort_result(out, ["n_name"])


# ---------------------------------------------------------------------------
# Q: top-k (sort shuffle) and grouped event metrics
# ---------------------------------------------------------------------------

def topk_events(sf_dir: str, k: int = 20):
    """Top-k by value: the values are read, never recomputed — float
    output is bit-identical to the oracle's."""
    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["event_id", "user_id", "event_type", "value"])
    return sort_result(ds, ["value", "event_id"],
                       descending=[True, False]).limit(k)


def events_by_type(sf_dir: str):
    """Event metrics (G15 pattern): per-type counts + integer-milli sums."""
    ds = scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        milli = _i64(pc.floor(pc.multiply(batch["value"], 1000.0)))
        return pa.table({"event_type": batch["event_type"],
                         "sum_value_milli": milli,
                         "max_value": batch["value"]})

    out = combine_buckets(
        ds.map_batches(partial, batch_format="pyarrow"), "event_type",
        [("sum_value_milli", "sum"), ("n_events", "count"),
         ("max_value", "max")])
    return sort_result(out, ["event_type"])


def filter_orders(sf_dir: str, min_price: float = 100_000.0):
    """Filter + project + computed column (vectorized predicate)."""
    ds = scan_parquet(_pq(sf_dir, "orders"),
                      columns=["o_orderkey", "o_custkey", "o_totalprice",
                                  "o_orderpriority"])

    def f(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["o_totalprice"], min_price))
        price_k = _i64(pc.floor(pc.divide(batch["o_totalprice"], 1000.0)))
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_custkey": batch["o_custkey"],
            "o_totalprice": batch["o_totalprice"],
            "o_orderpriority": batch["o_orderpriority"],
            "price_k": price_k,
        })

    return sort_result(ds.map_batches(f, batch_format="pyarrow"), "o_orderkey")


# ---------------------------------------------------------------------------
# Q: per-user event sessions (bucket_exchange window pattern)
# ---------------------------------------------------------------------------

def global_sort_orders(sf_dir: str):
    """q70: range-partitioned global sort with exact ranks — orders by
    (o_totalprice DESC, o_orderkey ASC) through the TeraSort-shaped
    ``exchange.range_sort`` primitive (sampled splitters → exact
    per-range counts → one range exchange → per-bucket vectorized
    lexsort + offset ranks).

    The rank column is what makes a distributed sort VERIFIABLE under
    the driver's order-insensitive compare: ``rank`` must bit-match
    DuckDB's ``ROW_NUMBER() OVER (ORDER BY ...)``, so any
    mis-partitioned splitter, off-by-one offset or cross-bucket tie
    leak shows up as a value mismatch.  Descending float order is the
    inverted IEEE total-order bits; o_totalprice > 0 so the encoding
    and DuckDB's double compare agree exactly."""
    from ..stages.exchange import range_sort

    ds = scan_parquet(_pq(sf_dir, "orders"),
                      columns=["o_orderkey", "o_totalprice"])

    def key(b: pa.Table) -> np.ndarray:
        return ~ordered_bits_f64(
            b["o_totalprice"].to_numpy(zero_copy_only=False))

    return range_sort(ds, key, i64_key("o_orderkey"), npart=32)


def quality_deciles(sf_dir: str):
    """q73: NTILE decile bucketing — every document assigned its decile
    by quality score, the "sort the corpus by a model score and keep
    the top X%" curation step, as a second consumer of
    ``exchange.range_sort`` (q70's primitive).

    Rank order is (score ASC, doc_id ASC); the decile is then pure
    arithmetic on the exact global rank (SQL NTILE semantics: the
    first ``n % 10`` tiles get one extra row).  Total rows comes from
    the range_sort COUNT pass for free — here re-derived from parquet
    metadata so the decile map stays a stateless function."""
    from ..stages import textstats as ts
    from ..stages.exchange import range_sort

    n_total = pq.read_metadata(_pq(sf_dir, "documents")).num_rows
    ds = scan_parquet(_pq(sf_dir, "documents"),
                      columns=["doc_id", "text"]) \
        .map_batches(ts.quality_scores, batch_format="pyarrow") \
        .map_batches(lambda b: b.select(["doc_id", "alpha_ppm"]),
                     batch_format="pyarrow")

    ranked = range_sort(ds, i64_key("alpha_ppm"), i64_key("doc_id"),
                        npart=32)
    size, rem = divmod(n_total, 10)

    def to_decile(b: pa.Table) -> pa.Table:
        p = b["rank"].to_numpy(zero_copy_only=False) - 1   # 0-based position
        big = rem * (size + 1)
        dec = np.where(p < big, p // max(size + 1, 1),
                       rem + (p - big) // max(size, 1)) + 1
        return pa.table({"doc_id": b["doc_id"], "alpha_ppm": b["alpha_ppm"],
                         "decile": pa.array(dec.astype(np.int64))})

    return ranked.map_batches(to_decile, batch_format="pyarrow")


def user_event_stats(sf_dir: str):
    """Per-user ordered-window stats — event count, distinct types, and
    the value delta between the user's first and last event in
    (ts, value) order (integer milli units).

    Scale shape: NO per-group Python.  The extreme rows are found with
    an order-preserving composite key — 16 bytes of big-endian
    (ts-bits, value-bits) — so min/max aggregates ARE argmin/argmax and
    the extreme row's value decodes straight out of the winning key.
    One hash-bucket exchange carries everything: per-batch partials
    group by (user, type), the per-bucket combine finishes min/max/sum
    AND the distinct-type count in a single vectorized Arrow group_by —
    no second aggregate, no join."""
    import pyarrow as pa

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["user_id", "ts", "event_type", "value"])
    npart = 8

    def partial(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(ts)
        arr = np.empty((n, 2), dtype=">u8")
        arr[:, 0] = ordered_bits_i64(ts)
        arr[:, 1] = ordered_bits_f64(val)
        # fixed-size binary straight from the buffer (pa.array over a
        # numpy S16 array would truncate at embedded NUL bytes), then
        # cast to variable binary for the min/max kernels
        keys = pa.Array.from_buffers(
            pa.binary(16), n, [None, pa.py_buffer(arr.tobytes())])
        t = pa.table({
            "user_id": b["user_id"],
            "event_type": b["event_type"],
            "key": keys.cast(pa.binary()),
        })
        g = t.group_by(["user_id", "event_type"]).aggregate(
            [("key", "min"), ("key", "max"), ("key", "count")])
        g = g.rename_columns(["user_id", "event_type",
                              "key_min", "key_max", "n_events"])
        part = (g["user_id"].to_numpy(zero_copy_only=False)
                % npart).astype(np.int32)
        return g.append_column("part", pa.array(part))

    def decode_value(col) -> np.ndarray:
        raw = b"".join(k.ljust(16, b"\x00") for k in col.to_pylist())
        bits = np.frombuffer(raw, dtype=">u8").reshape(-1, 2)[:, 1] \
            .astype(np.uint64)
        neg = ~(bits >> np.uint64(63)).astype(bool)
        out = bits ^ np.uint64(1 << 63)
        out[neg] = ~bits[neg]
        return out.view(np.float64)

    def combine(g: pa.Table) -> pa.Table:
        out = g.group_by(["user_id"]).aggregate(
            [("key_min", "min"), ("key_max", "max"),
             ("n_events", "sum"), ("event_type", "count_distinct")])
        out = out.rename_columns(["user_id", "key_min", "key_max",
                                  "n_events", "n_types"])
        first = np.floor(decode_value(out["key_min"]) * 1000.0).astype(np.int64)
        last = np.floor(decode_value(out["key_max"]) * 1000.0).astype(np.int64)
        return pa.table({
            "user_id": out["user_id"],
            "n_events": out["n_events"],
            "n_types": out["n_types"],
            "delta_milli": pa.array(last - first),
        })

    return sort_result(bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), combine), "user_id")


def moving_average(sf_dir: str, window: int = 3, npart: int = 32):
    """q67: per-user trailing moving average (ROWS BETWEEN window-1
    PRECEDING AND CURRENT ROW) over the event stream ordered by
    (ts, event_id) — the LAG-family window op complementing q08's gap
    sessionization on the same bucket fabric.

    One bucket exchange co-locates each user's events; per bucket ONE
    vectorized pass: lexsort, per-user prefix sums, window sums as two
    cumsum gathers.  Integer milli values with TRUNCATING division
    (DuckDB ``//`` semantics, toward zero) keep the oracle value-exact
    on any corpus, including negative window sums."""
    import pyarrow as pa

    def partial(b: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), pa.int64())
        part = (b["user_id"].to_numpy(zero_copy_only=False)
                % npart).astype(np.int32)
        return pa.table({"user_id": b["user_id"], "event_id": b["event_id"],
                         "ts": b["ts"], "value_milli": v,
                         "part": pa.array(part)})

    def combine(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        e = g["event_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = g["value_milli"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, ts, u))
        u_s, e_s, v_s = u[order], e[order], v[order]
        n = len(u_s)
        if n == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "event_id": pa.array([], type=pa.int64()),
                             "value_milli": pa.array([], type=pa.int64()),
                             "ma_milli": pa.array([], type=pa.int64())})
        _, pos = segment_bounds(u_s)              # rank within user
        w = np.minimum(pos + 1, window)
        cum = np.concatenate(([0], np.cumsum(v_s)))
        wsum = cum[np.arange(1, n + 1)] - cum[np.arange(1, n + 1) - w]
        # DuckDB // truncates toward zero (-7//2 = -3); numpy floors
        # (-4).  Divide like the declared SQL twin so the operator is
        # corpus-independent, not gated on value >= 0.
        ma = np.where(wsum < 0, -(-wsum // w), wsum // w)
        return pa.table({
            "user_id": pa.array(u_s.astype(np.int64)),
            "event_id": pa.array(e_s.astype(np.int64)),
            "value_milli": pa.array(v_s.astype(np.int64)),
            "ma_milli": pa.array(ma.astype(np.int64)),
        })

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["user_id", "event_id", "ts", "value"])
    return sort_result(bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        lambda g: combine(g.drop_columns(["part"]))), ["user_id", "event_id"])


def sessionize(sf_dir: str, gap_minutes: int = 30):
    """Gap-based sessionization of the event stream — the classic
    stateful streaming window Ray Data has no operator for.

    Composition (SURVEY custom-operator recipe (a)): hash-partition by
    user (bucket exchange — all of a user's events co-locate), then ONE
    vectorized pass per bucket: lexsort by (user, ts), session breaks
    where the gap exceeds ``gap_minutes``, per-session aggregates via
    boundary ``reduceat``-style slicing.  No per-user Python, no
    per-session Python.  Partitioning assumption: a single user's
    events fit one bucket's worker (true by construction for bounded
    per-user activity; salt hot users if that breaks).  Oracle: the
    equivalent LAG/SUM window SQL, value-exact."""
    import pyarrow as pa

    gap_us = np.int64(gap_minutes) * 60_000_000
    npart = 32

    def partial(b: pa.Table) -> pa.Table:
        part = (b["user_id"].to_numpy(zero_copy_only=False)
                % npart).astype(np.int32)
        return pa.table({"user_id": b["user_id"], "ts": b["ts"],
                         "part": pa.array(part)})

    def combine(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u_s, ts_s = u[order], ts[order]
        n = len(u_s)
        if n == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "session_id": pa.array([], type=pa.int64()),
                             "n_events": pa.array([], type=pa.int64()),
                             "start_ts": pa.array([], type=pa.timestamp("us")),
                             "end_ts": pa.array([], type=pa.timestamp("us"))})
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        np.not_equal(u_s[1:], u_s[:-1], out=new_user[1:])
        new_sess = new_user.copy()
        new_sess[1:] |= (ts_s[1:] - ts_s[:-1]) > gap_us
        bounds = np.flatnonzero(new_sess)               # session starts
        ends = np.append(bounds[1:], n) - 1             # session last rows
        user_of = u_s[bounds]
        # session_id = 1-based rank of the session within its user
        first_of_user = np.flatnonzero(new_user[bounds])
        starts_per_user = np.repeat(
            first_of_user,
            np.diff(np.append(first_of_user, len(bounds))))
        sid = np.arange(len(bounds), dtype=np.int64) - starts_per_user + 1
        return pa.table({
            "user_id": pa.array(user_of.astype(np.int64)),
            "session_id": pa.array(sid),
            "n_events": pa.array(
                np.diff(np.append(bounds, n)).astype(np.int64)),
            "start_ts": pa.array(ts_s[bounds]).cast(pa.timestamp("us")),
            "end_ts": pa.array(ts_s[ends]).cast(pa.timestamp("us")),
        })

    ds = scan_parquet(_pq(sf_dir, "events"), columns=["user_id", "ts"])
    return sort_result(bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), combine),
        ["user_id", "session_id"])


def asof_prior_event(sf_dir: str, right_type: str = "view"):
    """ASOF join inside the event stream: every event gets the same
    user's most recent strictly-prior ``right_type`` event's timestamp
    (NULL when none) — the as-of pattern Ray Data has no operator for.

    Composition (custom-operator recipe (a)): hash-partition by user so
    both join sides of a user co-locate, then one vectorized
    ``np.searchsorted`` per bucket over a composite monotone key
    ``user * 2^43 + (ts - bucket_min_ts)`` (43 bits ≈ 278 years of
    microseconds; asserted).  Ties among equal right timestamps are
    value-identical by construction (only the timestamp is emitted), so
    the result is hash-exact against DuckDB's ASOF LEFT JOIN."""
    import pyarrow as pa

    npart = 32

    def partial(b: pa.Table) -> pa.Table:
        part = (b["user_id"].to_numpy(zero_copy_only=False)
                % npart).astype(np.int32)
        return pa.table({"event_id": b["event_id"], "user_id": b["user_id"],
                         "ts": b["ts"], "event_type": b["event_type"],
                         "part": pa.array(part)})

    TS_BITS = np.int64(43)

    def combine(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        is_right = pc.equal(g["event_type"], right_type).to_numpy(
            zero_copy_only=False)
        if len(u) == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "event_id": pa.array([], type=pa.int64()),
                             "ts": pa.array([], type=pa.timestamp("us")),
                             "prior_ts": pa.array([], type=pa.timestamp("us"))})
        rel = ts - ts.min()
        assert rel.max() < (1 << 43) and u.max() < (1 << 20), \
            "composite asof key overflow — widen TS_BITS/user bits"
        key = (u << TS_BITS) + rel
        order = np.argsort(key[is_right])
        r_key = key[is_right][order]
        r_ts = ts[is_right][order]
        if r_key.size:
            # most recent right row with r_key < key (strict: 'left'
            # side excludes equal timestamps, matching e.ts > v.ts),
            # then confirm the hit belongs to the same user
            pos = np.searchsorted(r_key, key, side="left") - 1
            valid = pos >= 0
            pos_c = np.maximum(pos, 0)
            valid &= (r_key[pos_c] >> TS_BITS) == u
            prior = np.where(valid, r_ts[pos_c], 0)
        else:                      # bucket with no right-side rows
            valid = np.zeros(len(u), dtype=bool)
            prior = np.zeros(len(u), dtype=np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "event_id": pa.array(eid),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "prior_ts": pa.array(prior, mask=~valid).cast(pa.timestamp("us")),
        })

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "event_type"])
    return sort_result(bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), combine), "event_id")


def grouped_topk_events(sf_dir: str, k: int = 3):
    """Grouped top-k: each user's k highest-value events (ties broken
    by event_id) — the per-key heap operator Ray Data lacks.

    Scale shape: per-batch partial top-k per user (a combiner — at most
    k rows per user per batch survive, so the exchange moves O(users·k)
    rows, not the event stream), hash-bucket exchange on user, then one
    vectorized re-top-k per bucket.  Ranking is a lexsort over
    (user, descending IEEE-total-order value bits, event_id) + a
    grouped cumcount — no per-user Python anywhere."""
    npart = 16

    def topk(b: pa.Table, with_rank: bool) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        if len(u) == 0:
            cols = {"user_id": pa.array([], type=pa.int64()),
                    "event_id": pa.array([], type=pa.int64()),
                    "value": pa.array([], type=pa.float64())}
            if with_rank:
                cols["rank"] = pa.array([], type=pa.int64())
            else:
                cols["part"] = pa.array([], type=pa.int32())
            return pa.table(cols)
        order = np.lexsort((eid, ~ordered_bits_f64(val), u))
        _, rank = segment_bounds(u[order])
        keep = order[rank < k]
        out = pa.table({"user_id": pa.array(u[keep]),
                        "event_id": pa.array(eid[keep]),
                        "value": pa.array(val[keep])})
        if with_rank:
            return out.append_column(
                "rank", pa.array(rank[rank < k] + 1, type=pa.int64()))
        part = (u[keep] % npart).astype(np.int32)
        return out.append_column("part", pa.array(part))

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["user_id", "event_id", "value"])
    return sort_result(bucket_exchange(
        ds.map_batches(lambda b: topk(b, False), batch_format="pyarrow"),
        lambda g: topk(g.drop_columns(["part"]), True)), ["user_id", "rank"])


def event_quantile_sketch(sf_dir: str, nparts: int = 16):
    """q64: approximate per-type percentiles from a mergeable KLL-style
    quantile sketch (stages/sketch.KLLSketch) — the bounded-memory
    scale path complementing q15's exact value-histogram exchange:
    the histogram is only bounded for DISCRETIZED values, while the
    compactor sketch retains O(k log n) values per (part, type) no
    matter the value distribution.

    Determinism discipline: the deterministic-compaction sketch is
    order-SENSITIVE, so parts are explicit row RANGES (parquet
    metadata only, q33's prefix-sum discipline) and the driver merges
    the tiny partials in part order — bit-reproducible across runs and
    cluster sizes, unlike a fold over Ray's arrival-ordered blocks.
    Rows-only for the oracle (approximate by design); rank error vs
    the exact order statistics is pytest-pinned."""
    from ..stages.sketch import KLLSketch

    path = _pq(sf_dir, "events")
    meta = pq.read_metadata(path)
    rg_rows = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
    offs = np.concatenate([[0], np.cumsum(rg_rows)]).astype(np.int64)
    n = int(offs[-1])
    nparts = max(1, min(nparts, n // 1024 or 1))
    desc = pa.table({
        "part": pa.array(range(nparts), type=pa.int32()),
        "lo": pa.array([p * n // nparts for p in range(nparts)],
                       type=pa.int64()),
        "hi": pa.array([(p + 1) * n // nparts for p in range(nparts)],
                       type=pa.int64()),
    })

    def sketch_part(b: pa.Table) -> pa.Table:
        pf = pq.ParquetFile(path)
        out_part, out_type, out_blob = [], [], []
        for part, lo, hi in zip(b["part"].to_pylist(), b["lo"].to_pylist(),
                                b["hi"].to_pylist()):
            rgs = [i for i in range(len(rg_rows))
                   if offs[i + 1] > lo and offs[i] < hi]
            t = pf.read_row_groups(rgs, columns=["event_type", "value"])
            base = int(offs[rgs[0]])
            t = t.slice(lo - base, hi - lo)
            codes = t["event_type"].combine_chunks().dictionary_encode()
            gid = codes.indices.to_numpy(zero_copy_only=False)
            vals = t["value"].to_numpy(zero_copy_only=False)
            for g, name in enumerate(codes.dictionary.to_pylist()):
                s = KLLSketch()
                s.add_many(vals[gid == g])      # row order preserved
                out_part.append(part)
                out_type.append(name)
                out_blob.append(s.to_bytes())
        return pa.table({"part": pa.array(out_part, type=pa.int32()),
                         "event_type": pa.array(out_type, type=pa.string()),
                         "blob": pa.array(out_blob, type=pa.binary())})

    # tiny: nparts x types sketch blobs
    rows = collect(from_arrow(desc).map_batches(
        sketch_part, batch_format="pyarrow", batch_size=1)).to_pylist()
    by_type: dict = {}
    for r in sorted(rows, key=lambda r: (r["event_type"], r["part"])):
        s = KLLSketch.from_bytes(r["blob"])
        if r["event_type"] in by_type:
            by_type[r["event_type"]].merge(s)
        else:
            by_type[r["event_type"]] = s
    types = sorted(by_type)
    cols = {"event_type": pa.array(types, type=pa.string())}
    for q, name in ((0.5, "p50_milli"), (0.9, "p90_milli"),
                    (0.99, "p99_milli")):
        cols[name] = pa.array(
            [int(np.floor(by_type[t].quantile(q) * 1000 + 0.5))
             for t in types], type=pa.int64())
    return pa.table(cols)


def event_quantiles(sf_dir: str):
    """Exact distributed quantiles (p50/p90/p99 of integer-milli value)
    per event type via a value-histogram exchange.

    Scale shape: the per-batch partial collapses rows to distinct
    (type, milli) counts — the shuffle carries the value HISTOGRAM, not
    the rows, so a 100-TB event stream reduces to (types × distinct
    quantized values) rows.  The final per-type pass computes the exact
    order statistic from cumulative counts: percentile_disc(q) = value
    at 1-based index ceil(q·n), evaluated in integer arithmetic."""
    QS = [(1, 2, "p50_milli"), (9, 10, "p90_milli"), (99, 100, "p99_milli")]

    def partial(b: pa.Table) -> pa.Table:
        milli = _i64(pc.floor(pc.multiply(b["value"], 1000.0)))
        t = pa.table({"event_type": b["event_type"], "milli": milli})
        return t.group_by(["event_type", "milli"]) \
            .aggregate([("milli", "count")]) \
            .rename_columns(["event_type", "milli", "cnt"])

    def combine(g: pa.Table) -> pa.Table:
        # one group = one event type's full histogram
        m = g["milli"].to_numpy(zero_copy_only=False)
        c = g["cnt"].to_numpy(zero_copy_only=False)
        # partials from different batches repeat milli values: re-sum
        order = np.argsort(m)
        m_s, c_s = m[order], c[order]
        starts, _ = segment_bounds(m_s)
        m_u = m_s[starts]
        cum = np.cumsum(c_s)[np.append(starts[1:] - 1, len(c_s) - 1)]
        n = int(cum[-1])
        row = {"event_type": [g["event_type"][0].as_py()],
               "n_events": pa.array([n], type=pa.int64())}
        for a, b_, name in QS:
            i = (a * n + b_ - 1) // b_          # ceil(a*n/b), 1-based
            pos = int(np.searchsorted(cum, i, side="left"))
            row[name] = pa.array([int(m_u[pos])], type=pa.int64())
        return pa.table(row)

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["event_type", "value"])
    return sort_result(bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        combine, part_col="event_type"), "event_type")


def sample_documents(sf_dir: str, hex_cap: str = "28"):
    """Deterministic hash sample (~16%) of the documents table: keep a
    doc iff the first md5 byte of its id is ≤ 0x28 — the reproducible,
    engine-independent sampling primitive for training-data curation
    (same rows on every run, any cluster size, any row order; the SQL
    oracle computes the identical predicate).  Stateless map_batches;
    the digest is the batched numpy MD5 over the decimal-string ids —
    ``hexdigest()[:2] <= hex_cap`` is exactly ``digest[0] <= cap``
    numerically (both sides fixed-width lowercase hex)."""
    from ..stages.md5vec import md5_state

    cap = int(hex_cap, 16)

    def f(b: pa.Table) -> pa.Table:
        A, _, _, _ = md5_state(pc.cast(b["doc_id"], pa.string()))
        keep = pa.array((A & np.uint32(0xFF)) <= np.uint32(cap))
        return b.filter(keep)

    ds = scan_parquet(_pq(sf_dir, "documents"),
                      columns=["doc_id", "lang", "n_chars"])
    return sort_result(ds.map_batches(f, batch_format="pyarrow"), "doc_id")


def range_join_views(sf_dir: str, window_minutes: int = 10,
                     right_type: str = "view"):
    """Range join inside the event stream: for every event, the count
    of the same user's ``right_type`` events in [ts − window, ts) — the
    bounded-interval join Ray Data has no operator for.

    Same composition as the ASOF join (hash-partition by user, one
    composite-key ``searchsorted`` pass per bucket): the window's two
    edges are two searchsorted probes, clamped at the user's key base
    so a window never leaks into the previous user's rows."""
    npart = 32
    gap_us = np.int64(window_minutes) * 60_000_000
    TS_BITS = np.int64(43)

    def partial(b: pa.Table) -> pa.Table:
        part = (b["user_id"].to_numpy(zero_copy_only=False)
                % npart).astype(np.int32)
        return pa.table({"event_id": b["event_id"], "user_id": b["user_id"],
                         "ts": b["ts"], "event_type": b["event_type"],
                         "part": pa.array(part)})

    def combine(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        if len(u) == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "user_id": pa.array([], type=pa.int64()),
                             "n_views_10m": pa.array([], type=pa.int64())})
        rel = ts - ts.min()
        assert rel.max() < (1 << 43) and u.max() < (1 << 20), \
            "composite range-join key overflow — widen TS_BITS/user bits"
        base = u << TS_BITS
        key = base + rel
        is_right = pc.equal(g["event_type"], right_type).to_numpy(
            zero_copy_only=False)
        r_key = np.sort(key[is_right])
        hi = np.searchsorted(r_key, key, side="left")      # v.ts <  e.ts
        lo = np.searchsorted(r_key, np.maximum(key - gap_us, base),
                             side="left")                  # v.ts >= e.ts-w
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(u),
            "n_views_10m": pa.array((hi - lo).astype(np.int64)),
        })

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "event_type"])
    return sort_result(bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), combine), "event_id")


def customers_without_orders(sf_dir: str, priority: str = "1-URGENT"):
    """Anti join: customers that never placed a ``priority`` order.

    Scale shape: both sides hash-partition on the key — the orders side
    first collapses to distinct keys per batch (combiner), so the
    exchange moves distinct keys, not the fact table; each bucket then
    anti-filters its customer rows against its key set with one
    vectorized ``np.isin``.  No broadcast (the 'small' side of an anti
    join isn't small at web scale), no driver materialization."""
    npart = 16

    def cust_part(b: pa.Table) -> pa.Table:
        keys = b["c_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "c_custkey": pa.array(keys.astype(np.int64)),
            "c_name": b["c_name"],
            "side": pa.array(np.zeros(len(keys), dtype=np.int8)),
            "part": pa.array((keys % npart).astype(np.int32)),
        })

    def order_part(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderpriority"], priority))
        keys = np.unique(b["o_custkey"].to_numpy(zero_copy_only=False))
        return pa.table({
            "c_custkey": pa.array(keys.astype(np.int64)),
            "c_name": pa.array([""] * len(keys), type=pa.string()),
            "side": pa.array(np.ones(len(keys), dtype=np.int8)),
            "part": pa.array((keys % npart).astype(np.int32)),
        })

    def combine(g: pa.Table) -> pa.Table:
        keys = g["c_custkey"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        have = keys[side == 1]
        keep = (side == 0) & ~np.isin(keys, have)
        return pa.table({"c_custkey": g["c_custkey"].filter(pa.array(keep)),
                         "c_name": g["c_name"].filter(pa.array(keep))})

    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_name"]) \
        .map_batches(cust_part, batch_format="pyarrow")
    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_custkey", "o_orderpriority"]) \
        .map_batches(order_part, batch_format="pyarrow")
    return sort_result(bucket_exchange(cust.union(orders), combine),
                       "c_custkey")


def windowed_events(sf_dir: str, window: str = "hour"):
    """Tumbling-window aggregate over the events stream: per (window
    start, event_type) counts and integer-exact value sums.

    Two-phase through ``combine_buckets``: its per-block combiner
    shrinks the exchange to distinct (window, type) rows per block.
    Columns named identically in the SQL oracle (DATE_TRUNC
    equivalent)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        win = pc.floor_temporal(batch["ts"], unit=window)
        vmilli = pc.cast(pc.floor(pc.multiply(batch["value"], 1000.0)),
                         pa.int64())
        return pa.table({"window_start": win,
                         "event_type": batch["event_type"],
                         "sum_value_milli": vmilli,
                         "max_value_milli": vmilli})

    return combine_buckets(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["window_start", "event_type"],
        [("n_events", "count"), ("sum_value_milli", "sum"),
         ("max_value_milli", "max")])


# ---------------------------------------------------------------------------
# Q19: Bloom-pruned semi-join (sideways information passing)
# ---------------------------------------------------------------------------

def bloom_semi_join(sf_dir: str, segment: str = "BUILDING", npart: int = 16):
    """Per-order revenue for lineitems of <segment>-customer orders —
    the build side shipped as a FIXED-size Bloom filter, not a shuffle.

    Scale shape: qualifying orderkeys (orders ⋈ broadcast customer-dim
    segment set) fold into per-batch Bloom partials (128 KiB each,
    OR-merged — size independent of key count), the merged filter is
    broadcast (``ray.put``) to the lineitem scan which drops
    non-members + pre-aggregates per batch, and ONE bucket exchange
    both confirms membership exactly (kills Bloom false positives) and
    finishes the revenue aggregate.  The probe side's shuffled volume
    is O(qualifying orders), never O(lineitems)."""
    import ray

    from ..stages.sketch import BLOOM_BITS, bloom_contains, bloom_partial

    seg_keys = set()
    cust = pq.read_table(_pq(sf_dir, "customer"),
                         columns=["c_custkey", "c_mktsegment"])
    m = pc.equal(cust["c_mktsegment"], segment)
    seg_keys = ray.put(
        np.unique(cust.filter(m)["c_custkey"].to_numpy(zero_copy_only=False)))

    def order_keys(b: pa.Table) -> pa.Table:
        keys = np.asarray(ray.get(seg_keys))
        ok = b["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        keep = ok[np.isin(ck, keys)]
        return pa.table({"o_orderkey": pa.array(keep, type=pa.int64())})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey"]) \
        .map_batches(order_keys, batch_format="pyarrow")

    def to_partial(b: pa.Table) -> pa.Table:
        bits = bloom_partial(b["o_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"bits": pa.array([bits.tobytes()], type=pa.binary())})

    # streaming OR-fold: the driver holds ONE 128 KiB accumulator, not
    # O(#batches) partials (OR is associative — any fold order works)
    acc = np.zeros(BLOOM_BITS >> 3, dtype=np.uint8)
    for bt in orders.map_batches(to_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for cell in bt["bits"].to_pylist():
            acc |= np.frombuffer(cell, dtype=np.uint8)
    bloom_ref = ray.put(acc)

    def probe(b: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        hit = bloom_contains(bits, ok)
        if not hit.any():
            return pa.table({"l_orderkey": pa.array([], type=pa.int64()),
                             "rev_units": pa.array([], type=pa.int64()),
                             "n_items": pa.array([], type=pa.int64()),
                             "is_key": pa.array([], type=pa.int64())})
        sub = b.filter(pa.array(hit))
        cents = _i64(pc.round(pc.multiply(sub["l_extendedprice"], 100.0)))
        disc = _i64(pc.round(pc.multiply(sub["l_discount"], 100.0)))
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, type=INT64), disc))
        t = pa.table({"l_orderkey": sub["l_orderkey"], "rev": rev})
        g = t.group_by(["l_orderkey"]).aggregate(
            [("rev", "sum"), ("rev", "count")])
        g = g.rename_columns(["l_orderkey", "rev_units", "n_items"])
        return g.append_column(
            "is_key", pa.array(np.zeros(g.num_rows, dtype=np.int64)))

    probe_ds = scan_parquet(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(probe, batch_format="pyarrow")

    def key_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        z = pa.array(np.zeros(n, dtype=np.int64))
        return pa.table({"l_orderkey": b["o_orderkey"], "rev_units": z,
                         "n_items": z,
                         "is_key": pa.array(np.ones(n, dtype=np.int64))})

    key_ds = orders.map_batches(key_rows, batch_format="pyarrow")

    def add_part(b: pa.Table) -> pa.Table:
        k = b["l_orderkey"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "part", pa.array((k % npart).astype(np.int32)))

    def confirm(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).group_by(["l_orderkey"]).aggregate(
            [("rev_units", "sum"), ("n_items", "sum"), ("is_key", "max")])
        t = t.rename_columns(["l_orderkey", "rev_units", "n_items", "is_key"])
        t = t.filter(pc.and_(pc.equal(t["is_key"], 1),
                             pc.greater(t["n_items"], 0)))
        return t.drop_columns(["is_key"])

    return sort_result(bucket_exchange(
        probe_ds.union(key_ds)
        .map_batches(add_part, batch_format="pyarrow"), confirm), "l_orderkey")


# ---------------------------------------------------------------------------
# Q29: PageRank over the part↔supplier graph (iterative BSP)
# ---------------------------------------------------------------------------

SUPP_NODE_BASE = 1_000_000


def part_supplier_pagerank(sf_dir: str, iters: int = 5, nparts: int = 8):
    """Integer PageRank over the symmetrized part↔supplier edge set
    (edge = a lineitem linked the part to the supplier) — the iterative
    operator, exact vs an unrolled-iteration SQL oracle.  See
    pipelines/graph.py for the BSP shape."""
    from . import graph

    def to_edges(b: pa.Table) -> pa.Table:
        p = b["l_partkey"].to_numpy(zero_copy_only=False)
        s = b["l_suppkey"].to_numpy(zero_copy_only=False) + SUPP_NODE_BASE
        return pa.table({"src": pa.array(np.concatenate([p, s])),
                         "dst": pa.array(np.concatenate([s, p]))})

    edges = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_suppkey"]) \
        .map_batches(to_edges, batch_format="pyarrow")
    out = graph.pagerank(edges, iters=iters, nparts=nparts)
    return out.sort_by("node_id")


def fuzzy_name_pairs(sf_dir: str):
    """q74: fuzzy (edit-distance-1) self-join on customer names — the
    entity-resolution / typo-matching operator, via FastSS
    deletion-variant blocking (stages/fuzzy.py): keys explode to
    len+1 variants, ONE hash exchange on the variant string co-locates
    every candidate pair (provably complete for distance ≤ 1), each
    bucket verifies candidates exactly.  The quadratic all-pairs
    compare the SQL twin runs never happens — the engine touches
    only variant-colliding candidates."""
    from ..stages.fuzzy import lev1_join

    ds = scan_parquet(_pq(sf_dir, "customer"),
                      columns=["c_custkey", "c_name"])

    def prep(b: pa.Table) -> pa.Table:
        return b.rename_columns(["id", "name"])

    pairs = lev1_join(ds.map_batches(prep, batch_format="pyarrow"),
                      "name", "id")
    return pairs.map_batches(
        lambda b: b.rename_columns(["a_custkey", "b_custkey"]),
        batch_format="pyarrow")


def outlier_events(sf_dir: str):
    """q77: per-type p99 outlier filter — the two-phase
    quantile-threshold gate (the "drop the tail" curation cut):

      phase 1 — q15's value-histogram fabric reduces the stream to
        distinct (type, milli) counts and computes the EXACT per-type
        p99 order statistic (percentile_disc semantics, pure integer
        arithmetic); the result is a types-sized table;
      phase 2 — the tiny threshold dict broadcasts (task closure) and
        one stateless scan keeps rows strictly above their type's p99.

    Composition story: any exact-quantile cut at any scale costs one
    histogram exchange + one filter scan — the rows themselves never
    shuffle."""
    thr_t = collect(event_quantiles(sf_dir))
    thr = dict(zip(thr_t["event_type"].to_pylist(),
                   thr_t["p99_milli"].to_pylist()))

    def keep(b: pa.Table) -> pa.Table:
        milli = _i64(pc.floor(pc.multiply(b["value"], 1000.0))) \
            .to_numpy(zero_copy_only=False)
        types = b["event_type"].to_pylist()
        p99 = np.fromiter((thr[t] for t in types), dtype=np.int64,
                          count=len(types))
        m = milli > p99
        return pa.table({
            "event_id": pa.array(
                b["event_id"].to_numpy(zero_copy_only=False)[m]),
            "event_type": pa.array(np.asarray(types, dtype=object)[m],
                                   type=pa.string()),
            "value_milli": pa.array(milli[m]),
        })

    return scan_parquet(_pq(sf_dir, "events"),
                        columns=["event_id", "event_type", "value"]) \
        .map_batches(keep, batch_format="pyarrow")
