"""Session-5 analytics / lakehouse operators (q81+).

The reference library stops at archive I/O (SURVEY.md §2.A); these are
graft-layer operators a crawl+training substrate needs around the
archives: CDC merge (lakehouse upsert), order-sensitive group
aggregates, exact-sums statistics, semi-structured extraction, cohort
analytics, tokenizer vocab construction, asymmetric containment
dedup, and source-mixture sampling.

Cross-engine exactness follows the house rules (relational.py header):
integer units before any sum, md5-derived determinism for anything
sampled, floats only as a FINAL single expression both engines compute
identically from exact integer inputs.  Each operator's DuckDB twin
lives in ``warc_ray/oracle_sql/analytics.py``, which this module never
imports.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..sources._util import read_parquet, scan_parquet
from ..stages.exchange import (bucket_exchange, collect, combine_buckets,
                               from_arrow, materialize, segment_bounds,
                               sort_result, with_part)

INT64 = pa.int64()


def _epoch_us(iso_date: str) -> int:
    """Epoch microseconds of ``iso_date`` at 00:00 UTC."""
    return int(np.datetime64(iso_date, "us").astype(np.int64))


def _pq(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _docs(sf_dir: str, columns=None):
    return scan_parquet(_pq(sf_dir, "documents"), columns=columns)


def _sums(ds, cols: list[str]) -> dict:
    """``Dataset.sum(cols)`` of a small partials Dataset, through one
    ``collect`` (Ray's aggregate is one more execution): column ->
    exact Python-int sum of its non-null values, or None for an empty
    Dataset, as Ray gives."""
    t = collect(ds)
    return {c: sum(v for v in t[c].to_pylist() if v is not None)
            if t.num_rows else None for c in cols}


def _md5_hex(strs: list[str]) -> list[str]:
    from ..stages.md5vec import md5_hex
    return md5_hex(strs).to_pylist()


def _grp_span_chunks(n_groups: int, span: int, starts, n_rows: int):
    """Slices for the composite ``grp * span + offset`` int64 encoding
    used by the segmented-scan operators (q200 interval union, q203
    burst windows): yields ``(row_lo, row_hi, g_lo)`` such that
    ``(g - g_lo + 1) * span < 2^62`` inside every slice — the encoding
    can NEVER overflow int64 regardless of groups-per-bucket (round-2
    ADVICE: grp*span wrapped silently past ~3e5 year-long users per
    bucket).  Slices align to group boundaries, so per-group scans
    reset naturally at slice edges; with realistic spans there is one
    slice and the fast path is identical to the unchunked code."""
    per = max(1, (1 << 62) // max(int(span), 1) - 1)
    if n_groups <= per:
        yield 0, n_rows, 0
        return
    g = 0
    while g < n_groups:
        g_hi = min(g + per, n_groups)
        row_lo = int(starts[g])
        row_hi = int(starts[g_hi]) if g_hi < n_groups else n_rows
        yield row_lo, row_hi, g
        g = g_hi


def _user_timeline(sf_dir: str, columns: list[str], bucket_fn, *,
                   npart: int, order=("user_id", "ts", "event_id"),
                   reduce=None):
    """The per-user event plan: read ``columns`` of ``events`` (``ts``
    cast to int64 epoch-µs), apply ``reduce(batch)`` per batch when
    given (a filter, mapping or combiner that keeps ``user_id``), tag
    ``part = user_id % npart`` and run ONE ``bucket_exchange``, which
    co-locates each user's rows.  ``bucket_fn(t, starts)`` runs once
    per bucket on the bucket's rows sorted by the ``order`` columns
    (first key major, ``user_id`` first) with ``starts`` the first row
    of each user; ``order=None`` skips the sort and passes ``starts=
    None``.  Returns the materialized bucket outputs."""

    def tag(b: pa.Table) -> pa.Table:
        if "ts" in b.column_names:
            b = b.set_column(b.column_names.index("ts"), "ts",
                             pc.cast(b["ts"], INT64))
        if reduce is not None:
            b = reduce(b)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        return b.append_column("part", pa.array((u % npart).astype(np.int32)))

    def bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["part"])
        if order is None:
            return bucket_fn(g, None)
        g = g.take(np.lexsort([g[c].to_numpy(zero_copy_only=False)
                               for c in reversed(order)]))
        u = g["user_id"].to_numpy(zero_copy_only=False)
        new = np.ones(len(u), dtype=bool)
        np.not_equal(u[1:], u[:-1], out=new[1:])
        return bucket_fn(g, np.flatnonzero(new))

    return bucket_exchange(
        scan_parquet(_pq(sf_dir, "events"), columns=columns)
        .map_batches(tag, batch_format="pyarrow"), bucket)


# ---------------------------------------------------------------------------
# Q89: PIVOT (rows → typed count columns per day)
# ---------------------------------------------------------------------------

_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def _day_type_counts(sf_dir: str) -> pa.Table:
    """(day, event_type, n): event counts per (UTC day since the epoch,
    type), in no particular order."""

    def partial(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor(pc.divide(
            pc.cast(b["ts"], INT64), 86_400_000_000)), INT64)
        return pa.table({"day": days, "event_type": b["event_type"]})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow"),
        ["day", "event_type"], [("n", "count")])
    return collect(agg)


def pivot_events(sf_dir: str):
    """q89: reshape the event log into one row per day with one count
    column per event type — the PIVOT/crosstab operator (conditional
    aggregation), the report shape dashboards consume.

    Scale shape: per-batch (day, type) count partials → tiny
    (days × types) reduce → driver-side pivot of the tiny table.  The
    pivoted column set is the FIXED event-type domain (pivot requires
    a known column domain in any engine — DuckDB's PIVOT samples it,
    we declare it)."""

    t = _day_type_counts(sf_dir)
    days = t["day"].to_numpy(zero_copy_only=False)
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    uday = np.unique(days)
    cols = {f"n_{ty}": np.zeros(len(uday), dtype=np.int64)
            for ty in _EVENT_TYPES}
    idx = np.searchsorted(uday, days)
    for ty in _EVENT_TYPES:
        m = et == ty
        cols[f"n_{ty}"][idx[m]] = n[m]
    iso = [str(np.datetime64(int(d) * 86_400, "s"))[:10] for d in uday]
    out = {"day": pa.array(iso, type=pa.string())}
    out.update({k: pa.array(v, type=INT64) for k, v in cols.items()})
    return pa.table(out)


# ---------------------------------------------------------------------------
# Q90: ordered funnel (view → click → purchase)
# ---------------------------------------------------------------------------

def funnel(sf_dir: str, npart: int = 32):
    """q90: strict-order funnel — users whose first ``view`` precedes a
    later ``click`` which precedes a later ``purchase``; counts per
    stage.  The sequential-pattern analytic (conversion funnels,
    session flows) that needs per-user EVENT ORDER, not just counts.

    Scale shape: only view/click/purchase rows shuffle through ONE
    user exchange (``_user_timeline``); each bucket, sorted by (user,
    ts, event_id), resolves its users' stage times with three
    vectorized first-of-user passes (first view → first later click →
    first later purchase).  Output is one row."""

    KINDS = pa.array(["view", "click", "purchase"])

    def kinds(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["event_type"], value_set=KINDS))
        return b.append_column(
            "kind", pc.index_in(b["event_type"], value_set=KINDS))

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        k = g["kind"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)

        def first_after(kind: int, users=None, after=None):
            """(users', t'): each user's first ``kind`` event, later
            than ``after[i]`` for ``users[i]`` (sorted) when given."""
            m = k == kind
            if users is not None:
                if not len(users):
                    return users, after
                pos = np.minimum(np.searchsorted(users, u), len(users) - 1)
                m &= (users[pos] == u) & (ts > after[pos])
            eu, ets = u[m], ts[m]
            firsts = np.ones(len(eu), dtype=bool)
            np.not_equal(eu[1:], eu[:-1], out=firsts[1:])
            return eu[firsts], ets[firsts]

        u1, t1 = first_after(0)
        u2, t2 = first_after(1, u1, t1)
        u3, _ = first_after(2, u2, t2)
        return pa.table({
            "n_view": pa.array([len(u1)], type=INT64),
            "n_click": pa.array([len(u2)], type=INT64),
            "n_purchase": pa.array([len(u3)], type=INT64),
        })

    parts = _user_timeline(sf_dir, ["user_id", "ts", "event_id",
                                    "event_type"], bucket,
                           npart=npart, reduce=kinds)
    t = collect(parts)
    return pa.table({
        "n_view": pa.array([int(pc.sum(t["n_view"]).as_py())], type=INT64),
        "n_click": pa.array([int(pc.sum(t["n_click"]).as_py())], type=INT64),
        "n_purchase": pa.array([int(pc.sum(t["n_purchase"]).as_py())],
                               type=INT64),
    })


# ---------------------------------------------------------------------------
# Q92: event debounce (windowed LAG dedup)
# ---------------------------------------------------------------------------

def debounce_events(sf_dir: str, gap_us: int = 300_000_000,
                    npart: int = 32):
    """q92: keep an event only if ≥ ``gap_us`` has passed since the
    PREVIOUS event of the same (user, type) — the LAG-window dedup
    (double-click suppression, retry collapsing; previous-ROW
    semantics, the SQL-window-expressible debounce).  Ties at the
    same timestamp keep the smallest event_id and drop the rest.

    Scale shape: one user exchange (``_user_timeline``) with buckets
    sorted by (user, type, ts, event_id) and one vectorized diff;
    output reduces to per-type totals."""

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ty = g["event_type"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        keep = np.zeros(len(ts), dtype=bool)
        keep[starts] = True             # first row of a (user, type) key
        keep[1:] |= (ty[1:] != ty[:-1]) | (np.diff(ts) >= gap_us)
        return pa.table({"event_type": g["event_type"],
                         "n_kept": pa.array(keep.astype(np.int64),
                                            type=INT64)})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["event_id", "user_id", "ts", "event_type"], bucket,
        npart=npart, order=("user_id", "event_type", "ts", "event_id")),
        "event_type", [("n_total", "count"), ("n_kept", "sum")])
    return collect(agg) \
        .sort_by("event_type")


# ---------------------------------------------------------------------------
# Q93: bigram conditional top-k (Markov transition table)
# ---------------------------------------------------------------------------

def bigram_topk(sf_dir: str, k: int = 3, npart: int = 32):
    """q93: for every head token the top-``k`` FOLLOWING tokens by
    bigram count (ties to the smaller token) — the Markov transition
    table / next-word statistics pass.

    Scale shape: per-batch bigram combiner → ONE hash exchange on the
    HEAD token (all of a head's continuations meet in one bucket, so
    the grouped top-k is bucket-local) → vectorized per-bucket rank
    cut.  Nothing re-aggregates globally."""

    def partial(b: pa.Table) -> pa.Table:
        import re
        wre = re.compile(r"[a-z0-9]+")
        heads: list[str] = []
        tails: list[str] = []
        for txt in b["text"].to_pylist():
            toks = wre.findall(txt.lower())
            heads.extend(toks[:-1])
            tails.extend(toks[1:])
        t = pa.table({"head": pa.array(heads, type=pa.string()),
                      "tail": pa.array(tails, type=pa.string())})
        p = t.group_by(["head", "tail"]).aggregate([("tail", "count")]) \
            .rename_columns(["head", "tail", "n"])
        return with_part(p, "head", npart)

    def bucket(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks()
        t = t.group_by(["head", "tail"]).aggregate([("n", "sum")]) \
            .rename_columns(["head", "tail", "n"])
        h = np.asarray(t["head"].to_pylist(), dtype=object)
        tl = np.asarray(t["tail"].to_pylist(), dtype=object)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tl, -n, h))
        h, tl, n = h[order], tl[order], n[order]
        _, rank = segment_bounds(h)
        keep = rank < k
        return pa.table({
            "head": pa.array(h[keep].tolist(), type=pa.string()),
            "tail": pa.array(tl[keep].tolist(), type=pa.string()),
            "n": pa.array(n[keep], type=INT64),
            "rank": pa.array(rank[keep] + 1, type=INT64),
        })

    return bucket_exchange(
        _docs(sf_dir, columns=["text"])
        .map_batches(partial, batch_format="pyarrow"), bucket)


# ---------------------------------------------------------------------------
# Q94: cumulative distinct users by day (running distinct count)
# ---------------------------------------------------------------------------

def cumulative_users(sf_dir: str, npart: int = 32):
    """q94: per day the number of NEW users (first event that day) and
    the running total of distinct users seen so far — the growth-curve
    analytic, i.e. a windowed COUNT(DISTINCT) made exact by reducing
    it to first-touch attribution.

    Scale shape: distinct (user, day) partials → ONE user exchange
    (``_user_timeline``, buckets sorted by (user, day)) → each user's
    first day → tiny per-day count → driver prefix sum over the
    days-sized table."""

    def pairs(b: pa.Table) -> pa.Table:
        days = b["ts"].to_numpy(zero_copy_only=False) // 86_400_000_000
        return pa.table({"user_id": b["user_id"],
                         "day": pa.array(days, type=INT64)}) \
            .group_by(["user_id", "day"]).aggregate([])

    agg = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts"],
        lambda g, starts: g.select(["day"]).take(starts),
        npart=npart, order=("user_id", "day"), reduce=pairs),
        "day", [("n_new", "count")])
    t = collect(agg)
    d = t["day"].to_numpy(zero_copy_only=False)
    n = t["n_new"].to_numpy(zero_copy_only=False)
    order = np.argsort(d)
    d, n = d[order], n[order]
    iso = [str(np.datetime64(int(x) * 86_400, "s"))[:10] for x in d]
    return pa.table({
        "day": pa.array(iso, type=pa.string()),
        "n_new": pa.array(n, type=INT64),
        "cum_users": pa.array(np.cumsum(n), type=INT64),
    })


# ---------------------------------------------------------------------------
# Q95: token co-occurrence association (integer-PMI word pairs)
# ---------------------------------------------------------------------------

def cooccurrence(sf_dir: str, v: int = 16, topk: int = 20,
                 npart: int = 32):
    """q95: top word-pair associations — document co-occurrence of the
    top-``v`` vocabulary ranked by the exact integer association ratio
    ``ppm(P(a,b)/(P(a)P(b))) = n_ab·N·10⁶ // (n_a·n_b)`` (the PMI
    argument, kept rational so both engines rank identically without a
    log) — the word-association / embedding-prep statistics pass.

    Scale shape: the q86 vocab fabric yields the tiny vocab, which
    broadcasts in the second scan's task closure; each batch emits
    (pair, count) partials over the v² bounded domain; one tiny reduce
    + driver rank.  Nothing quadratic in corpus size anywhere."""
    vocab_t = vocab_build(sf_dir, v=v, npart=npart)
    vocab = vocab_t["token"].to_pylist()
    vset = {w: i for i, w in enumerate(sorted(vocab))}

    def partial(b: pa.Table) -> pa.Table:
        import re
        wre = re.compile(r"[a-z0-9]+")
        v_n = len(vset)
        ndoc = b.num_rows
        present = np.zeros((ndoc, v_n), dtype=bool)
        for r, txt in enumerate(b["text"].to_pylist()):
            for w in wre.findall(txt.lower()):
                i = vset.get(w)
                if i is not None:
                    present[r, i] = True
        co = present.T.astype(np.int64) @ present.astype(np.int64)
        ia, ib = np.triu_indices(v_n, k=0)     # k=0: diagonal = n_a
        cnt = co[ia, ib]
        nz = cnt > 0
        toks = sorted(vset)
        return pa.table({
            "tok_a": pa.array([toks[i] for i in ia[nz]], type=pa.string()),
            "tok_b": pa.array([toks[i] for i in ib[nz]], type=pa.string()),
            "n": pa.array(cnt[nz], type=INT64),
        })

    agg = combine_buckets(
        _docs(sf_dir, columns=["text"]).map_batches(partial,
                                                    batch_format="pyarrow"),
        ["tok_a", "tok_b"], [("n", "sum")])
    # total docs: cheap exact count (metadata-only on parquet)
    n_total = _docs(sf_dir, columns=["doc_id"]).count()
    t = collect(agg)
    a = np.asarray(t["tok_a"].to_pylist(), dtype=object)
    b_ = np.asarray(t["tok_b"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    diag = {w: c for w, bb, c in zip(a, b_, n) if w == bb}
    off = a != b_
    a, b_, n = a[off], b_[off], n[off]
    na = np.array([diag[x] for x in a], dtype=np.int64)
    nb = np.array([diag[x] for x in b_], dtype=np.int64)
    assoc = n * np.int64(n_total) * np.int64(1_000_000) // (na * nb)
    order = np.lexsort((b_, a, -assoc))[:topk]
    return pa.table({
        "tok_a": pa.array(a[order].tolist(), type=pa.string()),
        "tok_b": pa.array(b_[order].tolist(), type=pa.string()),
        "n_ab": pa.array(n[order], type=INT64),
        "assoc_ppm": pa.array(assoc[order], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q97: session path trigrams (sequence mining inside q08 sessions)
# ---------------------------------------------------------------------------

def session_trigrams(sf_dir: str, topk: int = 10, gap_minutes: int = 30,
                     npart: int = 32):
    """q97: most frequent 3-step event-type paths WITHIN a session —
    sequence mining over q08's gap-sessionization (what do users do in
    what order?), ordered by (ts, event_id) so ties are deterministic.

    Scale shape: one user exchange (``_user_timeline``, q08's fabric);
    per (user, ts, event_id)-sorted bucket the session cuts AND all
    in-session trigrams come out vectorized (three shifted views of
    the type array masked by same-session); counts reduce over the
    tiny type³ domain; final top-k is driver arithmetic."""
    gap_us = np.int64(gap_minutes) * 60_000_000

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        ty = g["event_type"].to_numpy(zero_copy_only=False)
        n = len(ts)
        if n < 3:
            return pa.table({"trigram": pa.array([], type=pa.string())})
        new_sess = np.zeros(n, dtype=bool)
        new_sess[starts] = True
        new_sess[1:] |= np.diff(ts) > gap_us
        # a trigram starting at i is valid iff rows i+1, i+2 are in the
        # same session (no new-session break inside the window)
        ok = ~(new_sess[1:-1] | new_sess[2:])
        tri = np.char.add(np.char.add(
            np.char.add(ty[:-2].astype(str), ">"),
            np.char.add(ty[1:-1].astype(str), ">")), ty[2:].astype(str))
        return pa.table({"trigram": pa.array(tri[ok].tolist(),
                                             type=pa.string())})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["event_id", "user_id", "ts", "event_type"], bucket,
        npart=npart),
        "trigram", [("n", "count")])
    t = collect(agg)
    tri = np.asarray(t["trigram"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    order = np.lexsort((tri, -n))[:topk]
    return pa.table({
        "trigram": pa.array(tri[order].tolist(), type=pa.string()),
        "n": pa.array(n[order], type=INT64),
        "rank": pa.array(np.arange(1, len(order) + 1), type=INT64),
    })


# ---------------------------------------------------------------------------
# Q98: incremental aggregate maintenance (IVM merge contract)
# ---------------------------------------------------------------------------

def incremental_agg(sf_dir: str, state_dir: str | None = None):
    """q98: incremental view maintenance — ``merge(agg(base),
    agg(delta)) == agg(all)`` without rescanning the base: the daily
    incremental-ingest contract every warehouse pipeline relies on.

    Base = orders whose key md5 does NOT start in ``0-2``; delta = the
    rest (~3/16, "today's ingest").  The base aggregate state is
    materialized to partitioned parquet and READ BACK (the persisted
    state is part of the operator — a rerun reuses it), the delta is
    aggregated from a pruned scan, and the merge is one tiny groupby
    over state ∪ delta partials.  The oracle aggregates everything
    from scratch — equality proves the maintenance identity."""
    import shutil

    out = state_dir or os.path.join(
        "/tmp/warc_ray_bench",
        f"ivm-state-{os.path.basename(sf_dir.rstrip('/'))}")

    def split(b: pa.Table, want_delta: bool) -> pa.Table:
        keys = b["o_orderkey"].to_numpy(zero_copy_only=False)
        hexes = _md5_hex([str(int(k)) for k in keys])
        is_delta = np.array([h[0] in "012" for h in hexes])
        b = b.filter(pa.array(is_delta if want_delta else ~is_delta))
        cents = pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0)),
                        INT64)
        return pa.table({"o_orderstatus": b["o_orderstatus"],
                         "n_orders": pa.nulls(b.num_rows, INT64).fill_null(1),
                         "sum_cents": cents})

    orders = lambda: scan_parquet(  # noqa: E731
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice", "o_orderstatus"])
    aggs = [("n_orders", "sum"), ("sum_cents", "sum")]

    if not os.path.isdir(out) or not os.listdir(out):
        shutil.rmtree(out, ignore_errors=True)
        combine_buckets(orders().map_batches(lambda b: split(b, False),
                                             batch_format="pyarrow"),
                        "o_orderstatus", aggs).write_parquet(out)

    state = scan_parquet(out)
    delta = orders().map_batches(lambda b: split(b, True),
                                 batch_format="pyarrow")
    agg = combine_buckets(state.union(delta), "o_orderstatus", aggs)
    return collect(agg) \
        .sort_by("o_orderstatus")


# ---------------------------------------------------------------------------
# Q91: link-graph degree histograms (corpus-backed)
# ---------------------------------------------------------------------------

def degree_histogram(docs_path: str, npart: int = 32):
    """q91: in-/out-degree histograms of the crawl link graph over
    distinct (source doc, target url) edges — the graph-shape
    diagnostic (power-law check, supernode detection) run before any
    graph algorithm; zero-outlink docs count in the out-side bucket 0.

    Scale shape: ONE scan over the span kernels (no per-link sha1 —
    the frontier's url identity pipeline is NOT needed for counting,
    so edges travel as two 64-bit hashes, never strings).  Out-degree
    is batch-local (a doc's spans are one row) and folds to a
    histogram before leaving the task; in-degree edges ride the SAME
    output table through one url-hash exchange (hist rows carry
    part ≥ npart and pass through their bucket untouched).  Everything
    downstream of the scan is integer-only."""
    from ..stages.exchange import hash64_strings

    REF_KINDS = pa.array(["link", "image", "video"])

    def scan(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        m = pc.is_in(flat.field("kind"), value_set=REF_KINDS)
        urls = pc.filter(flat.field("media_ref"), m)
        par = pc.filter(parents, m).to_numpy(zero_copy_only=False)
        uh = hash64_strings(urls).view(np.int64)
        # batch-local distinct (doc row, url): one lexsort
        order = np.lexsort((uh, par))
        par, uh = par[order], uh[order]
        uniq = np.concatenate(
            ([True], (par[1:] != par[:-1]) | (uh[1:] != uh[:-1])))
        par, uh = par[uniq], uh[uniq]
        # out-degree histogram folds before leaving the task
        deg = np.bincount(par, minlength=b.num_rows)
        hist = np.bincount(deg)
        hd = np.flatnonzero(hist)
        # doc identity for the in-side global distinct
        dh = hash64_strings(b["doc_id"]).view(np.int64)[par]
        kind = np.concatenate((np.zeros(len(uh), np.int8),
                               np.ones(len(hd), np.int8)))
        a = np.concatenate((uh, hd.astype(np.int64)))
        v = np.concatenate((dh, hist[hd].astype(np.int64)))
        part = np.concatenate((
            (uh.view(np.uint64) % np.uint64(npart)).astype(np.int32),
            np.full(len(hd), npart, dtype=np.int32)))
        return pa.table({"kind": pa.array(kind),
                         "a": pa.array(a, type=INT64),
                         "v": pa.array(v, type=INT64),
                         "part": pa.array(part)})

    def bucket(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        a = g["a"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        if kind[0] == 1:                       # out-side histogram partials
            return pa.table({"degree": pa.array(a, type=INT64),
                             "n": pa.array(v, type=INT64),
                             "side": pa.array(["out"] * len(a),
                                              type=pa.string())})
        # in-side: global distinct (url_h, doc_h) then count per url
        order = np.lexsort((v, a))
        a, v = a[order], v[order]
        uniq = np.concatenate(
            ([True], (a[1:] != a[:-1]) | (v[1:] != v[:-1])))
        a = a[uniq]
        starts = np.flatnonzero(np.concatenate(
            ([True], a[1:] != a[:-1], [True])))
        deg = np.diff(starts)
        hist = np.bincount(deg)
        hd = np.flatnonzero(hist)
        return pa.table({
            "degree": pa.array(hd.astype(np.int64), type=INT64),
            "n": pa.array(hist[hd].astype(np.int64), type=INT64),
            "side": pa.array(["in"] * len(hd), type=pa.string()),
        })

    agg = combine_buckets(bucket_exchange(
        read_parquet(docs_path, columns=["doc_id", "spans"])
        .map_batches(scan, batch_format="pyarrow"), bucket),
        ["side", "degree"], [("n", "sum")])
    return collect(agg) \
        .sort_by([("side", "ascending"), ("degree", "ascending")])


# ---------------------------------------------------------------------------
# Q100: TPC-H Q3 shape (dim filter broadcast → fact⋈fact join → top-k)
# ---------------------------------------------------------------------------

_Q3_CUTOFF_US = _epoch_us("1995-03-15")


def shipping_priority(sf_dir: str, segment: str = "BUILDING",
                      k: int = 10):
    """q100: the canonical TPC-H Q3 composition — a small filtered
    dimension BROADCAST (customer segment), a both-sides-large fact
    join (orders ⋈ lineitem through ``exchange.hash_join``), grouped
    revenue, global top-k: every primitive the engine has, in the
    order a real report uses them.

    Revenue accumulates in exact (cents × percent) integer units
    (q01's convention) and converts to a double ONCE at the end, so
    the top-k order and values bit-match the oracle."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import hash_join

    cust = _pq2.read_table(_pq(sf_dir, "customer"),
                           columns=["c_custkey", "c_mktsegment"])
    keep = pc.equal(cust["c_mktsegment"], segment)
    ck_arr = np.sort(cust.filter(keep)["c_custkey"]
                     .to_numpy(zero_copy_only=False))

    def orders_side(b: pa.Table) -> pa.Table:
        m = pc.less(pc.cast(b["o_orderdate"], INT64),
                    pa.scalar(_Q3_CUTOFF_US, type=INT64))
        b = b.filter(m)
        inseg = np.isin(b["o_custkey"].to_numpy(zero_copy_only=False),
                        ck_arr)
        b = b.filter(pa.array(inseg))
        return pa.table({"l_orderkey": b["o_orderkey"],
                         "o_orderdate": b["o_orderdate"],
                         "o_orderpriority": b["o_orderpriority"]})

    def line_side(b: pa.Table) -> pa.Table:
        m = pc.greater(pc.cast(b["l_shipdate"], INT64),
                       pa.scalar(_Q3_CUTOFF_US, type=INT64))
        b = b.filter(m)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, type=INT64),
                                             disc))
        t = pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})
        return t.group_by(["l_orderkey"]).aggregate([("rev", "sum")]) \
            .rename_columns(["l_orderkey", "rev"])

    orders = scan_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"]) \
        .map_batches(orders_side, batch_format="pyarrow")
    lines = scan_parquet(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]) \
        .map_batches(line_side, batch_format="pyarrow")
    def topk_finish(j: pa.Table) -> pa.Table:
        # fused inside the join bucket (bucket_finish): an orderkey's
        # joined rows are complete here, so the grouped sum is final
        # and the bucket's top-k is a valid global-top-k superset
        t = j.group_by(["l_orderkey", "o_orderdate", "o_orderpriority"]) \
            .aggregate([("rev", "sum")]) \
            .rename_columns(["l_orderkey", "o_orderdate",
                             "o_orderpriority", "rev"])
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("rev", "descending"), ("l_orderkey", "ascending")]))
        return t.slice(0, k)

    parts = hash_join(lines, orders, "l_orderkey", how="inner",
                      bucket_finish=topk_finish)
    t = collect(parts)
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("rev", "descending"), ("l_orderkey", "ascending")])).slice(0, k)
    return pa.table({
        "l_orderkey": t["l_orderkey"],
        "revenue": pc.divide(pc.cast(t["rev"], pa.float64()), 10_000.0),
        "o_orderdate": t["o_orderdate"],
        "o_orderpriority": t["o_orderpriority"],
    })


# ---------------------------------------------------------------------------
# Q101: bucketed storage layout → shuffle-free grouped consumer
# ---------------------------------------------------------------------------

def bucketed_dedup(sf_dir: str, n_buckets: int = 32,
                   layout_dir: str | None = None):
    """q101: the bucketing optimization — pay ONE hash-partitioned
    write (``bucket = hash(key) % n``, hive layout), then every
    downstream key-aligned consumer is SHUFFLE-FREE: each bucket dir
    is complete for its keys, so a grouped op is one independent read
    task per bucket.  This is the brief's "pick ONE partitioning key
    and reuse it across stages" made storage-durable (Hive/Iceberg
    bucketed tables / Spark bucketBy).

    The consumer here is q20's exact dedup (keep-first per text):
    identical result, but after the layout write the dedup itself
    moves ZERO rows between workers — at 100 TB the layout is written
    once and amortized over every dedup / join / groupby on the key.
    A rerun reuses a complete layout (resumable-output contract)."""
    import shutil

    from ..stages.exchange import hash64_strings

    out = layout_dir or os.path.join(
        "/tmp/warc_ray_bench",
        f"bucketed-{os.path.basename(sf_dir.rstrip('/'))}-{n_buckets}")
    done = out + ".DONE"

    def add_bucket(b: pa.Table) -> pa.Table:
        h = hash64_strings(b["text"])
        return b.append_column(
            "bucket", pa.array((h % np.uint64(n_buckets))
                               .astype(np.int32)))

    if not os.path.exists(done):
        shutil.rmtree(out, ignore_errors=True)
        _docs(sf_dir, columns=["doc_id", "text"]) \
            .map_batches(add_bucket, batch_format="pyarrow") \
            .write_parquet(out, partition_cols=["bucket"])
        open(done, "w").write("ok")

    buckets = sorted(d for d in os.listdir(out)
                     if d.startswith("bucket="))

    def dedup_bucket(b: pa.Table) -> pa.Table:
        import pyarrow.parquet as _pq2
        t = _pq2.read_table(os.path.join(out, b["dir"][0].as_py()),
                            columns=["doc_id", "text"])
        # bucket-local == global for this key: one vectorized pass
        p = t.group_by(["text"]).aggregate(
            [("doc_id", "min"), ("doc_id", "count")])
        return pa.table({
            "keep_doc": pc.cast(p["doc_id_min"], INT64),
            "n_copies": pc.cast(p["doc_id_count"], INT64),
        })

    return rd.from_items([{"dir": d} for d in buckets]) \
        .repartition(len(buckets)) \
        .map_batches(dedup_bucket, batch_format="pyarrow", batch_size=1)


# ---------------------------------------------------------------------------
# Q102: small-file compaction (lakehouse OPTIMIZE)
# ---------------------------------------------------------------------------

_MERSENNE61 = (1 << 61) - 1


def compact_files(sf_dir: str, target_rows: int = 4096,
                  work_dir: str | None = None):
    """q102: lakehouse OPTIMIZE — bin-pack many small parquet files
    into few size-targeted ones, preserving content exactly.  Small
    files are the #1 operational failure of streaming writers at
    scale; compaction is the maintenance operator every table format
    ships.

    Scale shape: the plan is METADATA-ONLY (footer row counts — file
    bodies are never read by the driver); each output file is one
    task reading only its input group (first-fit bin packing); the
    content proof is an order-free integer checksum (Σ md5₆₄(doc_id)
    mod 2⁶¹−1) computed DURING the rewrite and compared to the
    source-model oracle — any lost/duplicated/corrupted row shifts
    it.  Output: one manifest row."""
    import shutil

    import pyarrow.parquet as _pq2

    work = work_dir or os.path.join(
        "/tmp/warc_ray_bench",
        f"compact-{os.path.basename(sf_dir.rstrip('/'))}")
    small, outd = os.path.join(work, "small"), os.path.join(work, "out")

    # stage 0: a deliberately fragmented copy (streaming-writer shape)
    if not os.path.exists(small + ".DONE"):
        shutil.rmtree(small, ignore_errors=True)
        scan_parquet(_pq(sf_dir, "documents"),
                     columns=["doc_id", "text"]) \
            .repartition(64).write_parquet(small)
        open(small + ".DONE", "w").write("ok")

    files = sorted(os.path.join(small, f) for f in os.listdir(small)
                   if f.endswith(".parquet"))
    rows = [_pq2.read_metadata(f).num_rows for f in files]
    groups: list[dict] = []
    cur: list[str] = []
    acc = 0
    for f, r in zip(files, rows):               # first-fit bin packing
        if cur and acc + r > target_rows:
            groups.append({"files": cur, "gid": len(groups)})
            cur, acc = [], 0
        cur.append(f)
        acc += r
    if cur:
        groups.append({"files": cur, "gid": len(groups)})

    shutil.rmtree(outd, ignore_errors=True)
    os.makedirs(outd, exist_ok=True)

    def rewrite(b: pa.Table) -> pa.Table:
        import hashlib as _h
        gid = int(b["gid"][0].as_py())
        t = pa.concat_tables([_pq2.read_table(f)
                              for f in b["files"][0].as_py()])
        _pq2.write_table(t, os.path.join(outd, f"part-{gid:05d}.parquet"))
        ck = 0
        for d in t["doc_id"].to_pylist():
            ck = (ck + int.from_bytes(
                _h.md5(str(d).encode()).digest()[:8], "big")) % _MERSENNE61
        return pa.table({"n_rows": pa.array([t.num_rows], type=INT64),
                         "checksum": pa.array([ck], type=INT64),
                         "n_files": pa.array([1], type=INT64)})

    man = rd.from_items(groups).repartition(max(len(groups), 1)) \
        .map_batches(rewrite, batch_format="pyarrow", batch_size=1)
    t = collect(man)
    ck = 0
    for c in t["checksum"].to_pylist():
        ck = (ck + c) % _MERSENNE61
    return pa.table({
        "n_files_before": pa.array([len(files)], type=INT64),
        "n_files_after": pa.array([int(pc.sum(t["n_files"]).as_py())],
                                  type=INT64),
        "n_rows": pa.array([int(pc.sum(t["n_rows"]).as_py())], type=INT64),
        "checksum": pa.array([ck], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q104: UNPIVOT / melt (wide → long reshape)
# ---------------------------------------------------------------------------

def unpivot_lineitem(sf_dir: str):
    """q104: the inverse reshape of q89's PIVOT — melt the per
    (returnflag, linestatus) wide aggregate into long (group, metric,
    value) rows, the feed shape for metric stores and plotting layers.

    Scale shape: the wide table is the OUTPUT of q01's tiny reduce
    (groups × metrics rows total), so the melt is driver arithmetic —
    the engine cost is the same partials-then-tiny-reduce scan."""

    def partial(b: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(b["l_quantity"]), INT64)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "l_linestatus": b["l_linestatus"],
                         "sum_qty": qty, "sum_cents": cents})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_returnflag", "l_linestatus",
                                 "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("sum_qty", "sum"), ("sum_cents", "sum"), ("n_rows", "count")])
    t = collect(agg)
    rf, ls, out_m, out_v = [], [], [], []
    for i in range(t.num_rows):
        for metric in ("sum_qty", "sum_cents", "n_rows"):
            rf.append(t["l_returnflag"][i].as_py())
            ls.append(t["l_linestatus"][i].as_py())
            out_m.append(metric)
            out_v.append(int(t[metric][i].as_py()))
    return pa.table({
        "l_returnflag": pa.array(rf, type=pa.string()),
        "l_linestatus": pa.array(ls, type=pa.string()),
        "metric": pa.array(out_m, type=pa.string()),
        "value": pa.array(out_v, type=INT64),
    }).sort_by([("l_returnflag", "ascending"),
                ("l_linestatus", "ascending"),
                ("metric", "ascending")])


# ---------------------------------------------------------------------------
# Q105: PERCENT_RANK over the distributed global sort
# ---------------------------------------------------------------------------

def percent_rank_orders(sf_dir: str):
    """q105: PERCENT_RANK — (rank−1)/(n−1) over the q70 range-sort's
    exact global ranks: the normalized-rank window every scoring
    pipeline ends with, and proof the distributed sort's ranks
    compose into window functions.  ``n`` is a broadcast scalar; the
    double division is the identical final expression both engines
    evaluate on exact ints (ties impossible: rank is unique)."""
    from . import relational as rel

    ranked = rel.global_sort_orders(sf_dir)
    n = pq_rowcount(_pq(sf_dir, "orders"))

    def add_pct(b: pa.Table) -> pa.Table:
        r = b["rank"].to_numpy(zero_copy_only=False)
        pct = (r - 1).astype(np.float64) / np.float64(n - 1)
        return b.append_column("pct_rank", pa.array(pct))

    return ranked.map_batches(add_pct, batch_format="pyarrow")


def pq_rowcount(path: str) -> int:
    import pyarrow.parquet as _pq2
    return _pq2.read_metadata(path).num_rows


# ---------------------------------------------------------------------------
# Q106: median absolute deviation (robust dispersion, two-pass exact)
# ---------------------------------------------------------------------------

def _bucket_median(g: pa.Table) -> pa.Table:
    """One group = one type's full (milli, cnt) histogram →
    percentile_disc(0.5) as a single row."""
    m = g["milli"].to_numpy(zero_copy_only=False)
    c = g["cnt"].to_numpy(zero_copy_only=False)
    order = np.argsort(m)
    m, c = m[order], c[order]
    uniq = np.concatenate(([True], m[1:] != m[:-1]))
    idx = np.flatnonzero(uniq)
    mu = m[idx]
    cum = np.add.reduceat(c, idx).cumsum()
    n = int(cum[-1])
    i = (n + 1) // 2                            # ceil(0.5 n), 1-based
    med = int(mu[np.searchsorted(cum, i, side="left")])
    return pa.table({"event_type": pa.array(
        [g["event_type"][0].as_py()], type=pa.string()),
        "median": pa.array([med], type=INT64)})


def event_mad(sf_dir: str):
    """q106: per-type median absolute deviation — the robust
    dispersion statistic (outlier-insensitive, unlike q110's σ), exact
    in two histogram passes: pass 1 the q15 value-histogram fabric
    yields each type's exact median; pass 2 histograms |v − median|
    with the medians broadcast in the task closure.  Shuffles carry
    (type × distinct value) histograms, never rows."""

    def hist(b: pa.Table, med: dict | None = None) -> pa.Table:
        milli = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        et = b["event_type"]
        if med is not None:
            base = np.array([med[x] for x in et.to_pylist()],
                            dtype=np.int64)
            milli = np.abs(milli - base)
        t = pa.table({"event_type": et,
                      "milli": pa.array(milli, type=INT64)})
        return t.group_by(["event_type", "milli"]) \
            .aggregate([("milli", "count")]) \
            .rename_columns(["event_type", "milli", "cnt"])

    ev = lambda: scan_parquet(  # noqa: E731
        _pq(sf_dir, "events"), columns=["event_type", "value"])

    def pass_median(fn) -> dict[str, int]:
        # q15's per-type histogram EXCHANGE: the shuffle carries the
        # (type × distinct value) histogram, the driver sees one row
        # per type
        out = bucket_exchange(
            ev().map_batches(fn, batch_format="pyarrow"),
            _bucket_median, part_col="event_type")
        t = collect(out)
        return dict(zip(t["event_type"].to_pylist(),
                        t["median"].to_pylist()))

    med = pass_median(hist)
    mad = pass_median(lambda b: hist(b, med))
    keys = sorted(med)
    return pa.table({
        "event_type": pa.array(keys, type=pa.string()),
        "median_milli": pa.array([med[k] for k in keys], type=INT64),
        "mad_milli": pa.array([mad[k] for k in keys], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q107: grouped weighted average (exact rational → one final double)
# ---------------------------------------------------------------------------

def weighted_avg_chars(sf_dir: str):
    """q107: per-lang token-weighted mean document length —
    Σ(chars·tokens)/Σ(tokens): the grouped weighted average, exact
    integer sums with ONE final double division (q83's exactness
    recipe applied to the most common reporting aggregate)."""
    from ..stages import textstats as ts

    def partial(b: pa.Table) -> pa.Table:
        tc = ts.token_counts(b)
        x = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = tc["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"lang": b["lang"],
                         "wx": pa.array(x * w, type=INT64),
                         "w": pa.array(w, type=INT64)})

    agg = combine_buckets(
        _docs(sf_dir, columns=["doc_id", "lang", "text", "n_chars"])
        .map_batches(partial, batch_format="pyarrow"),
        "lang", [("wx", "sum"), ("w", "sum")])
    t = collect(agg)
    wx = t["wx"].to_numpy(zero_copy_only=False)
    w = t["w"].to_numpy(zero_copy_only=False)
    return pa.table({
        "lang": t["lang"],
        "sum_weight": pa.array(w, type=INT64),
        "wavg_chars": pa.array(wx.astype(np.float64)
                               / w.astype(np.float64)),
    }).sort_by("lang")


# ---------------------------------------------------------------------------
# Q108: normalized-text dedup (canonicalize-then-dedup)
# ---------------------------------------------------------------------------

def normalized_dedup(sf_dir: str, npart: int = 32):
    """q108: exact dedup AFTER text canonicalization (lowercase +
    whitespace collapse + trim) — catches the trivial-variant
    duplicates (case, spacing) q20's byte-exact dedup misses; the
    cheap normalization pass every dedup stack runs first (CCNet's
    normalization step before hashing).

    Scale shape: q20's fabric on the normalized key's HASH — the
    shuffle carries (hash₆₄, doc_id), never the normalized text; the
    min-doc/count resolve per bucket vectorized."""
    from ..stages.exchange import hash64_strings

    def partial(b: pa.Table) -> pa.Table:
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(b["text"]),
                                       r"\s+", " "))
        h = hash64_strings(norm).view(np.int64)
        t = pa.table({"nh": pa.array(h, type=INT64),
                      "doc_id": pc.cast(b["doc_id"], INT64)})
        p = t.group_by(["nh"]).aggregate(
            [("doc_id", "min"), ("doc_id", "count")]) \
            .rename_columns(["nh", "keep_doc", "n_copies"])
        part = (p["nh"].to_numpy(zero_copy_only=False)
                .view(np.uint64) % np.uint64(npart)).astype(np.int32)
        return p.append_column("part", pa.array(part))

    def bucket(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks()
        p = t.group_by(["nh"]).aggregate(
            [("keep_doc", "min"), ("n_copies", "sum")])
        return pa.table({
            "keep_doc": pc.cast(p["keep_doc_min"], INT64),
            "n_copies": pc.cast(p["n_copies_sum"], INT64),
        })

    return bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow"), bucket)


# ---------------------------------------------------------------------------
# Q109: per-group table fingerprints (anti-entropy / replica diff)
# ---------------------------------------------------------------------------

def table_fingerprints(sf_dir: str):
    """q109: order-free content fingerprint per partition key — the
    anti-entropy primitive for replica/table diff: two clusters agree
    on a partition iff its (n_rows, checksum) pair matches, so a diff
    localizes to partitions without shipping rows (Merkle-style, one
    level).  Checksum = Σ md5₆₄(doc_id‖':'‖text) mod 2⁶¹−1 — row
    order, block layout and cluster size cannot change it; any row
    edit does."""

    def partial(b: pa.Table) -> pa.Table:
        import hashlib as _h
        src = b["source"].to_pylist()
        ck: dict[str, list[int]] = {}
        for s, d, txt in zip(src, b["doc_id"].to_pylist(),
                             b["text"].to_pylist()):
            h = int.from_bytes(
                _h.md5((str(d) + ":" + txt).encode()).digest()[:8], "big")
            e = ck.setdefault(s, [0, 0])
            e[0] += 1
            e[1] = (e[1] + h) % _MERSENNE61
        keys = sorted(ck)
        return pa.table({
            "source": pa.array(keys, type=pa.string()),
            "n_rows": pa.array([ck[k][0] for k in keys], type=INT64),
            "checksum": pa.array([ck[k][1] for k in keys], type=INT64),
        })

    def fold(g: pa.Table) -> pa.Table:
        # modular fold with Python ints: Σ of many ≤2⁶¹ partials
        # overflows int64, so the per-group reduce stays exact here
        ck = 0
        for c in g["checksum"].to_pylist():
            ck = (ck + c) % _MERSENNE61
        return pa.table({
            "source": pa.array([g["source"][0].as_py()], type=pa.string()),
            "n_rows": pa.array([int(pc.sum(g["n_rows"]).as_py())],
                               type=INT64),
            "checksum": pa.array([ck], type=INT64),
        })

    agg = bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "source", "text"])
        .map_batches(partial, batch_format="pyarrow"), fold, part_col="source")
    t = collect(agg)
    return t.sort_by("source")


# ---------------------------------------------------------------------------
# Q110: exact z-score anomaly flags (integer algebra, no float compare)
# ---------------------------------------------------------------------------

def zscore_outliers(sf_dir: str):
    """q110: model-based anomaly detection — events beyond 3σ of their
    type's mean — with the float-free trick that makes the flag
    EXACT on every engine: (v−μ)² > 9σ² ⇔ (n·v−s)² > 9(n·ss−s²) in
    integers.  The per-type RHS is a Python bigint (no overflow); the
    per-row LHS compares |n·v−s| against isqrt(RHS), an int64-safe
    equivalent (x² > B ⇔ |x| > isqrt(B)).  Complements q77 (order
    statistic) and q106 (robust MAD) as the σ-based member of the
    outlier family.

    Scale shape: one tiny moments reduce (n, Σv, Σv²), thresholds
    broadcast in the closure, one stateless flag scan."""
    import math

    def moments(b: pa.Table) -> pa.Table:
        milli = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        et = b["event_type"]
        return pa.table({"event_type": et,
                         "s": pa.array(milli, type=INT64),
                         "ss": pa.array(milli * milli, type=INT64)})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(moments, batch_format="pyarrow"),
        "event_type", [("n", "count"), ("s", "sum"), ("ss", "sum")])
    mt = collect(agg)
    thr: dict[str, tuple[int, int, int]] = {}
    for i in range(mt.num_rows):
        n, s, ss = (int(mt[c][i].as_py()) for c in ("n", "s", "ss"))
        b9 = 9 * (n * ss - s * s)               # exact Python bigint
        thr[mt["event_type"][i].as_py()] = (n, s, math.isqrt(max(b9, 0)))

    def flag(b: pa.Table) -> pa.Table:
        milli = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        codes = b["event_type"].combine_chunks().dictionary_encode()
        idx = codes.indices.to_numpy(zero_copy_only=False)
        lut = [thr[x] for x in codes.dictionary.to_pylist()]
        n = np.array([x[0] for x in lut], dtype=np.int64)[idx]
        s = np.array([x[1] for x in lut], dtype=np.int64)[idx]
        t3 = np.array([x[2] for x in lut], dtype=np.int64)[idx]
        keep = np.abs(n * milli - s) > t3
        return pa.table({
            "event_id": b["event_id"].filter(pa.array(keep)),
            "event_type": b["event_type"].filter(pa.array(keep)),
            "value": b["value"].filter(pa.array(keep)),
        })

    return scan_parquet(_pq(sf_dir, "events"),
                        columns=["event_id", "event_type", "value"]) \
        .map_batches(flag, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q111: streaming tumbling windows with watermark (late-event handling)
# ---------------------------------------------------------------------------

def streaming_windows(sf_dir: str, window_s: int = 3600,
                      lateness_s: int = 600, nparts: int = 16):
    """q111: the streaming-window semantic evaluated deterministically
    over a replayable log — tumbling event-time windows with a
    watermark: as events ARRIVE (arrival = log order = event_id), the
    watermark is the running max event time minus the allowed
    lateness; an event whose window already closed (window end ≤
    watermark at its arrival) is LATE and dropped from the pane.
    This is the Flink/Beam watermark contract, the operator the brief
    lists under custom streaming windows — made exact by replaying
    the same arrival order in both engines.

    Scale shape: the running max is a classic two-phase parallel scan,
    ``exchange.range_scan`` keyed on event_id (the arrival order, so
    file order never matters): per-range max partials, an EXCLUSIVE
    prefix max over ranges on the driver (tiny), then each range
    computes its strictly-before running max vectorized (shifted
    ``np.maximum.accumulate``) from its carry-in, flags lateness, and
    emits per-event pane rows that ``combine_buckets`` reduces to
    (window, type) counts.  No global sort, no sequential pass over
    the log; the md5 replay lag is computed once per event."""
    from ..stages.exchange import i64_key, range_scan

    _DELAY_US = np.int64(2_700_000_000)       # 45 min replay lag

    def eff_ts(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        coin = np.array([h[0] == "0" for h in _md5_hex(
            [str(e) for e in b["event_id"].to_pylist()])], dtype=bool)
        return b.append_column("t", pa.array(us - coin * _DELAY_US))

    win_us = np.int64(window_s) * 1_000_000
    late_us = np.int64(lateness_s) * 1_000_000

    def panes(g: pa.Table, carry: int, total: int) -> pa.Table:
        ts = g["t"].to_numpy(zero_copy_only=False)
        run = np.maximum.accumulate(ts)
        # sentinel far below any timestamp but with headroom: the scan's
        # iinfo.min identity would wrap under the ``- late_us`` below
        before = np.concatenate(([max(carry, -(1 << 62))], run[:-1]))
        wm = before - late_us                   # watermark at arrival
        win = ts // win_us
        late = (win + 1) * win_us <= wm
        return pa.table({
            "window": pa.array(win, type=INT64),
            "event_type": g["event_type"],
            "n_on_time": pa.array((~late).astype(np.int64), type=INT64),
            "n_late": pa.array(late.astype(np.int64), type=INT64),
        })

    events = scan_parquet(_pq(sf_dir, "events"),
                          columns=["event_id", "ts", "event_type"]) \
        .map_batches(eff_ts, batch_format="pyarrow")
    agg = combine_buckets(
        range_scan(events, i64_key("event_id"), i64_key("event_id"), "t",
                   "max", panes, npart=nparts),
        ["window", "event_type"], [("n_on_time", "sum"), ("n_late", "sum")])
    t = collect(agg)
    w = t["window"].to_numpy(zero_copy_only=False)
    iso = [str(np.datetime64(int(x) * window_s, "s")) for x in w]
    return pa.table({
        "window_start": pa.array(iso, type=pa.string()),
        "event_type": t["event_type"],
        "n_on_time": t["n_on_time"],
        "n_late": t["n_late"],
    }).sort_by([("window_start", "ascending"),
                ("event_type", "ascending")])


# ---------------------------------------------------------------------------
# Q112: multi-source BFS seed distance (iterative graph primitive)
# ---------------------------------------------------------------------------

def seed_distance_histogram(docs_path: str, seeds_path: str,
                            nparts: int = 8):
    """q112: undirected link-distance from the seed set — multi-source
    BFS over the doc link graph on the q27/q29 BSP fabric
    (graph.bfs_distance): edges shard once, each round ships O(nodes)
    min-distance partials, fixpoint in eccentricity rounds.  The
    frontier-depth structure of the crawl WITHOUT its politeness
    coupling — i.e. the lower bound any crawl schedule can reach.

    Output is the distance histogram (dist → n_docs, −1 = unreachable
    from every seed), exact against a recursive-CTE oracle."""
    import pyarrow.parquet as _pq2

    from .graph import bfs_distance

    def edges(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        m = pc.equal(flat.field("kind"), "link")
        urls = pc.filter(flat.field("media_ref"), m)
        par = pc.filter(parents, m).to_numpy(zero_copy_only=False)
        dst = pc.cast(pc.struct_field(pc.extract_regex(
            urls, r"/doc/(?P<i>\d+)$"), "i"), INT64) \
            .to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_pylist()
        src = np.array([int(d.rsplit("-", 1)[1]) for d in ids],
                       dtype=np.int64)[par]
        # symmetrize (undirected distance) — the BSP builder expects it
        return pa.table({
            "src": pa.array(np.concatenate((src, dst)), type=INT64),
            "dst": pa.array(np.concatenate((dst, src)), type=INT64),
        })

    seeds_t = _pq2.read_table(seeds_path, columns=["url"])
    su = pc.replace_substring(seeds_t["url"], "%64", "d")
    # unanchored: seed urls may carry #fragments (RFC-3986 variants)
    seeds = pc.cast(pc.struct_field(pc.extract_regex(
        su, r"/doc/(?P<i>\d+)"), "i"), INT64).to_numpy(
        zero_copy_only=False)

    edge_ds = read_parquet(docs_path, columns=["doc_id", "spans"]) \
        .map_batches(edges, batch_format="pyarrow")
    t = bfs_distance(edge_ds, np.unique(seeds), nparts=nparts)
    d = t["dist"].to_numpy(zero_copy_only=False)
    uniq, cnt = np.unique(d, return_counts=True)
    return pa.table({
        "dist": pa.array(uniq, type=INT64),
        "n_docs": pa.array(cnt.astype(np.int64), type=INT64),
    })


# ---------------------------------------------------------------------------
# Q113: last-touch attribution (segmented forward-fill window)
# ---------------------------------------------------------------------------

_CHANNELS = ("click", "signup", "view")


def last_touch_attribution(sf_dir: str, npart: int = 32):
    """q113: marketing last-touch attribution — each purchase credits
    the same user's most recent PRECEDING channel event (view / click
    / signup), 'none' if the purchase is the user's first touch: the
    ``LAST_VALUE(... IGNORE NULLS) OVER (... 1 PRECEDING)`` segmented
    forward-fill window, the remaining big window-function family.

    Scale shape: one user exchange (``_user_timeline``), then per
    (user, ts, event_id)-sorted bucket a single vectorized pass —
    segmented forward-fill as one ``np.maximum.accumulate`` over
    segment-offset position indices (no per-user Python, no per-row
    loop)."""

    BIG = np.int64(1) << 33

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ty = g["event_type"].to_numpy(zero_copy_only=False)
        n = len(ty)
        seg = np.repeat(np.arange(len(starts), dtype=np.int64),
                        np.diff(np.append(starts, n)))
        is_ch = np.isin(ty, _CHANNELS)
        # segmented forward-fill of the last channel POSITION: offset
        # each segment by BIG so the running max cannot leak across
        pos = np.where(is_ch, np.arange(n), -1) + seg * BIG
        ffill = np.maximum.accumulate(pos)
        before = np.concatenate(([np.int64(-1)], ffill[:-1]))
        last_pos = before - seg * BIG           # strictly-before touch
        is_p = ty == "purchase"
        lp = last_pos[is_p]
        ch = np.where(lp >= 0, ty[np.maximum(lp, 0)], "none")
        return pa.table({"channel": pa.array(ch.astype(object).tolist(),
                                             type=pa.string())})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["event_id", "user_id", "ts", "event_type"], bucket,
        npart=npart),
        "channel", [("n_purchases", "count")])
    return collect(agg) \
        .sort_by("channel")


# ---------------------------------------------------------------------------
# Q114: ANN recall report (IVF vs exact, per query)
# ---------------------------------------------------------------------------

def ivf_recall(sf_dir: str, n_queries: int = 5, k: int = 10):
    """q114: quantified recall of the approximate path — per query the
    |IVF∩exact|·10⁶//k overlap of q31's IVF top-k against q30's exact
    top-k, plus a summary row (query_id −1): the measurement that
    turns "approximate" into a number, run as a first-class pipeline
    so every build records its recall.

    No SQL oracle BY DESIGN: the quantity compares two Ray pipelines
    (a SQL twin could only re-verify q30, which q30 already does);
    the ≥0.8 floor is pytest-pinned instead."""
    from . import training as tr

    exact = tr.knn_topk(sf_dir, n_queries=n_queries, k=k).to_pandas()
    approx = tr.knn_topk_ivf(sf_dir, n_queries=n_queries, k=k).to_pandas()
    qids = sorted(set(exact.query_id))
    rows_q, rows_r = [], []
    for q in qids:
        e = set(exact[exact.query_id == q].vec_id)
        a = set(approx[approx.query_id == q].vec_id)
        rows_q.append(int(q))
        rows_r.append(len(e & a) * 1_000_000 // k)
    rows_q.append(-1)                           # summary row: mean recall
    rows_r.append(sum(rows_r) // len(qids))
    return pa.table({"query_id": pa.array(rows_q, type=INT64),
                     "recall_ppm": pa.array(rows_r, type=INT64)})


# ---------------------------------------------------------------------------
# Q115: referential-integrity audit (FK orphan counts)
# ---------------------------------------------------------------------------

def integrity_audit(sf_dir: str):
    """q115: the data-quality audit every warehouse load runs — for
    each FK relation, how many child rows reference a missing parent
    (orphans) and how many parents have no children (childless):
    lineitem→orders, orders→customer, customer→nation.

    Scale shape: per-relation both sides reduce scan-side to DISTINCT
    keys per batch; parent key sets of dimension tables broadcast
    (np.isin); the one fact-fact relation (lineitem→orders) folds
    through a key-hash exchange of distinct-key partials — rows never
    shuffle, keys do."""
    import pyarrow.parquet as _pq2

    rows = []

    # dimension-parent relations: broadcast the parent key set
    for child, ckey, parent, pkey in (
            ("orders", "o_custkey", "customer", "c_custkey"),
            ("customer", "c_nationkey", "nation", "n_nationkey")):
        pk = np.sort(_pq2.read_table(_pq(sf_dir, parent), columns=[pkey])
                     [pkey].to_numpy(zero_copy_only=False).astype(np.int64))

        def part(b: pa.Table, _pk=pk, _ck=ckey) -> pa.Table:
            ck = np.unique(b[_ck].to_numpy(zero_copy_only=False)
                           .astype(np.int64))
            orphan = ck[~np.isin(ck, _pk)]
            used = ck[np.isin(ck, _pk)]
            return pa.table({"k": pa.array(
                np.concatenate((orphan, used)), type=INT64),
                "is_orphan": pa.array(np.concatenate(
                    (np.ones(len(orphan), np.int8),
                     np.zeros(len(used), np.int8))))})

        parts = scan_parquet(_pq(sf_dir, child), columns=[ckey]) \
            .map_batches(part, batch_format="pyarrow")
        t = collect(parts)
        t = t.group_by(["k", "is_orphan"]).aggregate([])
        orphans = int(pc.sum(pc.cast(t["is_orphan"], INT64)).as_py() or 0)
        used_keys = t.filter(pc.equal(t["is_orphan"], 0))["k"] \
            .to_numpy(zero_copy_only=False)
        childless = int((~np.isin(pk, used_keys)).sum())
        rows.append((f"{child}->{parent}", orphans, childless))

    # fact→fact: distinct-key partials meet in one hash exchange
    from ..stages.exchange import hash_join

    lkeys = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey"]) \
        .map_batches(lambda b: pa.table({"k": pc.unique(
            pc.cast(b["l_orderkey"], INT64)),
            "child": pa.nulls(len(pc.unique(b["l_orderkey"])), INT64)
            .fill_null(1)}), batch_format="pyarrow")
    okeys = scan_parquet(_pq(sf_dir, "orders"),
                         columns=["o_orderkey"]) \
        .map_batches(lambda b: pa.table({"k": pc.cast(
            b["o_orderkey"], INT64),
            "parent": pa.nulls(b.num_rows, INT64).fill_null(1)}),
            batch_format="pyarrow")

    def finish(j: pa.Table) -> pa.Table:
        g = j.group_by(["k"]).aggregate(
            [("child", "max"), ("parent", "max")])
        c = pc.fill_null(g["child_max"], 0).to_numpy(zero_copy_only=False)
        p = pc.fill_null(g["parent_max"], 0).to_numpy(zero_copy_only=False)
        return pa.table({
            "orphans": pa.array([int(((c == 1) & (p == 0)).sum())],
                                type=INT64),
            "childless": pa.array([int(((p == 1) & (c == 0)).sum())],
                                  type=INT64)})

    parts = hash_join(lkeys, okeys, "k", how="full outer",
                      bucket_finish=finish)
    t = collect(parts)
    rows.insert(0, ("lineitem->orders",
                    int(pc.sum(t["orphans"]).as_py() or 0),
                    int(pc.sum(t["childless"]).as_py() or 0)))
    rows.sort()
    return pa.table({
        "relation": pa.array([r[0] for r in rows], type=pa.string()),
        "n_orphans": pa.array([r[1] for r in rows], type=INT64),
        "n_childless_parents": pa.array([r[2] for r in rows], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q118: char-class entropy per language (corpus composition audit)
# ---------------------------------------------------------------------------

def charclass_entropy(sf_dir: str):
    """q118: Shannon entropy of the character-class distribution
    (letters / digits / spaces / other) per language — a cheap corpus
    composition fingerprint: a lang whose entropy drifts between crawls
    got polluted (boilerplate, number dumps, markup).

    Exactness shape (q83's): the four class counts are integer partials
    (vectorized ``pc.count_substring_regex`` per batch, int64 Sum
    groupby), and the entropy is ONE final double expression over the
    exact integers, written in the same term order in both engines —
    ``ln(n) - (c*ln(c) + …)/n`` — so the doubles bit-match."""
    import math

    def partial(b: pa.Table) -> pa.Table:
        txt = b["text"]
        letters = pc.cast(pc.count_substring_regex(txt, "[A-Za-z]"), INT64)
        digits = pc.cast(pc.count_substring_regex(txt, "[0-9]"), INT64)
        spaces = pc.cast(pc.count_substring(txt, " "), INT64)
        total = pc.cast(pc.utf8_length(txt), INT64)
        return pa.table({"lang": b["lang"], "cl": letters, "cd": digits,
                         "cs": spaces, "n": total})

    agg = combine_buckets(
        _docs(sf_dir, columns=["lang", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        "lang", [("cl", "sum"), ("cd", "sum"), ("cs", "sum"), ("n", "sum")])
    t = collect(agg)

    def term(c: int) -> float:
        return float(c) * math.log(float(c)) if c > 0 else 0.0

    ent = []
    for i in range(t.num_rows):
        cl, cd, cs, n = (int(t[c][i].as_py())
                         for c in ("cl", "cd", "cs", "n"))
        co = n - cl - cd - cs
        ent.append(math.log(float(n))
                   - (term(cl) + term(cd) + term(cs) + term(co)) / n
                   if n > 0 else None)
    return pa.table({
        "lang": t["lang"],
        "n_chars": pc.cast(t["n"], INT64),
        "entropy": pa.array(ent, type=pa.float64()),
    }).sort_by("lang")


# ---------------------------------------------------------------------------
# Q119: per-user median inter-arrival time (exact order statistic)
# ---------------------------------------------------------------------------

def median_interarrival(sf_dir: str, npart: int = 32):
    """q119: exact median of the microsecond gaps between a user's
    consecutive events (ordered by ts, event_id) — the burstiness
    statistic rate-limiters and bot detectors key on, and a per-group
    exact order statistic the engine must co-locate to compute.

    One user exchange (``_user_timeline``, q08's fabric) co-locates
    each user's events; per (user, ts, event_id)-sorted bucket a single
    vectorized pass diffs within user segments, sorts the gaps per
    segment, and gathers the two middle elements — ``(lo + hi) / 2.0``
    over int64 gaps < 2^53 is exact in IEEE double, so it bit-matches
    DuckDB's interpolated median."""

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        same = u[1:] == u[:-1]
        gaps = (ts[1:] - ts[:-1])[same]       # gap rows, user order
        gu = u[1:][same]
        if len(gaps) == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "n_gaps": pa.array([], type=pa.int64()),
                             "median_gap_us": pa.array(
                                 [], type=pa.float64())})
        # per-user segments over the (already user-ordered) gap array;
        # sort gaps within each segment, then gather the two middles
        order = np.lexsort((gaps, gu))
        gu_s, gp_s = gu[order], gaps[order]
        starts, _ = segment_bounds(gu_s)
        m = np.diff(np.append(starts, len(gu_s)))
        lo = gp_s[starts + (m - 1) // 2].astype(np.float64)
        hi = gp_s[starts + m // 2].astype(np.float64)
        return pa.table({
            "user_id": pa.array(gu_s[starts].astype(np.int64)),
            "n_gaps": pa.array(m.astype(np.int64)),
            "median_gap_us": pa.array((lo + hi) / 2.0),
        })

    out = _user_timeline(sf_dir, ["user_id", "event_id", "ts"], bucket,
                         npart=npart)
    return collect(out) \
        .sort_by("user_id")


# ---------------------------------------------------------------------------
# Q120: audience overlap (distributed INTERSECT / EXCEPT)
# ---------------------------------------------------------------------------

def audience_overlap(sf_dir: str):
    """q120: set algebra between two key populations — users seen in the
    event stream vs customers who placed orders — as a streaming
    segment count (both / events_only / orders_only): INTERSECT and
    EXCEPT expressed shuffle-once.

    Each side's keys are tagged with a side bit (1=events, 2=orders);
    one grouped aggregate on the key folds min/max of the tag, so
    min+max encodes the segment (2=events_only, 4=orders_only,
    3=both); a second tiny one counts segments.  No driver-side key
    set, no NOT IN subquery materialization."""

    def tag(side: int):
        col = "user_id" if side == 1 else "o_custkey"

        def fn(b: pa.Table) -> pa.Table:
            m = pa.array(np.full(b.num_rows, side, np.int64))
            return pa.table({"k": pc.cast(b[col], INT64), "lo": m, "hi": m})
        return fn

    ev = scan_parquet(_pq(sf_dir, "events"), columns=["user_id"]) \
        .map_batches(tag(1), batch_format="pyarrow")
    od = scan_parquet(_pq(sf_dir, "orders"), columns=["o_custkey"]) \
        .map_batches(tag(2), batch_format="pyarrow")
    seg = combine_buckets(ev.union(od), "k", [("lo", "min"), ("hi", "max")])

    def seg_name(b: pa.Table) -> pa.Table:
        code = (b["lo"].to_numpy(zero_copy_only=False)
                + b["hi"].to_numpy(zero_copy_only=False))
        name = np.where(code == 2, "events_only",
                        np.where(code == 3, "both", "orders_only"))
        return pa.table({"segment": pa.array(name.astype(object),
                                             type=pa.string())})

    out = combine_buckets(seg.map_batches(seg_name, batch_format="pyarrow"),
                          "segment", [("n", "count")])
    t = collect(out)
    # report grid is fixed: emit all three segments, zero-filled
    got = dict(zip(t["segment"].to_pylist(), t["n"].to_pylist()))
    segs = ["both", "events_only", "orders_only"]
    return pa.table({
        "segment": pa.array(segs, type=pa.string()),
        "n": pa.array([int(got.get(s, 0)) for s in segs], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q121: grouped argmax (top user per event type, deterministic ties)
# ---------------------------------------------------------------------------

def top_user_per_type(sf_dir: str):
    """q121: per event type, the user with the most events — grouped
    argmax with a deterministic tie-break (smallest user_id), the
    max_by/arg_max surface: "who dominates each event class" is the
    abuse-triage query over any activity stream.

    Per-batch (type, user) count partials fold through one int64
    groupby; the argmax itself runs per event_type via
    ``bucket_exchange(part_col="event_type")`` — a handful of LARGE
    groups (one per type), never one call per tiny group."""

    def argmax(g: pa.Table) -> pa.Table:
        n = g["n"].to_numpy(zero_copy_only=False)
        u = g["user_id"].to_numpy(zero_copy_only=False)
        best = np.lexsort((u, -n))[0]
        return pa.table({
            "event_type": g["event_type"].slice(best, 1),
            "top_user": pc.cast(g["user_id"].slice(best, 1), INT64),
            "n": pc.cast(g["n"].slice(best, 1), INT64),
        })

    out = bucket_exchange(combine_buckets(
        scan_parquet(_pq(sf_dir, "events"),
                     columns=["event_type", "user_id"]),
        ["event_type", "user_id"], [("n", "count")]), argmax,
        part_col="event_type")
    return collect(out) \
        .sort_by("event_type")


# ---------------------------------------------------------------------------
# Q122: BM25 top-k retrieval (two-pass corpus stats + streamed scoring)
# ---------------------------------------------------------------------------

BM25_TERMS = ("hash", "merge", "vector")
BM25_K1, BM25_B, BM25_TOPK = 1.2, 0.75, 20


def bm25_topk(sf_dir: str):
    """q122: classic BM25 ranking of the document corpus for a fixed
    term query — the retrieval scorer behind search-indexing pipelines
    (q32's inverted index gives the postings; this is the ranking).

    Two passes, both streaming: pass 1 folds the corpus statistics
    (N, Σdl, df per term) to a handful of exact integers; pass 2
    re-scans, scores each batch vectorized (tf via padded-substring
    counting — each token gets dedicated spaces so non-overlapping
    substring count is exact), and emits only its per-batch top-k, so
    the driver merge sees k × blocks rows.  The score is one fixed
    double expression over exact integers (q83's discipline), so it
    bit-matches the SQL twin; ties break on doc_id."""
    import math

    def tf_cols(b: pa.Table):
        txt = b["text"]
        padded = pc.binary_join_element_wise(
            " ", pc.replace_substring(txt, " ", "  "), " ", "")
        tfs = [pc.cast(pc.count_substring(padded, f" {t} "), INT64)
               for t in BM25_TERMS]
        dl = pc.cast(pc.add(pc.count_substring(txt, " "), 1), INT64)
        return tfs, dl

    def stats(b: pa.Table) -> pa.Table:
        tfs, dl = tf_cols(b)
        row = {"n": [b.num_rows],
               "sdl": [int(pc.sum(dl).as_py() or 0)]}
        for i, tf in enumerate(tfs):
            row[f"df{i}"] = [int(pc.sum(pc.cast(pc.greater(tf, 0),
                                                INT64)).as_py() or 0)]
        return pa.table({k: pa.array(v, type=INT64)
                         for k, v in row.items()})

    g = _sums(_docs(sf_dir, columns=["text"])
              .map_batches(stats, batch_format="pyarrow"),
              ["n", "sdl"] + [f"df{i}" for i in range(len(BM25_TERMS))])
    n, sdl = int(g["n"]), int(g["sdl"])
    dfs = [int(g[f"df{i}"]) for i in range(len(BM25_TERMS))]
    avgdl = float(sdl) / float(n)
    idfs = [math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in dfs]

    def score(b: pa.Table) -> pa.Table:
        tfs, dl = tf_cols(b)
        dln = dl.to_numpy(zero_copy_only=False).astype(np.float64)
        norm = BM25_K1 * (0.25 + 0.75 * (dln / avgdl))
        total = np.zeros(b.num_rows)
        for idf, tf in zip(idfs, tfs):
            tfn = tf.to_numpy(zero_copy_only=False).astype(np.float64)
            # literal 2.2, not (k1 + 1.0): the latter rounds differently
            total = total + idf * ((2.2 * tfn) / (tfn + norm))
        keep = total > 0.0
        t = pa.table({"doc_id": pc.cast(b["doc_id"], INT64),
                      "score": pa.array(total)}).filter(pa.array(keep))
        idx = np.lexsort((t["doc_id"].to_numpy(zero_copy_only=False),
                          -t["score"].to_numpy(zero_copy_only=False)))
        return t.take(pa.array(idx[:BM25_TOPK]))

    cand = _docs(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow")
    t = collect(cand)
    idx = np.lexsort((t["doc_id"].to_numpy(zero_copy_only=False),
                      -t["score"].to_numpy(zero_copy_only=False)))
    return t.take(pa.array(idx[:BM25_TOPK]))


# ---------------------------------------------------------------------------
# Q123: Markov transition matrix over per-user event sequences
# ---------------------------------------------------------------------------

def event_transitions(sf_dir: str, npart: int = 32):
    """q123: first-order Markov transition counts and probabilities
    between consecutive event types per user (ordered by ts, event_id)
    — the behavioral model table session-analysis and anomaly scoring
    read.

    The user exchange (``_user_timeline``) co-locates users; each
    (user, ts, event_id)-sorted bucket emits a TINY (prev, next, n)
    partial (|types|² rows max), one groupby folds them, and p = n /
    Σ_prev n is a single exact-int division."""

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        same = u[1:] == u[:-1]
        return pa.table({"prev_type": pa.array(et[:-1][same],
                                               type=pa.string()),
                         "next_type": pa.array(et[1:][same],
                                               type=pa.string())})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "event_id", "ts", "event_type"], bucket,
        npart=npart),
        ["prev_type", "next_type"], [("n", "count")])
    t = collect(agg)
    n = t["n"].to_numpy(zero_copy_only=False)
    prev = np.asarray(t["prev_type"].to_pylist(), dtype=object)
    tot = {}
    for p_, n_ in zip(prev, n):
        tot[p_] = tot.get(p_, 0) + int(n_)
    p = np.array([float(int(nn)) / float(tot[pp])
                  for pp, nn in zip(prev, n)])
    return pa.table({
        "prev_type": t["prev_type"], "next_type": t["next_type"],
        "n": t["n"], "p": pa.array(p),
    }).sort_by([("prev_type", "ascending"), ("next_type", "ascending")])


# ---------------------------------------------------------------------------
# Q124: sliding 7-day distinct users (windowed COUNT DISTINCT)
# ---------------------------------------------------------------------------

def sliding_distinct_users(sf_dir: str, window_days: int = 7,
                           npart: int = 32):
    """q124: for every observed day, how many distinct users were
    active in the trailing 7 days — the WAU metric, i.e. a sliding
    windowed COUNT(DISTINCT) that a plain groupby cannot express.

    Distributed shape: distinct (user, day) pairs per batch, one user
    exchange (``_user_timeline``); per user expand each active day
    into the window days it covers and dedup (user, window) pairs
    INSIDE the bucket — so the global shuffle carries (window, 1)
    partials, at most |users| × span rows, never raw events; one
    groupby sums.  Windows are then restricted to observed days (the
    tiny day set rides the driver)."""

    def pairs(b: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor(pc.divide(b["ts"], 86_400_000_000)), INT64)
        return pa.table({"user_id": b["user_id"], "day": day}) \
            .group_by(["user_id", "day"]).aggregate([])

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        d = g["day"].to_numpy(zero_copy_only=False)
        # each active day covers windows d .. d+6; dedup (user, window)
        w = (d[:, None] + np.arange(window_days)[None, :]).ravel()
        uu = np.repeat(u, window_days)
        key = np.unique(uu * np.int64(1 << 20) + w)
        win = key % np.int64(1 << 20)
        return pa.table({"window_day": pa.array(win.astype(np.int64))})

    agg = combine_buckets(
        _user_timeline(sf_dir, ["user_id", "ts"], bucket, npart=npart,
                       order=None, reduce=pairs),
        "window_day", [("u7", "count")])
    t = collect(agg)

    days = scan_parquet(_pq(sf_dir, "events"), columns=["ts"]) \
        .map_batches(lambda b: pa.table({
            "day": pc.unique(pc.cast(pc.floor(pc.divide(
                pc.cast(b["ts"], INT64), 86_400_000_000)), INT64))}),
            batch_format="pyarrow")
    observed = sorted({d for batch in
                       days.iter_batches(batch_format="pyarrow")
                       for d in batch["day"].to_pylist()})
    obs = pa.array(observed, type=INT64)
    t = t.filter(pc.is_in(t["window_day"], value_set=obs)) \
        .sort_by("window_day")
    iso = [str(np.datetime64(int(d) * 86_400, "s"))[:10]
           for d in t["window_day"].to_pylist()]
    return pa.table({
        "day": pa.array(iso, type=pa.string()),
        "u7": pc.cast(t["u7"], INT64),
    })


# ---------------------------------------------------------------------------
# Q125: storage-clustered join (range-pruned, dimension never shuffles)
# ---------------------------------------------------------------------------

def pruned_join_revenue(sf_dir: str, npart: int = 32):
    """q125: revenue per order priority via ``exchange.clustered_join``
    — the lineitem fact stream is range-routed straight to the orders
    row groups that hold its keys; orders (sorted by o_orderkey) is
    read row-group-aligned and NEVER shuffled.  The third join
    execution strategy in the engine, alongside the broadcast dict
    (q02) and the hash exchange (q68/q100): the right choice when one
    side is a big key-sorted table.

    Test-scale inputs are written as a single row group, so the query
    first lays orders out as a sorted multi-row-group copy (8 Ki rows
    per group, DONE-stamped, derived purely from the input — the q101
    layout step); at real scale the store is already written this way.
    Revenue uses the house integer-units form (cents × percent) with
    ONE final double division."""
    import shutil

    import pyarrow.parquet as _pq2

    from ..stages.exchange import clustered_join

    lay_dir = os.path.join(
        "/tmp/warc_ray_bench",
        f"orders_clustered-{os.path.basename(sf_dir.rstrip('/'))}")
    lay = os.path.join(lay_dir, "orders.parquet")
    done = lay_dir + ".DONE"
    if not os.path.exists(done):
        shutil.rmtree(lay_dir, ignore_errors=True)
        os.makedirs(lay_dir, exist_ok=True)
        t = _pq2.read_table(_pq(sf_dir, "orders"),
                            columns=["o_orderkey", "o_orderpriority"])
        _pq2.write_table(t.sort_by("o_orderkey"), lay,
                         row_group_size=8192)
        open(done, "w").write("ok")

    def to_units(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), INT64)
        disc = pc.cast(pc.round(pc.multiply(
            b["l_discount"], 100.0)), INT64)
        rev = pc.multiply(cents, pc.subtract(
            pa.scalar(100, type=INT64), disc))
        return pa.table({"o_orderkey": b["l_orderkey"], "rev": rev})

    def finish(j: pa.Table) -> pa.Table:
        one = pa.array(np.ones(j.num_rows, np.int64))
        return j.append_column("one", one) \
            .group_by("o_orderpriority").aggregate(
                [("one", "sum"), ("rev", "sum")]) \
            .rename_columns(["o_orderpriority", "n_items", "rev"])

    fact = scan_parquet(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(to_units, batch_format="pyarrow")
    agg = clustered_join(fact, lay, fact_key="o_orderkey",
                         dim_key="o_orderkey",
                         dim_columns=["o_orderpriority"],
                         npart=npart, bucket_finish=finish)
    agg = combine_buckets(agg, "o_orderpriority",
                          [("n_items", "sum"), ("rev", "sum")])
    t = collect(agg)
    return pa.table({
        "o_orderpriority": t["o_orderpriority"],
        "n_items": t["n_items"],
        "revenue": pa.array([float(int(v)) / 10000.0
                             for v in t["rev"].to_pylist()],
                            type=pa.float64()),
    }).sort_by("o_orderpriority")


# ---------------------------------------------------------------------------
# Q126: decorrelated above-average filter (correlated subquery shape)
# ---------------------------------------------------------------------------

def above_avg_orders(sf_dir: str):
    """q126: orders strictly above their own customer's average order
    value — the classic correlated subquery (``WHERE o_totalprice >
    (SELECT AVG(..) .. WHERE same customer)``), decorrelated into the
    two-phase shape a distributed engine wants: one groupby builds
    (customer → n, Σcents), one stateless broadcast-join pass re-scans
    orders and filters.

    Exactness: the predicate ``price > Σ/n`` is evaluated as the
    integer cross-multiplication ``cents·n > Σcents`` — no float
    average ever exists, so both engines agree on every boundary case.
    Output is per-mktsegment counts, so a second vectorized join brings
    in the broadcast customer dimension too."""
    import ray as _ray

    def part_sums(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["o_totalprice"], 100.0)), INT64)
        return pa.table({"o_custkey": b["o_custkey"], "s": cents})

    per_cust = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_totalprice"])
        .map_batches(part_sums, batch_format="pyarrow"),
        "o_custkey", [("s", "sum"), ("n", "count")])
    stats_ref = _ray.put(collect(per_cust))
    seg_ref = _ray.put(collect(scan_parquet(
        _pq(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])))

    def filt(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["o_totalprice"], 100.0)), INT64)
        t = pa.table({"o_custkey": b["o_custkey"], "cents": cents}) \
            .join(_ray.get(stats_ref), "o_custkey") \
            .join(_ray.get(seg_ref), "o_custkey", right_keys="c_custkey")
        keep = pc.greater(pc.multiply(t["cents"], t["n"]), t["s"])
        return t.filter(keep).select(["c_mktsegment", "cents"])

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_totalprice"])
        .map_batches(filt, batch_format="pyarrow"),
        "c_mktsegment", [("n_orders", "count"), ("cents", "sum")])
    t = collect(agg)
    return pa.table({
        "c_mktsegment": t["c_mktsegment"],
        "n_orders": t["n_orders"],
        "total": pa.array([float(int(v)) / 100.0
                           for v in t["cents"].to_pylist()],
                          type=pa.float64()),
    }).sort_by("c_mktsegment")


# ---------------------------------------------------------------------------
# Q127: predicate-pushdown filter-sum (TPC-H Q6 shape)
# ---------------------------------------------------------------------------

def discount_revenue(sf_dir: str):
    """q127: the forecasting-revenue-change scan (TPC-H Q6's shape):
    one filtered pass over lineitem — shipdate year, discount band,
    quantity cap — summing ``price × discount`` in exact integer
    units (cents × percent).  No shuffle at all: per-batch partials
    reduce through a single global sum; the read prunes to the four
    columns the predicate and measure touch."""

    lo = int(np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64))
    hi = int(np.datetime64("1997-01-01T00:00:00", "us").astype(np.int64))

    def partial(b: pa.Table) -> pa.Table:
        ship = pc.cast(b["l_shipdate"], INT64)
        disc = pc.cast(pc.round(pc.multiply(
            b["l_discount"], 100.0)), INT64)
        qty = pc.cast(pc.round(b["l_quantity"]), INT64)
        cents = pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), INT64)
        keep = pc.and_(pc.and_(
            pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)),
            pc.and_(pc.greater_equal(disc, 5), pc.less_equal(disc, 7))),
            pc.less(qty, 24))
        amt = pc.multiply(cents, disc).filter(keep)
        return pa.table({
            "units": pa.array([int(pc.sum(amt).as_py() or 0)],
                              type=INT64),
            "n": pa.array([len(amt)], type=INT64),
        })

    g = _sums(scan_parquet(_pq(sf_dir, "lineitem"),
                           columns=["l_shipdate", "l_discount",
                                       "l_quantity", "l_extendedprice"])
              .map_batches(partial, batch_format="pyarrow"),
              ["units", "n"])
    return pa.table({
        "n_items": pa.array([int(g["n"])], type=INT64),
        "revenue_effect": pa.array(
            [float(int(g["units"])) / 10000.0], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q128: contingency / lift table (source × lang association strength)
# ---------------------------------------------------------------------------

def source_lang_lift(sf_dir: str):
    """q128: the (source × lang) contingency table with expected
    counts and lift — "does source s over-produce language l?" is the
    corpus-balance diagnostic mixing policies read before sampling.

    All marginals are exact int64 folds of one partial-count pass;
    expected = row·col/total and lift = obs/expected are PER-ROW final
    double expressions over exact integers (no float aggregation), so
    every cell bit-matches the SQL twin."""

    agg = combine_buckets(_docs(sf_dir, columns=["source", "lang"]),
                          ["source", "lang"], [("n", "count")])
    t = collect(agg)
    src = np.asarray(t["source"].to_pylist(), dtype=object)
    lng = np.asarray(t["lang"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    row_tot, col_tot, total = {}, {}, 0
    for s_, l_, n_ in zip(src, lng, n):
        row_tot[s_] = row_tot.get(s_, 0) + int(n_)
        col_tot[l_] = col_tot.get(l_, 0) + int(n_)
        total += int(n_)
    expected = [float(row_tot[s_]) * float(col_tot[l_]) / float(total)
                for s_, l_ in zip(src, lng)]
    lift = [float(int(n_)) / e for n_, e in zip(n, expected)]
    return pa.table({
        "source": t["source"], "lang": t["lang"],
        "n": t["n"],
        "expected": pa.array(expected, type=pa.float64()),
        "lift": pa.array(lift, type=pa.float64()),
    }).sort_by([("source", "ascending"), ("lang", "ascending")])


# ---------------------------------------------------------------------------
# Q116: secondary index + point lookups (parquet random access)
# ---------------------------------------------------------------------------

def point_lookup(sf_dir: str, sample_mod: int = 23,
                 index_dir: str | None = None):
    """q116: build a (key → row-group, row-offset) secondary index over
    the documents table, then serve a sampled set of point lookups by
    reading ONLY the row groups that hold them — the q65 CDX
    random-access surface for the parquet side: training loaders and
    debuggers need single-record access without a scan.

    Index build is one metadata-ordered scan of just the key column
    (q64's explicit-row-range discipline gives (row-group, offset)
    for free); the index is written sorted-by-key parquet (reusable,
    DONE-stamped).  Lookups group by row-group so each group is read
    once; bytes read scale with hits, not table size.  The oracle is a
    direct filtered SELECT — equality proves the index maps every
    sampled key to the right physical row."""
    import pyarrow.parquet as _pq2

    path = _pq(sf_dir, "documents")
    meta = _pq2.read_metadata(path)
    rg_rows = [meta.row_group(i).num_rows
               for i in range(meta.num_row_groups)]
    idx_dir = index_dir or os.path.join(
        "/tmp/warc_ray_bench",
        f"docidx-{os.path.basename(sf_dir.rstrip('/'))}")
    done = idx_dir + ".DONE"

    if not os.path.exists(done):
        import shutil
        shutil.rmtree(idx_dir, ignore_errors=True)
        os.makedirs(idx_dir, exist_ok=True)

        def build(b: pa.Table) -> pa.Table:
            pf = _pq2.ParquetFile(path)
            out = []
            for rg in b["rg"].to_pylist():
                t = pf.read_row_group(rg, columns=["doc_id"])
                out.append(pa.table({
                    "doc_id": pc.cast(t["doc_id"], INT64),
                    "rg": pa.array(np.full(t.num_rows, rg, np.int32)),
                    "row": pa.array(np.arange(t.num_rows,
                                              dtype=np.int64)),
                }))
            return pa.concat_tables(out)

        idx = rd.from_items([{"rg": i} for i in range(len(rg_rows))]) \
            .repartition(len(rg_rows)) \
            .map_batches(build, batch_format="pyarrow", batch_size=1)
        t = collect(idx)
        _pq2.write_table(t.sort_by("doc_id"),
                         os.path.join(idx_dir, "index.parquet"))
        open(done, "w").write("ok")

    idx_t = _pq2.read_table(os.path.join(idx_dir, "index.parquet"))
    from ..stages.md5vec import md5_prefix64
    h = md5_prefix64(pc.cast(idx_t["doc_id"], pa.string()))
    hit = idx_t.filter(pa.array(h % np.uint64(sample_mod) == 0))

    def fetch_one(b: pa.Table) -> pa.Table:
        # one task per row group: one read serves all of its hits
        rg = int(b["rg"][0].as_py())
        sel = hit.filter(pc.equal(hit["rg"], rg))
        pf = _pq2.ParquetFile(path)
        t = pf.read_row_group(rg, columns=["doc_id", "text", "n_chars"])
        rows = t.take(pa.array(sel["row"].to_numpy(zero_copy_only=False)))
        return pa.table({
            "doc_id": pc.cast(rows["doc_id"], INT64),
            "n_chars": pc.cast(rows["n_chars"], INT64),
            "text_md5": pa.array(_md5_hex(rows["text"].to_pylist()),
                                 type=pa.string()),
        })

    rgs = sorted(set(hit["rg"].to_pylist()))
    out = rd.from_items([{"rg": int(r)} for r in rgs]) \
        .repartition(max(len(rgs), 1)) \
        .map_batches(fetch_one, batch_format="pyarrow", batch_size=1)
    return collect(out) \
        .sort_by("doc_id")


# ---------------------------------------------------------------------------
# Q117: dense report grid (zero-filled day × type matrix, long form)
# ---------------------------------------------------------------------------

def dense_event_grid(sf_dir: str):
    """q117: gap-free reporting grid — every (day, event_type) cell of
    the observed calendar span, zero-filled where no events occurred:
    the "fill the gaps" step dashboards need (a groupby only emits
    observed keys; monitoring needs explicit zeros).

    Scale shape: q89's tiny (day × type) partials reduce; the dense
    grid is driver arithmetic over the spanned calendar — its size is
    the REPORT's, independent of row count."""

    t = _day_type_counts(sf_dir)
    d = t["day"].to_numpy(zero_copy_only=False)
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    days = np.arange(d.min(), d.max() + 1)
    types = sorted(set(et))
    grid = {(int(dd), ty): 0 for dd in days for ty in types}
    for dd, ty, nn in zip(d, et, n):
        grid[(int(dd), ty)] = int(nn)
    keys = sorted(grid)
    iso = [str(np.datetime64(k[0] * 86_400, "s"))[:10] for k in keys]
    return pa.table({
        "day": pa.array(iso, type=pa.string()),
        "event_type": pa.array([k[1] for k in keys], type=pa.string()),
        "n": pa.array([grid[k] for k in keys], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q103: skew-salted join (hot anonymous key)
# ---------------------------------------------------------------------------

def skewed_user_join(sf_dir: str, n_salt: int = 8):
    """q103: the null/anonymous-key skew join — ~1/3 of events are
    anonymized to user 0 (an md5 coin on event_id), so key 0 carries
    ~5000× a normal user's rows: the single most common production
    join skew.  ``exchange.skew_join`` spreads hot-key fact rows
    across ``n_salt`` sub-buckets and replicates the (single) hot dim
    row to each, so no worker ever holds the whole hot key; cold keys
    pay nothing.  Value-parity with the unsalted join is pinned by
    tests/test_exchange.py.

    Join: anonymized events ⋈ customer profile (custkey 0 = the
    anonymous profile, nation −1), then per-nation event stats in
    exact integer milli units."""
    from ..stages.exchange import skew_join

    def fact(b: pa.Table) -> pa.Table:
        eids = b["event_id"].to_pylist()
        anon = np.array([h[0] in "01234" for h in
                         _md5_hex([str(e) for e in eids])])
        u = b["user_id"].to_numpy(zero_copy_only=False)
        eff = np.where(anon, 0, u)
        milli = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), INT64)
        return pa.table({"c_custkey": pa.array(eff, type=INT64),
                         "milli": milli})

    def dim(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(b["c_custkey"], INT64),
            "c_nationkey": pc.cast(b["c_nationkey"], INT64),
        })

    facts = scan_parquet(_pq(sf_dir, "events"),
                         columns=["event_id", "user_id", "value"]) \
        .map_batches(fact, batch_format="pyarrow")
    anon_row = pa.table({"c_custkey": pa.array([0], type=INT64),
                         "c_nationkey": pa.array([-1], type=INT64)})
    dims = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_nationkey"]) \
        .map_batches(dim, batch_format="pyarrow") \
        .union(from_arrow(anon_row))

    def finish(j: pa.Table) -> pa.Table:
        # per-ROW → per-nation partial (hot key 0 spans salts, so this
        # is a PARTIAL, finished by the global groupby below)
        t = pa.table({"c_nationkey": j["c_nationkey"],
                      "sum_milli": j["milli"],
                      "one": pa.nulls(j.num_rows, INT64).fill_null(1)})
        p = t.group_by(["c_nationkey"]).aggregate(
            [("one", "sum"), ("sum_milli", "sum")])
        return p.rename_columns(["c_nationkey", "n_events", "sum_milli"])

    agg = combine_buckets(
        skew_join(facts, dims, "c_custkey", how="inner",
                  n_salt=n_salt, bucket_finish=finish),
        "c_nationkey", [("n_events", "sum"), ("sum_milli", "sum")])
    return collect(agg) \
        .sort_by("c_nationkey")


# ---------------------------------------------------------------------------
# Q99: host-graph reciprocity (corpus-backed)
# ---------------------------------------------------------------------------

def host_reciprocity(docs_path: str, n_hosts: int):
    """q99: reciprocity of the host-level link graph — distinct
    host→host edges (self-loops split out), and how many unordered
    host pairs link BOTH ways: the classic web-graph structure metric
    (reciprocal linking vs one-way citation).

    Scale shape: the scan reduces each batch to its distinct
    (src_host, dst_host) pairs — source host recomputed from the
    corpus host function (``corpus.host_index``), target host parsed
    from the url — and routes BOTH orientations of a pair on the
    UNORDERED (min, max) key, so the one bucket exchange co-locates a
    pair's two directions: global distinct AND reciprocity both
    resolve in-bucket (an unordered key seen with both orientations is
    reciprocal), and the driver folds only per-bucket counters — no
    driver edge table, no n_hosts² bound anywhere.  Output is one
    row: directed-edge count, self-loop count, reciprocal pair count
    and the reciprocity ratio in ppm."""
    from .. import corpus as corpus_mod

    def edges(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        m = pc.is_in(flat.field("kind"),
                     value_set=pa.array(["link", "image", "video"]))
        urls = pc.filter(flat.field("media_ref"), m)
        par = pc.filter(parents, m).to_numpy(zero_copy_only=False)
        dst = pc.cast(pc.struct_field(pc.extract_regex(
            urls, r"^https?://host-(?P<h>\d+)\."), "h"), INT64) \
            .to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_pylist()
        i = np.array([int(d.rsplit("-", 1)[1]) for d in ids],
                     dtype=np.int64)
        src = corpus_mod.host_index(i, n_hosts)[par]
        key = src * np.int64(n_hosts) + dst
        uk = np.unique(key)
        us, ud = uk // n_hosts, uk % n_hosts
        t = pa.table({"h_src": pa.array(us, type=INT64),
                      "h_dst": pa.array(ud, type=INT64)})
        # UNORDERED routing key: both orientations of a pair land in
        # the same bucket, so reciprocity resolves there
        ukey = (np.minimum(us, ud) * np.int64(n_hosts)
                + np.maximum(us, ud))
        return t.append_column("part",
                               pa.array((ukey % 16).astype(np.int32)))

    def bucket(g: pa.Table) -> pa.Table:
        # batch partials overlap — global distinct resolves per bucket
        # (the unordered routing key is a function of the pair, so
        # every copy of either orientation is here); reciprocity is an
        # unordered key seen with BOTH directed orientations
        s = g["h_src"].to_numpy(zero_copy_only=False)
        d = g["h_dst"].to_numpy(zero_copy_only=False)
        k = np.unique(s * np.int64(n_hosts) + d)  # distinct directed
        s, d = k // n_hosts, k % n_hosts
        self_m = s == d
        n_self = int(self_m.sum())
        s, d = s[~self_m], d[~self_m]
        u = np.minimum(s, d) * np.int64(n_hosts) + np.maximum(s, d)
        _, cnt = np.unique(u, return_counts=True)
        return pa.table({
            "n_edges": pa.array([len(s)], type=INT64),
            "n_self": pa.array([n_self], type=INT64),
            "n_recip_pairs": pa.array([int((cnt == 2).sum())],
                                      type=INT64)})

    parts = bucket_exchange(
        read_parquet(docs_path, columns=["doc_id", "spans"])
        .map_batches(edges, batch_format="pyarrow"), bucket)
    # per-bucket counters only — the driver never sees an edge table
    n_edges = n_self = n_recip = 0
    for b in parts.iter_batches(batch_format="pyarrow"):
        n_edges += int(pc.sum(b["n_edges"]).as_py() or 0)
        n_self += int(pc.sum(b["n_self"]).as_py() or 0)
        n_recip += int(pc.sum(b["n_recip_pairs"]).as_py() or 0)
    ppm = 2 * n_recip * 1_000_000 // n_edges if n_edges else 0
    return pa.table({
        "n_edges": pa.array([n_edges], type=INT64),
        "n_self": pa.array([n_self], type=INT64),
        "n_recip_pairs": pa.array([n_recip], type=INT64),
        "reciprocity_ppm": pa.array([ppm], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q86: tokenizer vocabulary construction + OOV coverage
# ---------------------------------------------------------------------------

def vocab_build(sf_dir: str, v: int = 16, npart: int = 32):
    """q86: build a top-``v`` token vocabulary with contiguous ids
    assigned by (count DESC, token ASC) and report corpus OOV coverage
    — the tokenizer-training prefix every LM data pipeline runs (the
    unigram seed of BPE/WordPiece).

    Scale shape: q38's count fabric (per-batch combiner → ONE bucket
    exchange on the token) with two additions that stay bucket-local:
    each bucket emits its top-``v`` candidates (bucket tops are a
    superset of the global top-``v`` since buckets partition tokens)
    plus its total occurrence count, so the global rank AND the exact
    OOV rate both resolve driver-side over ≤ (v+1)·npart tiny rows —
    the token tail never leaves its bucket."""

    def partial(b: pa.Table) -> pa.Table:
        toks: list[str] = []
        import re
        wre = re.compile(r"[a-z0-9]+")
        for t in b["text"].to_pylist():
            toks.extend(wre.findall(t.lower()))
        t = pa.table({"token": pa.array(toks, type=pa.string())})
        p = t.group_by(["token"]).aggregate([("token", "count")]) \
            .rename_columns(["token", "n"])
        return with_part(p, "token", npart)

    def bucket_top(g: pa.Table) -> pa.Table:
        part = int(g["part"][0].as_py())
        t = g.drop_columns(["part"]).combine_chunks()
        t = t.group_by(["token"]).aggregate([("n", "sum")]) \
            .rename_columns(["token", "n"])
        total = int(pc.sum(t["n"]).as_py())
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("n", "descending"), ("token", "ascending")])).slice(0, v)
        return pa.table({
            "token": t["token"], "n": pc.cast(t["n"], INT64),
            "part": pa.array([part] * t.num_rows, type=pa.int32()),
            "bucket_total": pa.array([total] * t.num_rows, type=INT64),
        })

    tops = bucket_exchange(
        _docs(sf_dir, columns=["text"])
        .map_batches(partial, batch_format="pyarrow"), bucket_top)
    t = collect(tops)
    totals: dict[int, int] = {}
    for p, bt in zip(t["part"].to_pylist(), t["bucket_total"].to_pylist()):
        totals[p] = bt
    grand = sum(totals.values())
    tok = np.asarray(t["token"].to_pylist(), dtype=object)
    n = t["n"].to_numpy(zero_copy_only=False)
    order = np.lexsort((tok, -n))[:v]
    in_vocab = int(n[order].sum())
    oov_ppm = (grand - in_vocab) * 1_000_000 // grand if grand else 0
    return pa.table({
        "token": pa.array(tok[order].tolist(), type=pa.string()),
        "vocab_id": pa.array(np.arange(len(order)), type=INT64),
        "n": pa.array(n[order], type=INT64),
        "oov_ppm": pa.array([oov_ppm] * len(order), type=INT64),
    })


# ---------------------------------------------------------------------------
# Q87: asymmetric n-gram containment (near-subset detection)
# ---------------------------------------------------------------------------

def containment_pairs(sf_dir: str, threshold_ppm: int = 600_000,
                      n: int = 3, npart: int = 32):
    """q87: directed containment near-dup — pairs where the SMALLER
    document's shingle set is ≥ threshold contained in the larger's
    (``inter/|small|``), the asymmetric complement of q25's symmetric
    Jaccard: quote/excerpt and page-template detection, where Jaccard
    stays low because the containing document is much bigger.

    Same 100%-recall distributed inverted-index fabric as q25
    (shingle-explode → posting-list pair partials → pair-bucket sum);
    only the final per-pair arithmetic differs, so the marginal cost
    over running q25 is one vectorized filter."""
    from ..stages import dedup as dd

    exploded = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: dd.shingle_explode(b, n=n, npart=npart),
        batch_format="pyarrow")
    pairs = bucket_exchange(
        exploded, lambda g: dd.posting_pairs(g.drop_columns(["part"])))

    def pair_part(t: pa.Table) -> pa.Table:
        k = (t["doc_a"].to_numpy().astype(np.uint64) * np.uint64(2654435761)
             ^ t["doc_b"].to_numpy().astype(np.uint64))
        return t.append_column(
            "part", pa.array((k % np.uint64(npart)).astype(np.int32)))

    def finish(g: pa.Table) -> pa.Table:
        tot = g.drop_columns(["part"]).group_by(["doc_a", "doc_b"]) \
            .aggregate([("na", "min"), ("nb", "min"), ("c", "sum")]) \
            .rename_columns(["doc_a", "doc_b", "na", "nb", "inter"])
        a = tot["doc_a"].to_numpy()
        b = tot["doc_b"].to_numpy()
        na = tot["na"].to_numpy()
        nb = tot["nb"].to_numpy()
        inter = tot["inter"].to_numpy()
        small = np.minimum(na, nb)
        keep = inter * 1_000_000 >= threshold_ppm * small
        a, b, na, nb, inter, small = (x[keep] for x in
                                      (a, b, na, nb, inter, small))
        contained = np.where(na <= nb, a, b)
        container = np.where(na <= nb, b, a)
        return pa.table({
            "doc_contained": pa.array(contained, type=INT64),
            "doc_container": pa.array(container, type=INT64),
            "contain_ppm": pa.array(inter * 1_000_000 // small, type=INT64),
        })

    return bucket_exchange(
        pairs.map_batches(pair_part, batch_format="pyarrow"), finish)


# ---------------------------------------------------------------------------
# Q88: source-mixture sampling (training-data mixing)
# ---------------------------------------------------------------------------

def source_mixture(sf_dir: str):
    """q88: deterministic proportional data mixing — resize each
    source's contribution so the kept corpus follows target mixture
    weights (the Pile/Dolma-style source reweighting pass), via an
    md5 coin per doc so membership is a pure function of doc_id
    (stable under appends, row order and cluster size).

    Weights derive from the source name (``1 + idx % 4``).  Pass 1
    reduces to per-source counts (tiny domain); the driver computes
    each source's EXACT integer keep threshold ``⌊2^64·target/n⌋``
    with Python bigints (the SQL twin does the identical HUGEINT
    arithmetic); pass 2 re-scans with the thresholds broadcast in the
    task closure and counts survivors — no shuffle in either pass
    beyond the domain-sized count reduce."""

    agg = combine_buckets(_docs(sf_dir, columns=["source"]), "source",
                          [("n", "count")])
    t = collect(agg)
    srcs = t["source"].to_pylist()
    ns = {s: int(x) for s, x in zip(srcs, t["n"].to_pylist())}
    ws = {s: 1 + int(s[3:]) % 4 for s in srcs}
    wsum = sum(ws.values())
    kmax = min(ns[s] * wsum // ws[s] for s in srcs)
    target = {s: kmax * ws[s] // wsum for s in srcs}
    thr = {s: ((1 << 64) * target[s]) // ns[s] for s in srcs}

    def keep_counts(b: pa.Table) -> pa.Table:
        src = b["source"].to_pylist()
        hs = [int.from_bytes(
            hashlib.md5(str(d).encode()).digest()[:8], "big")
            for d in b["doc_id"].to_pylist()]
        kept = [int(h < thr[s]) for s, h in zip(src, hs)]
        return pa.table({"source": b["source"],
                         "n_kept": pa.array(kept, type=INT64)})

    out = combine_buckets(
        _docs(sf_dir, columns=["doc_id", "source"])
        .map_batches(keep_counts, batch_format="pyarrow"),
        "source", [("n_total", "count"), ("n_kept", "sum")])
    t2 = collect(out)
    tgt = pa.array([target[s] for s in t2["source"].to_pylist()], type=INT64)
    return pa.table({
        "source": t2["source"],
        "n_total": t2["n_total"],
        "target_n": tgt,
        "n_kept": t2["n_kept"],
    }).sort_by("source")


# ---------------------------------------------------------------------------
# Q81: CDC MERGE / upsert — apply a keyed changelog, latest version wins
# ---------------------------------------------------------------------------

def merge_upsert(sf_dir: str, npart: int = 32,
                 as_of_version: int | None = None):
    """q81: lakehouse MERGE — base snapshot + CDC changelog → merged
    snapshot.  Per key the highest-version row wins; a winning ``D``
    tombstone drops the key.  This is the Delta/Iceberg ``MERGE INTO``
    shape every incremental-ingest pipeline needs and the reference's
    append-only archives cannot express.

    The changelog is derived deterministically from the base table (an
    md5 coin per key), so both engines construct the identical input:
    version 1 = base insert, version 2 = +5.00 price & status ``X``
    update for keys whose md5 starts in ``0-3`` (~1/4), version 3 =
    delete for keys whose second md5 hex is ``0-1`` (~1/8; overlap
    with updates resolves by version, exercising latest-wins).

    Scale shape: base and changelog stream through ONE hash exchange on
    the key — per bucket a vectorized lexsort picks each key's max
    version (no per-key Python).  The changelog here is generated
    inside the same scan; in production it would be a second
    ``read_parquet`` unioned in — identical fabric either way."""

    def explode(b: pa.Table) -> pa.Table:
        keys = b["o_orderkey"].to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        status = b["o_orderstatus"].to_pylist()
        hexes = _md5_hex([str(int(k)) for k in keys])
        upd = np.array([h[0] in "0123" for h in hexes])
        dele = np.array([h[1] in "01" for h in hexes])

        k_parts = [keys, keys[upd], keys[dele]]
        v_parts = [np.full(len(keys), 1), np.full(upd.sum(), 2),
                   np.full(dele.sum(), 3)]
        op_parts = [np.full(len(keys), "I", dtype=object),
                    np.full(upd.sum(), "U", dtype=object),
                    np.full(dele.sum(), "D", dtype=object)]
        c_parts = [cents, cents[upd] + 500, np.zeros(dele.sum(), np.int64)]
        s_parts = [status,
                   ["X"] * int(upd.sum()),
                   [""] * int(dele.sum())]
        t = pa.table({
            "o_orderkey": pa.array(np.concatenate(k_parts), type=INT64),
            "version": pa.array(np.concatenate(v_parts), type=INT64),
            "op": pa.array(np.concatenate(op_parts).tolist()),
            "price_cents": pa.array(np.concatenate(c_parts), type=INT64),
            "o_orderstatus": pa.array(
                s_parts[0] + s_parts[1] + s_parts[2]),
        })
        part = (np.concatenate(k_parts) % npart).astype(np.int32)
        return t.append_column("part", pa.array(part))

    def bucket(g: pa.Table) -> pa.Table:
        k = g["o_orderkey"].to_numpy(zero_copy_only=False)
        v = g["version"].to_numpy(zero_copy_only=False)
        order = np.lexsort((-v, k))              # per key: max version first
        first = np.concatenate(([True], k[order][1:] != k[order][:-1]))
        win = g.take(pa.array(order[first]))
        return win.filter(pc.not_equal(win["op"], pa.scalar("D"))) \
            .select(["o_orderkey", "o_orderstatus", "price_cents",
                     "version"])

    ds = scan_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice", "o_orderstatus"]) \
        .map_batches(explode, batch_format="pyarrow")
    if as_of_version is not None:
        # q137 time travel: replay the changelog only up to a version —
        # the Delta/Iceberg "VERSION AS OF" read, one vectorized filter
        # on the identical fabric
        v = int(as_of_version)
        ds = ds.map_batches(
            lambda b: b.filter(pc.less_equal(b["version"], v)),
            batch_format="pyarrow")
    return bucket_exchange(ds, bucket)


def time_travel_orders(sf_dir: str, version: int = 2):
    """q137: versioned (time-travel) read of the q81 MERGE table —
    the snapshot AS OF changelog version ``version``: updates applied,
    the later deletes invisible.  Identical exchange fabric; the
    version cap is a stateless pre-filter, which is exactly how
    snapshot isolation falls out of a versioned changelog."""
    return merge_upsert(sf_dir, as_of_version=version)


# ---------------------------------------------------------------------------
# Q82: order-sensitive bounded group concat (first-k ordered string_agg)
# ---------------------------------------------------------------------------

def group_concat(sf_dir: str, k: int = 16):
    """q82: per (source, lang) the comma-joined SMALLEST ``k`` doc ids
    plus the group count — the order-SENSITIVE aggregate family
    (``string_agg(... ORDER BY ...)``) the engine's commutative
    Sum/Min fabric can't express: per-host URL lists, per-domain
    sample manifests.

    Scale shape: the aggregate is bounded (k ids per group), so each
    batch emits a partial (group, count, smallest-k list) and the tiny
    (source × lang) domain reduces driver-side exactly like q80's mode
    — the shuffle carries k ids per group per batch, never rows."""

    def partial(b: pa.Table) -> pa.Table:
        src = np.asarray(b["source"].to_pylist(), dtype=object)
        lang = np.asarray(b["lang"].to_pylist(), dtype=object)
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, lang, src))
        src, lang, d = src[order], lang[order], d[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (src[1:] != src[:-1]) | (lang[1:] != lang[:-1]), [True])))
        rows_s, rows_l, rows_n, rows_ids = [], [], [], []
        for s, e in zip(starts[:-1], starts[1:]):
            rows_s.append(src[s]); rows_l.append(lang[s])
            rows_n.append(int(e - s))
            rows_ids.append(d[s:min(s + k, e)].tolist())
        return pa.table({
            "source": pa.array(rows_s, type=pa.string()),
            "lang": pa.array(rows_l, type=pa.string()),
            "n": pa.array(rows_n, type=INT64),
            "ids": pa.array(rows_ids, type=pa.list_(INT64)),
        })

    parts = _docs(sf_dir, columns=["doc_id", "source", "lang"]) \
        .map_batches(partial, batch_format="pyarrow")
    t = collect(parts)
    merged: dict[tuple, tuple[int, list[int]]] = {}
    for s, l, n, ids in zip(t["source"].to_pylist(), t["lang"].to_pylist(),
                            t["n"].to_pylist(), t["ids"].to_pylist()):
        cn, cids = merged.get((s, l), (0, []))
        merged[(s, l)] = (cn + n, sorted(cids + ids)[:k])
    keys = sorted(merged)
    return pa.table({
        "source": pa.array([s for s, _ in keys]),
        "lang": pa.array([l for _, l in keys]),
        "n_docs": pa.array([merged[kk][0] for kk in keys], type=INT64),
        "first_ids": pa.array(
            [",".join(str(i) for i in merged[kk][1]) for kk in keys]),
    })


# ---------------------------------------------------------------------------
# Q83: Pearson correlation from exact integer sums
# ---------------------------------------------------------------------------

def feature_corr(sf_dir: str):
    """q83: per-lang Pearson correlation between document length
    (``n_chars``) and token count — the two-pass-free exact-sums form:
    each batch emits integer partials (n, Σx, Σy, Σxy, Σx², Σy²), one
    tiny groupby folds them (sums of int64 are associative and exact),
    and the correlation is ONE final double expression over exact
    integers — so the value bit-matches any engine computing the same
    formula, independent of row order or cluster size.

    Overflow headroom: x ≤ 4e3 chars, y ≤ 1e3 tokens → Σxy per row ≤
    4e6; int64 holds ~2.3e12 such rows per lang (≈ corpus scale); the
    SQL twin folds in HUGEINT.
    """
    import math

    from ..stages import textstats as ts

    def partial(b: pa.Table) -> pa.Table:
        tc = ts.token_counts(b)
        x = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = tc["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"lang": b["lang"], "sx": x, "sy": y, "sxy": x * y,
                         "sxx": x * x, "syy": y * y})

    agg = combine_buckets(
        _docs(sf_dir, columns=["doc_id", "lang", "text", "n_chars"])
        .map_batches(partial, batch_format="pyarrow"),
        "lang", [("n", "count")] + [(c, "sum") for c in
                                    ("sx", "sy", "sxy", "sxx", "syy")])
    t = collect(agg)
    corr = []
    for i in range(t.num_rows):
        n, sx, sy, sxy, sxx, syy = (int(t[c][i].as_py()) for c in
                                    ("n", "sx", "sy", "sxy", "sxx", "syy"))
        num = n * sxy - sx * sy                  # exact Python ints
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        corr.append(float(num) / math.sqrt(float(vx) * float(vy))
                    if vx > 0 and vy > 0 else None)
    return pa.table({
        "lang": t["lang"],
        "n_docs": pc.cast(t["n"], INT64),
        "sum_chars": pc.cast(t["sx"], INT64),
        "sum_tokens": pc.cast(t["sy"], INT64),
        "corr_chars_tokens": pa.array(corr, type=pa.float64()),
    }).sort_by("lang")


# ---------------------------------------------------------------------------
# Q84: semi-structured (JSON) property extraction + per-type stats
# ---------------------------------------------------------------------------

def json_props_stats(sf_dir: str):
    """q84: parse the ``props`` JSON column and aggregate the extracted
    ``k`` per event type — the semi-structured-extraction stage every
    log/crawl pipeline has (request headers, page metadata).

    The extraction is zero-copy vectorized: ``utf8_trim`` strips the
    constant JSON framing characters (the fast path for the corpus's
    fixed ``{"k": <int>}`` shape — a schema-aware struct parse, not a
    general JSON library), then one cast.  Distinct-k folds through
    per-batch (type, k) partials — the (type × k) domain is bounded by
    the value domain, not row count."""

    def partial(b: pa.Table) -> pa.Table:
        k = pc.cast(pc.utf8_trim(b["props"], '{"k: }'), INT64)
        return pa.table({"event_type": b["event_type"], "k": k})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "k"], [("n", "count")])
    t = collect(agg)
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    k = t["k"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    order = np.lexsort((k, et))
    et, k, n = et[order], k[order], n[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], et[1:] != et[:-1], [True])))
    segs = list(zip(starts[:-1], starts[1:]))
    return pa.table({
        "event_type": pa.array([et[s] for s, _ in segs], type=pa.string()),
        "n_events": pa.array([n[s:e].sum() for s, e in segs], type=INT64),
        "sum_k": pa.array([(k[s:e] * n[s:e]).sum() for s, e in segs],
                          type=INT64),
        "min_k": pa.array([k[s] for s, _ in segs], type=INT64),
        "max_k": pa.array([k[e - 1] for _, e in segs], type=INT64),
        "n_distinct_k": pa.array([e - s for s, e in segs], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q85: retention cohorts (first-activity week × activity-week offset)
# ---------------------------------------------------------------------------

_EPOCH_MONDAY_SHIFT = 3        # 1970-01-01 is Thursday; +3 → Monday weeks


def retention_cohorts(sf_dir: str, npart: int = 32):
    """q85: classic cohort retention — users grouped by their FIRST
    active ISO week (Monday-start, ``date_trunc('week')`` semantics),
    counted in every later week they return: the engagement analytic
    run over any event log.

    Scale shape: each batch reduces to distinct (user, week) pairs;
    ONE user exchange (``_user_timeline``, buckets sorted by (user,
    week)) co-locates a user's weeks; each bucket derives
    (cohort=min week, offset) pairs vectorized; the final count
    groupby runs on the tiny (cohort × offset) domain.  The user table
    never materializes anywhere."""

    def pairs(b: pa.Table) -> pa.Table:
        days = b["ts"].to_numpy(zero_copy_only=False) // 86_400_000_000
        wk = (days + _EPOCH_MONDAY_SHIFT) // 7
        return pa.table({"user_id": b["user_id"],
                         "week": pa.array(wk, type=INT64)}) \
            .group_by(["user_id", "week"]).aggregate([])

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        w = g["week"].to_numpy(zero_copy_only=False)
        cohort = np.repeat(w[starts], np.diff(np.append(starts, len(w))))
        # global distinct (user, week): batch partials overlap
        uniq = np.ones(len(w), dtype=bool)
        np.not_equal(w[1:], w[:-1], out=uniq[1:])
        uniq[starts] = True
        return pa.table({
            "cohort_week": pa.array(cohort[uniq], type=INT64),
            "week_offset": pa.array((w - cohort)[uniq], type=INT64)})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts"], bucket, npart=npart,
        order=("user_id", "week"), reduce=pairs),
        ["cohort_week", "week_offset"], [("n_users", "count")])
    t = collect(agg)
    wk = t["cohort_week"].to_numpy(zero_copy_only=False)
    days = wk * 7 - _EPOCH_MONDAY_SHIFT
    dates = (np.array(days, dtype="datetime64[D]")
             .astype("datetime64[s]").astype("int64"))
    iso = [str(np.datetime64(int(d), "s"))[:10] for d in dates]
    return pa.table({
        "cohort_week": pa.array(iso, type=pa.string()),
        "week_offset": t["week_offset"],
        "n_users": t["n_users"],
    }).sort_by([("cohort_week", "ascending"), ("week_offset", "ascending")])


# ---------------------------------------------------------------------------
# Q129: skyline / Pareto frontier (preference query)
# ---------------------------------------------------------------------------

def part_skyline(sf_dir: str):
    """q129: the Pareto frontier of the part catalog — parts for which
    no other part is at-most-as-expensive AND at-least-as-large with at
    least one strict inequality (minimize retail price, maximize size).
    The preference-query shape ("best tradeoffs") no groupby expresses.

    Distributed shape: the skyline operator has a PERFECT combiner —
    skyline(A ∪ B) ⊆ skyline(A) ∪ skyline(B), and dominance is
    transitive, so per-block local skylines are a lossless candidate
    reduction and one final pass over the (tiny) candidate union is
    exact.  Each local pass is one lexsort + segment prefix-max —
    no Python per row, no shuffle at all.  Worst case (perfectly
    anti-correlated dims) candidates = all rows; typical catalogs
    reduce blocks to a handful of rows.

    Exactness: price compared in integer cents; ties (equal price AND
    equal size) are mutually non-dominating, so all tie rows survive —
    matching the strict-dominance NOT EXISTS SQL twin row-for-row."""

    NEG = np.iinfo(np.int64).min

    def local_skyline(cents: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Boolean keep-mask of the strict-dominance skyline
        (minimize cents, maximize size), vectorized."""
        n = len(cents)
        if n == 0:
            return np.zeros(0, dtype=bool)
        order = np.lexsort((-size, cents))      # price asc, size desc
        c, s = cents[order], size[order]
        new_seg = np.concatenate(([True], c[1:] != c[:-1]))
        seg_id = np.cumsum(new_seg) - 1
        seg_start = np.flatnonzero(new_seg)
        runmax = np.maximum.accumulate(s)
        # max size among STRICTLY cheaper rows = running max at the end
        # of the previous price segment (-inf for the cheapest segment)
        prev_end = seg_start[seg_id] - 1
        prev_max = np.where(prev_end >= 0, runmax[np.maximum(prev_end, 0)],
                            NEG)
        seg_max = s[seg_start][seg_id]           # within-segment max
        keep_sorted = (s == seg_max) & (s > prev_max)
        keep = np.zeros(n, dtype=bool)
        keep[order] = keep_sorted
        return keep

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["p_retailprice"], 100.0)), INT64).to_numpy()
        size = b["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = local_skyline(cents, size)
        return pa.table({
            "p_partkey": pc.cast(b["p_partkey"], INT64).take(
                pa.array(np.flatnonzero(keep))),
            "cents": pa.array(cents[keep]),
            "p_size": pa.array(size[keep]),
        })

    cand = collect(scan_parquet(
        _pq(sf_dir, "part"), columns=["p_partkey", "p_retailprice", "p_size"])
        .map_batches(partial, batch_format="pyarrow"))
    keep = local_skyline(cand["cents"].to_numpy(),
                         cand["p_size"].to_numpy())
    idx = pa.array(np.flatnonzero(keep))
    return pa.table({
        "p_partkey": cand["p_partkey"].take(idx),
        "price": pa.array([float(int(v)) / 100.0 for v in
                           cand["cents"].take(idx).to_pylist()],
                          type=pa.float64()),
        "p_size": cand["p_size"].take(idx),
    }).sort_by("p_partkey")


# ---------------------------------------------------------------------------
# Q130: grouped linear regression (exact integer moments)
# ---------------------------------------------------------------------------

def lineitem_regression(sf_dir: str):
    """q130: per-returnflag least-squares fit of extended price (cents)
    on quantity — slope and intercept from the closed form over exact
    integer moments (n, Σx, Σy, Σxy, Σx²), the q83 Pearson discipline
    extended to model fitting: each batch folds integer partials, one
    tiny groupby reduces them, and slope = (nΣxy−ΣxΣy)/(nΣxx−Σx²) /
    intercept = (ΣyB − AΣx)/(nB) are single double divisions computed
    from exact Python ints — bit-reproducible at any row order or
    cluster size, and bit-matching the HUGEINT SQL twin.

    Overflow headroom: x ≤ 64, y ≤ 2e7 → per-row xy ≤ 1.3e9, so int64
    partials hold ~7e9 rows per (batch, flag); the driver-side closed
    form uses unbounded Python ints (the q109 fold discipline), the SQL
    twin HUGEINT."""

    def partial(b: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(b["l_quantity"]), INT64).to_numpy()
        y = pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), INT64).to_numpy()
        return pa.table({"flag": b["l_returnflag"], "sx": x, "sy": y,
                         "sxy": x * y, "sxx": x * x})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_returnflag", "l_quantity",
                                 "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow"),
        "flag", [("n", "count")] + [(c, "sum") for c in
                                    ("sx", "sy", "sxy", "sxx")])
    t = collect(agg)
    slope, icept = [], []
    for i in range(t.num_rows):
        n, sx, sy, sxy, sxx = (int(t[c][i].as_py()) for c in
                               ("n", "sx", "sy", "sxy", "sxx"))
        A = n * sxy - sx * sy                    # exact Python ints
        B = n * sxx - sx * sx
        slope.append(float(A) / float(B) if B != 0 else None)
        icept.append(float(sy * B - A * sx) / float(n * B)
                     if B != 0 else None)
    return pa.table({
        "l_returnflag": t["flag"],
        "n": t["n"],
        "slope_cents_per_qty": pa.array(slope, type=pa.float64()),
        "intercept_cents": pa.array(icept, type=pa.float64()),
    }).sort_by("l_returnflag")


# ---------------------------------------------------------------------------
# Q131: SCD2 history build (type-2 slowly-changing dimension)
# ---------------------------------------------------------------------------

def scd2_user_state(sf_dir: str, npart: int = 32):
    """q131: collapse each user's event stream into type-2
    slowly-changing-dimension history — one validity interval per RUN
    of consecutive equal event types (ordered by ts, event_id), with
    ``valid_to`` = the next run's start and an open (max-int64)
    sentinel + ``is_current`` flag on the last run.  The
    snapshot→interval build every warehouse dimension load runs.

    Distributed shape: the q123 bucket fabric — one user exchange
    (``_user_timeline``) co-locates each user's stream, then ONE
    vectorized pass per (user, ts, event_id)-sorted bucket (run
    boundaries by shifted compare, interval edges by shifted gather).
    No per-user Python; output rows = number of state changes, never
    events².  Timestamps travel as exact epoch-µs int64 so the
    interval edges hash-match the SQL twin."""

    OPEN = np.int64(2**63 - 1)

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        e = g["event_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        n = len(u)
        new_run = np.zeros(n, dtype=bool)
        new_run[starts] = True
        new_run[1:] |= et[1:] != et[:-1]
        runs = np.flatnonzero(new_run)
        ru, rt, rts, re = u[runs], et[runs], ts[runs], e[runs]
        # valid_to = next run's start ts when same user, else open
        nxt_user = np.append(ru[1:], np.int64(-1))
        nxt_from = np.append(rts[1:], OPEN)
        is_cur = nxt_user != ru
        valid_to = np.where(is_cur, OPEN, nxt_from)
        run_len = np.diff(np.append(runs, n)).astype(np.int64)
        return pa.table({
            "user_id": pa.array(ru.astype(np.int64)),
            "event_type": pa.array(rt, type=pa.string()),
            "valid_from_us": pa.array(rts),
            "valid_to_us": pa.array(valid_to),
            "is_current": pa.array(is_cur.astype(np.int64)),
            "n_events": pa.array(run_len),
            "first_event_id": pa.array(re.astype(np.int64)),
        })

    return sort_result(_user_timeline(
        sf_dir, ["user_id", "event_id", "ts", "event_type"], bucket,
        npart=npart), ["user_id", "valid_from_us"])


# ---------------------------------------------------------------------------
# Q132: exact fixed-point covariance matrix (distributed Gram reduction)
# ---------------------------------------------------------------------------

def embedding_covariance(sf_dir: str):
    """q132: the d×d population covariance matrix of the embedding
    table in EXACT fixed-point — the PCA/whitening precursor every
    embedding pipeline runs, as a distributed linear-algebra reduction.

    Embeddings quantize to integer milli-units (floor(x·1000), the q15
    discipline — float32→float64→·1000.0→floor is bit-identical in
    both engines), each batch folds the d×d Gram (Xᵀ X) and the column
    sums with int64 matmuls, one tiny groupby reduces the d² partials,
    and cov_ij = (n·Σxᵢxⱼ − Σxᵢ·Σxⱼ)/n² is a single double division
    over unbounded Python ints — bit-reproducible and value-exact vs
    the HUGEINT SQL twin.

    Scale shape: the shuffle carries d²-sized partials (one per block),
    never vectors; 100 TB of embeddings reduce to blocks × d² int64s.
    Overflow headroom: |xm| ≤ ~4e3 → per-row products ≤ 1.6e7, so an
    int64 cell folds ~5.7e11 rows per block; the global fold is exact
    Python ints (q109 discipline)."""

    def partial(b: pa.Table) -> pa.Table:
        from ..stages.similarity import _matrix

        x = _matrix(b)                 # offset-safe (n, d) float64
        d = x.shape[1]
        xm = np.floor(x * 1000.0).astype(np.int64)
        gram = xm.T @ xm                          # (d, d) int64, exact
        sx = xm.sum(axis=0)                       # (d,) int64
        ii, jj = np.meshgrid(np.arange(1, d + 1), np.arange(1, d + 1),
                             indexing="ij")
        mask = ii <= jj                           # upper triangle
        return pa.table({
            "i": pa.array(ii[mask].astype(np.int64)),
            "j": pa.array(jj[mask].astype(np.int64)),
            "sxy": pa.array(gram[mask]),
            "sxi": pa.array(np.broadcast_to(sx[:, None],
                                            (d, d))[mask]),
            "sxj": pa.array(np.broadcast_to(sx[None, :],
                                            (d, d))[mask]),
            "n": pa.array(np.full(mask.sum(), len(xm), np.int64)),
        })

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "embeddings"), columns=["embedding"])
        .map_batches(partial, batch_format="pyarrow"),
        ["i", "j"], [(c, "sum") for c in ("sxy", "sxi", "sxj", "n")])
    t = collect(agg)
    cov = []
    for k in range(t.num_rows):
        n, sxy, sxi, sxj = (int(t[c][k].as_py()) for c in
                            ("n", "sxy", "sxi", "sxj"))
        cov.append(float(n * sxy - sxi * sxj) / float(n * n))
    return pa.table({
        "i": t["i"], "j": t["j"],
        "cov_milli2": pa.array(cov, type=pa.float64()),
    }).sort_by([("i", "ascending"), ("j", "ascending")])


# ---------------------------------------------------------------------------
# Q133: column profiler (ANALYZE-style table statistics)
# ---------------------------------------------------------------------------

_PROFILE_NUM = [("l_quantity", 1000), ("l_extendedprice", 100),
                ("l_discount", 1000)]
_PROFILE_STR = ["l_returnflag", "l_linestatus"]


def lineitem_profile(sf_dir: str):
    """q133: per-column table statistics (row count, nulls, EXACT
    distinct count, min/max) for a lineitem column set — the ANALYZE /
    stats-collection pass every query optimizer and data-quality gate
    runs over a new table.

    One scan, two bounded folds: (1) per-batch min/max/null partials
    fold to one row per column; (2) per-batch DISTINCT (column, value)
    partials — the exchange carries each block's unique values only,
    never rows — dedup globally, then a count per column lands.
    Numeric values travel as injective fixed-point int64 (the columns
    carry ≤3 decimals), so the distinct count equals the native one and
    the whole report is value-exact vs the UNION-ALL SQL twin."""

    cols = [c for c, _ in _PROFILE_NUM] + _PROFILE_STR

    def stats_partial(b: pa.Table) -> pa.Table:
        rows = []
        for name in cols:
            col = b[name]
            rows.append({
                "col_name": name, "n": len(col),
                "n_null": col.null_count,
                "min_num": pc.min(col).as_py() if name not in
                _PROFILE_STR else None,
                "max_num": pc.max(col).as_py() if name not in
                _PROFILE_STR else None,
                "min_str": pc.min(col).as_py() if name in
                _PROFILE_STR else None,
                "max_str": pc.max(col).as_py() if name in
                _PROFILE_STR else None,
            })
        return pa.table({
            "col_name": pa.array([r["col_name"] for r in rows]),
            "n": pa.array([r["n"] for r in rows], type=INT64),
            "n_null": pa.array([r["n_null"] for r in rows], type=INT64),
            "min_num": pa.array([r["min_num"] for r in rows],
                                type=pa.float64()),
            "max_num": pa.array([r["max_num"] for r in rows],
                                type=pa.float64()),
            "min_str": pa.array([r["min_str"] for r in rows],
                                type=pa.string()),
            "max_str": pa.array([r["max_str"] for r in rows],
                                type=pa.string()),
        })

    def distinct_partial(b: pa.Table) -> pa.Table:
        parts = []
        for name, scale in _PROFILE_NUM:
            vk = pc.cast(pc.round(pc.multiply(
                b[name], float(scale))), INT64)
            u = pc.unique(vk)
            parts.append(pa.table({
                "col_name": pa.array([name] * len(u)),
                "vkey": pc.cast(u, pa.string())}))
        for name in _PROFILE_STR:
            u = pc.unique(b[name])
            parts.append(pa.table({
                "col_name": pa.array([name] * len(u)),
                "vkey": u}))
        return pa.concat_tables(parts)

    def fused_partial(b: pa.Table) -> pa.Table:
        """ONE scan emits both partial kinds (stats rows carry a null
        vkey; distinct rows carry nulls in the stat columns) so the
        table is read once, not twice."""
        st = stats_partial(b)
        st = st.append_column("vkey", pa.nulls(st.num_rows, pa.string()))
        di = distinct_partial(b)
        for name, typ in (("n", INT64), ("n_null", INT64),
                          ("min_num", pa.float64()),
                          ("max_num", pa.float64()),
                          ("min_str", pa.string()),
                          ("max_str", pa.string())):
            di = di.append_column(name, pa.nulls(di.num_rows, typ))
        return pa.concat_tables([st, di.select(st.column_names)])

    partials = materialize(
        scan_parquet(_pq(sf_dir, "lineitem"), columns=cols)
        .map_batches(fused_partial, batch_format="pyarrow"))

    # stats fold over the null-vkey rows (one row per column)
    stats = combine_buckets(
        partials.map_batches(lambda b: b.filter(pc.is_null(b["vkey"])),
                             batch_format="pyarrow"),
        "col_name", [("n", "sum"), ("n_null", "sum"), ("min_num", "min"),
                     ("max_num", "max"), ("min_str", "min"),
                     ("max_str", "max")])
    folded = {r["col_name"]: r for r in collect(stats).to_pylist()}

    # exact distinct: a (col, value) distinct, then a count per column
    vkeys = partials.map_batches(
        lambda b: b.filter(pc.is_valid(b["vkey"]))
        .select(["col_name", "vkey"]), batch_format="pyarrow")
    dd = combine_buckets(combine_buckets(vkeys, ["col_name", "vkey"], []),
                         "col_name", [("n_distinct", "count")]) \
        .to_pandas().set_index("col_name")

    names = sorted(cols)
    return pa.table({
        "col_name": pa.array(names),
        "n": pa.array([folded[c]["n"] for c in names], type=INT64),
        "n_null": pa.array([folded[c]["n_null"] for c in names],
                           type=INT64),
        "n_distinct": pa.array([int(dd.loc[c, "n_distinct"])
                                for c in names], type=INT64),
        "min_num": pa.array([folded[c]["min_num"] for c in names],
                            type=pa.float64()),
        "max_num": pa.array([folded[c]["max_num"] for c in names],
                            type=pa.float64()),
        "min_str": pa.array([folded[c]["min_str"] for c in names],
                            type=pa.string()),
        "max_str": pa.array([folded[c]["max_str"] for c in names],
                            type=pa.string()),
    })


# ---------------------------------------------------------------------------
# Q134: trimmed (winsorized-tail) mean — robust aggregate
# ---------------------------------------------------------------------------

def trimmed_mean_value(sf_dir: str, trim_pct: int = 5):
    """q134: per-event-type mean of ``value`` after dropping the lowest
    and highest ``trim_pct``% of rows — the robust location estimate
    quality gates use where outliers poison a plain mean.

    Rides q15's value-histogram fabric: the shuffle carries distinct
    (type, milli) COUNTS, never rows; the per-type pass computes the
    exact trimmed sum from cumulative counts (boundary ties contribute
    value × remaining-count, which is sum-invariant under any
    tie-breaking), and the mean is ONE final double division — so the
    result bit-matches the SQL twin's row_number formulation."""

    def partial(b: pa.Table) -> pa.Table:
        milli = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), INT64)
        t = pa.table({"event_type": b["event_type"], "milli": milli})
        return t.group_by(["event_type", "milli"]).aggregate(
            [("milli", "count")]).rename_columns(
                ["event_type", "milli", "cnt"])

    def combine(g: pa.Table) -> pa.Table:
        m = g["milli"].to_numpy(zero_copy_only=False)
        c = g["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(m)
        m_s, c_s = m[order], c[order]
        new = np.concatenate(([True], m_s[1:] != m_s[:-1]))
        seg = np.cumsum(new) - 1
        m_u = m_s[new]
        c_u = np.zeros(len(m_u), np.int64)
        np.add.at(c_u, seg, c_s)
        n = int(c_u.sum())
        lo = n * trim_pct // 100
        kept = n - 2 * lo
        # exact trimmed sum: total − low tail − high tail, boundary
        # ties pro-rated by remaining count (Python ints, exact)
        total = int((m_u * c_u).sum())
        cum = np.cumsum(c_u)

        def tail_sum(vals, cnts, k):
            s, need = 0, k
            for v, ct in zip(vals, cnts):
                take = min(int(ct), need)
                s += int(v) * take
                need -= take
                if need == 0:
                    break
            return s

        low = tail_sum(m_u, c_u, lo)
        high = tail_sum(m_u[::-1], c_u[::-1], lo)
        mid = total - low - high
        mean = float(mid) / (1000.0 * float(kept)) if kept > 0 else None
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()]),
            "n": pa.array([n], type=INT64),
            "n_kept": pa.array([kept], type=INT64),
            "trimmed_mean": pa.array([mean], type=pa.float64()),
        })

    return sort_result(bucket_exchange(
        scan_parquet(_pq(sf_dir, "events"),
                     columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        combine, part_col="event_type"), "event_type")


# ---------------------------------------------------------------------------
# Q135: triangle counting (degree-oriented wedge enumeration)
# ---------------------------------------------------------------------------

def triangle_count(docs_path: str, nparts: int = 16,
                   dense_max_nodes: int = 16_000_000):
    """q135: exact triangle count + global clustering coefficient of
    the undirected doc link graph — the graph-analytics complement to
    q27 components / q29 PageRank / q112 BFS.

    Distributed shape (standard node-iterator with DEGREE ORIENTATION):
    (1) distinct canonical edges via per-batch unique + one key
    groupby; (2) degrees via a NODE-keyed exchange (per-batch sparse
    partials, in-bucket bincount merge — the q201 assortativity
    pattern: no driver pass over the edge list); the wedge count folds
    as per-bucket ``np.sum(d*(d-1)//2)`` scalars; (3) each edge
    orients low-degree → high-degree endpoint, so per-source
    out-neighborhoods are O(√m) and wedge generation is quadratic only
    in that bound — the degree table broadcasts as a dense array only
    under a ``dense_max_nodes`` guard (<=128 MB at 16M nodes), else a
    two-exchange degree JOIN attaches (deg[lo], deg[hi]) per edge for
    the web-scale graph; (4) wedges and edges co-route by key hash and
    one vectorized ``np.isin`` per bucket closes triangles — each
    triangle counted exactly once.  Wedge generation is grouped BY
    SEGMENT LENGTH (reshape + one `triu_indices` gather per distinct
    out-degree): no per-node Python anywhere.

    Oracle: the 3-way self-join SQL twin over the same distinct-edge
    CTE, value-exact including the clustering double."""
    import ray as _ray

    def edge_partial(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        m = pc.equal(flat.field("kind"), "link")
        urls = pc.filter(flat.field("media_ref"), m)
        par = pc.filter(parents, m).to_numpy(zero_copy_only=False)
        ex = pc.cast(pc.struct_field(pc.extract_regex(
            urls, r"/doc/(?P<i>\d+)$"), "i"), INT64)
        ok = pc.is_valid(ex).to_numpy(zero_copy_only=False)
        dst = pc.fill_null(ex, -1).to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_pylist()
        src = np.array([int(d.rsplit("-", 1)[1]) for d in ids],
                       dtype=np.int64)[par]
        keep = ok & (src != dst)
        s, d = src[keep], dst[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        key = np.unique((lo << np.int64(32)) | hi)
        return pa.table({"key": pa.array(key)})

    def dedup_bucket(g: pa.Table) -> pa.Table:
        k = np.unique(g["key"].to_numpy())
        return pa.table({
            "key": pa.array(k),
            "kpart": pa.array(((k % nparts)).astype(np.int32))})

    # ONE part exchange dedups (16 buckets — far cheaper than a
    # per-key sort-aggregate over millions of distinct edges) and the
    # kpart column is reused verbatim for the closure routing below
    edges = bucket_exchange(
        read_parquet(docs_path, columns=["doc_id", "spans"])
        .map_batches(edge_partial, batch_format="pyarrow")
        .map_batches(lambda b: b.append_column(
            "kpart", pc.cast(pc.bit_wise_and(
                b["key"], np.int64(nparts - 1)), pa.int32())),
            batch_format="pyarrow"),
        lambda g: dedup_bucket(g.drop_columns(["kpart"])),
        part_col="kpart")

    # degrees: NODE-keyed exchange (the q201 pattern).  Per-batch
    # sparse partials (unique node, count) route by node hash; each
    # bucket owns every partial for its nodes, so one bincount merge
    # per bucket yields exact degrees — the edge list never crosses
    # the driver.
    def deg_partial(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy()
        node = np.concatenate((k >> np.int64(32),
                               k & np.int64(0xFFFFFFFF)))
        u, c = np.unique(node, return_counts=True)
        return pa.table({
            "node": pa.array(u), "cnt": pa.array(c.astype(np.int64)),
            "dpart": pa.array((u % nparts).astype(np.int32))})

    def deg_bucket(g: pa.Table) -> pa.Table:
        n = g["node"].to_numpy()
        c = g["cnt"].to_numpy()
        u, inv = np.unique(n, return_inverse=True)
        d = np.bincount(inv, weights=c).astype(np.int64)
        return pa.table({"node": pa.array(u), "deg": pa.array(d)})

    degs = bucket_exchange(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        lambda g: deg_bucket(g.drop_columns(["dpart"])),
        part_col="dpart")

    # key-sized scalars fold on the driver: wedge count as vectorized
    # per-bucket np.sum(d*(d-1)//2) partials, plus max node id for the
    # dense-broadcast guard (bounds MAGNITUDE, which the 4M/16M row
    # guards elsewhere do not)
    def deg_scalars(b: pa.Table) -> pa.Table:
        d = b["deg"].to_numpy()
        n = b["node"].to_numpy()
        return pa.table({
            "wedges": pa.array([int(np.sum(d * (d - 1) // 2))],
                               type=INT64),
            "max_node": pa.array([int(n.max(initial=-1))], type=INT64),
            "n_nodes": pa.array([len(n)], type=INT64)})

    n_wedges, max_node, n_nodes = 0, -1, 0
    for b in degs.map_batches(deg_scalars, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        n_wedges += int(pc.sum(b["wedges"]).as_py() or 0)
        max_node = max(max_node, int(pc.max(b["max_node"]).as_py()
                                     if b.num_rows else -1))
        n_nodes += int(pc.sum(b["n_nodes"]).as_py() or 0)
    n_edges = edges.count()

    # Bloom sideways prune for the CLOSURE exchange: wedges outnumber
    # edges by orders of magnitude (sf0.1: 9.4M wedges vs 2.3M edges),
    # so a broadcast edge-membership filter probed at wedge GENERATION
    # drops ~all non-closing wedges before they ever move — the same
    # sideways-information pass as q19/q160, sized at 16 bits/edge
    # (FPR < 1%).  False positives are removed by the exact in-bucket
    # np.isin close, so the triangle count stays exact.  Guard: past
    # 64M edges (a 128 MB filter) skip the prune — the exchange still
    # answers, just with full wedge volume (or shard the filter).
    from ..stages.sketch import bloom_contains, bloom_partial

    bloom_ref = None
    if 0 < n_edges <= 64_000_000:
        nbits = 1 << max(20, int(np.ceil(np.log2(16 * n_edges))))

        def bpart(b: pa.Table) -> pa.Table:
            return pa.table({"bits": pa.array(
                [bloom_partial(b["key"].to_numpy(), nbits).tobytes()],
                type=pa.binary())})

        merged = np.zeros(nbits >> 3, dtype=np.uint8)
        for b in edges.map_batches(bpart, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            for v in b["bits"].to_pylist():
                np.bitwise_or(merged,
                              np.frombuffer(v, dtype=np.uint8),
                              out=merged)
        bloom_ref = _ray.put(merged)

    if max_node < dense_max_nodes:
        # dense broadcast path: <=8 B/node under the guard; the deg
        # table (n_nodes rows, not edges) is the only driver pull
        deg_arr = np.zeros(max_node + 1, np.int64)
        for b in degs.iter_batches(batch_format="pyarrow"):
            deg_arr[b["node"].to_numpy()] = b["deg"].to_numpy()
        deg_ref = _ray.put(deg_arr)

        class OrientAndPart:
            def __init__(self):
                self.deg = _ray.get(deg_ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                k = b["key"].to_numpy()
                lo, hi = k >> np.int64(32), k & np.int64(0xFFFFFFFF)
                dl, dh = self.deg[lo], self.deg[hi]
                # orient low-(degree, id) → high-(degree, id)
                fwd = (dl < dh) | ((dl == dh) & (lo < hi))
                src = np.where(fwd, lo, hi)
                dst = np.where(fwd, hi, lo)
                return pa.table({
                    "src": pa.array(src), "dst": pa.array(dst),
                    "part": pa.array((src % nparts).astype(np.int32))})

        oriented = edges.map_batches(OrientAndPart,
                                     batch_format="pyarrow",
                                     concurrency=(1, 2))
    else:
        # web-scale fallback: degree JOIN — two node-keyed exchanges
        # attach deg[lo] then deg[hi] via in-bucket searchsorted
        # against the co-routed degree table; no dense array anywhere
        def _attach(which: str):
            def attach(g: pa.Table) -> pa.Table:
                ie = g["is_deg"].to_numpy().astype(bool)
                dn = g["node"].to_numpy()[ie]
                dd = g["deg"].to_numpy()[ie]
                o = np.argsort(dn)
                dn, dd = dn[o], dd[o]
                sub = g.filter(pa.array(~ie))
                nd = sub["node"].to_numpy()
                got = dd[np.searchsorted(dn, nd)]
                cols = {"key": sub["key"]}
                if which == "lo":
                    cols["dl"] = pa.array(got)
                else:
                    cols["dl"] = sub["dl"]
                    cols["dh"] = pa.array(got)
                return pa.table(cols)
            return attach

        def edge_by(which: str):
            def f(b: pa.Table) -> pa.Table:
                k = b["key"].to_numpy()
                node = (k >> np.int64(32)) if which == "lo" \
                    else (k & np.int64(0xFFFFFFFF))
                cols = {"key": b["key"], "node": pa.array(node),
                        "deg": pa.array(np.zeros(len(k), np.int64)),
                        "is_deg": pa.array(np.zeros(len(k), np.int64)),
                        "jpart": pa.array((node % nparts)
                                          .astype(np.int32))}
                if which == "hi":
                    cols["dl"] = b["dl"]
                return pa.table(cols)
            return f

        def deg_side(extra: bool):
            def f(b: pa.Table) -> pa.Table:
                n = b["node"].to_numpy()
                cols = {"key": pa.array(np.zeros(len(n), np.int64)),
                        "node": b["node"], "deg": b["deg"],
                        "is_deg": pa.array(np.ones(len(n), np.int64)),
                        "jpart": pa.array((n % nparts)
                                          .astype(np.int32))}
                if extra:
                    cols["dl"] = pa.array(np.zeros(len(n), np.int64))
                return pa.table(cols)
            return f

        with_dl = bucket_exchange(
            edges.map_batches(edge_by("lo"),
                              batch_format="pyarrow")
            .union(degs.map_batches(deg_side(False),
                                    batch_format="pyarrow")),
            lambda g: _attach("lo")(g.drop_columns(["jpart"])),
            part_col="jpart")
        with_both = bucket_exchange(
            with_dl.map_batches(edge_by("hi"),
                                batch_format="pyarrow")
            .union(degs.map_batches(deg_side(True),
                                    batch_format="pyarrow")),
            lambda g: _attach("hi")(g.drop_columns(["jpart"])),
            part_col="jpart")

        def orient(b: pa.Table) -> pa.Table:
            k = b["key"].to_numpy()
            lo, hi = k >> np.int64(32), k & np.int64(0xFFFFFFFF)
            dl = b["dl"].to_numpy()
            dh = b["dh"].to_numpy()
            fwd = (dl < dh) | ((dl == dh) & (lo < hi))
            src = np.where(fwd, lo, hi)
            dst = np.where(fwd, hi, lo)
            return pa.table({
                "src": pa.array(src), "dst": pa.array(dst),
                "part": pa.array((src % nparts).astype(np.int32))})

        oriented = with_both.map_batches(orient, batch_format="pyarrow")

    def wedges(g: pa.Table) -> pa.Table:
        bloom = _ray.get(bloom_ref) if bloom_ref is not None else None
        s = g["src"].to_numpy()
        d = g["dst"].to_numpy()
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        new = np.concatenate(([True], s[1:] != s[:-1]))
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(s)))
        outs = []
        for L in np.unique(lens[lens >= 2]):
            idx = starts[lens == L]
            block = d[idx[:, None] + np.arange(L)]
            iu, ju = np.triu_indices(int(L), 1)
            a = block[:, iu].ravel()
            b_ = block[:, ju].ravel()
            wk_l = ((np.minimum(a, b_) << np.int64(32))
                    | np.maximum(a, b_))
            if bloom is not None:     # drop non-closing wedges HERE
                wk_l = wk_l[bloom_contains(bloom, wk_l)]
            outs.append(wk_l)
        if not outs:
            return pa.table({"key": pa.array([], type=INT64),
                             "cnt": pa.array([], type=INT64),
                             "is_edge": pa.array([], type=INT64)})
        wk = np.concatenate(outs)
        u, c = np.unique(wk, return_counts=True)
        return pa.table({"key": pa.array(u),
                         "cnt": pa.array(c.astype(np.int64)),
                         "is_edge": pa.array(np.zeros(len(u), np.int64))})

    wedge_ds = bucket_exchange(
        oriented, lambda g: wedges(g.drop_columns(["part"])))

    def tag_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "key": b["key"],
            "cnt": pa.array(np.zeros(b.num_rows, np.int64)),
            "is_edge": pa.array(np.ones(b.num_rows, np.int64))})

    def close_bucket(g: pa.Table) -> pa.Table:
        k = g["key"].to_numpy()
        c = g["cnt"].to_numpy()
        ie = g["is_edge"].to_numpy().astype(bool)
        ek = k[ie]
        closed = np.isin(k[~ie], ek)
        return pa.table({"tri": pa.array(
            [int(c[~ie][closed].sum())], type=INT64)})

    both = wedge_ds.union(edges.map_batches(tag_edges,
                                            batch_format="pyarrow"))
    closed = bucket_exchange(
        both.map_batches(
            lambda b: b.append_column("kpart", pc.cast(pc.bit_wise_and(
                b["key"], np.int64(nparts - 1)), pa.int32())),
            batch_format="pyarrow"),
        lambda g: close_bucket(g.drop_columns(["kpart"])), part_col="kpart")
    n_tri = 0
    for b in closed.iter_batches(batch_format="pyarrow"):
        n_tri += int(pc.sum(b["tri"]).as_py() or 0)
    clustering = (3.0 * float(n_tri)) / float(n_wedges) \
        if n_wedges > 0 else None
    return pa.table({
        "n_edges": pa.array([n_edges], type=INT64),
        "n_wedges": pa.array([n_wedges], type=INT64),
        "n_triangles": pa.array([n_tri], type=INT64),
        "clustering": pa.array([clustering], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q136: equi-depth histogram (optimizer statistics build)
# ---------------------------------------------------------------------------

def equidepth_histogram(sf_dir: str, k: int = 8):
    """q136: the k-bucket equi-depth histogram of ``l_extendedprice``
    — the optimizer statistic selectivity estimation reads (q133's
    profile gives min/max/distinct; this gives the distribution).

    Rides q15's value-histogram fabric: the exchange carries distinct
    (cents, count) pairs, never rows; bucket boundaries are exact
    order statistics from cumulative counts with NTILE's size rule
    (first n mod k buckets one row bigger), and per-bucket count /
    min / max / sum are all rank-range arithmetic over the histogram —
    deterministic even when a tied value spans buckets (the multiset
    of values per rank range is tie-order-invariant, so the SQL twin's
    arbitrary NTILE tie placement lands on identical stats)."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({"cents": pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), INT64)})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"), columns=["l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow"),
        "cents", [("cnt", "count")])
    h = collect(agg)
    m = h["cents"].to_numpy()
    c = h["cnt"].to_numpy()
    order = np.argsort(m)
    m, c = m[order], c[order]
    cum = np.cumsum(c)
    n = int(cum[-1])
    base, extra = divmod(n, k)
    sizes = [base + (1 if b < extra else 0) for b in range(k)]
    # prefix sums of values for exact per-bucket sums
    vsum = np.cumsum(m.astype(object) * c.astype(object))

    def rank_value(r):                       # value at 1-based rank r
        return int(m[np.searchsorted(cum, r, side="left")])

    def prefix_sum(r):                       # Σ values at ranks 1..r
        if r == 0:
            return 0
        i = int(np.searchsorted(cum, r, side="left"))
        below = int(vsum[i - 1]) if i > 0 else 0
        part = int(m[i]) * (r - (int(cum[i - 1]) if i > 0 else 0))
        return below + part

    rows = {"bucket": [], "n": [], "lo_cents": [], "hi_cents": [],
            "sum_cents": []}
    r0 = 0
    for b, sz in enumerate(sizes, start=1):
        r1 = r0 + sz
        rows["bucket"].append(b)
        rows["n"].append(sz)
        rows["lo_cents"].append(rank_value(r0 + 1))
        rows["hi_cents"].append(rank_value(r1))
        rows["sum_cents"].append(prefix_sum(r1) - prefix_sum(r0))
        r0 = r1
    return pa.table({
        "bucket": pa.array(rows["bucket"], type=INT64),
        "n": pa.array(rows["n"], type=INT64),
        "lo_cents": pa.array(rows["lo_cents"], type=INT64),
        "hi_cents": pa.array(rows["hi_cents"], type=INT64),
        "sum_cents": pa.array(rows["sum_cents"], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q138: join-cardinality estimation (CMS inner product vs exact)
# ---------------------------------------------------------------------------

def join_cardinality(sf_dir: str):
    """q138: optimizer cardinality estimation — the self-equi-join size
    |lineitem ⋈ lineitem on l_partkey| = Σ_k n(k)² (the F2 frequency
    moment) two ways: EXACT via one key exchange, and ESTIMATED from
    the q49 count-min sketch's inner product with itself (min over
    rows of Σ_b cell² — the AMS-style join-size estimator planners use
    when the key stream is too large to shuffle).  The report carries
    both plus the signed error ppm, which is what makes an estimator
    auditable.

    Scale shape: the sketch path ships ONE 256 KiB cell block per
    input block (linearity: cms(ΣS) = Σ cms(S)) and folds driver-side
    (q19/q49 pattern); the exact path shuffles per-block (key, count)
    partials — keys, never rows.  Both numbers are deterministic, so
    the SQL twin (same md5-chunk cells in HUGEINT) is value-exact."""
    from ..stages.sketch import CMS_D, CMS_W, cms_partial, md5_chunks_u32

    def partial(b: pa.Table) -> pa.Table:
        k = b["l_partkey"].to_numpy(zero_copy_only=False)
        u, c = np.unique(k, return_counts=True)
        chunks = md5_chunks_u32([str(int(x)) for x in u])
        cells = cms_partial(chunks, c.astype(np.float64))
        # one dense cell blob rides the batch's first row; the (key, c)
        # partials fill the rest
        blob = [cells.tobytes()] + [None] * (len(u) - 1)
        return pa.table({
            "key": pa.array(u.astype(np.int64)),
            "c": pa.array(c.astype(np.int64)),
            "cells": pa.array(blob, type=pa.binary()),
        })

    ds = materialize(scan_parquet(_pq(sf_dir, "lineitem"),
                                  columns=["l_partkey"])
                     .map_batches(partial, batch_format="pyarrow"))

    # sketch fold: one dense cell block per input block, driver stream
    sketch = np.zeros((CMS_D, CMS_W), np.int64)
    for b in ds.iter_batches(batch_format="pyarrow"):
        for v in b["cells"]:
            if v.is_valid:
                sketch += np.frombuffer(v.as_py(),
                                        dtype=np.int64).reshape(CMS_D,
                                                                CMS_W)

    # exact Σ n(k)²: one key exchange over (key, count) partials
    agg = combine_buckets(ds.select_columns(["key", "c"]), "key",
                          [("c", "sum")])
    n_keys, exact = 0, 0
    for b in agg.iter_batches(batch_format="pyarrow"):
        c = b["c"].to_numpy()
        n_keys += len(c)
        exact += int((c.astype(object) ** 2).sum())

    est = min(int((row.astype(object) ** 2).sum()) for row in sketch)
    err_ppm = (est - exact) * 1_000_000 // exact if exact else None
    return pa.table({
        "n_keys": pa.array([n_keys], type=INT64),
        "exact_join_size": pa.array([exact], type=INT64),
        "cms_estimate": pa.array([est], type=INT64),
        "err_ppm": pa.array([err_ppm], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q139: Z-order clustered layout + 2-D range-pruned scan
# ---------------------------------------------------------------------------

_EPOCH_DAY0 = 19723           # 2024-01-01, the corpus event epoch


def _interleave16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Morton-interleave two uint16 arrays into uint32 z-values
    (bit i of a → bit 2i, bit i of b → bit 2i+1), vectorized."""
    a = a.astype(np.uint32)            # uint16 shifts would drop bit 8+
    b = b.astype(np.uint32)
    z = np.zeros(len(a), np.uint32)
    for i in range(16):
        z |= ((a >> np.uint32(i)) & np.uint32(1)) << np.uint32(2 * i)
        z |= ((b >> np.uint32(i)) & np.uint32(1)) << np.uint32(2 * i + 1)
    return z


def zorder_range_scan(sf_dir: str, day_lo: int = 19728,
                      day_hi: int = 19732, user_lo: int = 3,
                      user_hi: int = 9):
    """q139: 2-D range query (day × user band) against a Z-ORDER
    clustered copy of the event table — the multi-dimensional layout
    (Delta OPTIMIZE ZORDER BY) that makes row-group min/max stats
    prune BOTH dimensions at once, where a single-column sort prunes
    only its own.  Complements q101 (bucketed layout), q116 (secondary
    index) and q125 (clustered join) as the 4th storage-layout op.

    Build (cached, DONE-stamped): day and user interleave bit-by-bit
    into a Morton z-value, rows sort by z, parquet lands in small row
    groups so each holds a z-contiguous square-ish tile.  Query: the
    driver reads ONLY footer metadata, keeps row groups whose per-
    column [min,max] intersect the box (correct for ANY layout;
    z-order is what makes the kept set small on both dims), tasks fan
    out per kept row group, and the exact in-group filter + integer
    partials aggregate as usual.  Value-exact vs the plain SQL filter
    — pruning changes bytes read, never results."""
    import pyarrow.parquet as _pq2

    lay_dir = os.path.join(
        "/tmp/warc_ray_bench",
        f"events_zorder2-{os.path.basename(sf_dir.rstrip('/'))}")
    lay = os.path.join(lay_dir, "events.parquet")
    done = lay_dir + ".DONE"
    if not os.path.exists(done):
        import shutil
        shutil.rmtree(lay_dir, ignore_errors=True)
        os.makedirs(lay_dir, exist_ok=True)
        t = _pq2.read_table(_pq(sf_dir, "events"),
                            columns=["user_id", "ts", "event_type",
                                     "value"])
        us = pc.cast(t["ts"], INT64).to_numpy()
        day = (us // 86_400_000_000).astype(np.int64)
        user = t["user_id"].to_numpy(zero_copy_only=False)
        z = _interleave16((day - _EPOCH_DAY0).astype(np.uint16),
                          user.astype(np.uint16))
        t = t.append_column("day", pa.array(day)) \
            .append_column("z", pa.array(z.astype(np.int64)))
        # test-scale single-node build; at real scale this is
        # ds.sort("z").write_parquet with the same row-group size
        _pq2.write_table(
            t.take(pa.array(np.argsort(z, kind="stable"))), lay,
            row_group_size=2048)
        open(done, "w").write("ok")

    pf = _pq2.ParquetFile(lay)
    meta = pf.metadata
    names = {meta.schema.column(i).name: i
             for i in range(meta.num_columns)}
    keep = []
    for rg in range(meta.num_row_groups):
        g = meta.row_group(rg)
        d = g.column(names["day"]).statistics
        u = g.column(names["user_id"]).statistics
        if d.min <= day_hi and d.max >= day_lo \
                and u.min <= user_hi and u.max >= user_lo:
            keep.append(rg)

    def read_groups(b: pa.Table) -> pa.Table:
        f = _pq2.ParquetFile(lay)
        parts = []
        for rg in b["rg"].to_pylist():
            t = f.read_row_group(rg, columns=["user_id", "day",
                                              "event_type", "value"])
            m = pc.and_(
                pc.and_(pc.greater_equal(t["day"], day_lo),
                        pc.less_equal(t["day"], day_hi)),
                pc.and_(pc.greater_equal(t["user_id"], user_lo),
                        pc.less_equal(t["user_id"], user_hi)))
            t = t.filter(m)
            milli = pc.cast(pc.floor(pc.multiply(
                t["value"], 1000.0)), INT64)
            parts.append(pa.table({"event_type": t["event_type"],
                                   "s": milli}))
        return pa.concat_tables(parts) if parts else pa.table(
            {"event_type": pa.array([], type=pa.string()),
             "s": pa.array([], type=INT64)})

    t = collect(combine_buckets(
        rd.from_items([{"rg": r} for r in keep])
        .map_batches(read_groups, batch_format="pyarrow", batch_size=4),
        "event_type", [("n", "count"), ("s", "sum")])) if keep else None
    if t is None or not t.num_columns:
        # nothing kept, or every kept group filtered empty: Ray drops
        # the schema of a batch a task emptied, so collect has none
        t = pa.table({"event_type": pa.array([], type=pa.string()),
                      "n": pa.array([], type=INT64),
                      "s": pa.array([], type=INT64)})
    out = pa.table({
        "event_type": t["event_type"],
        "n": pc.cast(t["n"], INT64),
        "sum_milli": pc.cast(t["s"], INT64),
    }).sort_by("event_type")
    # pruning effectiveness is observable (not part of the oracle rows)
    zorder_range_scan.last_pruning = (len(keep), meta.num_row_groups)
    return out


# ---------------------------------------------------------------------------
# Q140: randomized-response private counts (local differential privacy)
# ---------------------------------------------------------------------------

def private_purchase_count(sf_dir: str, truth_hex: str = "b"):
    """q140: the purchase count estimated from RANDOMIZED-RESPONSE
    reports — each event reports its true "is a purchase" bit with
    probability p = 3/4 and the flipped bit otherwise, and the
    aggregate debiases with T̂ = (O − (1−p)·N)/(2p−1): the classic
    local-DP collection loop a compliance-bound telemetry pipeline
    runs, where the engine must aggregate reports it cannot trust
    individually.

    The coin is an md5 hex digit per event id (`0-b` = truth, 3/4),
    so both engines toss IDENTICAL coins and the whole report —
    observed count, debiased estimate, true count, signed error —
    is value-exact.  Scale shape: stateless scan, integer partials,
    one global fold; the estimate is ONE final double expression
    ((4·O − N)/2 exact in ints, halved)."""

    def partial(b: pa.Table) -> pa.Table:
        ids = b["event_id"].to_pylist()
        truth = pc.equal(b["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False)
        coin = np.array([h[0] <= truth_hex for h in
                         _md5_hex([str(i) for i in ids])])
        report = np.where(coin, truth, ~truth)
        return pa.table({
            "n": pa.array([len(ids)], type=INT64),
            "observed": pa.array([int(report.sum())], type=INT64),
            "true_n": pa.array([int(truth.sum())], type=INT64),
        })

    agg = _sums(scan_parquet(_pq(sf_dir, "events"),
                             columns=["event_id", "event_type"])
                .map_batches(partial, batch_format="pyarrow"),
                ["n", "observed", "true_n"])
    n, obs, tru = (int(agg[c]) for c in ("n", "observed", "true_n"))
    est = float(4 * obs - n) / 2.0           # (O − N/4) / (1/2), exact
    return pa.table({
        "n": pa.array([n], type=INT64),
        "observed": pa.array([obs], type=INT64),
        "estimate": pa.array([est], type=pa.float64()),
        "true_n": pa.array([tru], type=INT64),
        "err": pa.array([est - float(tru)], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q141: nested decorrelated aggregate-of-aggregate (big spenders)
# ---------------------------------------------------------------------------

def big_spenders(sf_dir: str):
    """q141: customers whose lifetime order total strictly exceeds
    TWICE the average lifetime total of their nation's customers — the
    two-level correlated subquery (an aggregate over an aggregate,
    correlated on a dimension attribute) that q126's one-level
    decorrelation doesn't cover.

    Decorrelation: (1) per-customer totals — ONE key exchange of
    integer partials; (2) nation roll-up of those totals — tiny
    (customers → nations) driver fold, because level-2 aggregates over
    level-1 results are already reduced; (3) the filter re-reads only
    the level-1 table with a broadcast nation dict, predicate as the
    integer cross-multiply ``spend·n_nation > 2·Σ_nation`` — no float
    average exists in either engine.  Customers with no orders count
    into their nation's average with total 0 (LEFT semantics), exactly
    as the SQL twin does."""

    def order_partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["o_totalprice"], 100.0)), INT64)
        return pa.table({"c": b["o_custkey"], "cents": cents})

    per_cust = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_totalprice"])
        .map_batches(order_partial, batch_format="pyarrow"),
        "c", [("cents", "sum")])
    pc_t = collect(per_cust)
    spend = dict(zip((int(x) for x in pc_t["c"].to_pylist()),
                     (int(x) for x in pc_t["cents"].to_pylist())))

    cust = collect(scan_parquet(
        _pq(sf_dir, "customer"),
        columns=["c_custkey", "c_name", "c_nationkey"]))
    ck = [int(x) for x in cust["c_custkey"].to_pylist()]
    nk = [int(x) for x in cust["c_nationkey"].to_pylist()]
    names = cust["c_name"].to_pylist()
    # level 2: nation Σ and n over the (already tiny) level-1 totals,
    # zero-spend customers included
    nat_sum: dict = {}
    nat_n: dict = {}
    for c_, n_ in zip(ck, nk):
        nat_sum[n_] = nat_sum.get(n_, 0) + spend.get(c_, 0)
        nat_n[n_] = nat_n.get(n_, 0) + 1
    rows = [(c_, nm, n_, spend.get(c_, 0)) for c_, nm, n_ in
            zip(ck, names, nk)
            if spend.get(c_, 0) * nat_n[n_] > 2 * nat_sum[n_]]
    rows.sort()
    return pa.table({
        "c_custkey": pa.array([r[0] for r in rows], type=INT64),
        "c_name": pa.array([r[1] for r in rows], type=pa.string()),
        "c_nationkey": pa.array([r[2] for r in rows], type=INT64),
        "total": pa.array([float(r[3]) / 100.0 for r in rows],
                          type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q142: three-replica majority repair (consistency reconciliation)
# ---------------------------------------------------------------------------

def replica_repair(sf_dir: str, npart: int = 32):
    """q142: reconcile three replicas of the orders table by per-key
    MAJORITY VOTE — the anti-entropy repair loop a replicated store
    runs (read-repair / Merkle sync's row-level endgame).  Each replica
    r corrupts a key's price iff ``md5(key:r)`` opens with ``0|1``
    (~1/8, independent per replica), adding a replica-distinct offset
    so two corrupt replicas never agree; repair takes the value two
    replicas share, else (all three distinct — ≥2 corrupt) the
    deterministic MIN fallback.

    Distributed shape: the three replica streams derive inside ONE
    scan (in production: three unions), one key exchange co-locates a
    key's 3 rows, and each bucket resolves with a reshape + vectorized
    3-way compare — no per-key Python.  The summary (key count,
    per-replica deviation counts, unresolvable count) is value-exact
    vs the 3-CTE SQL twin tossing identical coins."""

    def explode(b: pa.Table) -> pa.Table:
        keys = b["o_orderkey"].to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(
            b["o_totalprice"], 100.0)), INT64).to_numpy()
        ks, rs, vs = [], [], []
        for r in range(3):
            bad = np.array([h[0] in "01" for h in _md5_hex(
                [f"{int(k)}:{r}" for k in keys])])
            ks.append(keys)
            rs.append(np.full(len(keys), r, np.int64))
            vs.append(cents + np.where(bad, (r + 1) * 777, 0))
        k = np.concatenate(ks)
        t = pa.table({
            "k": pa.array(k.astype(np.int64)),
            "r": pa.array(np.concatenate(rs)),
            "v": pa.array(np.concatenate(vs).astype(np.int64)),
            "part": pa.array((k % npart).astype(np.int32)),
        })
        return t

    def bucket(g: pa.Table) -> pa.Table:
        k = g["k"].to_numpy()
        r = g["r"].to_numpy()
        v = g["v"].to_numpy()
        order = np.lexsort((r, k))
        k, v = k[order], v[order]
        a, b_, c = v[0::3], v[1::3], v[2::3]     # exactly 3 rows/key
        rep = np.where((a == b_) | (a == c), a,
                       np.where(b_ == c, b_,
                                np.minimum(np.minimum(a, b_), c)))
        all_diff = (a != b_) & (b_ != c) & (a != c)
        return pa.table({
            "n_keys": pa.array([len(rep)], type=INT64),
            "bad_r0": pa.array([int((a != rep).sum())], type=INT64),
            "bad_r1": pa.array([int((b_ != rep).sum())], type=INT64),
            "bad_r2": pa.array([int((c != rep).sum())], type=INT64),
            "n_all_diff": pa.array([int(all_diff.sum())], type=INT64),
        })

    agg = _sums(bucket_exchange(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_orderkey", "o_totalprice"])
        .map_batches(explode, batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        ["n_keys", "bad_r0", "bad_r1", "bad_r2", "n_all_diff"])
    return pa.table({
        "n_keys": pa.array([int(agg["n_keys"])], type=INT64),
        "bad_r0": pa.array([int(agg["bad_r0"])], type=INT64),
        "bad_r1": pa.array([int(agg["bad_r1"])], type=INT64),
        "bad_r2": pa.array([int(agg["bad_r2"])], type=INT64),
        "n_all_diff": pa.array([int(agg["n_all_diff"])],
                               type=INT64),
    })


# ---------------------------------------------------------------------------
# Q143: snowflake hierarchy ROLLUP (region → nation subtotals)
# ---------------------------------------------------------------------------

def revenue_rollup_geo(sf_dir: str):
    """q143: order revenue ROLLUP over the snowflake geography
    hierarchy customer→nation→region — q66's subtotal discipline
    applied across a DIMENSION CHAIN rather than one table's columns:
    the (region, nation) leaf level is the only thing that ever
    shuffles (tiny), every coarser level (region subtotal, grand
    total) derives from those partials driver-side, and the two
    dimension hops are broadcast dicts (q02's join strategy — nation
    and region are catalog-sized at any corpus scale).

    NULL subtotal keys coalesce to 'ALL' for engine-independent
    ordering, exactly as q66/q69 do."""
    import pyarrow.parquet as _pq2

    cust = _pq2.read_table(_pq(sf_dir, "customer"),
                           columns=["c_custkey", "c_nationkey"])
    nation = _pq2.read_table(_pq(sf_dir, "nation"))
    region = _pq2.read_table(_pq(sf_dir, "region"))
    c2n = dict(zip(cust["c_custkey"].to_pylist(),
                   cust["c_nationkey"].to_pylist()))
    n2name = dict(zip(nation["n_nationkey"].to_pylist(),
                      nation["n_name"].to_pylist()))
    n2r = dict(zip(nation["n_nationkey"].to_pylist(),
                   nation["n_regionkey"].to_pylist()))
    r2name = dict(zip(region["r_regionkey"].to_pylist(),
                      region["r_name"].to_pylist()))
    import ray as _ray
    maps_ref = _ray.put((c2n, n2name, n2r, r2name))

    class Leaf:
        def __init__(self):
            self.c2n, self.n2name, self.n2r, self.r2name = \
                _ray.get(maps_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            keys = b["o_custkey"].to_pylist()
            cents = pc.cast(pc.round(pc.multiply(
                b["o_totalprice"], 100.0)), INT64)
            nk = [self.c2n[k] for k in keys]
            return pa.table({
                "r_name": pa.array(
                    [self.r2name[self.n2r[n]] for n in nk],
                    type=pa.string()),
                "n_name": pa.array([self.n2name[n] for n in nk],
                                   type=pa.string()),
                "cents": cents,
            })

    leaf = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_totalprice"])
        .map_batches(Leaf, batch_format="pyarrow", concurrency=(1, 2)),
        ["r_name", "n_name"], [("cents", "sum"), ("n", "count")])
    t = collect(leaf)
    rows = []
    for i in range(t.num_rows):
        rows.append((t["r_name"][i].as_py(), t["n_name"][i].as_py(),
                     int(t["cents"][i].as_py()), int(t["n"][i].as_py())))
    # derive coarser levels from the leaf partials (q66 discipline)
    agg_r: dict = {}
    for r, _, c, n in rows:
        s = agg_r.setdefault(r, [0, 0])
        s[0] += c
        s[1] += n
    out = [(r, n_, c, cnt) for r, n_, c, cnt in rows]
    out += [(r, "ALL", s[0], s[1]) for r, s in agg_r.items()]
    out += [("ALL", "ALL", sum(s[0] for s in agg_r.values()),
             sum(s[1] for s in agg_r.values()))]
    out.sort()
    return pa.table({
        "r_name": pa.array([o[0] for o in out], type=pa.string()),
        "n_name": pa.array([o[1] for o in out], type=pa.string()),
        "total": pa.array([float(o[2]) / 100.0 for o in out],
                          type=pa.float64()),
        "n_orders": pa.array([o[3] for o in out], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q144: sweep-line max concurrency (interval algebra)
# ---------------------------------------------------------------------------

def max_concurrent_sessions(sf_dir: str, gap_minutes: int = 30):
    """q144: the maximum number of SIMULTANEOUSLY active sessions per
    day — capacity planning's load-envelope question, i.e. a sweep-line
    over the q08 session intervals (inclusive [start, end]).

    Sweep encoding kills the tie rules: +1 at start, −1 at end+1µs
    makes inclusive overlap a pure prefix sum; zero-delta PROBE points
    at every day boundary fold the carry-in (sessions spanning
    midnight) into the same per-day max.  Distributed shape: q08's
    bucket fabric emits per-session (start,end) rows, deltas reduce to
    a distinct-timestamp net histogram via one groupby — the driver
    folds the TIMES-sized histogram (2·sessions points; at extreme
    scale the q111 two-phase block-prefix replaces this fold, same
    semantics)."""
    from .relational import sessionize

    sess = sessionize(sf_dir, gap_minutes=gap_minutes)

    DAY = 86_400_000_000

    def deltas(b: pa.Table) -> pa.Table:
        s = pc.cast(b["start_ts"], INT64).to_numpy()
        e = pc.cast(b["end_ts"], INT64).to_numpy()
        # zero-delta probes at every midnight an interval crosses —
        # the carry-in points; a day nothing crosses carries zero
        sd, ed = s // DAY, (e + 1) // DAY
        nb = (ed - sd).astype(np.int64)
        idx = np.repeat(np.arange(len(s)), nb)
        within = np.arange(int(nb.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(nb)[:-1])), nb)
        probes = (sd[idx] + 1 + within) * DAY
        us = np.concatenate((s, e + 1, probes))
        net = np.concatenate((np.ones(len(s), np.int64),
                              np.full(len(e), -1, np.int64),
                              np.zeros(len(probes), np.int64)))
        return pa.table({"us": pa.array(us), "net": pa.array(net)})

    agg = combine_buckets(sess.map_batches(deltas, batch_format="pyarrow"),
                          "us", [("net", "sum")])
    t = collect(agg)
    us = t["us"].to_numpy()
    net = t["net"].to_numpy()
    order = np.argsort(us, kind="stable")
    us_u, net_u = us[order], net[order]
    run = np.cumsum(net_u)
    day = us_u // DAY
    rows = {}
    for d_, r_ in zip(day, run):
        rows[int(d_)] = max(rows.get(int(d_), 0), int(r_))
    days = sorted(rows)
    iso = [str(np.datetime64(d_ * 86_400, "s"))[:10] for d_ in days]
    return pa.table({
        "day": pa.array(iso, type=pa.string()),
        "max_concurrent": pa.array([rows[d_] for d_ in days],
                                   type=INT64),
    })


# ---------------------------------------------------------------------------
# Q145: exact weighted median (weighted order statistic)
# ---------------------------------------------------------------------------

def weighted_median_price(sf_dir: str):
    """q145: per returnflag the QUANTITY-WEIGHTED lower median of the
    extended price — the weighted order statistic ("the price at which
    half the shipped units are cheaper") that plain percentiles can't
    express and no engine ships as a builtin.

    Rides the q15 histogram fabric with WEIGHTS: the exchange carries
    distinct (flag, cents) → Σquantity partials, and the per-flag pass
    picks the smallest value whose cumulative weight reaches half the
    total — evaluated in integer arithmetic (2·cum ≥ W, no float
    half), so it bit-matches the SQL window twin."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), INT64)
        qty = pc.cast(pc.round(b["l_quantity"]), INT64)
        t = pa.table({"flag": b["l_returnflag"], "cents": cents,
                      "w": qty})
        return t.group_by(["flag", "cents"]).aggregate([("w", "sum")]) \
            .rename_columns(["flag", "cents", "w"])

    def combine(g: pa.Table) -> pa.Table:
        c = g["cents"].to_numpy()
        w = g["w"].to_numpy()
        order = np.argsort(c)
        c, w = c[order], w[order]
        new = np.concatenate(([True], c[1:] != c[:-1]))
        seg = np.cumsum(new) - 1
        c_u = c[new]
        w_u = np.zeros(len(c_u), np.int64)
        np.add.at(w_u, seg, w)
        cum = np.cumsum(w_u)
        total = int(cum[-1])
        pos = int(np.searchsorted(2 * cum, total, side="left"))
        return pa.table({
            "l_returnflag": pa.array([g["flag"][0].as_py()]),
            "total_qty": pa.array([total], type=INT64),
            "wmedian_cents": pa.array([int(c_u[pos])], type=INT64),
        })

    return sort_result(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_returnflag", "l_extendedprice",
                                 "l_quantity"])
        .map_batches(partial, batch_format="pyarrow"),
        combine, part_col="flag"), "l_returnflag")


# ---------------------------------------------------------------------------
# Q146: distribution-drift report (PSI between event-stream halves)
# ---------------------------------------------------------------------------

def drift_psi(sf_dir: str, split_day: int = 19738, nbins: int = 10):
    """q146: Population Stability Index of the event ``value``
    distribution between the first and second half of the stream — the
    drift monitor every production feature pipeline runs before
    retraining.  Bins are FIXED equal-width milli-ranges over the
    observed min/max (fixed bins make the report reproducible across
    engines; equi-depth bins would need a quantile pre-pass — q136).

    Exactness: per-(half, bin) counts are integer partials; p/q ppm
    and each bin's PSI term are per-row double expressions over exact
    ints; the TOTAL folds in fixed bin order via ``list_sum(list(term
    ORDER BY bin))`` on the SQL side and the identical left-to-right
    Python fold here — double addition isn't associative, so the fold
    order is pinned.  Zero bins take the standard +0.5-count smoothing
    (in exact half-count units: ppm uses 2n+1 / 2N+nbins)."""

    def partial(b: pa.Table) -> pa.Table:
        milli = pc.cast(pc.floor(pc.multiply(b["value"], 1000.0)), INT64)
        day = pc.divide(pc.cast(b["ts"], INT64),
                        np.int64(86_400_000_000))
        half = pc.cast(pc.greater_equal(day, split_day), INT64)
        return pa.table({"half": half, "milli": milli})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["ts", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["half", "milli"], [("n", "count")])
    t = collect(agg)
    half = t["half"].to_numpy()
    milli = t["milli"].to_numpy()
    n = t["n"].to_numpy()
    lo, hi = int(milli.min()), int(milli.max())
    width = (hi - lo) // nbins + 1                 # integer bin width
    bins = np.minimum((milli - lo) // width, nbins - 1).astype(np.int64)
    cnt = np.zeros((2, nbins), dtype=object)
    for h_, b_, n_ in zip(half, bins, n):
        cnt[int(h_), int(b_)] += int(n_)
    tot = [int(sum(cnt[0])), int(sum(cnt[1]))]
    import math
    rows = {"bin": [], "lo_milli": [], "hi_milli": [], "n_before": [],
            "n_after": [], "term": []}
    terms = []
    for b_ in range(nbins):
        p = (2 * int(cnt[0][b_]) + 1) / float(2 * tot[0] + nbins)
        q = (2 * int(cnt[1][b_]) + 1) / float(2 * tot[1] + nbins)
        term = (p - q) * math.log(p / q)
        rows["bin"].append(b_)
        rows["lo_milli"].append(lo + b_ * width)
        rows["hi_milli"].append(lo + (b_ + 1) * width - 1)
        rows["n_before"].append(int(cnt[0][b_]))
        rows["n_after"].append(int(cnt[1][b_]))
        rows["term"].append(term)
        terms.append(term)
    psi = 0.0
    for x in terms:                                # fixed fold order
        psi += x
    out = pa.table({
        "bin": pa.array(rows["bin"], type=INT64),
        "lo_milli": pa.array(rows["lo_milli"], type=INT64),
        "hi_milli": pa.array(rows["hi_milli"], type=INT64),
        "n_before": pa.array(rows["n_before"], type=INT64),
        "n_after": pa.array(rows["n_after"], type=INT64),
        "term": pa.array(rows["term"], type=pa.float64()),
        "psi_total": pa.array([psi] * nbins, type=pa.float64()),
    })
    return out


# ---------------------------------------------------------------------------
# Q147: A/B experiment readout (deterministic assignment + z-statistic)
# ---------------------------------------------------------------------------

def ab_experiment(sf_dir: str):
    """q147: the experimentation readout — users hash-assigned to
    control/treatment (md5 first hex < '8', the standard sticky
    bucketing), per-arm users and converters (≥1 purchase), conversion
    rates, lift, and the pooled two-proportion z-statistic.  The
    readout every product experiment pipeline computes; deterministic
    assignment makes it reproducible across engines.

    Scale shape: per-(user) conversion folds through ONE user exchange
    (distinct-user partials, never events); the per-arm counts are a
    4-integer report and every rate/z is a final double expression
    over exact ints in pinned order."""
    import math

    def partial(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        conv = pc.equal(b["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"user_id": pa.array(u), "conv": pa.array(conv)})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"),
                     columns=["user_id", "event_type"])
        .map_batches(partial, batch_format="pyarrow"),
        "user_id", [("conv", "max")])
    t = collect(agg)
    users = t["user_id"].to_pylist()
    conv = t["conv"].to_numpy()
    arm = np.array([_md5_hex([str(int(u))])[0][0] < "8"
                    for u in users])             # True = treatment
    n_c, n_t = int((~arm).sum()), int(arm.sum())
    x_c = int(conv[~arm].sum())
    x_t = int(conv[arm].sum())
    # IEEE semantics to match DuckDB's double division: 0/0 -> NaN
    # (e.g. every user converts -> pooled variance 0 -> z_stat NaN).
    with np.errstate(divide="ignore", invalid="ignore"):
        p_c = float(np.float64(x_c) / np.float64(n_c))
        p_t = float(np.float64(x_t) / np.float64(n_t))
        pool = float(np.float64(x_c + x_t) / np.float64(n_c + n_t))
        z = float((np.float64(p_t) - np.float64(p_c))
                  / np.sqrt(np.float64(pool) * (1.0 - pool)
                            * (1.0 / np.float64(n_c)
                               + 1.0 / np.float64(n_t))))
    return pa.table({
        "n_control": pa.array([n_c], type=INT64),
        "n_treatment": pa.array([n_t], type=INT64),
        "conv_control": pa.array([x_c], type=INT64),
        "conv_treatment": pa.array([x_t], type=INT64),
        "rate_control": pa.array([p_c], type=pa.float64()),
        "rate_treatment": pa.array([p_t], type=pa.float64()),
        "lift": pa.array([p_t - p_c], type=pa.float64()),
        "z_stat": pa.array([z], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q148: market-basket frequent pairs (association mining with lift)
# ---------------------------------------------------------------------------

def basket_pairs(sf_dir: str, k: int = 50, npart: int = 16):
    """q148: the top-``k`` co-ordered part pairs — support (orders
    containing both parts), each part's own support, and the exact
    integer lift (``n_pair·n_orders·1e6 // (n_a·n_b)`` ppm) — the
    association-mining readout (Apriori's frequent-2-itemset stage)
    every recommendations pipeline starts from.

    Scale shape: two bounded exchanges.  (1) per-batch DISTINCT
    (order, part) rows hash-exchange on the ORDER so each basket is
    whole in one bucket; pair generation there is vectorized (sorted
    offsets + shift-``j`` equality masks, j ≤ basket width — TPC-H
    baskets are ≤ 7 items) and pre-counted per bucket, alongside
    per-part support partials and the bucket's basket count (union
    schema, kind-tagged, the q133 fuse trick).  (2) partials exchange
    on the PAIR key; each pair resolves whole in one bucket, so
    bucket top-``k`` is a superset of the global top-``k`` and the
    driver merges ≤ k·npart tiny rows.  Shuffle volume is distinct
    (order, part) then per-bucket pair partials — never raw lineitem."""

    def op_distinct(b: pa.Table) -> pa.Table:
        t = pa.table({"o": b["l_orderkey"], "p": b["l_partkey"]})
        t = t.group_by(["o", "p"]).aggregate([])
        return with_part(t, "o", npart)

    def baskets(g: pa.Table) -> pa.Table:
        o = g["o"].to_numpy(zero_copy_only=False)
        p = g["p"].to_numpy(zero_copy_only=False)
        # cross-batch duplicates of (o, p) resolve here (basket-local)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        dup = np.zeros(len(o), dtype=bool)
        dup[1:] = (o[1:] == o[:-1]) & (p[1:] == p[:-1])
        o, p = o[~dup], p[~dup]
        pa_l, pb_l = [], []
        jmax = 1
        n = len(o)
        while True:
            if jmax >= n:
                break
            same = o[:-jmax] == o[jmax:]
            if not same.any():
                break
            pa_l.append(p[:-jmax][same])
            pb_l.append(p[jmax:][same])
            jmax += 1
        if pa_l:
            A = np.concatenate(pa_l)
            B = np.concatenate(pb_l)
        else:
            A = B = np.empty(0, dtype=np.int64)
        # sorted within basket => A < B always
        pairs = pa.table({"pa": pa.array(A, type=INT64),
                          "pb": pa.array(B, type=INT64)})
        pairs = pairs.group_by(["pa", "pb"]).aggregate([("pa", "count")]) \
            .rename_columns(["pa", "pb", "n"])
        supp = pa.table({"pa": pa.array(p, type=INT64)}) \
            .group_by("pa").aggregate([("pa", "count")]) \
            .rename_columns(["pa", "n"])
        n_orders = int(len(np.unique(o)))
        out = pa.table({
            "kind": pa.array([0] * pairs.num_rows + [1] * supp.num_rows
                             + [2], type=pa.int32()),
            "pa": pa.concat_arrays([pairs["pa"].combine_chunks(),
                                    supp["pa"].combine_chunks(),
                                    pa.array([-1], type=INT64)]),
            "pb": pa.concat_arrays([pairs["pb"].combine_chunks(),
                                    pa.array([-1] * supp.num_rows, type=INT64),
                                    pa.array([-1], type=INT64)]),
            "n": pa.concat_arrays([pc.cast(pairs["n"], INT64).combine_chunks(),
                                   pc.cast(supp["n"], INT64).combine_chunks(),
                                   pa.array([n_orders], type=INT64)]),
        })
        h = (out["pa"].to_numpy(zero_copy_only=False) * np.int64(1_000_003)
             + out["pb"].to_numpy(zero_copy_only=False))
        return out.append_column(
            "part2", pa.array((h % npart).astype(np.int32)))

    def pair_totals(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part2"]).combine_chunks()
        t = t.group_by(["kind", "pa", "pb"]).aggregate([("n", "sum")]) \
            .rename_columns(["kind", "pa", "pb", "n"])
        m = pc.equal(t["kind"], 0)
        pairs, rest = t.filter(m), t.filter(pc.invert(m))
        pairs = pairs.take(pc.sort_indices(pairs, sort_keys=[
            ("n", "descending"), ("pa", "ascending"),
            ("pb", "ascending")])).slice(0, k)
        return pa.concat_tables([pairs, rest])

    bask = bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_orderkey", "l_partkey"])
        .map_batches(op_distinct, batch_format="pyarrow"), baskets)
    parts = bucket_exchange(bask, pair_totals, part_col="part2")
    t = collect(parts)
    kind = t["kind"].to_numpy(zero_copy_only=False)
    A = t["pa"].to_numpy(zero_copy_only=False)
    B = t["pb"].to_numpy(zero_copy_only=False)
    N = t["n"].to_numpy(zero_copy_only=False)
    n_orders = int(N[kind == 2].sum())
    supp = dict(zip(A[kind == 1].tolist(), N[kind == 1].tolist()))
    pm = kind == 0
    rows = sorted(zip((-N[pm]).tolist(), A[pm].tolist(), B[pm].tolist()))[:k]
    p1 = np.array([r[1] for r in rows], dtype=np.int64)
    p2 = np.array([r[2] for r in rows], dtype=np.int64)
    n_pair = np.array([-r[0] for r in rows], dtype=np.int64)
    n_a = np.array([supp[int(x)] for x in p1], dtype=np.int64)
    n_b = np.array([supp[int(x)] for x in p2], dtype=np.int64)
    lift = n_pair * np.int64(n_orders) * np.int64(1_000_000) // (n_a * n_b)
    return pa.table({
        "p1": pa.array(p1), "p2": pa.array(p2),
        "n_pair": pa.array(n_pair),
        "n_a": pa.array(n_a), "n_b": pa.array(n_b),
        "lift_ppm": pa.array(lift),
    })


# ---------------------------------------------------------------------------
# Q149: grid-bucketed spatial radius self-join
# ---------------------------------------------------------------------------

def spatial_radius_join(sf_dir: str, npart: int = 16):
    """q149: all customer pairs within radius R on a synthetic integer
    plane — coordinates are md5-derived (first/second 8 hex digits of
    the custkey digest, mod 1e6, so both engines place IDENTICAL
    points), R = 10_000_000 // n_customers keeps the expected pair
    count density-invariant across scale factors.  The geospatial
    radius join (geofencing, store-overlap, contact-graph) expressed
    with the standard uniform-grid pruning.

    Scale shape: cell size = R, so matching pairs live in the same or
    an adjacent cell; each point is exchanged once as OWNER of its
    cell plus four GHOST copies to the forward half-plane neighbors
    ((+1,0),(-1,+1),(0,+1),(+1,+1)) — every adjacent cell pair is
    examined in exactly one bucket, so no pair dedup pass is needed.
    In-bucket pairing is fully vectorized: same-cell owner pairs via
    the sorted shift-j mask, owner×ghost via searchsorted range
    expansion; the distance test is exact int64 (dx²+dy² ≤ R²).
    Shuffle volume is 5 rows per point — never a cross join."""
    import duckdb

    n_cust = duckdb.sql(
        "SELECT COUNT(*) FROM read_parquet('%s')"
        % _pq(sf_dir, "customer")).fetchone()[0]
    R = 10_000_000 // int(n_cust)
    C = np.int64(4_000_003)
    FWD = [(1, 0), (-1, 1), (0, 1), (1, 1)]

    def scatter(b: pa.Table) -> pa.Table:
        ids = b["c_custkey"].to_numpy(zero_copy_only=False)
        hx = _md5_hex([str(int(i)) for i in ids])
        x = np.array([int(h[:8], 16) % 1_000_000 for h in hx],
                     dtype=np.int64)
        y = np.array([int(h[8:16], 16) % 1_000_000 for h in hx],
                     dtype=np.int64)
        cx, cy = x // R, y // R
        cells = [cx * C + cy]
        flags = [np.zeros(len(ids), dtype=np.int8)]
        for dx, dy in FWD:
            cells.append((cx + dx) * C + (cy + dy))
            flags.append(np.ones(len(ids), dtype=np.int8))
        ck = np.concatenate(cells)
        t = pa.table({
            "cell": pa.array(ck),
            "ghost": pa.array(np.concatenate(flags)),
            "id": pa.array(np.tile(ids, 5)),
            "x": pa.array(np.tile(x, 5)),
            "y": pa.array(np.tile(y, 5)),
        })
        return t.append_column(
            "part", pa.array((ck % npart).astype(np.int32)))

    def pair_cells(g: pa.Table) -> pa.Table:
        cell = g["cell"].to_numpy(zero_copy_only=False)
        ghost = g["ghost"].to_numpy(zero_copy_only=False)
        ids = g["id"].to_numpy(zero_copy_only=False)
        x = g["x"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        om = ghost == 0
        oc, oi, ox, oy = cell[om], ids[om], x[om], y[om]
        o_ord = np.lexsort((oi, oc))
        oc, oi, ox, oy = oc[o_ord], oi[o_ord], ox[o_ord], oy[o_ord]
        A_l, B_l, D_l = [], [], []

        def keep(ia, ib, xa, ya, xb, yb):
            d2 = (xa - xb) ** 2 + (ya - yb) ** 2
            m = d2 <= R * R
            lo = np.minimum(ia[m], ib[m])
            hi = np.maximum(ia[m], ib[m])
            A_l.append(lo); B_l.append(hi); D_l.append(d2[m])

        j, n = 1, len(oc)
        while j < n:
            same = oc[:-j] == oc[j:]
            if not same.any():
                break
            keep(oi[:-j][same], oi[j:][same], ox[:-j][same],
                 oy[:-j][same], ox[j:][same], oy[j:][same])
            j += 1
        gm = ~om
        gc, gi, gx, gy = cell[gm], ids[gm], x[gm], y[gm]
        lo = np.searchsorted(oc, gc, side="left")
        hi = np.searchsorted(oc, gc, side="right")
        cnt = hi - lo
        gsel = np.repeat(np.arange(len(gc)), cnt)
        osel = np.repeat(lo, cnt) + (np.arange(int(cnt.sum()))
                                     - np.repeat(np.cumsum(cnt) - cnt, cnt))
        keep(gi[gsel], oi[osel], gx[gsel], gy[gsel], ox[osel], oy[osel])
        if A_l:
            A = np.concatenate(A_l); B = np.concatenate(B_l)
            D = np.concatenate(D_l)
        else:
            A = B = D = np.empty(0, dtype=np.int64)
        return pa.table({"c1": pa.array(A, type=INT64),
                         "c2": pa.array(B, type=INT64),
                         "dist2": pa.array(D, type=INT64)})

    pairs = bucket_exchange(
        scan_parquet(_pq(sf_dir, "customer"),
                     columns=["c_custkey"])
        .map_batches(scatter, batch_format="pyarrow"), pair_cells)
    t = collect(pairs)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("c1", "ascending"), ("c2", "ascending")]))


# ---------------------------------------------------------------------------
# Q150: customer order-count distribution (TPC-H Q13 shape)
# ---------------------------------------------------------------------------

def custdist(sf_dir: str):
    """q150: the distribution of per-customer order counts including
    the zero bin — TPC-H Q13's LEFT JOIN + double aggregation, the
    canonical "how engaged is the customer base" histogram.

    Scale shape: orders fold to per-customer counts through ONE
    custkey exchange of integer partials; each bucket then reduces its
    customers to (c_count, n) histogram partials, so the driver merge
    is O(distinct counts · buckets) tiny rows.  The LEFT semantics
    (customers with no orders) need no join at all: the zero bin is
    ``n_customers − Σ custdist``, one extra metadata-count scan."""

    per_cust = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"), columns=["o_custkey"]),
        "o_custkey", [("c_count", "count")])
    t = collect(combine_buckets(per_cust, "c_count", [("custdist", "count")]))
    import duckdb
    n_cust = duckdb.sql("SELECT COUNT(*) FROM read_parquet('%s')"
                        % _pq(sf_dir, "customer")).fetchone()[0]
    zero = int(n_cust) - int(pc.sum(t["custdist"]).as_py())
    if zero > 0:
        t = pa.concat_tables([t, pa.table(
            {"c_count": pa.array([0], type=t["c_count"].type),
             "custdist": pa.array([zero], type=t["custdist"].type)})])
    t = pa.table({"c_count": pc.cast(t["c_count"], INT64),
                  "custdist": pc.cast(t["custdist"], INT64)})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("custdist", "descending"), ("c_count", "descending")]))


# ---------------------------------------------------------------------------
# Q151: multinomial naive Bayes (train + classify + confusion matrix)
# ---------------------------------------------------------------------------

NB_TERMS = ["join", "sort", "table", "stream", "vector", "batch"]
NB_LANGS = ["de", "en", "es", "fr", "zh"]


def naive_bayes(sf_dir: str):
    """q151: train a multinomial naive-Bayes language classifier on
    the corpus itself (Laplace-smoothed, vocab restricted to the fixed
    ``NB_TERMS``) and report the confusion matrix — the supervised
    text-classification loop (train → score → evaluate) as one exact
    pipeline.

    Scale shape: pass 1 folds per-class stats (doc count + per-term
    occurrence sums) to 5 rows of exact integers through per-batch
    combiners; pass 2 re-scans and scores each batch vectorized.  The
    score is a FIXED left-associated double expression over exact
    integer stats (q122's bit-exact discipline: identical literal
    order in both engines), argmax ties break on class order, and the
    confusion matrix folds as tiny integer partials."""
    import math

    def tf_cols(b: pa.Table):
        txt = b["text"]
        padded = pc.binary_join_element_wise(
            " ", pc.replace_substring(txt, " ", "  "), " ", "")
        return [pc.cast(pc.count_substring(padded, f" {t} "), INT64)
                for t in NB_TERMS]

    def train_partial(b: pa.Table) -> pa.Table:
        cols = {"lang": b["lang"]}
        for i, tf in enumerate(tf_cols(b)):
            cols[f"c{i}"] = tf
        return pa.table(cols)

    g = combine_buckets(
        _docs(sf_dir, columns=["lang", "text"])
        .map_batches(train_partial, batch_format="pyarrow"), "lang",
        [(f"c{i}", "sum") for i in range(len(NB_TERMS))] + [("nd", "count")])
    gt = collect(g)
    stats = {gt["lang"][i].as_py():
             {"nd": int(gt["nd"][i].as_py()),
              **{f"c{j}": int(gt[f"c{j}"][i].as_py())
                 for j in range(len(NB_TERMS))}}
             for i in range(gt.num_rows)}
    N = sum(s["nd"] for s in stats.values())
    V = float(len(NB_TERMS))
    prior = {}
    logp = {}
    for lg in NB_LANGS:
        s = stats[lg]
        tot = sum(s[f"c{j}"] for j in range(len(NB_TERMS)))
        prior[lg] = math.log(float(s["nd"]) / float(N))
        logp[lg] = [math.log((s[f"c{j}"] + 1.0) / (tot + V))
                    for j in range(len(NB_TERMS))]

    def classify(b: pa.Table) -> pa.Table:
        tfs = [tf.to_numpy(zero_copy_only=False).astype(np.float64)
               for tf in tf_cols(b)]
        scores = []
        for lg in NB_LANGS:
            total = np.full(b.num_rows, prior[lg])
            for j in range(len(NB_TERMS)):
                total = total + tfs[j] * logp[lg][j]
            scores.append(total)
        pred_i = np.argmax(np.stack(scores, axis=1), axis=1)
        pred = np.array(NB_LANGS, dtype=object)[pred_i]
        t = pa.table({"lang": b["lang"],
                      "pred": pa.array(pred, type=pa.string())})
        return t.group_by(["lang", "pred"]).aggregate([("lang", "count")]) \
            .rename_columns(["lang", "pred", "n"])

    conf = _docs(sf_dir, columns=["lang", "text"]) \
        .map_batches(classify, batch_format="pyarrow")
    t = collect(conf)
    t = t.group_by(["lang", "pred"]).aggregate([("n", "sum")]) \
        .rename_columns(["lang", "pred", "n"])
    t = pa.table({"lang": t["lang"], "pred": t["pred"],
                  "n": pc.cast(t["n"], INT64)})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("lang", "ascending"), ("pred", "ascending")]))


# ---------------------------------------------------------------------------
# Q152: columnar RLE/encoding advisor (distributed run-length stats)
# ---------------------------------------------------------------------------

RLE_COLS = ["l_linestatus", "l_partkey", "l_returnflag", "l_shipdate"]


def rle_advisor(sf_dir: str, npart: int = 16):
    """q152: run-length structure of lineitem columns in primary-key
    order ((l_orderkey, l_linenumber)) — run count, longest run and
    runs-per-row ppm per column: the storage-layout advisor every
    columnar writer consults when choosing RLE/dictionary encodings
    (runs ≪ rows ⇒ RLE wins; this is also Parquet's own decision).

    Scale shape: rows exchange ONCE into contiguous orderkey ranges
    (range partitioning, not hash — runs are order-defined); each
    bucket sorts locally and reduces every column to a constant-size
    partial (first/last run value+length, interior run count and max).
    The driver stitches ≤ npart·|cols| partials by walking buckets in
    range order and merging boundary runs — the classic distributed
    RLE merge, with run-spanning-many-buckets handled by carrying the
    open run forward."""
    import duckdb
    maxk = int(duckdb.sql(
        "SELECT MAX(l_orderkey) FROM read_parquet('%s')"
        % _pq(sf_dir, "lineitem")).fetchone()[0])

    def scatter(b: pa.Table) -> pa.Table:
        k = b["l_orderkey"].to_numpy(zero_copy_only=False)
        part = (k * npart // (maxk + 1)).astype(np.int32)
        t = pa.table({
            "k": b["l_orderkey"],
            "ln": pc.cast(b["l_linenumber"], INT64),
            "l_linestatus": b["l_linestatus"],
            "l_partkey": b["l_partkey"],
            "l_returnflag": b["l_returnflag"],
            "l_shipdate": pc.cast(b["l_shipdate"], INT64),
        })
        return t.append_column("part", pa.array(part))

    def runs(g: pa.Table) -> pa.Table:
        part = int(g["part"][0].as_py())
        k = g["k"].to_numpy(zero_copy_only=False)
        ln = g["ln"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ln, k))
        rows = []
        for col in RLE_COLS:
            v = g[col].to_numpy(zero_copy_only=False)[order]
            n = len(v)
            chg = np.flatnonzero(v[1:] != v[:-1]) + 1
            bounds = np.concatenate([[0], chg, [n]])
            lens = np.diff(bounds)
            rows.append({
                "part": part, "col": col, "n": n,
                "nruns": len(lens),
                "first_len": int(lens[0]), "last_len": int(lens[-1]),
                "first_val": str(v[0]), "last_val": str(v[-1]),
                # interior max (first/last runs may extend across the
                # bucket boundary; driver accounts for them merged)
                "max_interior": int(lens[1:-1].max()) if len(lens) > 2
                                else 0,
            })
        return pa.table({k2: pa.array([r[k2] for r in rows])
                         for k2 in rows[0]})

    parts = bucket_exchange(
        scan_parquet(
            _pq(sf_dir, "lineitem"),
            columns=["l_orderkey", "l_linenumber"] + RLE_COLS)
        .map_batches(scatter, batch_format="pyarrow"), runs)
    t = collect(parts)
    out = []
    for col in RLE_COLS:
        sub = t.filter(pc.equal(t["col"], col))
        sub = sub.take(pc.sort_indices(sub, sort_keys=[("part",
                                                        "ascending")]))
        rs = sub.to_pylist()
        n_rows = sum(r["n"] for r in rs)
        total_runs, max_run = 0, 0
        open_val, open_len = None, 0
        for r in rs:
            if open_val is not None and r["first_val"] == open_val:
                open_len += r["first_len"]
            else:
                if open_val is not None:
                    total_runs += 1
                    max_run = max(max_run, open_len)
                open_len = r["first_len"]
                open_val = r["first_val"]
            if r["nruns"] > 1:
                total_runs += 1                   # the merged first run
                max_run = max(max_run, open_len, r["max_interior"])
                total_runs += r["nruns"] - 2      # interior runs
                open_val, open_len = r["last_val"], r["last_len"]
        if open_val is not None:
            total_runs += 1
            max_run = max(max_run, open_len)
        out.append({"col": col, "n_rows": n_rows, "n_runs": total_runs,
                    "max_run": max_run,
                    "runs_ppm": total_runs * 1_000_000 // n_rows})
    return pa.table({
        "col": pa.array([r["col"] for r in out]),
        "n_rows": pa.array([r["n_rows"] for r in out], type=INT64),
        "n_runs": pa.array([r["n_runs"] for r in out], type=INT64),
        "max_run": pa.array([r["max_run"] for r in out], type=INT64),
        "runs_ppm": pa.array([r["runs_ppm"] for r in out], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q153: distributed logistic regression (full-batch GD, exact fold)
# ---------------------------------------------------------------------------

LOGREG_ITERS = 5


def logreg_train(sf_dir: str):
    """q153: train a logistic-regression model (is the lineitem a
    return? features: bias, quantity/50, discount·10) with
    ``LOGREG_ITERS`` full-batch gradient-descent sweeps, then report
    the weights and training accuracy — iterative distributed ML
    training as an engine primitive (the shape SGD/L-BFGS data
    pipelines run: per-iteration scan → gradient partials → tiny
    all-reduce → driver update).

    Exactness: per-row gradient contributions are floored to 1e-9
    fixed point and summed as int64 (order-free), the per-row doubles
    are bit-identical in both engines (raw parquet doubles, one pinned
    left-associated expression), and each weight update is a single
    pinned double expression — so five chained iterations stay
    bit-exact against the SQL twin's chained CTEs."""

    import duckdb
    n = int(duckdb.sql("SELECT COUNT(*) FROM read_parquet('%s')"
                       % _pq(sf_dir, "lineitem")).fetchone()[0])
    n_d = float(n)
    w = [0.0, 0.0, 0.0]

    def grad_partial(b: pa.Table) -> pa.Table:
        a, bb, c = w
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        dc = b["l_discount"].to_numpy(zero_copy_only=False)
        y = pc.equal(b["l_returnflag"], "R") \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        x1 = q / 50.0
        x2 = dc * 10.0
        z = a + bb * x1 + c * x2
        sig = 1.0 / (1.0 + np.exp(-z))
        d = sig - y
        g0 = np.floor(d * 1000000000.0).astype(np.int64)
        g1 = np.floor((d * x1) * 1000000000.0).astype(np.int64)
        g2 = np.floor((d * x2) * 1000000000.0).astype(np.int64)
        ok = ((sig >= 0.5) == (y == 1.0)).astype(np.int64)
        return pa.table({
            "g0": pa.array([int(g0.sum())], type=INT64),
            "g1": pa.array([int(g1.sum())], type=INT64),
            "g2": pa.array([int(g2.sum())], type=INT64),
            "ok": pa.array([int(ok.sum())], type=INT64),
        })

    cols = ["l_quantity", "l_discount", "l_returnflag"]
    ok = 0
    for _ in range(LOGREG_ITERS):
        s = _sums(scan_parquet(_pq(sf_dir, "lineitem"), columns=cols)
                  .map_batches(grad_partial, batch_format="pyarrow"),
                  ["g0", "g1", "g2", "ok"])
        G = [int(s["g0"]), int(s["g1"]), int(s["g2"])]
        ok = int(s["ok"])     # accuracy of the PRE-update weights
        w = [w[j] - ((float(G[j]) / 1000000000.0) / n_d)
             for j in range(3)]
    return pa.table({
        "w_bias": pa.array([w[0]], type=pa.float64()),
        "w_qty": pa.array([w[1]], type=pa.float64()),
        "w_disc": pa.array([w[2]], type=pa.float64()),
        "n_rows": pa.array([n], type=INT64),
        "n_correct": pa.array([ok], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q154: BPE-style tokenizer merge training (iterative pair merges)
# ---------------------------------------------------------------------------

BPE_ROUNDS = 4


def bpe_merges(sf_dir: str, npart: int = 32):
    """q154: the first ``BPE_ROUNDS`` merge rules of a BPE-style
    tokenizer trained on the corpus — per round, the most frequent
    adjacent token pair (ties: lexicographically smallest) and its
    count, with the merge applied before the next round — the
    tokenizer-training loop (the merge-table prefix) every LLM data
    stack runs before anything else.

    Merge semantics are the TWO-PASS greedy non-overlapping string
    replace (`' a b '`→`' a_b '` twice) — deterministic and identical
    in both engines (Python ``str.replace`` ≡ DuckDB ``replace``,
    leftmost non-overlapping), a documented approximation of the
    textbook leftmost walk for runs longer than 4 of one token.

    Scale shape: each round is one corpus scan (previous merges
    re-applied on the fly — the intermediate corpus is never
    materialized), per-batch pair-count combiners, ONE bucket exchange
    on the pair, per-bucket top-1 partials (a pair lives in exactly
    one bucket, so bucket winners are a superset), driver top-1 over
    ≤ npart rows."""

    merges: list[str] = []

    def pair_counts(b: pa.Table) -> pa.Table:
        from collections import Counter
        cnt: Counter = Counter()
        for txt in b["text"].to_pylist():
            s = " " + txt + " "
            for p in merges:
                pat, rep = " %s " % p, " %s " % p.replace(" ", "_")
                s = s.replace(pat, rep).replace(pat, rep)
            toks = s.strip(" ").split(" ")
            cnt.update(toks[i] + " " + toks[i + 1]
                       for i in range(len(toks) - 1))
        t = pa.table({"pair": pa.array(list(cnt.keys()),
                                       type=pa.string()),
                      "n": pa.array(list(cnt.values()), type=INT64)})
        return with_part(t, "pair", npart)

    def bucket_top(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).combine_chunks() \
            .group_by("pair").aggregate([("n", "sum")]) \
            .rename_columns(["pair", "n"])
        return t.take(pc.sort_indices(t, sort_keys=[
            ("n", "descending"), ("pair", "ascending")])).slice(0, 1)

    out = []
    for rnd in range(BPE_ROUNDS):
        cand = bucket_exchange(
            _docs(sf_dir, columns=["text"])
            .map_batches(pair_counts, batch_format="pyarrow"), bucket_top)
        t = collect(cand)
        rows = sorted(zip((-x for x in t["n"].to_pylist()),
                          t["pair"].to_pylist()))
        n, pair = -rows[0][0], rows[0][1]
        out.append({"round": rnd, "pair": pair, "n": int(n)})
        merges.append(pair)
    return pa.table({
        "round": pa.array([r["round"] for r in out], type=INT64),
        "pair": pa.array([r["pair"] for r in out], type=pa.string()),
        "n": pa.array([r["n"] for r in out], type=INT64),
    })


# ---------------------------------------------------------------------------
# Q155: Benford's-law forensic audit on order totals
# ---------------------------------------------------------------------------

def benford_audit(sf_dir: str):
    """q155: leading-digit distribution of o_totalprice (in cents)
    against Benford's law, with the chi-square statistic — the
    forensic data-quality screen auditors run over financial columns
    (synthetic uniform-ish data SHOULD fail it; the audit's job is to
    measure, not to pass).

    Scale shape: the leading digit is integer arithmetic per row
    (repeated /10 via log-free digit peel on the cents int), folded as
    9-bin per-batch partials through one tiny sum; expected counts
    and chi² are FINAL pinned double expressions over (N, obs_d) —
    digit order fixed, both engines the identical literal."""
    import math

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            b["o_totalprice"], 100.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        lead = cents.copy()
        while (lead >= 10).any():
            lead = np.where(lead >= 10, lead // 10, lead)
        binc = np.bincount(lead, minlength=10)[1:10]
        return pa.table({f"d{d}": pa.array([int(binc[d - 1])],
                                           type=INT64)
                         for d in range(1, 10)})

    s = _sums(scan_parquet(_pq(sf_dir, "orders"),
                        columns=["o_totalprice"]) \
        .map_batches(partial, batch_format="pyarrow"),
        [f"d{d}" for d in range(1, 10)])
    obs = [int(s[f"d{d}"]) for d in range(1, 10)]
    n = sum(obs)
    rows = []
    for d in range(1, 10):
        exp = float(n) * (math.log10(1.0 + 1.0 / float(d)))
        chi = ((float(obs[d - 1]) - exp) * (float(obs[d - 1]) - exp)) / exp
        rows.append({"digit": d, "n_obs": obs[d - 1], "expected": exp,
                     "chi2_term": chi})
    return pa.table({
        "digit": pa.array([r["digit"] for r in rows], type=INT64),
        "n_obs": pa.array([r["n_obs"] for r in rows], type=INT64),
        "expected": pa.array([r["expected"] for r in rows],
                             type=pa.float64()),
        "chi2_term": pa.array([r["chi2_term"] for r in rows],
                              type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q156: GDPR cascade-delete audit (broadcast delete set, 3 tables)
# ---------------------------------------------------------------------------

def gdpr_cascade(sf_dir: str):
    """q156: the right-to-erasure dry run — customers whose md5 coin
    lands in the delete cohort (first hex digit '0', ~1/16), cascaded
    through orders and lineitem, reporting per-table total / purged /
    retained counts — the compliance pipeline every data platform runs
    before a hard delete.

    Scale shape: the delete frontier at each level is the SMALL side
    (a keyset, shrinking fractions of each dimension) and broadcasts
    via ``ray.put`` into the next table's scan as a vectorized
    ``np.isin`` filter with integer count partials — the fact tables
    never shuffle and nothing but keys ever reaches the driver."""
    import ray

    cust = collect(scan_parquet(_pq(sf_dir, "customer"),
                                columns=["c_custkey"]))
    ckeys = cust["c_custkey"].to_numpy(zero_copy_only=False)
    dmask = np.array([h[0] == "0" for h in
                      _md5_hex([str(int(k)) for k in ckeys])])
    del_cust = np.sort(ckeys[dmask])
    n_cust, p_cust = len(ckeys), int(dmask.sum())
    del_cust_ref = ray.put(del_cust)

    import duckdb
    n_ord = int(duckdb.sql("SELECT COUNT(*) FROM read_parquet('%s')"
                           % _pq(sf_dir, "orders")).fetchone()[0])

    def orders_partial(b: pa.Table) -> pa.Table:
        ok = b["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        m = np.isin(ck, np.asarray(ray.get(del_cust_ref)))
        return pa.table({"key": pa.array(ok[m], type=INT64)})

    od = scan_parquet(_pq(sf_dir, "orders"),
                      columns=["o_orderkey", "o_custkey"]) \
        .map_batches(orders_partial, batch_format="pyarrow")
    ot = collect(od)
    del_ord = np.sort(ot["key"].to_numpy(zero_copy_only=False))
    p_ord = len(del_ord)
    del_ord_ref = ray.put(del_ord)

    def li_partial(b: pa.Table) -> pa.Table:
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        m = np.isin(ok, np.asarray(ray.get(del_ord_ref)))
        return pa.table({"n": pa.array([len(ok)], type=INT64),
                         "p": pa.array([int(m.sum())], type=INT64)})

    s = _sums(scan_parquet(_pq(sf_dir, "lineitem"),
                           columns=["l_orderkey"])
              .map_batches(li_partial, batch_format="pyarrow"), ["n", "p"])
    n_li, p_li = int(s["n"]), int(s["p"])
    return pa.table({
        "tbl": pa.array(["customer", "lineitem", "orders"]),
        "n_total": pa.array([n_cust, n_li, n_ord], type=INT64),
        "n_purged": pa.array([p_cust, p_li, p_ord], type=INT64),
        "n_retained": pa.array([n_cust - p_cust, n_li - p_li,
                                n_ord - p_ord], type=INT64),
    })


def _forest_doubling(sf_dir: str, npart: int, acc_col: str, acc_init,
                     op):
    """Resolve q159's planted md5 forest over the part table by pointer
    doubling, folding ``acc_col`` along every compressed path with
    ``op`` (``np.add``: path length; ``np.multiply``: path product).
    ``acc_init(k, root) -> int64`` is each node's edge value (a root's
    is the fold's identity).  Returns the materialized final state, one
    row per part: ``key``, ``ptr`` (its root), ``acc_col`` and
    ``cents``.  Rounds and convergence check: see ``hierarchy_rollup``."""
    import math

    from ..stages.sketch import md5_prefix64

    def init(b: pa.Table) -> pa.Table:
        k = b["p_partkey"].to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(
            b["p_retailprice"], 100.0)), INT64)
        h = md5_prefix64([str(int(x)) for x in k])
        root = k < 16
        par = np.where(root, k, (h % np.maximum(
            k.astype(np.uint64), np.uint64(1)).astype(np.uint64))
            .astype(np.int64))
        return pa.table({
            "key": pa.array(k, type=INT64),
            "ptr": pa.array(par, type=INT64),
            acc_col: pa.array(acc_init(k, root), type=INT64),
            "cents": cents,
        })

    state = materialize(read_parquet(_pq(sf_dir, "part"),
                                     columns=["p_partkey", "p_retailprice"])
                        .map_batches(init, batch_format="pyarrow"))
    n_total = state.count()          # metadata on a materialized ds

    P32 = pa.int32()

    def pad(b: pa.Table) -> pa.Table:
        # side 0: active query rows routed by ptr; side 1: lookup rows
        # routed by own key (every node is a potential jump target);
        # side 2: resolved passengers (any bucket -- key-routed).
        key = b["key"].to_numpy(zero_copy_only=False)
        ptr = b["ptr"].to_numpy(zero_copy_only=False)
        act = ptr >= 16
        a = b.filter(pa.array(act))
        d = b.filter(pa.array(~act))
        route = np.concatenate([
            ptr[act], key, key[~act]]).astype(np.uint64)
        with np.errstate(over="ignore"):
            route = (route ^ (route >> np.uint64(33))) \
                * np.uint64(0xFF51AFD7ED558CCD)
        side = np.concatenate([
            np.zeros(int(act.sum()), dtype=np.int8),
            np.ones(len(key), dtype=np.int8),
            np.full(int((~act).sum()), 2, dtype=np.int8)])
        t = pa.concat_tables([a, b, d])
        return pa.table({
            "key": t["key"], "ptr": t["ptr"], acc_col: t[acc_col],
            "cents": t["cents"], "side": pa.array(side),
            "part": pa.array((route % np.uint64(npart)).astype(np.int32),
                             type=P32),
        })

    def bucket(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        out = g.filter(pa.array(side == 2)) \
            .select(["key", "ptr", acc_col, "cents"])
        a = g.filter(pa.array(side == 0))
        if a.num_rows == 0:
            return out
        lk = g.filter(pa.array(side == 1))
        lk_key = lk["key"].to_numpy(zero_copy_only=False)
        order = np.argsort(lk_key)
        pos = np.searchsorted(lk_key, a["ptr"].to_numpy(zero_copy_only=False),
                              sorter=order)
        idx = order[pos]             # a's ptr row inside lk (always hits)
        lk_ptr = lk["ptr"].to_numpy(zero_copy_only=False)[idx]
        lk_acc = lk[acc_col].to_numpy(zero_copy_only=False)[idx]
        jumped = pa.table({
            "key": a["key"],
            "ptr": pa.array(lk_ptr, type=INT64),
            acc_col: pa.array(op(a[acc_col].to_numpy(zero_copy_only=False),
                                 lk_acc), type=INT64),
            "cents": a["cents"],
        })
        return pa.concat_tables([out, jumped])

    # doubling bound for the whp max depth of a random recursive tree,
    # then keep going (1 exchange per extra check) if data beat the odds
    depth_bound = 4.0 * math.log(n_total + 2) + 16
    rounds = max(1, math.ceil(math.log2(depth_bound)))
    for r in range(rounds + 64):
        state = bucket_exchange(
            state.map_batches(pad, batch_format="pyarrow"),
            lambda g: bucket(g.drop_columns(["part"])))
        if r + 1 >= rounds and not int(_sums(state.map_batches(
                lambda b: pa.table({"n": pa.array(
                    [int((b["ptr"].to_numpy(zero_copy_only=False) >= 16)
                         .sum())], type=INT64)}),
                batch_format="pyarrow"), ["n"])["n"] or 0):
            return state             # no active node left
    raise RuntimeError("pointer doubling failed to converge")


def hierarchy_rollup(sf_dir: str, npart: int = 16):
    """q159: forest resolution via POINTER DOUBLING + per-root rollup.

    A planted md5 forest over the part table (k < 16 are roots;
    parent(k) = md5h64(k) % k otherwise -- strictly decreasing, so
    acyclic with data-dependent O(log n) depth).  Every node's (root,
    depth) resolves by path doubling (ptr[k] <- ptr[ptr[k]], dist
    accumulates) -- the tree-contraction primitive a recursive CTE
    serializes: O(log depth) exchanges of O(n) pointer rows instead of
    depth sequential steps.

    The doubling is ``_forest_doubling`` (q176 runs it too).  Each
    round is EXACTLY ONE hash exchange: every node emits a lookup
    row (keyed by its own id) and active nodes emit a query row (keyed
    by their ptr); resolved nodes ride the same exchange as
    passengers, so a round is one union -> one groupby -> one
    vectorized per-bucket gather, with the state re-materialized
    between rounds (bounded O(n) object-store footprint, nothing
    driver-side but the 16-row report).  The round count is the
    doubling bound for the whp max depth of a random recursive tree
    (4*ln n + 16), followed by a hard convergence check that keeps
    iterating if the bound was ever too tight.  Oracle: DuckDB
    recursive-CTE walk of the same md5 parent function (value-exact).
    """
    # path length: a non-root's edge to its parent counts 1
    state = _forest_doubling(
        sf_dir, npart, "dist",
        lambda k, root: (~root).astype(np.int64), np.add)

    out = combine_buckets(state.map_batches(
        lambda b: pa.table({"root": b["ptr"], "sum_cents": b["cents"],
                            "max_depth": b["dist"]}),
        batch_format="pyarrow"), "root",
        [("n_nodes", "count"), ("sum_cents", "sum"), ("max_depth", "max")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "root": pc.cast(b["root"], INT64),
            "n_nodes": pc.cast(b["n_nodes"], INT64),
            "sum_cents": pc.cast(b["sum_cents"], INT64),
            "max_depth": pc.cast(b["max_depth"], INT64),
        })

    return sort_result(out.map_batches(finish, batch_format="pyarrow"),
                       ["root"])


def bloom_pruned_join(sf_dir: str, npart: int = 16, prune: bool = True):
    """q160: Bloom-pruned join — the sideways information pass
    (semi-join reduction) every warehouse runs when the build side is
    too big to broadcast as an exact keyset but a fixed-size bitmap
    fits everywhere: urgent orders build a 128 KiB Bloom from
    per-block partials (driver OR-fold here; tree-reduce when block
    counts grow), the bitmap broadcasts once via ``ray.put``, and the
    lineitem scan drops non-member rows BEFORE the hash exchange.
    False positives survive to the exact join, so the result is exact
    at ANY false-positive rate — ``prune=False`` must return
    byte-identical output (pinned by pytest); the bloom only cuts
    exchange traffic (~4/5 of lineitem here).

    Revenue accumulates in exact cents×percent integer units through
    both exchanges and converts to double once per output row (q100's
    discipline)."""
    import ray

    from ..stages.exchange import hash_join
    from ..stages.sketch import bloom_contains, bloom_merge, bloom_partial

    def build_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
        bits = bloom_partial(b["o_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"bits": pa.array([bits.tobytes()],
                                          type=pa.large_binary())})

    bits_ref = None
    if prune:
        parts = scan_parquet(
            _pq(sf_dir, "orders"),
            columns=["o_orderkey", "o_orderpriority"]) \
            .map_batches(build_partial, batch_format="pyarrow")
        bitmaps = [np.frombuffer(r["bits"], dtype=np.uint8)
                   for bb in parts.iter_batches(batch_format="pyarrow")
                   for r in bb.to_pylist()]
        bits_ref = ray.put(bloom_merge(bitmaps))

    def orders_side(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
        return pa.table({
            "l_orderkey": b["o_orderkey"],
            "month": pc.strftime(b["o_orderdate"], format="%Y-%m"),
        })

    def line_side(b: pa.Table) -> pa.Table:
        if bits_ref is not None:
            hit = bloom_contains(
                np.asarray(ray.get(bits_ref)),
                b["l_orderkey"].to_numpy(zero_copy_only=False))
            b = b.filter(pa.array(hit))
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        t = pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc)),
            "n": pa.nulls(b.num_rows, INT64).fill_null(1),
        })
        return t.group_by(["l_orderkey"]).aggregate(
            [("rev", "sum"), ("n", "sum")]) \
            .rename_columns(["l_orderkey", "rev", "n"])

    orders = scan_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(orders_side, batch_format="pyarrow")
    lines = scan_parquet(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def month_finish(j: pa.Table) -> pa.Table:
        # join-bucket fusion: an orderkey's rows are complete here, so
        # the per-month partial is safe and the global groupby sees
        # months, not orderkeys
        return j.group_by(["month"]).aggregate(
            [("rev", "sum"), ("n", "sum")]) \
            .rename_columns(["month", "rev", "n_items"])

    agg = combine_buckets(
        hash_join(lines, orders, "l_orderkey", how="inner",
                  npart=npart, bucket_finish=month_finish),
        "month", [("rev", "sum"), ("n_items", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "month": b["month"],
            "n_items": pc.cast(b["n_items"], INT64),
            "revenue": pc.divide(pc.cast(b["rev"], pa.float64()), 10_000.0),
        })

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["month"])


def lpm_enrich(sf_dir: str):
    """q161: longest-prefix-match enrichment — the geo-IP / CIDR
    lookup every log pipeline runs: each user maps to a deterministic
    IPv4 (md5 of the user id), a 64-rule CIDR table (planted md5
    prefixes at lengths 4/6/8/10/12, nested and overlapping) is the
    broadcast small side, and each event's user resolves to the rule
    with the LONGEST matching prefix (ties: smallest rule id), else
    'none'.  Matching is hierarchical — not an equi-join — so neither
    a hash nor a range exchange expresses it: the rule table is
    preprocessed driver-side into per-length sorted prefix arrays
    (duplicate prefixes collapse to their min rule id, which encodes
    the tie rule), and each batch probes levels longest-first with
    ONE searchsorted per level over its not-yet-matched rows.

    Scale shape: rules broadcast once (real CIDR DBs are MBs); events
    never shuffle raw — the (region,user) exchange carries bounded
    partials for the exact distinct-user count (q158's two-level
    fold)."""

    from ..stages.sketch import md5_prefix64

    U32 = np.uint64(0xFFFFFFFF)
    # rule table: plen = 4 + (j % 5) * 2, prefix bits = md5h64('rule-j')
    j = np.arange(64, dtype=np.int64)
    plens = 4 + (j % 5) * 2
    pbits = md5_prefix64(["rule-%d" % x for x in j]) & U32
    levels = []                    # (plen, sorted_prefixes, min_rule_id)
    for plen in sorted(set(plens.tolist()), reverse=True):
        m = plens == plen
        pref = (pbits[m] >> np.uint64(32 - plen)).astype(np.uint64)
        rid = j[m]
        order = np.lexsort((rid, pref))
        pref, rid = pref[order], rid[order]
        first = np.concatenate([[True], pref[1:] != pref[:-1]])
        levels.append((plen, pref[first], rid[first]))

    def enrich(b: pa.Table) -> pa.Table:
        users = b["user_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(users, return_inverse=True)
        ip = md5_prefix64([str(int(u)) for u in uniq]) & U32
        region = np.full(len(uniq), -1, dtype=np.int64)
        for plen, pref, rid in levels:
            todo = region < 0
            if not todo.any():
                break
            probe = ip[todo] >> np.uint64(32 - plen)
            pos = np.searchsorted(pref, probe)
            pos_c = np.minimum(pos, len(pref) - 1)
            hit = pref[pos_c] == probe
            upd = np.where(todo)[0][hit]
            region[upd] = rid[pos_c[hit]]
        labels = np.array(["none"] + ["r%d" % x for x in range(64)])
        return pa.table({
            "region": pa.array(labels[region + 1][inv]),
            "user_id": b["user_id"],
            "sum_cents": pc.cast(pc.round(pc.multiply(b["value"], 100.0)),
                                 INT64),
        })

    per_user = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["user_id", "value"])
        .map_batches(enrich, batch_format="pyarrow"),
        ["region", "user_id"], [("n_events", "count"), ("sum_cents", "sum")])
    out = combine_buckets(per_user, "region",
                          [("n_users", "count"), ("n_events", "sum"),
                           ("sum_cents", "sum")])
    return sort_result(out, ["region"])


_Q5_LO_US = _epoch_us("1995-01-01")
_Q5_HI_US = _epoch_us("1996-01-01")


def local_supplier_revenue(sf_dir: str, region: str = "ASIA",
                           npart: int = 16):
    """q163: the canonical TPC-H Q5 composition — revenue per nation
    where the SUPPLIER and the CUSTOMER share the nation (the non-star
    twist: two independent paths to nationkey must AGREE per row, so
    no single dimension broadcast resolves it).

    Plan: nation/region and supplier→nationkey broadcast as dicts
    (catalog-sized at any scale); orders (date-range filtered, column
    pruned) lookup-join the region's customers on custkey to pick up
    c_nationkey; lineitem lookup-joins the result on orderkey with
    the supplier-nation equality CHECK and the per-nation revenue
    partial FUSED into bucket_finish, so the join emits nation-sized
    partials per fact batch or bucket, never joined rows.  Revenue
    in exact cents×percent ints, one double division per output row
    (q100's discipline)."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import lookup_join

    nat = _pq2.read_table(_pq(sf_dir, "nation"))
    reg = _pq2.read_table(_pq(sf_dir, "region"))
    rkey = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"][0]
    nat = nat.filter(pc.equal(nat["n_regionkey"], rkey))
    nat_name = dict(zip(nat["n_nationkey"].to_pylist(),
                        nat["n_name"].to_pylist()))
    nat_keys = np.sort(np.array(list(nat_name), dtype=np.int64))

    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False)
    # dense suppkey → nationkey map (-1 outside the region)
    sup_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    m = np.isin(sn, nat_keys)
    sup_nat[sk[m]] = sn[m]

    def orders_side(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64)
        b = b.filter(pc.and_(
            pc.greater_equal(d, pa.scalar(_Q5_LO_US, type=INT64)),
            pc.less(d, pa.scalar(_Q5_HI_US, type=INT64))))
        return pa.table({"c_custkey": b["o_custkey"],
                         "o_orderkey": b["o_orderkey"]})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def cust_side(b: pa.Table) -> pa.Table:
        cn = pc.cast(b["c_nationkey"], INT64)
        keep = np.isin(cn.to_numpy(zero_copy_only=False), nat_keys)
        return pa.table({"c_custkey": b["c_custkey"], "c_nationkey": cn}) \
            .filter(pa.array(keep))

    # region customers only: the custkey → nationkey slice is
    # broadcast-small (round-4: the custkey exchange was half of
    # q163's ~10 s wall)
    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_nationkey"]) \
        .map_batches(cust_side, batch_format="pyarrow")
    ord_nat = materialize(lookup_join(
        orders, cust, "c_custkey", npart=npart,
        bucket_finish=lambda j: pa.table({
            "l_orderkey": j["o_orderkey"],
            "c_nationkey": j["c_nationkey"]})))

    def line_side(b: pa.Table) -> pa.Table:
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        s_nat = np.where(s < len(sup_nat), sup_nat[np.minimum(
            s, len(sup_nat) - 1)], -1)
        keep = s_nat >= 0
        b = b.filter(pa.array(keep))
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "s_nationkey": pa.array(s_nat[keep], type=INT64),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc)),
        })

    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey",
                                     "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def q5_finish(j: pa.Table) -> pa.Table:
        same = pc.equal(j["s_nationkey"], j["c_nationkey"])
        j = j.filter(same)
        return pa.table({"n_nationkey": j["s_nationkey"], "rev": j["rev"]}) \
            .group_by(["n_nationkey"]).aggregate([("rev", "sum")]) \
            .rename_columns(["n_nationkey", "rev"])

    # nation-sized partials per batch or bucket: fold + name + sort
    # driver-side
    parts = collect(lookup_join(lines, ord_nat, "l_orderkey", npart=npart,
                                bucket_finish=q5_finish))
    g = parts.group_by(["n_nationkey"]).aggregate([("rev", "sum")]) \
        .rename_columns(["n_nationkey", "rev"])
    names = [nat_name[int(k)] for k in g["n_nationkey"].to_pylist()]
    out = pa.table({
        "n_name": pa.array(names, type=pa.string()),
        "revenue": pc.divide(pc.cast(g["rev"], pa.float64()), 10_000.0),
    }).sort_by([("revenue", "descending")])
    return from_arrow(out)


def pit_state_snapshot(sf_dir: str, npart: int = 32,
                       day_lo: int = 19723, n_days: int = 31):
    """q164: point-in-time (AS-OF) dimension snapshots against the
    q131 SCD2 history — "how many users were in each state at
    midnight on day D" for every day in the observed band: the
    snapshot-reconstruction read every type-2 dimension exists to
    serve.

    Because a user's validity intervals TILE [first_event, ∞) without
    overlap, the instant-lookup needs no join at all downstream of the
    history build: an interval is the user's state at probe t iff
    valid_from <= t < valid_to — a pure per-row predicate.  So the
    whole snapshot grid folds as map_batches count partials over the
    interval table (31 vectorized masks per batch) + one tiny
    (day,state) groupby; the only exchange is the user bucket
    (``_user_timeline``) q131 already pays to build runs.  Oracle: the
    q131 runs CTE joined to the day grid with BETWEEN (value-exact)."""

    hist = scd2_user_state(sf_dir, npart=npart)
    US_DAY = np.int64(86_400_000_000)
    probes = (day_lo + np.arange(n_days, dtype=np.int64)) * US_DAY

    def partial(b: pa.Table) -> pa.Table:
        vf = b["valid_from_us"].to_numpy(zero_copy_only=False)
        vt = b["valid_to_us"].to_numpy(zero_copy_only=False)
        et = b["event_type"]
        codes, uniq = None, None
        enc = pc.dictionary_encode(et)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq = enc.dictionary.to_pylist()
        days, states, ns = [], [], []
        for d in range(n_days):
            t = probes[d]
            m = (vf <= t) & (t < vt)
            if not m.any():
                continue
            cnt = np.bincount(codes[m], minlength=len(uniq))
            nz = np.flatnonzero(cnt)
            days.extend([day_lo + d] * len(nz))
            states.extend(uniq[i] for i in nz)
            ns.extend(cnt[nz].tolist())
        return pa.table({
            "day": pa.array(days, type=INT64),
            "state": pa.array(states, type=pa.string()),
            "n_users": pa.array(ns, type=INT64),
        })

    out = combine_buckets(hist.map_batches(partial, batch_format="pyarrow"),
                          ["day", "state"], [("n_users", "sum")])
    return sort_result(out, ["day", "state"])


def windowed_pair_join(sf_dir: str, npart: int = 32,
                       lag_max_us: int = 3_600_000_000):
    """q165: stream-stream windowed join — every (click, purchase)
    pair of the SAME user with 0 < purchase.ts - click.ts <= 1h, the
    conversion-pairing join streaming engines bound with watermarks.
    Reported per click day: pair count and exact lag sum.

    Scale shape: the scan prunes to the two event types and ships only
    (user, ts) rows through ONE user exchange (``_user_timeline``);
    each bucket pairs via composite-key searchsorted (user_rank·W +
    dense rank of ts among the bucket's click, purchase and click+lag
    timestamps, W = their count — exact for any timestamp span, so a
    window never crosses a user boundary) with a prefix-sum over
    purchase timestamps turning per-click lag sums into two gathers —
    no pair list ever materializes, output is O(days) partials.
    Oracle: the quadratic self-join (value-exact)."""

    US_DAY = np.int64(86_400_000_000)

    def scan(b: pa.Table) -> pa.Table:
        b = b.filter(pc.or_(pc.equal(b["event_type"], "click"),
                            pc.equal(b["event_type"], "purchase")))
        return pa.table({"user_id": b["user_id"], "ts": b["ts"],
                         "is_click": pc.equal(b["event_type"], "click")})

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        isc = g["is_click"].to_numpy(zero_copy_only=False)
        _, rank = np.unique(u, return_inverse=True)
        rank = rank.astype(np.int64)
        cts, cend, pts = ts[isc], ts[isc] + np.int64(lag_max_us), ts[~isc]
        vals = np.unique(np.concatenate([cts, cend, pts]))
        width = np.int64(vals.size)

        def key(r, t):
            return r * width + np.searchsorted(vals, t)

        pk = key(rank[~isc], pts)
        pk_order = np.argsort(pk, kind="stable")
        pk = pk[pk_order]
        psum = np.concatenate([[0], np.cumsum(pts[pk_order])])
        lo = np.searchsorted(pk, key(rank[isc], cts), side="right")
        hi = np.searchsorted(pk, key(rank[isc], cend), side="right")
        n = (hi - lo).astype(np.int64)
        lag = (psum[hi] - psum[lo]) - n * cts
        day = (cts // US_DAY).astype(np.int64)
        m = n > 0
        dmin = int(day[m].min()) if m.any() else 0
        span = (int(day[m].max()) - dmin + 1) if m.any() else 0
        # int64 add.at, not float-weighted bincount: bucket lag sums
        # must stay exact past 2^53 at scale
        cnt = np.zeros(span, dtype=np.int64)
        lsum = np.zeros(span, dtype=np.int64)
        np.add.at(cnt, day[m] - dmin, n[m])
        np.add.at(lsum, day[m] - dmin, lag[m])
        nz = np.flatnonzero(cnt)
        return pa.table({
            "day": pa.array(nz + dmin, type=INT64),
            "n_pairs": pa.array(cnt[nz], type=INT64),
            "sum_lag_us": pa.array(lsum[nz], type=INT64),
        })

    out = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_type"], bucket, npart=npart,
        order=None, reduce=scan),
        "day", [("n_pairs", "sum"), ("sum_lag_us", "sum")])
    return sort_result(out, ["day"])


# Poisson(1) CDF thresholds scaled to 2^64, truncated at k=8 — PINNED
# integer literals so the Ray and SQL replicate weights are identical
# by construction (no float expression ever evaluated at runtime)
_POIS_T = (6786177901268885504, 13572355802537771008,
           16965444753172213760, 18096474403383695360,
           18379231815936565248, 18435783298447138816,
           18445208545532233728, 18446555009401532416)
_BOOT_B = 32


def bootstrap_ci(sf_dir: str):
    """q166: Poisson bootstrap — THE resampling scheme that works on a
    stream (Owen & Eckles 2012-style): classical bootstrap needs n
    draws from n rows (impossible distributed), but multinomial counts
    converge to independent Poisson(1) weights per row, so replicate
    r's weight for a row derives from md5(event_id|r) compared against
    PINNED integer CDF thresholds — one pass, no resample shuffle,
    bit-identical in both engines.  B=32 replicate (Σw·cents, Σw)
    partials fold per batch; the driver sorts the 32 replicate means
    and reports the pinned 1st/30th order statistics as the CI around
    the exact point mean."""
    from ..stages.sketch import md5_prefix64

    def partial(b: pa.Table) -> pa.Table:
        ids = [str(i) for i in b["event_id"].to_pylist()]
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        rs, ss, ns = [-1], [int(cents.sum())], [len(cents)]
        for r in range(_BOOT_B):
            h = md5_prefix64(["%s|%d" % (i, r) for i in ids])
            w = np.zeros(len(ids), dtype=np.int64)
            for t in _POIS_T:
                w += h >= np.uint64(t)
            rs.append(r)
            ss.append(int((w * cents).sum()))
            ns.append(int(w.sum()))
        return pa.table({"r": pa.array(rs, type=INT64),
                         "s": pa.array(ss, type=INT64),
                         "n": pa.array(ns, type=INT64)})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_id", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        "r", [("s", "sum"), ("n", "sum")])
    t = collect(agg)
    rows = {int(r): (int(s), int(n)) for r, s, n in
            zip(t["r"].to_pylist(), t["s"].to_pylist(),
                t["n"].to_pylist())}
    s0, n0 = rows[-1]
    means = sorted(float(rows[r][0]) / rows[r][1] for r in range(_BOOT_B))
    return pa.table({
        "n_events": pa.array([n0], type=INT64),
        "mean_cents": pa.array([float(s0) / n0], type=pa.float64()),
        "boot_lo": pa.array([means[1]], type=pa.float64()),
        "boot_hi": pa.array([means[_BOOT_B - 2]], type=pa.float64()),
    })


_JOIN_CANDS = (
    # (join, fact table, fact key, dim table)
    ("customer>nation", "customer", "c_nationkey", "nation"),
    ("lineitem>orders", "lineitem", "l_orderkey", "orders"),
    ("lineitem>part", "lineitem", "l_partkey", "part"),
    ("lineitem>supplier", "lineitem", "l_suppkey", "supplier"),
    ("orders>customer", "orders", "o_custkey", "customer"),
)


def join_advisor(sf_dir: str):
    """q168: cost-based join-strategy advisor — the planner decision
    this engine otherwise asks users to make by hand, over the same
    EXACT stats a real optimizer collects: fact rows, dim rows,
    distinct fact keys, max key frequency.  Pinned integer rules (no
    floats, so both engines decide identically):

      dim_rows*8 <= fact_rows             → broadcast  (q02's path)
      max_freq*n_keys >= fact_rows*16     → skew_salted (q103's path)
      else                                → hash_exchange (q68's path)

    Stats collection is itself the distributed op: per-batch key-count
    partials → one bucket exchange per candidate whose buckets fold
    straight to (rows, keys, max_freq) — 3 ints per bucket; dim_rows
    is a metadata count.  Nothing but 5-row stats ever reaches the
    driver.  The five candidates' pipelines run CONCURRENTLY (driver
    threads — the barriers overlap instead of queueing; with the
    former per-candidate Ray-native key Aggregates they serialized
    to ~10 s at sf0.1, round-4 profiler)."""
    from concurrent.futures import ThreadPoolExecutor

    def build_plan(cand):
        name, fact, key, dim = cand
        npart = 8

        def partial(b: pa.Table, k=key) -> pa.Table:
            t = pa.table({
                "key": b[k],
                "n": pa.nulls(b.num_rows, INT64).fill_null(1)}) \
                .group_by(["key"]).aggregate([("n", "sum")]) \
                .rename_columns(["key", "n"])
            return with_part(t, "key", npart)

        facts = scan_parquet(_pq(sf_dir, fact), columns=[key]) \
            .map_batches(partial, batch_format="pyarrow")
        dims = scan_parquet(_pq(sf_dir, dim))
        return (name, facts, dims)

    def bucket_stats(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]).group_by(["key"]) \
            .aggregate([("n", "sum")])
        n = t["n_sum"]
        return pa.table({
            "rows": pa.array([int(pc.sum(n).as_py() or 0)], type=INT64),
            "keys": pa.array([t.num_rows], type=INT64),
            "mx": pa.array([int(pc.max(n).as_py() or 0)
                            if t.num_rows else 0], type=INT64)})

    # plans build SERIALLY (lazy-import races inside read_parquet are
    # not thread-safe); only execution fans out across threads
    plans = [build_plan(c) for c in _JOIN_CANDS]

    def run_plan(plan):
        name, facts, dims = plan
        fact_rows = n_keys = max_freq = 0
        parts = bucket_exchange(facts, bucket_stats)
        for bb in parts.iter_batches(batch_format="pyarrow"):
            for r in bb.to_pylist():
                fact_rows += r["rows"]
                n_keys += r["keys"]
                max_freq = max(max_freq, r["mx"])
        dim_rows = dims.count()
        if dim_rows * 8 <= fact_rows:
            strat = "broadcast"
        elif max_freq * n_keys >= fact_rows * 16:
            strat = "skew_salted"
        else:
            strat = "hash_exchange"
        return (name, fact_rows, dim_rows, n_keys, max_freq, strat)

    with ThreadPoolExecutor(max_workers=len(_JOIN_CANDS)) as ex:
        rows = list(ex.map(run_plan, plans))
    rows.sort()
    return pa.table({
        "join_path": pa.array([r[0] for r in rows]),
        "fact_rows": pa.array([r[1] for r in rows], type=INT64),
        "dim_rows": pa.array([r[2] for r in rows], type=INT64),
        "n_keys": pa.array([r[3] for r in rows], type=INT64),
        "max_freq": pa.array([r[4] for r in rows], type=INT64),
        "strategy": pa.array([r[5] for r in rows]),
    })


# ---------------------------------------------------------------------------
# Q169: activity streaks (gaps-and-islands)
# ---------------------------------------------------------------------------


def activity_streaks(sf_dir: str, npart: int = 32):
    """q169: longest run of CONSECUTIVE active days per user — the
    gaps-and-islands operator (engagement streaks, uptime runs, SLA
    windows).  Output: streak-length histogram (streak_len, n_users).

    Scale shape: the scan reduces each batch to distinct (user, day)
    pairs (the combiner — a user active 50× a day ships once), ONE
    user exchange (``_user_timeline``, unsorted buckets) co-locates
    each user's days, and every bucket
    finds its runs with pure array ops: sort the composite user·span+
    day key, a run breaks where the key step != 1 (a +1 step is the
    SAME user AND the NEXT day — the composite makes one comparison do
    both tests).  Per-user longest via maximum.reduceat, then O(max
    streak) histogram partials fold through a tiny groupby.  No pair
    list, no window function, no per-user Python.
    Oracle: the textbook day - ROW_NUMBER() islands CTE."""

    US_DAY = 86_400_000_000

    def scan(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"],
            "day": pc.cast(pc.floor(pc.divide(b["ts"], US_DAY)), INT64),
        }).group_by(["user_id", "day"]).aggregate([])

    def bucket(g: pa.Table, _starts) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"streak_len": pa.array([], type=INT64),
                             "n_users": pa.array([], type=INT64)})
        u = g["user_id"].to_numpy(zero_copy_only=False)
        d = g["day"].to_numpy(zero_copy_only=False)
        dmin, dmax = d.min(), d.max()
        span = np.int64(dmax - dmin + 2)
        comp = np.unique(u.astype(np.int64) * span + (d - dmin))
        # run break: composite step != 1 (covers both user change and
        # a day gap); cross-batch duplicate pairs died in the unique.
        # Encoding bound (documented, cf. q239): uses the RAW user_id,
        # so it holds while max(user_id) < 2^63 / span — with a
        # multi-decade day range (span 10^4) that is ~9e14 users,
        # far past any id space this table models.
        brk = np.flatnonzero(np.diff(comp) != 1)
        starts = np.concatenate([[0], brk + 1])
        ends = np.concatenate([brk + 1, [comp.size]])
        run_len = (ends - starts).astype(np.int64)
        run_user = comp[starts] // span
        ub = np.flatnonzero(np.diff(run_user) != 0)
        ustarts = np.concatenate([[0], ub + 1])
        best = np.maximum.reduceat(run_len, ustarts)
        hist = np.bincount(best)
        nz = np.flatnonzero(hist)
        return pa.table({"streak_len": pa.array(nz, type=INT64),
                         "n_users": pa.array(hist[nz], type=INT64)})

    out = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts"], bucket, npart=npart, order=None,
        reduce=scan), "streak_len", [("n_users", "sum")])
    return sort_result(out, ["streak_len"])


# ---------------------------------------------------------------------------
# Q170: functional-dependency discovery (data profiling)
# ---------------------------------------------------------------------------

_FD_CANDS = (
    # (table, lhs, rhs) — mixed outcomes on purpose
    ("customer", "c_nationkey", "c_mktsegment"),
    ("documents", "lang", "source"),
    ("lineitem", "l_returnflag", "l_linestatus"),
    ("nation", "n_name", "n_regionkey"),
    ("orders", "o_custkey", "o_orderpriority"),
    ("part", "p_brand", "p_type"),
    ("part", "p_name", "p_brand"),
)


def fd_discovery(sf_dir: str, npart: int = 16):
    """q170: candidate functional-dependency audit (A→B holds iff no A
    value maps to two B values) — the schema-inference / data-contract
    profiling step (q133 profiles single columns; this profiles column
    RELATIONSHIPS).  Per candidate: distinct LHS count, distinct
    (LHS,RHS) pair count, violating-LHS count, holds flag.

    Scale shape per candidate: 2-column pruned scan → per-batch
    DISTINCT-pair combiner (the dedup happens before the wire) → one
    LHS-hash exchange (a violating LHS's pairs MUST co-locate) → per
    bucket one Arrow group_by counts pairs per LHS → 3-int partials
    fold driver-side.  Only counts ever leave the buckets."""
    rows = []
    for tbl, lhs, rhs in _FD_CANDS:
        def scan(b: pa.Table, lhs=lhs, rhs=rhs) -> pa.Table:
            t = pa.table({"lhs": b[lhs], "rhs": b[rhs]}) \
                .group_by(["lhs", "rhs"]).aggregate([])
            return with_part(t, "lhs", npart)

        def bucket(g: pa.Table) -> pa.Table:
            # cross-batch duplicate pairs survive the combiner; kill
            # them with one more group_by before counting per LHS
            t = g.select(["lhs", "rhs"]).group_by(["lhs", "rhs"]) \
                .aggregate([])
            per = t.group_by(["lhs"]).aggregate([("rhs", "count")])
            cnt = per["rhs_count"].to_numpy(zero_copy_only=False)
            return pa.table({
                "n_lhs": pa.array([per.num_rows], type=INT64),
                "n_pairs": pa.array([int(cnt.sum()) if per.num_rows
                                     else 0], type=INT64),
                "n_viol": pa.array([int((cnt > 1).sum())], type=INT64),
            })

        parts = bucket_exchange(
            scan_parquet(_pq(sf_dir, tbl), columns=[lhs, rhs])
            .map_batches(scan, batch_format="pyarrow"), lambda g: bucket(g))
        n_lhs = n_pairs = n_viol = 0
        for bb in parts.iter_batches(batch_format="pyarrow"):
            for r in bb.to_pylist():
                n_lhs += r["n_lhs"]
                n_pairs += r["n_pairs"]
                n_viol += r["n_viol"]
        rows.append((f"{tbl}.{lhs}->{rhs}", n_lhs, n_pairs, n_viol,
                     "yes" if n_viol == 0 else "no"))
    rows.sort()
    return pa.table({
        "fd": pa.array([r[0] for r in rows]),
        "n_lhs": pa.array([r[1] for r in rows], type=INT64),
        "n_pairs": pa.array([r[2] for r in rows], type=INT64),
        "n_violating_lhs": pa.array([r[3] for r in rows], type=INT64),
        "holds": pa.array([r[4] for r in rows]),
    })


# ---------------------------------------------------------------------------
# Q171: CUSUM change-point detection
# ---------------------------------------------------------------------------


def cusum_changepoint(sf_dir: str):
    """q171: single change-point detection over the daily event-count
    series — the pipeline-monitoring op behind "when did traffic
    shift?" (q146/PSI measures drift BETWEEN two snapshots; this
    locates the break WITHIN one).  Over observed days d_1<…<d_n with
    counts c_i: stat_i = |S_i·n − total·i| (the CUSUM deviation scaled
    by n so it stays integer — no float ever enters the argmax); the
    change point is the max stat, ties → earliest day.  Output: one
    row (day_star, cusum_abs, n_days, total_events, pre_mean,
    post_mean), means as FINAL int/int doubles both engines round
    identically.

    Scale shape: per-batch (day,count) partials → one tiny day groupby
    (O(days) rows) → the series itself is driver-tiny; the scan is the
    only heavy stage."""
    US_DAY = 86_400_000_000

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({"day": pc.cast(pc.floor(pc.divide(
            pc.cast(b["ts"], INT64), US_DAY)), INT64)})

    daily = collect(combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["ts"])
        .map_batches(partial, batch_format="pyarrow"), "day",
        [("n", "count")])).sort_by("day")
    days = daily["day"].to_numpy().astype(np.int64)
    cnt = daily["n"].to_numpy().astype(np.int64)
    n = np.int64(days.size)
    total = np.int64(cnt.sum())
    s = np.cumsum(cnt)
    i = np.arange(1, n + 1, dtype=np.int64)
    stat = np.abs(s * n - total * i)
    k = int(np.argmax(stat))           # argmax takes the FIRST max
    pre = float(int(s[k]) / int(i[k]))
    post = (float(int(total - s[k]) / int(n - i[k]))
            if i[k] < n else None)
    return pa.table({
        "day_star": pa.array([int(days[k])], type=INT64),
        "cusum_abs": pa.array([int(stat[k])], type=INT64),
        "n_days": pa.array([int(n)], type=INT64),
        "total_events": pa.array([int(total)], type=INT64),
        "pre_mean": pa.array([pre], type=pa.float64()),
        "post_mean": pa.array([post], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q172: period-over-period mover report
# ---------------------------------------------------------------------------

_MOVER_SPLIT_US = _epoch_us("1998-07-01")
_MOVER_K = 20


def period_movers(sf_dir: str, npart: int = 32):
    """q172: top-20 parts by revenue GROWTH between two periods (ship
    dates before vs after 1998-07-01) — the period-over-period mover
    report behind every "what changed?" dashboard.  delta and both
    period revenues are exact integers (cents × (100−disc) units);
    ratio is a FINAL int/int double.  Ordering: delta DESC, partkey
    ASC — fully pinned.

    Scale shape: one scan emits per-batch (part, rev_a, rev_b)
    partials (conditional sums fused — one pass, not two scans), one
    partkey groupby reduces them, then every reduce block keeps only
    its local top-20 by (delta, −partkey), so the driver merges
    K×blocks rows, never the part domain."""

    def partial(b: pa.Table) -> pa.Table:
        ep = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = b["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.rint(ep * 100).astype(np.int64)
        rev = cents * (100 - np.rint(dc * 100).astype(np.int64))
        ts = b["l_shipdate"].cast(pa.timestamp("us")).cast(INT64) \
            .to_numpy(zero_copy_only=False)
        in_b = ts >= _MOVER_SPLIT_US
        return pa.table({
            "p": b["l_partkey"],
            "rev_a": pa.array(np.where(in_b, 0, rev), type=INT64),
            "rev_b": pa.array(np.where(in_b, rev, 0), type=INT64),
        })

    def local_topk(b: pa.Table) -> pa.Table:
        if b.num_rows <= _MOVER_K:
            return b
        delta = (b["rev_b"].to_numpy(zero_copy_only=False)
                 - b["rev_a"].to_numpy(zero_copy_only=False))
        p = b["p"].to_numpy(zero_copy_only=False)
        order = np.lexsort((p, -delta))[:_MOVER_K]
        return b.take(pa.array(np.sort(order)))

    parts = collect(combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_shipdate",
                                 "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow"),
        "p", [("rev_a", "sum"), ("rev_b", "sum")])
        .map_batches(local_topk, batch_format="pyarrow")).to_pylist()
    rows = sorted(parts, key=lambda r: (-(r["rev_b"] - r["rev_a"]),
                                        r["p"]))[:_MOVER_K]
    return pa.table({
        "p_partkey": pa.array([r["p"] for r in rows], type=INT64),
        "rev_a": pa.array([r["rev_a"] for r in rows], type=INT64),
        "rev_b": pa.array([r["rev_b"] for r in rows], type=INT64),
        "delta": pa.array([r["rev_b"] - r["rev_a"] for r in rows],
                          type=INT64),
        "ratio": pa.array(
            [(r["rev_b"] / r["rev_a"]) if r["rev_a"] > 0 else None
             for r in rows], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q173: late-shipment priority report (TPC-H Q4 shape)
# ---------------------------------------------------------------------------

_LATE_GRACE_US = 60 * 86_400_000_000    # 60-day shipping grace


def late_orders(sf_dir: str, npart: int = 32):
    """q173: per order priority, how many orders had ANY lineitem
    shipped more than 60 days after the order date — TPC-H Q4's
    EXISTS-semi-join shape on this schema.  The correlated EXISTS
    decorrelates into MAX(l_shipdate) per order (EXISTS(ship > cut) ⇔
    max(ship) > cut), so the probe side collapses to one row per
    order BEFORE the join.

    Scale shape: lineitem batches pre-combine to per-order max-ship
    partials; both sides cross ONE orderkey-hash exchange (orders ride
    as (key, date, priority)); each bucket folds cross-batch maxes,
    left-joins orders, and emits per-priority (n_orders, n_late)
    partials — a 5-row groupby finishes.  No correlated lookup, no
    second exchange."""

    def li_scan(b: pa.Table) -> pa.Table:
        t = pa.table({
            "okey": b["l_orderkey"],
            "ship_us": b["l_shipdate"].cast(pa.timestamp("us"))
                .cast(INT64),
        }).group_by(["okey"]).aggregate([("ship_us", "max")])
        u = t["okey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "okey": t["okey"],
            "ship_us": t["ship_us_max"],
            "odate_us": pa.nulls(t.num_rows, INT64),
            "prio": pa.nulls(t.num_rows, pa.string()),
            "part": pa.array((u % npart).astype(np.int32)),
        })

    def o_scan(b: pa.Table) -> pa.Table:
        u = b["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "okey": b["o_orderkey"],
            "ship_us": pa.nulls(b.num_rows, INT64),
            "odate_us": b["o_orderdate"].cast(pa.timestamp("us"))
                .cast(INT64),
            "prio": b["o_orderpriority"],
            "part": pa.array((u % npart).astype(np.int32)),
        })

    def bucket(g: pa.Table) -> pa.Table:
        is_o = pc.is_valid(g["odate_us"])
        orders = g.filter(is_o).select(["okey", "odate_us", "prio"])
        li = g.filter(pc.invert(is_o)).select(["okey", "ship_us"]) \
            .group_by(["okey"]).aggregate([("ship_us", "max")])
        j = orders.join(li, keys=["okey"], join_type="left outer")
        ms = j["ship_us_max"].fill_null(np.iinfo(np.int64).min) \
            .to_numpy(zero_copy_only=False)
        od = j["odate_us"].to_numpy(zero_copy_only=False)
        late = pa.array(ms > od + _LATE_GRACE_US)
        return pa.table({"o_orderpriority": j["prio"],
                         "n_late": pc.cast(late, INT64)})

    li = scan_parquet(_pq(sf_dir, "lineitem"),
                      columns=["l_orderkey", "l_shipdate"]) \
        .map_batches(li_scan, batch_format="pyarrow")
    orders = scan_parquet(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(o_scan, batch_format="pyarrow")
    out = combine_buckets(
        bucket_exchange(li.union(orders),
                        lambda g: bucket(g.drop_columns(["part"]))),
        "o_orderpriority", [("n_orders", "count"), ("n_late", "sum")])
    return sort_result(out, ["o_orderpriority"])


# ---------------------------------------------------------------------------
# Q174: aggregate reconciliation audit
# ---------------------------------------------------------------------------


def reconciliation_audit(sf_dir: str, npart: int = 32):
    """q174: cross-table numeric reconciliation — recompute each
    order's total from its lineitems (Σ price·(1−disc)·(1+tax), all
    in exact 10⁻⁶-dollar integer units) and classify the drift against
    the stored o_totalprice: exact / within_1pct / mismatch /
    no_lineitems.  The ledger-audit op q115's key-only integrity check
    can't do: it reconciles VALUES, not references.

    Scale shape: q173's single-exchange union join — lineitem batches
    pre-sum recomputed units per order, orders ride with their stored
    total, buckets classify vectorized and emit 4-row partials.
    sum_abs_diff stays int64 (≈6·10¹⁷ at sf1 — headroom checked)."""

    def li_scan(b: pa.Table) -> pa.Table:
        ep = np.rint(b["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        d = np.rint(b["l_discount"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        tx = np.rint(b["l_tax"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        t = pa.table({
            "okey": b["l_orderkey"],
            "rec": pa.array(ep * (100 - d) * (100 + tx), type=INT64),
        }).group_by(["okey"]).aggregate([("rec", "sum")])
        u = t["okey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "okey": t["okey"], "rec": t["rec_sum"],
            "tp": pa.nulls(t.num_rows, INT64),
            "part": pa.array((u % npart).astype(np.int32)),
        })

    def o_scan(b: pa.Table) -> pa.Table:
        tp = np.rint(b["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64) * 10_000
        u = b["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "okey": b["o_orderkey"],
            "rec": pa.nulls(b.num_rows, INT64),
            "tp": pa.array(tp, type=INT64),
            "part": pa.array((u % npart).astype(np.int32)),
        })

    def bucket(g: pa.Table) -> pa.Table:
        is_o = pc.is_valid(g["tp"])
        orders = g.filter(is_o).select(["okey", "tp"])
        li = g.filter(pc.invert(is_o)).select(["okey", "rec"]) \
            .group_by(["okey"]).aggregate([("rec", "sum")])
        j = orders.join(li, keys=["okey"], join_type="left outer")
        tp = j["tp"].to_numpy(zero_copy_only=False)
        has = pc.is_valid(j["rec_sum"]).to_numpy(zero_copy_only=False)
        rec = j["rec_sum"].fill_null(0).to_numpy(zero_copy_only=False)
        diff = np.where(has, np.abs(rec - tp), tp)
        bucket_id = np.where(
            ~has, 0, np.where(diff == 0, 1,
                              np.where(diff * 100 <= tp, 2, 3)))
        names = np.array(["no_lineitems", "exact", "within_1pct",
                          "mismatch"])
        return pa.table({
            "bucket": pa.array(names[bucket_id]),
            "sum_abs_diff": pa.array(diff, type=INT64),
        })

    li = scan_parquet(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_tax"]).map_batches(li_scan, batch_format="pyarrow")
    orders = scan_parquet(
        _pq(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]) \
        .map_batches(o_scan, batch_format="pyarrow")
    out = combine_buckets(
        bucket_exchange(li.union(orders),
                        lambda g: bucket(g.drop_columns(["part"]))),
        "bucket", [("n_orders", "count"), ("sum_abs_diff", "sum")])
    return sort_result(out, ["bucket"])


# ---------------------------------------------------------------------------
# Q175: Pareto coverage cut (80/20 analysis)
# ---------------------------------------------------------------------------


def pareto_cut(sf_dir: str, npart: int = 32, target_ppm: int = 800_000):
    """q175: the smallest k such that the k most-active users cover ≥
    80% of all events — the 80/20 capacity-planning cut ("how many
    hot keys do I cache / how many tenants fill the cluster").

    Scale shape: users with EQUAL counts are interchangeable, so the
    global sort the textbook query does is unnecessary — per-batch
    user-count partials → one user exchange (``_user_timeline``) →
    per-block count-of-counts histogram partials → a tiny count-class
    groupby;
    the driver walks O(distinct counts) classes with pure integer
    ceiling arithmetic (needed = ⌈total·target⌉, final class takes
    ⌈remaining/c⌉ users).  Nothing sorted, nothing big on the driver.
    Oracle: the same class walk as window sums over the histogram."""

    def scan(b: pa.Table) -> pa.Table:
        return b.group_by(["user_id"]).aggregate([("user_id", "count")]) \
            .rename_columns(["user_id", "n"])

    def bucket(g: pa.Table, _starts) -> pa.Table:
        t = g.group_by(["user_id"]).aggregate([("n", "sum")])
        cnt = t["n_sum"].to_numpy(zero_copy_only=False)
        classes, m = np.unique(cnt, return_counts=True)
        return pa.table({"c": pa.array(classes, type=INT64),
                         "m": pa.array(m, type=INT64)})

    hist = collect(combine_buckets(_user_timeline(
        sf_dir, ["user_id"], bucket, npart=npart, order=None, reduce=scan),
        "c", [("m", "sum")])).to_pylist()
    cls = sorted(((int(r["c"]), int(r["m"])) for r in hist),
                 reverse=True)
    total = sum(c * m for c, m in cls)
    n_users = sum(m for _, m in cls)
    needed = -((-total * target_ppm) // 1_000_000)   # ceil
    cum = users = 0
    k = covered = 0
    for c, m in cls:
        if cum + c * m >= needed:
            j = -((-(needed - cum)) // c)            # ceil
            k = users + j
            covered = cum + j * c
            break
        cum += c * m
        users += m
    return pa.table({
        "k_users": pa.array([k], type=INT64),
        "covered_events": pa.array([covered], type=INT64),
        "total_events": pa.array([total], type=INT64),
        "n_users": pa.array([n_users], type=INT64),
        "coverage_ppm": pa.array([covered * 1_000_000 // total],
                                 type=INT64),
    })


# ---------------------------------------------------------------------------
# Q176: BOM quantity explosion (semiring pointer doubling)
# ---------------------------------------------------------------------------


def bom_explosion(sf_dir: str, npart: int = 16):
    """q176: bill-of-materials explosion over q159's planted md5
    forest — every part carries an edge quantity qty(k) = 1 +
    md5h64('q|'+k) % 2 toward its parent, and the EFFECTIVE units of a
    component in its final assembly is the PRODUCT of quantities along
    its root path.  Per root: component count, Σ effective units, and
    extended cost Σ units·cents — the manufacturing rollup a recursive
    CTE serializes edge-by-edge.

    The distributed trick is q159's pointer doubling run over a
    DIFFERENT semiring: the accumulator multiplies (path products)
    instead of adding (path lengths) — doubling is correct for ANY
    associative fold along the compressed path, so the same one-
    exchange-per-round machinery (``_forest_doubling``, with
    ``np.multiply`` for q159's ``np.add``) resolves quantity explosion in
    O(log depth) rounds.  int64 headroom: units ≤ 2^depth (whp
    ≤ 2^40 at sf1) × cents ≤ 2·10⁵ stays well under 2^63."""
    from ..stages.sketch import md5_prefix64

    def qty(k: np.ndarray, root: np.ndarray) -> np.ndarray:
        qh = md5_prefix64(["q|%d" % int(x) for x in k])
        return np.where(root, 1, 1 + (qh % np.uint64(2)).astype(np.int64))

    # the semiring fold: path PRODUCT, not path length
    state = _forest_doubling(sf_dir, npart, "units", qty, np.multiply)

    def rollup(b: pa.Table) -> pa.Table:
        units = b["units"].to_numpy(zero_copy_only=False)
        cents = b["cents"].to_numpy(zero_copy_only=False)
        return pa.table({
            "root": b["ptr"],
            "total_units": b["units"],
            "ext_cost_cents": pa.array(units * cents, type=INT64),
        })

    out = combine_buckets(
        state.map_batches(rollup, batch_format="pyarrow"), "root",
        [("n_components", "count"), ("total_units", "sum"),
         ("ext_cost_cents", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "root": pc.cast(b["root"], INT64),
            "n_components": pc.cast(b["n_components"], INT64),
            "total_units": pc.cast(b["total_units"], INT64),
            "ext_cost_cents": pc.cast(b["ext_cost_cents"], INT64),
        })

    return sort_result(out.map_batches(finish, batch_format="pyarrow"),
                       ["root"])


# ---------------------------------------------------------------------------
# Q177: largest-remainder stratified apportionment sample
# ---------------------------------------------------------------------------

_APPORTION_N = 200


def apportioned_sample(sf_dir: str):
    """q177: draw EXACTLY N=200 documents stratified by language with
    quotas apportioned by the largest-remainder method (the
    exact-seat-count allocation q37's proportional sampler can't
    guarantee: floor quotas + the ⌊N·cᵢ/total⌋ remainder ranking hand
    out every seat, no rounding drift).  Within a stratum the picks
    are the quota smallest md5(doc_id) — a pure function of the data,
    so the sample is stable under appends, row order and cluster size.

    Scale shape: lang counts fold as tiny partials; quotas are O(langs)
    driver arithmetic; each batch keeps only its local quota-smallest
    md5 keys per lang (the top-k combiner), so the final per-lang
    selection sees ≤ quota·blocks rows — the corpus never moves."""
    lang_counts = collect(combine_buckets(
        _docs(sf_dir, columns=["lang"]), "lang", [("n", "count")])).to_pylist()
    counts = sorted((r["lang"], int(r["n"])) for r in lang_counts)
    total = sum(n for _, n in counts)
    base = {l: _APPORTION_N * n // total for l, n in counts}
    rem = sorted(((-(_APPORTION_N * n % total), l) for l, n in counts))
    extra = _APPORTION_N - sum(base.values())
    quota = dict(base)
    for _, l in rem[:extra]:
        quota[l] += 1

    def local_topq(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        keys = np.array(_md5_hex([str(int(x)) for x in ids]))
        langs = np.asarray(b["lang"].to_pylist(), dtype=object)
        keep = np.zeros(len(ids), dtype=bool)
        for l, q in quota.items():
            m = np.flatnonzero(langs == l)
            if m.size > q:
                m = m[np.lexsort((ids[m], keys[m]))[:q]]
            keep[m] = True
        return pa.table({
            "lang": pa.array(langs[keep]),
            "doc_id": pa.array(ids[keep], type=INT64),
            "k": pa.array(keys[keep]),
        })

    def final_pick(g: pa.Table) -> pa.Table:
        l = g["lang"][0].as_py()
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        keys = np.asarray(g["k"].to_pylist(), dtype=object)
        sel = np.lexsort((ids, keys))[:quota[l]]
        sel.sort()
        return pa.table({"lang": g["lang"].take(pa.array(sel)),
                         "doc_id": pa.array(ids[sel], type=INT64)})

    return sort_result(bucket_exchange(
        _docs(sf_dir, columns=["doc_id", "lang"])
        .map_batches(local_topq, batch_format="pyarrow"),
        final_pick, part_col="lang"), ["lang", "doc_id"])


# ---------------------------------------------------------------------------
# Q178: mutual-information contribution table
# ---------------------------------------------------------------------------


def mi_contributions(sf_dir: str):
    """q178: pointwise mutual-information table between event type and
    day-of-week — the feature-selection / association diagnostic
    (q128's lift is the ratio only; this adds the information-weighted
    term MI decomposes into).  Every double is a FINAL per-row
    expression over exact integer counts — (n_xy/N)·ln(n_xy·N /
    (n_x·n_y)) — with products < 2^53 so both engines' libm sees
    bit-identical arguments; the total MI is the reader's Σ, never a
    float fold inside either engine.

    Scale shape: one scan of (type, ts) → per-batch (x, dow) count
    partials → a ≤35-cell groupby; marginals and terms are driver
    arithmetic on the tiny table."""
    import math

    US_DAY = 86_400_000_000

    def partial(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor(pc.divide(
            pc.cast(b["ts"], INT64), US_DAY)), INT64)
        dow = pa.array(((days.to_numpy(zero_copy_only=False) + 4) % 7)
                       .astype(np.int64))
        return pa.table({"x": b["event_type"], "dow": dow})

    cells = collect(combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow"),
        ["x", "dow"], [("n", "count")])).to_pylist()
    n_x, n_y = {}, {}
    total = 0
    for r in cells:
        n_x[r["x"]] = n_x.get(r["x"], 0) + int(r["n"])
        n_y[r["dow"]] = n_y.get(r["dow"], 0) + int(r["n"])
        total += int(r["n"])
    rows = sorted((r["x"], int(r["dow"]), int(r["n"])) for r in cells)
    return pa.table({
        "event_type": pa.array([r[0] for r in rows]),
        "dow": pa.array([r[1] for r in rows], type=INT64),
        "n_xy": pa.array([r[2] for r in rows], type=INT64),
        "n_x": pa.array([n_x[r[0]] for r in rows], type=INT64),
        "n_y": pa.array([n_y[r[1]] for r in rows], type=INT64),
        "mi_term": pa.array(
            [(r[2] / total) * math.log((r[2] * total)
                                       / (n_x[r[0]] * n_y[r[1]]))
             for r in rows], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q179: PCA label map (covariance eigh + linear projection means)
# ---------------------------------------------------------------------------


def pca_label_map(sf_dir: str):
    """q179: project the embedding table onto its top-2 principal
    components and report each label's mean position plus the
    variance-explained ratios — the classic embedding-space sanity map
    (rows-only by design: eigendecomposition has no SQL twin; the
    numpy-parity pytest is the gate).

    Scale shape: the covariance reuses q132's exact int64 Gram
    partials; the per-label projection means need NO second projection
    pass at all — projection is linear, so mean(v·(x−μ)) = v·(Σx/n −
    μ), and the shuffle carries one d-int sum vector per (label,
    block).  Only the d×d eigh runs on the driver.  Eigenvector sign
    is pinned (largest-|coord| made positive, first index on ties) so
    the map is reproducible across runs and cluster sizes."""
    from ..stages.similarity import _matrix

    def gram_partial(b: pa.Table) -> pa.Table:
        x = _matrix(b)
        xm = np.floor(x * 1000.0).astype(np.int64)
        d = xm.shape[1]
        gram = xm.T @ xm
        sx = xm.sum(axis=0)
        ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return pa.table({
            "i": pa.array(ii.ravel().astype(np.int64)),
            "j": pa.array(jj.ravel().astype(np.int64)),
            "sxy": pa.array(gram.ravel()),
            "sxi": pa.array(np.broadcast_to(sx[:, None],
                                            (d, d)).ravel()),
            "sxj": pa.array(np.broadcast_to(sx[None, :],
                                            (d, d)).ravel()),
            "n": pa.array(np.full(d * d, len(xm), np.int64)),
        })

    emb = scan_parquet(_pq(sf_dir, "embeddings"),
                       columns=["embedding", "label"])
    agg = collect(combine_buckets(
        emb.map_batches(gram_partial, batch_format="pyarrow"), ["i", "j"],
        [(c, "sum") for c in ("sxy", "sxi", "sxj", "n")])).to_pylist()
    d = int(max(r["i"] for r in agg)) + 1
    n_total = int(agg[0]["n"])
    cov = np.zeros((d, d))
    mu = np.zeros(d)
    for r in agg:
        i, j = int(r["i"]), int(r["j"])
        n, sxy = int(r["n"]), int(r["sxy"])
        sxi, sxj = int(r["sxi"]), int(r["sxj"])
        cov[i, j] = float(n * sxy - sxi * sxj) / float(n * n)
        if j == 0:
            mu[i] = sxi / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    pcs = []
    for k in range(2):
        v = evecs[:, k]
        pin = int(np.argmax(np.abs(v)))
        pcs.append(v if v[pin] > 0 else -v)
    trace = float(np.trace(cov))

    def label_partial(b: pa.Table) -> pa.Table:
        x = _matrix(b)
        xm = np.floor(x * 1000.0).astype(np.int64)
        lab = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        labs, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((labs.size, xm.shape[1]), dtype=np.int64)
        np.add.at(sums, inv, xm)
        cnt = np.bincount(inv).astype(np.int64)
        cols = {"label": pa.array(labs, type=INT64),
                "n": pa.array(cnt, type=INT64)}
        for dim in range(xm.shape[1]):
            cols[f"s{dim}"] = pa.array(sums[:, dim], type=INT64)
        return pa.table(cols)

    per_label = collect(combine_buckets(
        emb.map_batches(label_partial, batch_format="pyarrow"), "label",
        [("n", "sum")] + [(f"s{dim}", "sum") for dim in range(d)])).to_pylist()
    rows = []
    for r in sorted(per_label, key=lambda r: int(r["label"])):
        n = int(r["n"])
        mean_vec = np.array([int(r[f"s{dim}"]) for dim in range(d)],
                            dtype=np.float64) / n - mu
        rows.append((int(r["label"]), n,
                     float(pcs[0] @ mean_vec), float(pcs[1] @ mean_vec)))
    ve = [float(evals[k]) / trace for k in range(2)]
    return pa.table({
        "label": pa.array([r[0] for r in rows], type=INT64),
        "n": pa.array([r[1] for r in rows], type=INT64),
        "mean_pc1": pa.array([r[2] for r in rows], type=pa.float64()),
        "mean_pc2": pa.array([r[3] for r in rows], type=pa.float64()),
        "var_explained_pc1": pa.array([ve[0]] * len(rows),
                                      type=pa.float64()),
        "var_explained_pc2": pa.array([ve[1]] * len(rows),
                                      type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Q180: time-weighted state averages
# ---------------------------------------------------------------------------


def time_weighted_avg(sf_dir: str, npart: int = 32):
    """q180: time-weighted value averages by state — each event opens
    a state interval that lasts until the SAME user's next event
    (LEAD pairing), and the average weights each opening value by how
    long it was in force: TWA = Σ(cents·dur)/Σdur.  The
    telemetry/billing aggregate a plain AVG gets wrong whenever
    sampling is irregular.  Durations fold in whole seconds
    (µs // 10⁶, pinned) so Σ cents·dur keeps int64 headroom past sf1;
    the TWA is a final int/int double.

    Scale shape: q131's user bucket — one exchange
    (``_user_timeline``), buckets sorted by (user, ts, event_id),
    shifted compare pairs each event with its successor; per-type
    partials (n, Σdur, Σcents·dur) leave the bucket, a 5-row groupby
    finishes."""

    def cents(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.column_names.index("value"), "cents",
            pc.cast(pc.round(pc.multiply(b["value"], 100.0)), INT64))

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        c = g["cents"].to_numpy(zero_copy_only=False)
        same = np.zeros(len(u), dtype=bool)
        same[:-1] = u[1:] == u[:-1]
        dur_s = np.zeros(len(u), dtype=np.int64)
        dur_s[:-1] = (ts[1:] - ts[:-1]) // 1_000_000
        return pa.table({
            "event_type": g["event_type"],
            "total_dur_s": pa.array(dur_s, type=INT64),
            "sum_cents_dur": pa.array(dur_s * c, type=INT64),
        }).filter(pa.array(same))

    out = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "event_id", "ts", "event_type", "value"],
        bucket, npart=npart, reduce=cents),
        "event_type", [("n_intervals", "count"), ("total_dur_s", "sum"),
                       ("sum_cents_dur", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        dur = b["total_dur_s"].to_numpy(zero_copy_only=False)
        cd = b["sum_cents_dur"].to_numpy(zero_copy_only=False)
        return b.append_column("twa_cents", pa.array(
            np.where(dur > 0, cd / np.maximum(dur, 1), np.nan),
            type=pa.float64()))

    return sort_result(out.map_batches(finish, batch_format="pyarrow"),
                       ["event_type"])


# ---------------------------------------------------------------------------
# Q181: Merkle anti-entropy diff
# ---------------------------------------------------------------------------

_MERKLE_LEAVES = 256


def merkle_diff(sf_dir: str):
    """q181: anti-entropy between two replicas of the orders table —
    replica B diverges from A by a planted md5 rule (md5h64('mut|'+key)
    % 97: 0 → price +1 cent, 1 → row missing), and the sync protocol
    must find the differing key ranges WITHOUT shipping either table:
    256 leaf buckets (key % 256) each fold a commutative content
    digest (Σ md5h64(key|cents) mod 2^64 — order- and
    partition-independent by construction), a binary digest tree is
    built over the leaves, and the walk descends only into differing
    children: O(diff·log) digest comparisons instead of O(rows).
    Output: the differing leaves with both digests (63-bit) and row
    counts.

    Scale shape: ONE scan emits both replicas' per-leaf (digest,
    count) partials (B is derived in the same batch); the global state
    is 2×256 digests — nothing else ever moves.  The tree walk is
    driver arithmetic; a pytest pins walk-found == flat-compare and
    the O(diff·log) visit bound."""
    from ..stages.sketch import md5_prefix64

    def partial(b: pa.Table) -> pa.Table:
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)
        cents = np.rint(b["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        mut = md5_prefix64(["mut|%d" % int(x) for x in k]) \
            % np.uint64(97)
        leaf = (k % _MERKLE_LEAVES).astype(np.int64)
        out = []
        for side, cc, keep in (
                (0, cents, np.ones(len(k), dtype=bool)),
                (1, np.where(mut == 0, cents + 1, cents), mut != 1)):
            kk, ll, c2 = k[keep], leaf[keep], cc[keep]
            h = md5_prefix64(["%d|%d" % (int(a), int(b_))
                              for a, b_ in zip(kk, c2)])
            order = np.argsort(ll, kind="stable")
            ll_s, h_s = ll[order], h[order]
            ub = np.flatnonzero(np.diff(ll_s) != 0)
            starts = np.concatenate([[0], ub + 1])
            leaves = ll_s[starts]
            with np.errstate(over="ignore"):
                sums = np.add.reduceat(h_s, starts)   # uint64 wrap
            cnts = np.diff(np.concatenate([starts, [ll_s.size]]))
            out.append(pa.table({
                "side": pa.array(np.full(leaves.size, side,
                                         dtype=np.int64)),
                "leaf": pa.array(leaves, type=INT64),
                "dig": pa.array(sums.view(np.int64)),
                "n": pa.array(cnts.astype(np.int64)),
            }))
        return pa.concat_tables(out)

    parts = collect(scan_parquet(_pq(sf_dir, "orders"),
                                 columns=["o_orderkey", "o_totalprice"])
                    .map_batches(partial, batch_format="pyarrow")).to_pylist()
    dig = np.zeros((2, _MERKLE_LEAVES), dtype=np.uint64)
    cnt = np.zeros((2, _MERKLE_LEAVES), dtype=np.int64)
    with np.errstate(over="ignore"):
        for r in parts:
            dig[r["side"], r["leaf"]] += np.uint64(
                np.int64(r["dig"]).astype(np.uint64))
            cnt[r["side"], r["leaf"]] += r["n"]

    def build_tree(leaves_hex):
        levels = [list(leaves_hex)]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            levels.append([hashlib.md5(
                (prev[2 * i] + prev[2 * i + 1]).encode()).hexdigest()
                for i in range(len(prev) // 2)])
        return levels[::-1]          # root first

    trees = [build_tree(["%016x" % int(x) for x in dig[s]])
             for s in (0, 1)]
    visited = [0]

    def walk(level, idx):
        visited[0] += 1
        if trees[0][level][idx] == trees[1][level][idx]:
            return []
        if level == len(trees[0]) - 1:
            return [idx]
        return walk(level + 1, 2 * idx) + walk(level + 1, 2 * idx + 1)

    diff_leaves = walk(0, 0)
    merkle_diff._visited = visited[0]          # pytest hook
    mask63 = np.uint64((1 << 63) - 1)
    return pa.table({
        "leaf": pa.array(diff_leaves, type=INT64),
        "digest_a": pa.array(
            [int(dig[0, i] & mask63) for i in diff_leaves], type=INT64),
        "digest_b": pa.array(
            [int(dig[1, i] & mask63) for i in diff_leaves], type=INT64),
        "rows_a": pa.array([int(cnt[0, i]) for i in diff_leaves],
                           type=INT64),
        "rows_b": pa.array([int(cnt[1, i]) for i in diff_leaves],
                           type=INT64),
    })


# ---------------------------------------------------------------------------
# Q182: lifecycle ordering audit
# ---------------------------------------------------------------------------

_LIFECYCLE_RULES = (
    # (earlier type, later type): later must not precede earlier
    ("signup", "purchase"),
    ("signup", "click"),
    ("view", "purchase"),
)


def lifecycle_audit(sf_dir: str, npart: int = 32):
    """q182: causal-order conformance — for each lifecycle rule
    "A must precede B", count users who have both event types and
    whose FIRST B happens before their FIRST A (the funnel q90 counts
    conformers; this is the data-quality inverse, the check ingestion
    bugs and clock skew show up in).  first-A/first-B compare on exact
    epoch-µs ints, ties (same µs) are conformant.

    Scale shape: per-batch (user, type)-min partials → ONE user
    exchange (``_user_timeline``) → per bucket the same group_by folds
    cross-batch mins and one pivoted min-per-type array evaluates ALL
    rules vectorized → 3-row (rule, n_both, n_violations) partials."""

    types = sorted({t for pair in _LIFECYCLE_RULES for t in pair})
    t_idx = {t: i for i, t in enumerate(types)}

    def first_ts(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["event_type"], value_set=pa.array(types)))
        return b.group_by(["user_id", "event_type"]) \
            .aggregate([("ts", "min")]) \
            .rename_columns(["user_id", "event_type", "ts"])

    SENT = np.int64(2**62)

    def bucket(g: pa.Table, _starts) -> pa.Table:
        t = first_ts(g)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        ti = np.array([t_idx[x] for x in t["event_type"].to_pylist()],
                      dtype=np.int64)
        users, inv = np.unique(u, return_inverse=True)
        first = np.full((users.size, len(types)), SENT, dtype=np.int64)
        first[inv, ti] = ts
        rows = []
        for a, b_ in _LIFECYCLE_RULES:
            fa = first[:, t_idx[a]]
            fb = first[:, t_idx[b_]]
            both = (fa < SENT) & (fb < SENT)
            rows.append((f"{a}<{b_}", int(both.sum()),
                         int((both & (fb < fa)).sum())))
        return pa.table({
            "rule": pa.array([r[0] for r in rows]),
            "n_both": pa.array([r[1] for r in rows], type=INT64),
            "n_violations": pa.array([r[2] for r in rows], type=INT64),
        })

    out = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "event_type", "ts"], bucket, npart=npart,
        order=None, reduce=first_ts),
        "rule", [("n_both", "sum"), ("n_violations", "sum")])
    return sort_result(out, ["rule"])


# ---------------------------------------------------------------------------
# Q183: TPC-H Q7 — volume shipping between two nations
# ---------------------------------------------------------------------------

_Q7_LO_US = _epoch_us("1996-01-01")
_Q7_HI_US = _epoch_us("1998-01-01")


def volume_shipping(sf_dir: str, nation_a: str = "NATION_3",
                    nation_b: str = "NATION_9", npart: int = 16):
    """q183: TPC-H Q7 — cross-border trade volume between two nations
    by year: revenue of lineitems a supplier in one nation shipped to
    a customer in the OTHER (both directions, 1996–1997).  Like Q5
    (q163) two independent nationkey paths meet per row, but here they
    must DIFFER, and the report keeps the (supp, cust, year) cube.

    Plan (q163's shape): supplier→nationkey as a broadcast dense
    int array (catalog-sized); customers FILTERED to the two nations
    before the orders⋈customer lookup_join, so the materialized
    (orderkey, cust_nation) intermediate only carries ~2/25 of orders;
    lineitem (shipdate-pruned, supplier-nation-pruned) lookup-joins it
    on orderkey with the cross-nation check and the (s_nat, c_nat,
    year) revenue partials FUSED into bucket_finish — the join emits
    ≤ 2·2·years rows per fact batch or bucket.  Revenue in exact
    cents×(100-disc) ints, one double division at the end."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import lookup_join

    nat = _pq2.read_table(_pq(sf_dir, "nation"))
    name_of = dict(zip(nat["n_nationkey"].to_pylist(),
                       nat["n_name"].to_pylist()))
    keys = {v: k for k, v in name_of.items()}
    ka, kb = keys[nation_a], keys[nation_b]
    pair = np.array([ka, kb], dtype=np.int64)

    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sup_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    m = np.isin(sn, pair)
    sup_nat[sk[m]] = sn[m]

    def cust_side(b: pa.Table) -> pa.Table:
        cn = b["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(cn, pair)
        b = b.filter(pa.array(keep))
        return pa.table({"c_custkey": b["c_custkey"],
                         "c_nat": pc.cast(b["c_nationkey"], INT64)})

    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_nationkey"]) \
        .map_batches(cust_side, batch_format="pyarrow")

    def orders_side(b: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": b["o_custkey"],
                         "l_orderkey": b["o_orderkey"]})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    # the two-nation customer slice is broadcast-small (2/|nations| of
    # the dim): the orders scan joins it in place of a custkey exchange
    ord_nat = materialize(lookup_join(
        orders, cust, "c_custkey", npart=npart,
        bucket_finish=lambda j: j.select(["l_orderkey", "c_nat"])))

    def line_side(b: pa.Table) -> pa.Table:
        d = pc.cast(b["l_shipdate"], INT64)
        b = b.filter(pc.and_(
            pc.greater_equal(d, pa.scalar(_Q7_LO_US, type=INT64)),
            pc.less(d, pa.scalar(_Q7_HI_US, type=INT64))))
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        s_nat = sup_nat[np.minimum(s, len(sup_nat) - 1)]
        s_nat = np.where(s < len(sup_nat), s_nat, -1)
        keep = s_nat >= 0
        b = b.filter(pa.array(keep))
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "s_nat": pa.array(s_nat[keep], type=INT64),
            "l_year": pc.cast(pc.year(b["l_shipdate"]), INT64),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc)),
        })

    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey",
                                     "l_shipdate", "l_extendedprice",
                                     "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def q7_finish(j: pa.Table) -> pa.Table:
        j = j.filter(pc.and_(pc.is_valid(j["c_nat"]),
                             pc.not_equal(j["s_nat"], j["c_nat"])))
        return j.select(["s_nat", "c_nat", "l_year", "rev"]) \
            .group_by(["s_nat", "c_nat", "l_year"]) \
            .aggregate([("rev", "sum")]) \
            .rename_columns(["s_nat", "c_nat", "l_year", "rev"])

    # ≤ 2·2·years partial rows per batch or bucket: fold + name + sort
    # driver-side
    parts = collect(lookup_join(lines, ord_nat, "l_orderkey", npart=npart,
                                bucket_finish=q7_finish))
    g = parts.group_by(["s_nat", "c_nat", "l_year"]) \
        .aggregate([("rev", "sum")]) \
        .rename_columns(["s_nat", "c_nat", "l_year", "rev"])
    out = pa.table({
        "supp_nation": pa.array(
            [name_of[int(k)] for k in g["s_nat"].to_pylist()],
            type=pa.string()),
        "cust_nation": pa.array(
            [name_of[int(k)] for k in g["c_nat"].to_pylist()],
            type=pa.string()),
        "l_year": g["l_year"],
        "revenue": pc.divide(pc.cast(g["rev"], pa.float64()), 10_000.0),
    }).sort_by([("supp_nation", "ascending"),
                ("cust_nation", "ascending"), ("l_year", "ascending")])
    return from_arrow(out)


# ---------------------------------------------------------------------------
# Q184: TPC-H Q8 — national market share
# ---------------------------------------------------------------------------


def national_market_share(sf_dir: str, region: str = "ASIA",
                          nation: str = "NATION_2",
                          p_type: str = "PROMO", npart: int = 16):
    """q184: TPC-H Q8 — the target nation's share of PROMO-part trade
    volume sold into a region, by order year: a conditional-ratio
    aggregate (numerator = volume supplied by the nation, denominator
    = all volume) over a 6-table join.

    Plan: the part-type screen runs as a clustered_join against the
    key-sorted part table (dimension never shuffles — each bucket
    reads only its own row groups, q139's zone-map idea applied to a
    join); customer pre-filters to the region before the custkey
    lookup_join (q183's trick); the orderkey lookup_join fuses per-year
    (den, num) integer partials into bucket_finish, so the final fold
    sees years × (batches or buckets) rows.  Supplier nation rides as a
    broadcast dense array; the share is ONE final double division."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import clustered_join, lookup_join

    nat = _pq2.read_table(_pq(sf_dir, "nation"))
    reg = _pq2.read_table(_pq(sf_dir, "region"))
    rkey = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"][0]
    in_region = nat.filter(pc.equal(nat["n_regionkey"], rkey))
    region_keys = np.sort(
        in_region["n_nationkey"].to_numpy(zero_copy_only=False)
        .astype(np.int64))
    target_key = nat.filter(pc.equal(nat["n_name"], nation)) \
        ["n_nationkey"][0].as_py()

    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sup_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    sup_nat[sk] = sn

    def cust_side(b: pa.Table) -> pa.Table:
        cn = b["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = b.filter(pa.array(np.isin(cn, region_keys)))
        return b.select(["c_custkey"])

    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_nationkey"]) \
        .map_batches(cust_side, batch_format="pyarrow")

    def orders_side(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64)
        b = b.filter(pc.and_(
            pc.greater_equal(d, pa.scalar(_Q7_LO_US, type=INT64)),
            pc.less(d, pa.scalar(_Q7_HI_US, type=INT64))))
        return pa.table({
            "c_custkey": b["o_custkey"],
            "l_orderkey": b["o_orderkey"],
            "o_year": pc.cast(pc.year(b["o_orderdate"]), INT64)})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    # region customers are a ~1/|regions| slice of the customer
    # dimension — the broadcast semi-join side: orders never move
    ord_year = materialize(lookup_join(
        orders, cust, "c_custkey", npart=npart,
        bucket_finish=lambda j: j.select(["l_orderkey", "o_year"])))

    def line_side(b: pa.Table) -> pa.Table:
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        s_nat = np.where(s < len(sup_nat),
                         sup_nat[np.minimum(s, len(sup_nat) - 1)], -1)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "l_orderkey": b["l_orderkey"],
            "s_nat": pa.array(s_nat, type=INT64),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc)),
        })

    def part_screen(j: pa.Table) -> pa.Table:
        j = j.filter(pc.equal(j["p_type"], p_type))
        return j.select(["l_orderkey", "s_nat", "rev"])

    lines = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_orderkey", "l_suppkey",
                                 "l_extendedprice", "l_discount"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_type"], npart=npart, bucket_finish=part_screen)

    def q8_finish(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_valid(j["o_year"]))
        num = pc.if_else(pc.equal(j["s_nat"],
                                  pa.scalar(target_key, type=INT64)),
                         j["rev"], pa.scalar(0, type=INT64))
        return pa.table({"o_year": j["o_year"], "den": j["rev"],
                         "num": num}) \
            .group_by(["o_year"]) \
            .aggregate([("den", "sum"), ("num", "sum")]) \
            .rename_columns(["o_year", "den", "num"])

    # years-sized partials per batch or bucket: fold + divide + sort on
    # the driver instead of a native Aggregate + distributed sort
    parts = collect(lookup_join(lines, ord_year, "l_orderkey", npart=npart,
                                bucket_finish=q8_finish))
    g = parts.group_by(["o_year"]).aggregate(
        [("den", "sum"), ("num", "sum")]) \
        .rename_columns(["o_year", "den", "num"]).sort_by("o_year")
    return from_arrow(pa.table({
        "o_year": g["o_year"],
        "mkt_share": pc.divide(pc.cast(g["num"], pa.float64()),
                               pc.cast(g["den"], pa.float64())),
    }))


# ---------------------------------------------------------------------------
# Q185: TPC-H Q10 — returned-item reporting (top-20 lossy customers)
# ---------------------------------------------------------------------------

_Q10_LO_US = _epoch_us("1996-07-01")
_Q10_HI_US = _epoch_us("1996-10-01")


def returned_items(sf_dir: str, npart: int = 16, k: int = 20):
    """q185: TPC-H Q10 — the 20 customers who returned the most
    revenue in a quarter: join→aggregate→top-k with customer
    attributes attached, the canonical "account review" report.

    Plan: lineitem pre-filters to returnflag='R' (column-pruned read),
    orders to the quarter, and their orderkey join bucket emits
    per-customer revenue PARTIALS; after the exact custkey groupby the
    (custkey, revenue) rows hash_join customer — a both-sides-large
    join, not a broadcast (customer attributes at 100 TB don't fit an
    actor) — and each bucket keeps only its local top-k by the pinned
    (rev DESC, custkey ASC) order, so k·npart rows reach the final
    sort.  Nation names attach from the catalog-sized broadcast dict;
    ties at rank k are deterministic via the custkey tiebreak in BOTH
    engines."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import hash_join, lookup_join

    nat = _pq2.read_table(_pq(sf_dir, "nation"))
    nat_name = dict(zip(nat["n_nationkey"].to_pylist(),
                        nat["n_name"].to_pylist()))

    def orders_side(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64)
        b = b.filter(pc.and_(
            pc.greater_equal(d, pa.scalar(_Q10_LO_US, type=INT64)),
            pc.less(d, pa.scalar(_Q10_HI_US, type=INT64))))
        return pa.table({"l_orderkey": b["o_orderkey"],
                         "c_custkey": b["o_custkey"]})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def line_side(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_returnflag",
                                     "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    # cust_rev carries per-custkey revenue PARTIALS.  The global
    # custkey merge needs no exchange of its own: the customer join
    # below is ALSO keyed by c_custkey, so every partial for a
    # custkey lands in that join's bucket — merge + top-k fuse into
    # bucket_finish (removed a Ray-native custkey Aggregate, ~5 s).
    # The lineitem⋈orders leg: quarter-filtered orders are ~1/32 of
    # the fact (3 months of 8 years), a broadcast-small dimension.
    def cust_partial(j: pa.Table) -> pa.Table:
        return j.select(["c_custkey", "rev"]) \
            .group_by(["c_custkey"]).aggregate([("rev", "sum")]) \
            .rename_columns(["c_custkey", "rev"])

    cust_rev = lookup_join(lines, orders, "l_orderkey", npart=npart,
                           bucket_finish=cust_partial)

    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_name", "c_acctbal",
                                    "c_nationkey"])

    def topk_bucket(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_valid(j["rev"]))
        # merge this bucket's co-located partials (customer attrs ride
        # as grouping keys — constant per custkey), then local top-k
        j = j.group_by(["c_custkey", "c_name", "c_acctbal",
                        "c_nationkey"]).aggregate([("rev", "sum")]) \
            .rename_columns(["c_custkey", "c_name", "c_acctbal",
                             "c_nationkey", "rev"])
        order = np.lexsort((j["c_custkey"].to_numpy(zero_copy_only=False),
                            -j["rev"].to_numpy(zero_copy_only=False)))
        return j.take(pa.array(order[:k]))

    top = hash_join(cust_rev, cust, "c_custkey", npart=npart,
                    bucket_finish=topk_bucket)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b["c_custkey"],
            "c_name": b["c_name"],
            "revenue": pc.divide(pc.cast(b["rev"], pa.float64()),
                                 10_000.0),
            "c_acctbal": b["c_acctbal"],
            "n_name": pa.array(
                [nat_name[int(x)] for x in b["c_nationkey"].to_pylist()],
                type=pa.string()),
        })

    # k·npart candidate rows: global top-k + present-sort on the
    # driver instead of a distributed sort+limit over ≤320 rows
    out = collect(top.map_batches(finish, batch_format="pyarrow"))
    order = np.lexsort((out["c_custkey"].to_numpy(zero_copy_only=False),
                        -out["revenue"].to_numpy(zero_copy_only=False)))
    return from_arrow(out.take(pa.array(order[:k])))


# ---------------------------------------------------------------------------
# Q186: TPC-H Q14 — promotion effect by ship month
# ---------------------------------------------------------------------------


def promo_effect(sf_dir: str, npart: int = 16):
    """q186: TPC-H Q14 generalized to a monthly series — the share of
    shipped revenue carried by PROMO parts, per ship month of 1996:
    the marketing-effectiveness ratio report.

    Plan: one clustered_join against the key-sorted part table (the
    dimension never shuffles; q184's screen, but here the type drives
    a conditional NUMERATOR rather than a filter).  Each join bucket
    folds to ≤12 (month, num, den) integer partial rows, so the global
    groupby moves months×npart rows; the percentage is the single
    final double expression."""
    from ..stages.exchange import clustered_join

    lo = 820_454_400_000_000           # 1996-01-01 epoch µs
    hi = 852_076_800_000_000           # 1997-01-01

    def line_side(b: pa.Table) -> pa.Table:
        d = pc.cast(b["l_shipdate"], INT64)
        b = b.filter(pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=INT64)),
            pc.less(d, pa.scalar(hi, type=INT64))))
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "month": pc.cast(pc.month(b["l_shipdate"]), INT64),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    def bucket(j: pa.Table) -> pa.Table:
        num = pc.if_else(pc.equal(j["p_type"], "PROMO"), j["rev"],
                         pa.scalar(0, type=INT64))
        return pa.table({"month": j["month"], "num": num,
                         "den": j["rev"]}) \
            .group_by(["month"]) \
            .aggregate([("num", "sum"), ("den", "sum")]) \
            .rename_columns(["month", "num", "den"])

    agg = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_shipdate",
                                 "l_extendedprice", "l_discount"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_type"], npart=npart, bucket_finish=bucket)
    agg = combine_buckets(agg, "month", [("num", "sum"), ("den", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "month": b["month"],
            "promo_pct": pc.multiply(
                pc.divide(pc.cast(b["num"], pa.float64()),
                          pc.cast(b["den"], pa.float64())), 100.0)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["month"])


# ---------------------------------------------------------------------------
# Q187: TPC-H Q15 — top supplier (argmax over an aggregate, ties kept)
# ---------------------------------------------------------------------------


def top_supplier(sf_dir: str, npart: int = 16):
    """q187: TPC-H Q15 — the supplier(s) whose shipped revenue in a
    quarter equals the global maximum: the argmax-with-ties operator
    (aggregate → global MAX → semi-join back), which needs the
    aggregate CONSUMED TWICE — materialized once so the max pull and
    the filter don't re-execute the scan.

    Plan: per-batch suppkey revenue partials (vectorized combiner) →
    one suppkey groupby (supplier-cardinality output, catalog-sized)
    → materialize; the global max is a one-scalar driver pull of that
    small table; the equality filter streams over it again; names
    attach from the supplier broadcast dict.  Revenue stays integer
    through the max/equality (no float compare), one double at the
    end."""
    import pyarrow.parquet as _pq2

    lo = 841_536_000_000_000           # 1996-09-01 epoch µs
    hi = 849_398_400_000_000           # 1996-12-01

    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_name"])
    sup_name = dict(zip(sup["s_suppkey"].to_pylist(),
                        sup["s_name"].to_pylist()))

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["l_shipdate"], INT64)
        b = b.filter(pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=INT64)),
            pc.less(d, pa.scalar(hi, type=INT64))))
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "s_suppkey": b["l_suppkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    rev = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_suppkey", "l_shipdate",
                                 "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow"),
        "s_suppkey", [("rev", "sum")])

    mx = pc.max(collect(rev)["rev"]).as_py()

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["rev"], pa.scalar(int(mx), type=INT64)))
        return pa.table({
            "s_suppkey": b["s_suppkey"],
            "s_name": pa.array(
                [sup_name[int(x)] for x in b["s_suppkey"].to_pylist()],
                type=pa.string()),
            "total_revenue": pc.divide(pc.cast(b["rev"], pa.float64()),
                                       10_000.0)})

    return sort_result(rev.map_batches(finish, batch_format="pyarrow"),
                       ["s_suppkey"])


# ---------------------------------------------------------------------------
# Q188: TPC-H Q17 — small-quantity-order revenue (correlated avg)
# ---------------------------------------------------------------------------


def small_quantity_revenue(sf_dir: str, brand: str = "Brand#23",
                           npart: int = 16):
    """q188: TPC-H Q17 — yearly revenue lost if orders below 20% of a
    part's average quantity were dropped: the CORRELATED SCALAR
    SUBQUERY shape (per-part AVG referenced row-by-row), decorrelated
    into one partkey exchange where each bucket holds a part's rows
    COMPLETELY and evaluates rows-vs-own-aggregate vectorized.

    Exactness: qty in centi-units, the 20% test as the cross-
    multiplied integer inequality 5·qc·n < Σqc (no float avg ever
    materializes; both engines compare the same int64s).  The brand
    screen runs as a clustered_join against the key-sorted part table
    first, so the exchange moves only the brand's ~1/25 slice."""
    from ..stages.exchange import clustered_join, with_part

    def line_side(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": b["l_partkey"],
            "qc": pc.cast(pc.round(pc.multiply(b["l_quantity"], 100.0)),
                          INT64),
            "pcents": pc.cast(pc.round(pc.multiply(
                b["l_extendedprice"], 100.0)), INT64)})

    def brand_screen(j: pa.Table) -> pa.Table:
        j = j.filter(pc.equal(j["p_brand"], brand))
        return j.select(["l_partkey", "qc", "pcents"])

    rows = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_quantity",
                                 "l_extendedprice"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_brand"], npart=npart, bucket_finish=brand_screen)

    def bucket(g: pa.Table) -> pa.Table:
        k = g["l_partkey"].to_numpy(zero_copy_only=False)
        qc = g["qc"].to_numpy(zero_copy_only=False)
        pcents = g["pcents"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(k, return_inverse=True)
        n = np.bincount(inv, minlength=len(uk)).astype(np.int64)
        sq = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sq, inv, qc)                  # exact int64 Σqc
        keep = 5 * qc * n[inv] < sq[inv]
        return pa.table({
            "sum_pc": pa.array([int(pcents[keep].sum())], type=INT64),
            "n_rows": pa.array([int(keep.sum())], type=INT64)})

    g = _sums(bucket_exchange(
        rows.map_batches(
            lambda b: with_part(b, "l_partkey", npart),
            batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        ["sum_pc", "n_rows"])

    return pa.table({
        "avg_yearly": pa.array(
            [float(int(g["sum_pc"])) / 100.0 / 7.0],
            type=pa.float64()),
        "n_rows": pa.array([int(g["n_rows"])], type=INT64)})


# ---------------------------------------------------------------------------
# Q189: TPC-H Q18 — large-volume customers (HAVING semi-join)
# ---------------------------------------------------------------------------


def large_volume_customers(sf_dir: str, min_qty: int = 250,
                           npart: int = 16, k: int = 100):
    """q189: TPC-H Q18 — the 100 largest orders whose total quantity
    exceeds a threshold, with their customer attached: the
    GROUP-HAVING SEMI-JOIN shape (an aggregate qualifies keys, the
    qualified keys pull their parent rows).

    Plan: lineitem folds per-batch (orderkey, Σqty-centi) partials →
    one orderkey groupby → integer HAVING filter; the surviving
    ~0.1% of orders lookup-join orders on orderkey, each joined batch
    keeping its local top-k by the pinned (totalprice-cents DESC,
    orderkey ASC) order; the ≤ k winners' custkeys lookup-join the
    customer scan for c_name.  Dates leave as ISO strings so both
    engines hash identical bytes."""
    from ..stages.exchange import combine_buckets, lookup_join

    def qty_partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["l_orderkey"],
            "qc": pc.cast(pc.round(pc.multiply(b["l_quantity"], 100.0)),
                          INT64)})

    # orderkey fold through the repo's bucket exchange — Ray's native
    # 600k-row Aggregate here cost ~6 s wall at sf0.1 (round-4
    # profiler; same finding as q206), the part-exchange + Arrow
    # group_by costs ~1 s.  The HAVING filter fuses into the bucket.
    big = materialize(combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_orderkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow"),
        "o_orderkey", [("qc", "sum")], npart=npart)
        .map_batches(lambda b: b.filter(pc.greater(
            b["qc"], pa.scalar(min_qty * 100, type=INT64))),
            batch_format="pyarrow"))

    def orders_side(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "c_custkey": b["o_custkey"],
            "tp_cents": pc.cast(pc.round(pc.multiply(
                b["o_totalprice"], 100.0)), INT64),
            "o_date_us": pc.cast(b["o_orderdate"], INT64)})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey",
                                      "o_totalprice", "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def topk_partial(j: pa.Table) -> pa.Table:
        order = np.lexsort((
            j["o_orderkey"].to_numpy(zero_copy_only=False),
            -j["tp_cents"].to_numpy(zero_copy_only=False)))
        return j.take(pa.array(order[:k]))

    # the HAVING survivors are ~0.1% of orders — the textbook
    # broadcast semi-join side.  Each joined batch keeps its local
    # top-k, so ≤ k rows per batch reach the driver's global top-k.
    wo = collect(lookup_join(orders, big, "o_orderkey", npart=npart,
                             bucket_finish=topk_partial))
    top_tbl = topk_partial(wo)
    # c_name lookup: the ≤ k wanted custkeys filter the customer scan
    want = from_arrow(pa.table({"c_custkey": pa.array(np.unique(
        top_tbl["c_custkey"].to_numpy(zero_copy_only=False)), type=INT64)}))
    cust_tbl = collect(lookup_join(
        scan_parquet(_pq(sf_dir, "customer"),
                     columns=["c_custkey", "c_name"]),
        want, "c_custkey", npart=npart))
    b = top_tbl.join(cust_tbl, keys="c_custkey", join_type="inner")
    iso = [str(np.datetime64(int(x), "us"))[:10]
           for x in b["o_date_us"].to_numpy(zero_copy_only=False)]
    out = pa.table({
        "c_name": b["c_name"],
        "c_custkey": b["c_custkey"],
        "o_orderkey": b["o_orderkey"],
        "o_orderdate": pa.array(iso, type=pa.string()),
        "o_totalprice": pc.divide(pc.cast(b["tp_cents"],
                                          pa.float64()), 100.0),
        "sum_qty": pc.divide(pc.cast(b["qc"], pa.float64()), 100.0)})
    return from_arrow(out.sort_by([
        ("o_totalprice", "descending"), ("o_orderkey", "ascending")]))


# ---------------------------------------------------------------------------
# Q190: TPC-H Q9 shape — product-type profit by nation and year
# ---------------------------------------------------------------------------


def product_profit(sf_dir: str, p_type: str = "LARGE", npart: int = 16):
    """q190: TPC-H Q9's shape — profit on one product type by
    SUPPLIER nation and order year, profit = revenue − 0.6·qty·retail
    (the schema has no partsupp, so the cost leg substitutes the
    part's retail price at a fixed margin; reference cites
    /root/reference for the join DAG shape only).  Three fact-side
    joins: part (clustered, never shuffled), supplier (broadcast
    catalog array), orders (bucket exchange on orderkey with fused
    partials).

    Exactness: profit in 10⁻⁵-dollar integers — 10·cents·(100−disc)
    − 6·qc·retail_cents — summed as int64 partials per
    (nation, year) inside the join bucket; ONE double division at the
    end."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import clustered_join, hash_join

    nat = _pq2.read_table(_pq(sf_dir, "nation"))
    name_of = dict(zip(nat["n_nationkey"].to_pylist(),
                       nat["n_name"].to_pylist()))
    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sup_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    sup_nat[sk] = sn

    def line_side(b: pa.Table) -> pa.Table:
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        s_nat = np.where(s < len(sup_nat),
                         sup_nat[np.minimum(s, len(sup_nat) - 1)], -1)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "l_orderkey": b["l_orderkey"],
            "s_nat": pa.array(s_nat, type=INT64),
            "rev4": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc)),
            "qc": pc.cast(pc.round(pc.multiply(b["l_quantity"], 100.0)),
                          INT64)})

    def part_screen(j: pa.Table) -> pa.Table:
        j = j.filter(pc.equal(j["p_type"], p_type))
        rc = pc.cast(pc.round(pc.multiply(j["p_retailprice"], 100.0)),
                     INT64)
        profit = pc.subtract(
            pc.multiply(j["rev4"], pa.scalar(10, type=INT64)),
            pc.multiply(pc.multiply(j["qc"], rc),
                        pa.scalar(6, type=INT64)))
        return pa.table({"l_orderkey": j["l_orderkey"],
                         "s_nat": j["s_nat"], "profit": profit})

    lines = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_orderkey", "l_suppkey",
                                 "l_extendedprice", "l_discount",
                                 "l_quantity"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_type", "p_retailprice"], npart=npart,
        bucket_finish=part_screen)

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_orderdate"]) \
        .map_batches(lambda b: pa.table({
            "l_orderkey": b["o_orderkey"],
            "o_year": pc.cast(pc.year(b["o_orderdate"]), INT64)}),
            batch_format="pyarrow")

    def q9_finish(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_valid(j["profit"]))
        return j.select(["s_nat", "o_year", "profit"]) \
            .group_by(["s_nat", "o_year"]) \
            .aggregate([("profit", "sum")]) \
            .rename_columns(["s_nat", "o_year", "profit"])

    # per-bucket partials are (nation × year)-sized — fold + name +
    # present-sort on the driver instead of paying a native Aggregate
    # AND a distributed sort (~2 fixed all-to-alls) for ≤175 rows
    # (round-4 native-Aggregate finding; 11.9 s → ~8 s at sf0.1/32)
    parts = collect(hash_join(lines, orders, "l_orderkey", npart=npart,
                              bucket_finish=q9_finish))
    agg = parts.group_by(["s_nat", "o_year"]) \
        .aggregate([("profit", "sum")]) \
        .rename_columns(["s_nat", "o_year", "profit"])
    out = pa.table({
        "nation": pa.array(
            [name_of[int(x)] for x in agg["s_nat"].to_pylist()],
            type=pa.string()),
        "o_year": agg["o_year"],
        "profit": pc.divide(pc.cast(agg["profit"], pa.float64()),
                            100_000.0)}) \
        .sort_by([("nation", "ascending"), ("o_year", "ascending")])
    return from_arrow(out)


# ---------------------------------------------------------------------------
# Q191: Gini concentration of customer spend (rank-weighted fold)
# ---------------------------------------------------------------------------


def gini_spend(sf_dir: str, npart: int = 32):
    """q191: the Gini coefficient of customer lifetime spend — the
    inequality/concentration audit (how top-heavy is the revenue
    base).  Gini needs every value's EXACT GLOBAL RANK, which is the
    one statistic a groupby can't produce: it rides the engine's
    range_sort primitive (sampled splitters → exact per-part counts →
    rank = offset + local position; q70's terasort shape).

    Exactness: spend in cents, G = (2·Σr·xᵣ − (n+1)·Σx) / (n·Σx) with
    ranks pinned by the (cents, custkey) total order; Σ r·x folds as
    int64 per-batch partials (headroom to ~sf1 — r·x ≤ 10¹³ at 150k
    customers) and the closing expression converts each exact integer
    to double once, in the same shape DuckDB evaluates."""
    from ..stages.exchange import range_sort

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b["o_custkey"],
            "cents": pc.cast(pc.round(pc.multiply(
                b["o_totalprice"], 100.0)), INT64)})

    spend = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        "c_custkey", [("cents", "sum")])

    ranked = range_sort(
        spend,
        key_fn=lambda b: b["cents"].to_numpy(
            zero_copy_only=False).astype(np.uint64),
        tiebreak_fn=lambda b: b["c_custkey"].to_numpy(
            zero_copy_only=False).astype(np.uint64),
        npart=npart)

    def fold(b: pa.Table) -> pa.Table:
        x = b["cents"].to_numpy(zero_copy_only=False)
        r = b["rank"].to_numpy(zero_copy_only=False)
        return pa.table({
            "s_rx": pa.array([int((r * x).sum())], type=INT64),
            "s_x": pa.array([int(x.sum())], type=INT64),
            "n": pa.array([len(x)], type=INT64)})

    g = _sums(ranked.map_batches(fold, batch_format="pyarrow"),
              ["s_rx", "s_x", "n"])
    s_rx, s_x, n = int(g["s_rx"]), int(g["s_x"]), int(g["n"])
    num = 2 * s_rx - (n + 1) * s_x          # exact arbitrary-precision
    return pa.table({
        "n_customers": pa.array([n], type=INT64),
        "total_cents": pa.array([s_x], type=INT64),
        "gini": pa.array([float(num) / (float(n) * float(s_x))],
                         type=pa.float64())})


# ---------------------------------------------------------------------------
# Q192: stock-out first-crossing (per-key running total + argfirst)
# ---------------------------------------------------------------------------


def stockout_crossing(sf_dir: str, threshold_qty: int = 500,
                      npart: int = 32):
    """q192: per part, the first ship date at which CUMULATIVE shipped
    quantity crosses a reorder threshold — the running-balance /
    first-crossing operator (inventory stock-out detection, budget
    burn alerts).  A plain groupby can't see it: the answer depends on
    the per-key PREFIX SUM in event order.

    Scale shape: one partkey-hash exchange co-locates each part's
    lineitems; inside a bucket a single lexsort by (part, shipdate,
    orderkey, linenumber) + one global cumsum (per-part via offset
    subtraction) + one minimum.reduceat finds every part's first
    crossing without any per-part Python.  Quantities in exact
    centi-units; dates leave as ISO strings."""
    thr = threshold_qty * 100

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": b["l_partkey"],
            "ship_us": pc.cast(b["l_shipdate"], INT64),
            "l_orderkey": b["l_orderkey"],
            "l_linenumber": pc.cast(b["l_linenumber"], INT64),
            "qc": pc.cast(pc.round(pc.multiply(b["l_quantity"], 100.0)),
                          INT64)})

    def bucket(g: pa.Table) -> pa.Table:
        k = g["l_partkey"].to_numpy(zero_copy_only=False)
        ts = g["ship_us"].to_numpy(zero_copy_only=False)
        ok = g["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = g["l_linenumber"].to_numpy(zero_copy_only=False)
        qc = g["qc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ln, ok, ts, k))
        k, ts, qc = k[order], ts[order], qc[order]
        n = len(k)
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [n]))
        cs = np.cumsum(qc)
        # per-part prefix sums from ONE global cumsum: subtract the
        # running total just before each part's first row (0 for the
        # bucket's first part — masked by starts > 0)
        base = np.repeat(cs[starts - 1] * (starts > 0), ends - starts)
        cum = cs - base
        idx = np.arange(n)
        cand = np.where(cum >= thr, idx, n)
        first = np.minimum.reduceat(cand, starts)
        hit = first < ends
        fi = first[hit]
        iso = [str(np.datetime64(int(x), "us"))[:10] for x in ts[fi]]
        return pa.table({
            "l_partkey": pa.array(k[fi], type=INT64),
            "cross_date": pa.array(iso, type=pa.string()),
            "cum_qc": pa.array(cum[fi], type=INT64)})

    return sort_result(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_shipdate",
                                 "l_orderkey", "l_linenumber",
                                 "l_quantity"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "l_partkey", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))), "l_partkey")


# ---------------------------------------------------------------------------
# Q193: U-shaped multi-touch attribution (position-based credit)
# ---------------------------------------------------------------------------


def ushape_attribution(sf_dir: str, npart: int = 32):
    """q193: position-based ("U-shaped") multi-touch attribution —
    each user's first purchase distributes its value over the clicks
    that preceded it: 40% to the first touch, 40% to the last, 20%
    shared by the middles (100% / 50-50 for 1- and 2-touch paths),
    reported by hour-of-day of the touch.  The marketing-mix operator
    q113's last-touch rule can't express: credit depends on a touch's
    POSITION within its user's full path.

    Exactness: credit in parts-per-million of the conversion's cents;
    the middle share uses floor division with the remainder ppm pinned
    to the EARLIEST middle touch, so Σppm = 10⁶ exactly per
    conversion in both engines.  One user exchange
    (``_user_timeline``); per (user, ts, event_id)-sorted bucket a
    single reduceat machinery — no per-user Python."""

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"]
        b = b.filter(pc.or_(pc.equal(et, "click"), pc.equal(et, "purchase")))
        return pa.table({
            "user_id": b["user_id"],
            "ts": b["ts"],
            "event_id": b["event_id"],
            "is_purchase": pc.equal(b["event_type"], "purchase"),
            "cents": pc.cast(pc.round(pc.multiply(b["value"], 100.0)),
                             INT64)})

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        isp = g["is_purchase"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        n = len(ts)
        ends = np.concatenate((starts[1:], [n]))
        sizes = ends - starts
        idx = np.arange(n)
        # each user's first purchase index (n if none)
        cand = np.where(isp, idx, n)
        conv = np.minimum.reduceat(cand, starts)
        has_conv = conv < ends
        conv_row = np.where(has_conv, np.minimum(conv, n - 1), 0)
        conv_idx = np.repeat(conv, sizes)           # per-row, user's conv
        conv_cents = np.repeat(
            np.where(has_conv, cents[conv_row], 0), sizes)
        # gate on has_conv: users with no purchase have conv_idx == n, so
        # idx < conv_idx alone would mark ALL their clicks as 0-credit
        # phantom touches, inflating n_touches vs USHAPE_SQL's inner join.
        touch = (~isp) & (idx < conv_idx) & np.repeat(has_conv, sizes)
        # touch position within user path and path length k
        tc = np.cumsum(touch)
        base = np.repeat(tc[starts] - touch[starts], sizes)
        pos = np.where(touch, tc - base, 0)         # 1-based
        k = np.repeat(np.add.reduceat(touch, starts), sizes)
        mid = np.maximum(k - 2, 1)
        ppm = np.where(
            k == 1, 1_000_000,
            np.where(k == 2, 500_000,
                     np.where(pos == 1, 400_000,
                              np.where(pos == k, 400_000,
                                       200_000 // mid))))
        ppm = ppm + np.where((k >= 3) & (pos == 2), 200_000 % mid, 0)
        sel = touch
        hour = (ts[sel] // 3_600_000_000) % 24
        credit = conv_cents[sel] * ppm[sel]
        return pa.table({
            "hour": pa.array(hour.astype(np.int64), type=INT64),
            "credit_u": pa.array(credit.astype(np.int64), type=INT64)})

    agg = combine_buckets(
        _user_timeline(sf_dir, ["user_id", "ts", "event_id", "event_type",
                                "value"], bucket, npart=npart,
                       reduce=partial),
        "hour", [("n_touches", "count"), ("credit_u", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "hour": b["hour"],
            "n_touches": b["n_touches"],
            "credited_dollars": pc.divide(
                pc.cast(b["credit_u"], pa.float64()), 100_000_000.0)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["hour"])


# ---------------------------------------------------------------------------
# Q194: exponential-decay anomaly flags (integer EWMA-16)
# ---------------------------------------------------------------------------

_EWMA_DEPTH = 16
_EWMA_W = (1 << _EWMA_DEPTH) - 2           # Σ_{k=1..16} 2^(16−k) = 65534


def ewma_anomalies(sf_dir: str, npart: int = 32):
    """q194: per-event anomaly flags against an exponentially-decayed
    baseline — an event is flagged when its value exceeds 2× the
    2^-k-weighted average of the SAME user's previous 16 events (the
    streaming-telemetry alert rule).  EWMA is the textbook sequential
    recurrence; with dyadic weights and a FIXED depth it becomes 16
    shifted vector adds — exact in int64, no float state, no
    per-row loop.

    The comparison is cross-multiplied (v·W > 2·D with W = 2¹⁶−2) so
    neither engine ever divides.  Only events with a full 16-deep
    same-user history are scored; one user exchange
    (``_user_timeline``) co-locates each user's (ts, event_id)-sorted
    sequence."""

    def cents(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.column_names.index("value"), "v",
            pc.cast(pc.round(pc.multiply(b["value"], 100.0)), INT64))

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        v = g["v"].to_numpy(zero_copy_only=False)
        n = len(v)
        sizes = np.diff(np.append(starts, n))
        pos = np.arange(n) - np.repeat(starts, sizes)   # 0-based in user
        d = np.zeros(n, dtype=np.int64)
        for k in range(1, _EWMA_DEPTH + 1):
            d[k:] += v[:-k] << (_EWMA_DEPTH - k)
        scored = pos >= _EWMA_DEPTH       # full same-user history
        flagged = scored & (v * _EWMA_W > 2 * d)
        return pa.table({
            "event_type": g["event_type"],
            "n_scored": pa.array(scored.astype(np.int64)),
            "n_flagged": pa.array(flagged.astype(np.int64))})

    return sort_result(combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type", "value"],
        bucket, npart=npart, reduce=cents),
        "event_type", [("n_scored", "sum"), ("n_flagged", "sum")]),
        ["event_type"])


# ---------------------------------------------------------------------------
# Q195: decision-stump split scan (histogram Gini, the GBDT inner loop)
# ---------------------------------------------------------------------------

_STUMP_STEP = 2048     # cents per histogram bucket
_STUMP_BINS = 32


def split_scan(sf_dir: str):
    """q195: the histogram-based SPLIT SCAN a tree learner runs at
    every node — bucket the feature (event value, cents // 2048, 32
    bins), count (n, positives) per bucket, then evaluate the weighted
    Gini impurity of every binary split "bucket ≤ s": exactly the
    LightGBM/XGBoost histogram algorithm's inner loop, as one
    distributed pass + a 32-row closing scan.

    Exactness: bucket counts are exact int64 partials (the only
    distributed part — the shuffle carries ≤ bins×blocks rows);
    impurities are final doubles computed from those ints in the same
    expression shape as the SQL twin (q178's discipline), so the
    argmin row is identical in both engines."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0)), INT64)
        bkt = pc.min_element_wise(
            pc.divide(cents, pa.scalar(_STUMP_STEP, type=INT64)),
            pa.scalar(_STUMP_BINS - 1, type=INT64))
        pos = pc.cast(pc.equal(b["event_type"], "purchase"), INT64)
        return pa.table({"bucket": bkt, "pos": pos})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        "bucket", [("n", "count"), ("pos", "sum")])

    t = collect(agg)
    order = np.argsort(t["bucket"].to_numpy(zero_copy_only=False))
    bkt = t["bucket"].to_numpy(zero_copy_only=False)[order]
    n = t["n"].to_numpy(zero_copy_only=False)[order]
    pos = t["pos"].to_numpy(zero_copy_only=False)[order]
    total_n, total_p = int(n.sum()), int(pos.sum())
    nl = np.cumsum(n)
    pl = np.cumsum(pos)
    keep = nl < total_n                  # both sides non-empty
    s, nl, pl = bkt[keep], nl[keep], pl[keep]
    nr = total_n - nl
    pr = total_p - pl
    l0 = nl - pl
    r0 = nr - pr
    gini = ((nl.astype(np.float64)
             - (pl * pl + l0 * l0).astype(np.float64)
             / nl.astype(np.float64))
            + (nr.astype(np.float64)
               - (pr * pr + r0 * r0).astype(np.float64)
               / nr.astype(np.float64)))
    return pa.table({
        "split_bucket": pa.array(s, type=INT64),
        "n_left": pa.array(nl, type=INT64),
        "pos_left": pa.array(pl, type=INT64),
        "n_right": pa.array(nr, type=INT64),
        "pos_right": pa.array(pr, type=INT64),
        "weighted_gini": pa.array(gini, type=pa.float64())})


# ---------------------------------------------------------------------------
# Q196: frequent brand triples (Apriori round 3)
# ---------------------------------------------------------------------------


def brand_triples(sf_dir: str, minsup: int = 40, npart: int = 16):
    """q196: frequent 3-itemsets of part BRANDS across order baskets —
    Apriori's round-3 stage on top of q148's pair machinery: distinct
    (order, brand) rows meet per basket, triples are generated only
    from items that individually clear the support floor (the
    broadcast Apriori prune — lossless, since a triple's support is
    bounded by each member's), and per-bucket triple partials fold
    through one key exchange.

    Scale shape: the brand-support pre-pass reduces to a catalog-sized
    table the driver broadcasts; triple generation is the j1<j2
    shifted-mask double loop over sorted baskets (O(w²) vector ops, w
    = max basket width ≈ 7) — never a Python loop over baskets."""

    def ob_distinct(j: pa.Table) -> pa.Table:
        t = pa.table({"o": j["l_orderkey"], "b": j["p_brand"]})
        t = t.group_by(["o", "b"]).aggregate([])
        return t

    from ..stages.exchange import clustered_join

    ob = materialize(clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_orderkey"])
        .map_batches(lambda b: pa.table({
            "l_partkey": b["l_partkey"],
            "l_orderkey": b["l_orderkey"]}), batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_brand"], npart=npart,
        bucket_finish=ob_distinct))

    # Apriori prune: brand support floor (tiny, driver-held)
    sup = combine_buckets(ob.select_columns(["b"]), "b", [("n", "count")])
    sup_t = collect(sup)
    freq = set(sup_t.filter(pc.greater_equal(
        sup_t["n"], minsup))["b"].to_pylist())

    freq_arr = pa.array(sorted(freq), type=pa.string())

    def triples(g: pa.Table) -> pa.Table:
        g = g.filter(pc.is_in(g["b"], value_set=freq_arr))  # item prune
        o = g["o"].to_numpy(zero_copy_only=False)
        b = np.array(g["b"].to_pylist())
        order = np.lexsort((b, o))
        o, b = o[order], b[order]
        n = len(o)
        ks, ns = [], []
        sizes = np.diff(np.flatnonzero(np.concatenate(
            ([True], o[1:] != o[:-1], [True]))))
        w = int(sizes.max()) if len(sizes) else 0
        for j1 in range(1, w):
            same1 = np.zeros(n, dtype=bool)
            same1[:n - j1] = o[j1:] == o[:n - j1]
            for j2 in range(j1 + 1, w + 1):
                same2 = np.zeros(n, dtype=bool)
                same2[:n - j2] = o[j2:] == o[:n - j2]
                m = same1 & same2
                if not m.any():
                    continue
                i = np.flatnonzero(m)
                ks.append(np.char.add(np.char.add(
                    np.char.add(b[i], "|"), np.char.add(
                        b[i + j1], "|")), b[i + j2]))
        if not ks:
            return pa.table({"key": pa.array([], type=pa.string())})
        return pa.table({"key": pa.array(np.concatenate(ks))})

    agg = combine_buckets(bucket_exchange(
        ob.map_batches(lambda t: with_part(t, "o", npart),
                       batch_format="pyarrow"),
        lambda g: triples(g.drop_columns(["part"]))),
        "key", [("support", "count")])

    # no basket with a frequent triple leaves no rows and, since Ray
    # drops an emptied batch's schema, no columns: name them here
    t = collect(agg, pa.schema([("key", pa.string()), ("support", INT64)]))
    t = t.filter(pc.greater_equal(t["support"],
                                  pa.scalar(minsup, type=INT64)))
    parts = pc.split_pattern(t["key"], "|")
    return pa.table({
        "b1": pc.list_element(parts, 0),
        "b2": pc.list_element(parts, 1),
        "b3": pc.list_element(parts, 2),
        "support": t["support"]}).sort_by(
            [("b1", "ascending"), ("b2", "ascending"), ("b3", "ascending")])


# ---------------------------------------------------------------------------
# Q197: Gini–Simpson language diversity per source
# ---------------------------------------------------------------------------


def simpson_diversity(sf_dir: str):
    """q197: the Gini–Simpson diversity index of LANGUAGES within each
    document source — the probability two random docs from a source
    differ in language, 1 − Σnᵢ(nᵢ−1)/(N(N−1)): the corpus-mixture
    health metric a multilingual training pipeline tracks per
    ingestion source.

    Scale shape: per-batch (source, lang) count partials → one tiny
    groupby (sources × langs rows) → per-source fold of Σnᵢ(nᵢ−1) in
    exact int64 — the diversity is ONE final double expression per
    source."""

    def langs(b: pa.Table) -> pa.Table:
        n = b["n_docs"].to_numpy(zero_copy_only=False)
        return pa.table({"source": b["source"], "n_docs": b["n_docs"],
                         "sum_nn1": pa.array(n * (n - 1), type=INT64)})

    agg = combine_buckets(_docs(sf_dir, columns=["source", "lang"]),
                          ["source", "lang"], [("n_docs", "count")])
    agg = combine_buckets(agg.map_batches(langs, batch_format="pyarrow"),
                          "source", [("n_langs", "count"), ("n_docs", "sum"),
                                     ("sum_nn1", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False)
        s1 = t["sum_nn1"].to_numpy(zero_copy_only=False)
        return pa.table({
            "source": t["source"],
            "n_langs": t["n_langs"],
            "n_docs": t["n_docs"],
            "simpson": pa.array(
                1.0 - s1.astype(np.float64)
                / (nd.astype(np.float64) * (nd - 1).astype(np.float64)),
                type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["source"])


# ---------------------------------------------------------------------------
# Q198: watermark / out-of-orderness audit (global prefix-max)
# ---------------------------------------------------------------------------


def watermark_audit(sf_dir: str, npart: int = 32):
    """q198: the out-of-orderness audit every streaming ingest needs —
    in arrival order (event_id), how often does an event carry an
    OLDER timestamp than the running maximum already seen, and by how
    much (the watermark lag that sizes allowed-lateness windows).
    Needs a GLOBAL ORDERED PREFIX-MAX, which no groupby expresses.

    Scale shape: ``exchange.range_scan`` with ``op="max"`` — sampled
    event_id splitters cut arrival-order ranges; per-range max(ts)
    partials (npart ints to the driver, never rows) fold into each
    range's CARRY-IN; each bucket then computes its prefix-max
    locally (maximum.accumulate) seeded by the carry — so the
    sequential dependency collapses to an npart-long driver fold.
    All lateness arithmetic in exact int64 µs."""
    from ..stages.exchange import i64_key, range_scan

    def cast_ts(b: pa.Table) -> pa.Table:
        return b.append_column("t", pc.cast(b["ts"], INT64))

    def bucket(g: pa.Table, cin: int, total: int) -> pa.Table:
        t = g["t"].to_numpy(zero_copy_only=False)
        run = np.maximum.accumulate(t)
        prevmax = np.empty(len(t), dtype=np.int64)
        prevmax[0] = cin
        prevmax[1:] = np.maximum(run[:-1], cin)
        has_pred = prevmax != np.iinfo(np.int64).min
        late = has_pred & (prevmax > t)
        lag = np.where(late, prevmax - t, 0)
        return pa.table({
            "event_type": g["event_type"],
            "n_with_pred": pa.array(has_pred.astype(np.int64)),
            "n_late": pa.array(late.astype(np.int64)),
            "max_lag_us": pa.array(lag, type=INT64),
            "sum_lag_us": pa.array(lag, type=INT64)})

    ds = scan_parquet(_pq(sf_dir, "events"),
                      columns=["event_id", "ts", "event_type"]) \
        .map_batches(cast_ts, batch_format="pyarrow")
    agg = combine_buckets(
        range_scan(ds, i64_key("event_id"), i64_key("event_id"), "t", "max",
                   bucket, npart=npart),
        "event_type", [("n_with_pred", "sum"), ("n_late", "sum"),
                       ("max_lag_us", "max"), ("sum_lag_us", "sum")])
    return sort_result(agg, ["event_type"])


# ---------------------------------------------------------------------------
# Q199: monetary-unit sampling (systematic PPS over cumulative dollars)
# ---------------------------------------------------------------------------

_MUS_STEP = 500_000_000            # one audit probe every $5M (cents)


def monetary_unit_sample(sf_dir: str, npart: int = 32):
    """q199: monetary-unit (dollar-unit) sampling — the audit-sampling
    standard: walk the orders in key order accumulating dollars and
    probe the order containing every $5M boundary, so selection
    probability is proportional to order size WITHOUT any randomness
    or a global sort by value.  Needs the GLOBAL PREFIX SUM in
    orderkey order — q198's carry recipe with Σ instead of max:
    per-range sum partials → npart-long driver prefix fold →
    per-bucket cumsum seeded by the carry.

    An order is selected iff its cents interval (cum−price, cum]
    contains a multiple of the step — exact integer floor arithmetic
    in both engines; an order wider than the step yields its boundary
    COUNT (PPS with multiplicity).

    Scale shape: ``exchange.range_scan`` with ``op="sum"`` over
    orderkey ranges; each bucket's cumsum starts at its range's
    carry-in."""
    from ..stages.exchange import i64_key, range_scan

    def to_cents(b: pa.Table) -> pa.Table:
        return b.append_column("cents", pc.cast(pc.round(pc.multiply(
            b["o_totalprice"], 100.0)), INT64))

    def bucket(g: pa.Table, carry: int, total: int) -> pa.Table:
        k = g["o_orderkey"].to_numpy(zero_copy_only=False)
        c = g["cents"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(c) + carry
        probes = cum // _MUS_STEP - (cum - c) // _MUS_STEP
        sel = probes > 0
        return pa.table({
            "o_orderkey": pa.array(k[sel], type=INT64),
            "o_totalprice": pa.array(c[sel] / 100.0,
                                     type=pa.float64()),
            "cum_cents": pa.array(cum[sel], type=INT64),
            "n_probes": pa.array(probes[sel], type=INT64)})

    ds = scan_parquet(_pq(sf_dir, "orders"),
                      columns=["o_orderkey", "o_totalprice"]) \
        .map_batches(to_cents, batch_format="pyarrow")
    return sort_result(range_scan(
        ds, i64_key("o_orderkey"), i64_key("o_orderkey"), "cents", "sum",
        bucket, npart=npart), "o_orderkey")


# ---------------------------------------------------------------------------
# Q200: interval-union utilization (merge overlapping sessions)
# ---------------------------------------------------------------------------


def interval_union(sf_dir: str, npart: int = 32):
    """q200: per-user UNION-OF-INTERVALS length — each event opens a
    session of 60..3599 s (pinned from its value cents), overlaps
    merge, and the report is each user's covered wall-clock: the
    utilization/billing operator (machine uptime, ad exposure time)
    where double-counting overlaps is the classic bug.

    Scale shape: one user exchange (``_user_timeline``, buckets sorted
    by (user, start, end, event_id)); islands found with ZERO
    per-user Python via the offset-encoded SEGMENTED CUMMAX trick —
    cummax over (group·L + (e−base)) restarts per group for free
    because successive groups dominate by construction — then island
    bounds come from flag positions + maximum.reduceat.  All µs
    arithmetic exact int64."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        s = b["ts"].to_numpy(zero_copy_only=False)
        dur = 60 + (cents % 3540)
        return pa.table({
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "s": pa.array(s, type=INT64),
            "e": pa.array(s + dur * 1_000_000, type=INT64)})

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        s = g["s"].to_numpy(zero_copy_only=False)
        e = g["e"].to_numpy(zero_copy_only=False)
        n = len(u)
        sizes = np.diff(np.append(starts, n))
        grp = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        base = e.min()
        span = int(e.max() - base) + 1
        # per-user running max(e) via composite-key cummax, chunked so
        # grp*span can't overflow int64 at any users-per-bucket count
        segmax = np.empty(n, dtype=np.int64)
        for lo_r, hi_r, g0 in _grp_span_chunks(len(starts), span,
                                               starts, n):
            gl = grp[lo_r:hi_r] - g0
            sm = np.maximum.accumulate(gl * span + (e[lo_r:hi_r] - base))
            segmax[lo_r:hi_r] = sm - gl * span + base
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        pm = np.empty(n, dtype=np.int64)
        pm[1:] = segmax[:-1]
        pm[0] = np.iinfo(np.int64).min
        flag = first | (s > pm)
        fpos = np.flatnonzero(flag)
        hi = np.maximum.reduceat(e, fpos)
        lo = s[fpos]
        iu = u[fpos]
        t = pa.table({
            "user_id": pa.array(iu, type=INT64),
            "one": pa.array(np.ones(len(fpos), dtype=np.int64)),
            "covered_us": pa.array(hi - lo, type=INT64)})
        isl = t.group_by(["user_id"]).aggregate(
            [("one", "sum"), ("covered_us", "sum")]) \
            .rename_columns(["user_id", "n_islands", "covered_us"])
        cnt = pa.table({
            "user_id": pa.array(u[starts], type=INT64),
            "n_intervals": pa.array(sizes.astype(np.int64))})
        return isl.join(cnt, keys="user_id", join_type="inner")

    return sort_result(_user_timeline(
        sf_dir, ["user_id", "event_id", "ts", "value"], bucket,
        npart=npart, order=("user_id", "s", "e", "event_id"),
        reduce=partial)
        .map_batches(lambda b: b.select(
            ["user_id", "n_intervals", "n_islands", "covered_us"]),
            batch_format="pyarrow"), "user_id")


# ---------------------------------------------------------------------------
# Q201: degree assortativity of the order–part incidence graph
# ---------------------------------------------------------------------------


def degree_assortativity(sf_dir: str, npart: int = 16):
    """q201: the degree-assortativity coefficient of the bipartite
    order–part graph — Pearson correlation between an edge's two
    endpoint degrees (do big orders pull popular parts?): the graph-
    topology statistic behind hub/authority and recommendation-bias
    audits.

    Scale shape: an endpoint's degree is simply how many edge rows
    carry that key, and a hash exchange on the key CO-LOCATES all of
    them — so each degree is a bincount inside its own exchange
    bucket and no degree table, no aggregate and no join exist at
    all.  Two edge exchanges total (round-4: this replaced two
    Ray-native degree Aggregates + two hash_joins, 9.8 s → ~3 s at
    sf0.1); the correlation folds as six int64 moment partials
    (n, Σx, Σy, Σxy, Σx², Σy²) — the only float is the closing
    Pearson expression, evaluated in the same double shape both
    engines use."""

    edges = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"])

    def _codes(col) -> np.ndarray:
        enc = col.combine_chunks().dictionary_encode()
        return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    def bucket_do(g: pa.Table) -> pa.Table:
        # all edges of an orderkey are in this bucket: degree = count
        codes = _codes(g["l_orderkey"])
        do = np.bincount(codes)[codes]
        return pa.table({"l_partkey": g["l_partkey"],
                         "do": pa.array(do, type=INT64)})

    def bucket_moments(g: pa.Table) -> pa.Table:
        codes = _codes(g["l_partkey"])
        y = np.bincount(codes)[codes]          # dp, in-bucket
        x = g["do"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([len(x)], type=INT64),
            "sx": pa.array([int(x.sum())], type=INT64),
            "sy": pa.array([int(y.sum())], type=INT64),
            "sxy": pa.array([int((x * y).sum())], type=INT64),
            "sxx": pa.array([int((x * x).sum())], type=INT64),
            "syy": pa.array([int((y * y).sum())], type=INT64)})

    do = bucket_exchange(
        edges.map_batches(lambda b: with_part(b, "l_orderkey", npart),
                          batch_format="pyarrow"),
        lambda g: bucket_do(g.drop_columns(["part"])))
    g = _sums(bucket_exchange(
        do.map_batches(lambda b: with_part(b, "l_partkey", npart),
                       batch_format="pyarrow"),
        lambda g: bucket_moments(g.drop_columns(["part"]))),
        ["n", "sx", "sy", "sxy", "sxx", "syy"])

    import math
    n, sx, sy = int(g["n"]), int(g["sx"]), int(g["sy"])
    sxy, sxx, syy = (int(g["sxy"]), int(g["sxx"]),
                     int(g["syy"]))
    r = float(n * sxy - sx * sy) / math.sqrt(
        float(n * sxx - sx * sx) * float(n * syy - sy * sy))
    return pa.table({
        "n_edges": pa.array([n], type=INT64),
        "sum_xy": pa.array([sxy], type=INT64),
        "assortativity": pa.array([r], type=pa.float64())})


# ---------------------------------------------------------------------------
# Q203: sliding-window burst audit (rate-limit sizing)
# ---------------------------------------------------------------------------

_BURST_WIN_US = 60_000_000


def burst_audit(sf_dir: str, npart: int = 32):
    """q203: each user's PEAK events in any sliding 60-second window —
    the rate-limit sizing statistic (fixed-minute buckets undercount
    bursts straddling a boundary by up to 2×).  Output is the
    peak-burst histogram (peak → users at that peak).

    Scale shape: one user exchange (``_user_timeline``, buckets sorted
    by (user, ts)); the sliding count is TWO global searchsorteds on
    the group-offset-encoded time axis (grp·L + t keeps windows from
    leaking across users — q200's trick on a different axis),
    per-user peaks via maximum.reduceat, and the histogram folds as
    tiny (peak, n) partials."""

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        t = g["ts"].to_numpy(zero_copy_only=False)
        n = len(t)
        sizes = np.diff(np.append(starts, n))
        grp = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        base = t.min()
        span = int(t.max() - base) + _BURST_WIN_US + 1
        # windowed counts per chunk of groups: the composite encoding
        # separates users by >= the window, and chunks align to group
        # boundaries, so windows never cross chunks and grp*span stays
        # inside int64 at any users-per-bucket count
        cnt = np.empty(n, dtype=np.int64)
        for lo_r, hi_r, g0 in _grp_span_chunks(len(starts), span,
                                               starts, n):
            tp = (grp[lo_r:hi_r] - g0) * span + (t[lo_r:hi_r] - base)
            cnt[lo_r:hi_r] = (
                np.searchsorted(tp, tp + _BURST_WIN_US, side="left")
                - np.searchsorted(tp, tp, side="left"))
        peak = np.maximum.reduceat(cnt, starts)
        return pa.table({"peak_60s": pa.array(peak.astype(np.int64),
                                              type=INT64)})

    return sort_result(combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts"], bucket, npart=npart,
        order=("user_id", "ts")),
        "peak_60s", [("n_users", "count")]), ["peak_60s"])


# ---------------------------------------------------------------------------
# Q204: user-journey path mining (ordered first-k path strings)
# ---------------------------------------------------------------------------


def journey_paths(sf_dir: str, k: int = 5, topn: int = 20,
                  npart: int = 32):
    """q204: the top user-journey PATHS — each user's first five event
    types in time order joined as 'a>b>c>d>e', counted across users:
    the product-analytics path report (which onboarding sequences
    actually happen).  An ORDER-SENSITIVE per-key aggregate (positions
    matter), which plain groupbys cannot see.

    Scale shape: one user exchange (``_user_timeline``); inside a
    (user, ts, event_id)-sorted bucket the k path slots fill
    VECTORIZED — slot j is a strided gather at starts+j masked by
    size>j — and join via np.char.add; path counts fold through a
    ≤|types|^k groupby with pinned (count DESC, path) top-n."""

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, len(et)))
        path = np.full(len(starts), "", dtype=object)
        for j in range(k):
            has = sizes > j
            sep = np.where(path[has] == "", "", ">")
            path[has] = path[has] + sep + et[starts[has] + j]
        return pa.table({"path": pa.array(path.tolist(), type=pa.string())})

    top = collect(combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type"], bucket,
        npart=npart),
        "path", [("n_users", "count")])).sort_by(
            [("n_users", "descending"), ("path", "ascending")]).slice(0, topn)
    return from_arrow(pa.table({
        "path": top["path"], "n_users": pc.cast(top["n_users"], INT64)}))


# ---------------------------------------------------------------------------
# Q205: coordinated-behavior collision detector
# ---------------------------------------------------------------------------


def collision_detector(sf_dir: str, npart: int = 32):
    """q205: fraud-ring signal — DISTINCT user pairs that fired an
    event with the SAME whole-dollar value in the SAME minute
    (coordinated bots share payloads and clocks; legit users collide
    rarely).  A self-join on a DERIVED composite key, reported as a
    pairs-per-key histogram.

    Scale shape: per-batch distinct (cents, sec, user) combiner → one
    exchange on the composite key → per-bucket pair counting from
    group sizes (a key's users are complete per bucket; pairs =
    C(m,2) per key needs no enumeration — only the COUNT leaves) —
    the shuffle never carries pairs."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0)), INT64)
        dollars = pc.divide(cents, pa.scalar(100, type=INT64))
        minute = pc.divide(pc.cast(b["ts"], INT64),
                           pa.scalar(60_000_000, type=INT64))
        t = pa.table({"cents": dollars, "sec": minute,
                      "user_id": b["user_id"]})
        t = t.group_by(["cents", "sec", "user_id"]).aggregate([])
        key = pc.binary_join_element_wise(
            pc.cast(t["cents"], pa.string()),
            pc.cast(t["sec"], pa.string()), "|")
        return t.append_column("key", key)

    def bucket(g: pa.Table) -> pa.Table:
        c = g["cents"].to_numpy(zero_copy_only=False)
        s = g["sec"].to_numpy(zero_copy_only=False)
        u = g["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((u, s, c))
        c, s, u = c[order], s[order], u[order]
        n = len(c)
        new_key = np.concatenate(
            ([True], (c[1:] != c[:-1]) | (s[1:] != s[:-1])))
        # distinct users per key (cross-batch dup (c,s,u) rows)
        new_user = new_key | np.concatenate(([True], u[1:] != u[:-1]))
        starts = np.flatnonzero(new_key)
        m = np.add.reduceat(new_user.astype(np.int64), starts)
        pairs = m * (m - 1) // 2
        hit = pairs > 0
        return pa.table({"pairs_per_key": pa.array(pairs[hit], type=INT64)})

    agg = combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "events"),
                     columns=["user_id", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "key", npart)
                     .drop_columns(["key"]), batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "pairs_per_key", [("n_keys", "count")])
    # a collision-free minute set keeps no rows and no schema (Ray
    # drops an emptied batch's): the columns are named here
    return collect(agg, pa.schema([("pairs_per_key", INT64),
                                   ("n_keys", INT64)])).sort_by(
                                       "pairs_per_key")


# ---------------------------------------------------------------------------
# Q206: mutual-best match (reciprocal argmax join)
# ---------------------------------------------------------------------------


def mutual_best(sf_dir: str, npart: int = 16):
    """q206: stable-match seeds — (customer, part) pairs where the
    part is that customer's TOP part by spend AND the customer is that
    part's TOP customer: the reciprocal-argmax join two-sided
    marketplaces (and entity-resolution blockers) run to find
    unambiguous matches.

    Plan: one orderkey exchange builds the (cust, part, spend-units)
    fact; each DIRECTION is an argmax over a different key — two
    exchanges over the SAME materialized fact, per-bucket argmax via
    lexsort + first-row-per-group with pinned (spend DESC, key ASC)
    ties; the mutual set is the two argmax tables' ``lookup_join`` on
    BOTH keys.  Spend stays integer through every compare."""
    from ..stages.exchange import hash_join, lookup_join

    def orders_side(b: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": b["o_orderkey"],
                         "c": b["o_custkey"]})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def line_side(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "p": b["l_partkey"],
            "r": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey",
                                     "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def cp_partial(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_valid(j["c"]))
        return j.select(["c", "p", "r"]).group_by(["c", "p"]) \
            .aggregate([("r", "sum")]).rename_columns(["c", "p", "r"])

    # cp holds PARTIAL (c, p, r) sums — one partial per orderkey
    # bucket a pair appeared in.  The global (c,p) merge is NOT a
    # separate exchange: each argmax direction already co-locates all
    # partials of its key (bucket by c ⟹ every (c, p) partial for
    # that c is in the bucket), so the merge fuses into the argmax
    # bucket below.  This removed a full 600k-row Ray-native
    # Aggregate (8.2 s wall / 71 core-s at sf0.1 — the round-4
    # profiler's top q206 cost).
    cp = materialize(hash_join(lines, orders, "l_orderkey", npart=npart,
                               bucket_finish=cp_partial))

    def argmax_by(key: str, other: str):
        def bucket(g: pa.Table) -> pa.Table:
            # merge the co-located partials, then argmax with pinned
            # (r DESC, other ASC) ties — one Arrow group_by + lexsort
            g = g.group_by([key, other]).aggregate([("r", "sum")])
            k = g[key].to_numpy(zero_copy_only=False)
            o = g[other].to_numpy(zero_copy_only=False)
            r = g["r_sum"].to_numpy(zero_copy_only=False)
            order = np.lexsort((o, -r, k))
            k, o, r = k[order], o[order], r[order]
            first = np.concatenate(([True], k[1:] != k[:-1]))
            return pa.table({key: pa.array(k[first], type=INT64),
                             other: pa.array(o[first], type=INT64),
                             "r": pa.array(r[first], type=INT64)})

        return bucket_exchange(
            cp.map_batches(lambda b: with_part(b, key, npart),
                           batch_format="pyarrow"),
            lambda g: bucket(g.drop_columns(["part"])))

    best_c = argmax_by("c", "p")   # key-sized, materialized
    best_p = argmax_by("p", "c")

    # mutual set = inner join of two KEY-SIZED argmax tables on both
    # keys.  Both are tiny relative to the fact (one row per customer
    # / per part): a third full exchange + a final distributed sort
    # cost ~4.4 s of fixed all-to-all overhead at sf0.1 for 35k rows
    # (round-4 profiler), so best_p's pairs broadcast when they fit.
    mutual = lookup_join(best_c, best_p.select_columns(["c", "p"]),
                         ["c", "p"], npart=npart)

    # result is mutual-match-sized (≤ min(|c|,|p|)) — sort it on the
    # driver instead of paying one more all-to-all for presentation
    out = collect(mutual)
    out = pa.table({
        "c_custkey": out["c"], "p_partkey": out["p"],
        "revenue": pc.divide(pc.cast(out["r"], pa.float64()), 10_000.0),
    }).sort_by("c_custkey")
    return from_arrow(out)


# ---------------------------------------------------------------------------
# Q207: k-anonymity risk audit (equivalence-class size census)
# ---------------------------------------------------------------------------


def k_anonymity(sf_dir: str):
    """q207: the k-anonymity census of customer quasi-identifiers
    (nation, market segment, $1000 account-balance bin) — the
    re-identification risk report a privacy review runs before any
    data release: how many equivalence classes of each size exist, and
    how many customers sit in classes smaller than k=5.

    Scale shape: per-batch QI-triple count partials → one groupby on
    the (small) QI domain → count-of-counts histogram, all exact
    int64; the bin division TRUNCATES toward zero (DuckDB's integer
    `//`) — numpy floors, so negatives are binned explicitly."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["c_acctbal"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        bal_bin = np.where(cents >= 0, cents // 100_000,
                           -((-cents) // 100_000))
        return pa.table({
            "nat": pc.cast(b["c_nationkey"], INT64),
            "seg": b["c_mktsegment"],
            "bal_bin": pa.array(bal_bin, type=INT64)})

    classes = combine_buckets(
        scan_parquet(_pq(sf_dir, "customer"),
                     columns=["c_nationkey", "c_mktsegment",
                                 "c_acctbal"])
        .map_batches(partial, batch_format="pyarrow"),
        ["nat", "seg", "bal_bin"], [("class_size", "count")])
    hist = combine_buckets(
        classes.map_batches(lambda b: pa.table({
            "class_size": b["class_size"],
            "n_customers": b["class_size"]}), batch_format="pyarrow"),
        "class_size", [("n_classes", "count"), ("n_customers", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        k = b["class_size"].to_numpy(zero_copy_only=False)
        return b.append_column("risky", pa.array(k < 5))

    return sort_result(hist.map_batches(finish, batch_format="pyarrow"),
                       ["class_size"])


# ---------------------------------------------------------------------------
# Q208: quantized dot-product retrieval (oracle-exact top-k)
# ---------------------------------------------------------------------------


def quantized_retrieval(sf_dir: str, query_vec_id: int = 0,
                        k: int = 10):
    """q208: int8-quantized dot-product retrieval — top-k vectors by
    ⟨q, x⟩ after floor(x·127) quantization: the integer-scoring leg of
    the ANN family (q30/q31/q60 are float and pytest-gated; this one
    is EXACT, so DuckDB reproduces the ranking bit-for-bit and the
    whole retrieval path — broadcast query, per-block scoring,
    bounded top-k merge — gets an oracle).

    Quantization pins the floats: widen float32→float64, ×127, floor —
    identical in numpy and SQL — then all scores are int64 dots.
    Scale shape: the query rides the task closure (one vector);
    per-block top-k partials (k rows per block, pinned
    (dot DESC, vec_id) order) meet in one final tiny sort."""
    import pyarrow.parquet as _pq2

    qt = _pq2.read_table(_pq(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "=", query_vec_id)])
    qv = np.floor(np.asarray(qt["embedding"][0].as_py(),
                             dtype=np.float64) * 127.0).astype(np.int64)

    def score(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mat = np.floor(flat * 127.0).astype(np.int64) \
            .reshape(b.num_rows, -1)
        dot = mat @ qv
        order = np.lexsort((b["vec_id"].to_numpy(zero_copy_only=False),
                            -dot))[:k]
        return pa.table({
            "vec_id": b["vec_id"].take(pa.array(order)),
            "dot": pa.array(dot[order], type=INT64)})

    top = collect(scan_parquet(_pq(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
                  .map_batches(score, batch_format="pyarrow")).sort_by(
        [("dot", "descending"), ("vec_id", "ascending")]).slice(0, k)
    return from_arrow(top.select(["vec_id", "dot"]))


# ---------------------------------------------------------------------------
# Q209: cheapest-supplier directory (argmin unit price per part)
# ---------------------------------------------------------------------------


def cheapest_supplier(sf_dir: str, npart: int = 32):
    """q209: TPC-H Q2's question without a partsupp table — for every
    part, the supplier who actually shipped it at the lowest observed
    unit price (extendedprice / quantity), with deterministic
    (price, suppkey, orderkey) tie-breaks: the argmin-JOIN that builds
    procurement directories.

    The ratio is the one value both engines must agree on: each
    computes unit_price = cents·100 / qc ONCE as float64 from the
    same exact ints (identical rounding), and the argmin orders by
    (that double, suppkey, orderkey) — so ranking matches bit-for-bit
    even where two ratios collide.  One partkey exchange; per bucket a
    single lexsort + first-row-per-part."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        qc = pc.cast(pc.round(pc.multiply(b["l_quantity"], 100.0)),
                     INT64).to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "l_suppkey": b["l_suppkey"],
            "l_orderkey": b["l_orderkey"],
            "unit_price": pa.array(cents * 100.0 / qc,
                                   type=pa.float64())})

    def bucket(g: pa.Table) -> pa.Table:
        k = g["l_partkey"].to_numpy(zero_copy_only=False)
        s = g["l_suppkey"].to_numpy(zero_copy_only=False)
        o = g["l_orderkey"].to_numpy(zero_copy_only=False)
        up = g["unit_price"].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, s, up, k))
        k, s, up = k[order], s[order], up[order]
        first = np.concatenate(([True], k[1:] != k[:-1]))
        return pa.table({
            "p_partkey": pa.array(k[first], type=INT64),
            "s_suppkey": pa.array(s[first], type=INT64),
            "unit_price": pa.array(up[first], type=pa.float64())})

    return sort_result(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_suppkey",
                                 "l_orderkey", "l_extendedprice",
                                 "l_quantity"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "l_partkey", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))), "p_partkey")


# ---------------------------------------------------------------------------
# Q210: order-cadence regularity (CV of inter-order gaps)
# ---------------------------------------------------------------------------


def order_cadence(sf_dir: str, min_orders: int = 5, npart: int = 32):
    """q210: subscription-behavior detection — per customer (≥5
    orders), the coefficient of variation of inter-order day gaps:
    CV → 0 means clockwork reordering (subscription candidates),
    large CV means bursty one-off buying.

    Scale shape: one custkey exchange; gaps come from the sorted-diff
    (q169's machinery) but the REPORT is a three-moment fold — per
    customer (n, Σg, Σg²) in exact int64 day units, with
    CV = √(n·Σg² − (Σg)²) / Σg as the single closing double expression
    both engines evaluate from the same ints."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "c": b["o_custkey"],
            "d": pc.cast(pc.divide(pc.cast(b["o_orderdate"], INT64),
                                   pa.scalar(86_400_000_000,
                                             type=INT64)), INT64),
            "k": b["o_orderkey"]})

    def bucket(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        d = g["d"].to_numpy(zero_copy_only=False)
        k = g["k"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, d, c))
        c, d = c[order], d[order]
        same = np.concatenate((c[1:] == c[:-1], [False]))
        gap = np.concatenate((d[1:] - d[:-1], [0]))
        t = pa.table({
            "c": pa.array(c, type=INT64),
            "n": pa.array(same.astype(np.int64)),
            "sg": pa.array(np.where(same, gap, 0), type=INT64),
            "sgg": pa.array(np.where(same, gap * gap, 0), type=INT64)}) \
            .group_by(["c"]).aggregate(
                [("n", "sum"), ("sg", "sum"), ("sgg", "sum")])
        return t.rename_columns(["c", "n", "sg", "sgg"])

    agg = bucket_exchange(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_orderdate",
                                 "o_orderkey"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "c", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"])))

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        sg = b["sg"].to_numpy(zero_copy_only=False)
        sgg = b["sgg"].to_numpy(zero_copy_only=False)
        keep = (n >= min_orders - 1) & (sg > 0)
        n, sg, sgg = n[keep], sg[keep], sgg[keep]
        cv = np.sqrt((n * sgg - sg * sg).astype(np.float64)
                     / n.astype(np.float64)) / sg.astype(np.float64) * n
        return pa.table({
            "c_custkey": b["c"].filter(pa.array(keep)),
            "n_gaps": pa.array(n, type=INT64),
            "sum_gap_days": pa.array(sg, type=INT64),
            "cv": pa.array(cv, type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       "c_custkey")


# ---------------------------------------------------------------------------
# Q211: ABC inventory classification (cumulative-share classes)
# ---------------------------------------------------------------------------


def abc_classification(sf_dir: str, npart: int = 32):
    """q211: ABC analysis — parts classified A/B/C by their position
    in the DESCENDING cumulative revenue curve (A: first 80% of
    dollars, B: to 95%, C: tail): the supply-chain prioritization
    report.  Needs a descending global prefix sum over the part-
    revenue aggregate — q199's carry recipe on q191's encoded-key
    range partitions.

    Class boundaries are exact integer comparisons (cum·5 ≤ 4·T,
    cum·20 ≤ 19·T) — no float share is ever compared; ties in revenue
    order pinned by partkey.

    Scale shape: ``exchange.range_scan`` with ``op="sum"`` keyed on
    inverted revenue bits (descending) with partkey ties: each
    bucket's cumsum starts at its range's carry-in, and the grand
    total comes with it."""
    from ..stages.exchange import i64_key, ordered_bits_i64, range_scan

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "p": b["l_partkey"],
            "r": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    pr = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_extendedprice",
                                 "l_discount"])
        .map_batches(partial, batch_format="pyarrow"),
        "p", [("r", "sum")])

    def revenue_desc(b: pa.Table) -> np.ndarray:
        return ~ordered_bits_i64(b["r"].to_numpy(zero_copy_only=False))

    def bucket(g: pa.Table, carry: int, total: int) -> pa.Table:
        r = g["r"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(r) + carry
        # threshold form of cum*5 <= 4*total / cum*20 <= 19*total —
        # identical for integers (a*k <= b  <=>  a <= b//k) but the
        # products are Python-int only, so nothing wraps when total
        # revenue cents pass 2^63/20 (~sf100; round-2 ADVICE)
        thr_a = min((4 * total) // 5, np.iinfo(np.int64).max)
        thr_b = min((19 * total) // 20, np.iinfo(np.int64).max)
        cls = np.where(cum <= thr_a, "A",
                       np.where(cum <= thr_b, "B", "C"))
        # the grand total rides every row, so ``finish`` (a per-batch
        # map over the class rows) reads it without a driver pass
        return pa.table({"cls": pa.array(cls.tolist(), type=pa.string()),
                         "r": pa.array(r, type=INT64),
                         "total": pa.array(np.full(len(r), total),
                                           type=INT64)})

    agg = combine_buckets(
        range_scan(pr, revenue_desc, i64_key("p"), "r", "sum", bucket,
                   npart=npart),
        "cls", [("n_parts", "count"), ("r", "sum"), ("total", "max")])

    def finish(b: pa.Table) -> pa.Table:
        r = b["r"].to_numpy(zero_copy_only=False)
        total = b["total"].to_numpy(zero_copy_only=False)
        return pa.table({
            "cls": b["cls"],
            "n_parts": b["n_parts"],
            "revenue": pa.array(r.astype(np.float64) / 10_000.0,
                                type=pa.float64()),
            "share": pa.array(r.astype(np.float64)
                              / total.astype(np.float64),
                              type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["cls"])


# ---------------------------------------------------------------------------
# Q212: bounce rate by session entry type
# ---------------------------------------------------------------------------


def bounce_rate(sf_dir: str, gap_minutes: int = 30, npart: int = 32):
    """q212: bounce rate by session ENTRY event type — sessions cut at
    30-minute inactivity gaps (q08's rule), a session "bounces" when
    it contains exactly one event, and the report asks which entry
    types fail to engage: the landing-page quality metric.

    Scale shape: one user exchange (``_user_timeline``); session
    starts are the user starts and the gap flags (shifted diff), each
    session's length comes from the DISTANCE TO THE NEXT FLAG (diff of
    flag positions — no second pass), its entry type is the row AT the
    flag; (entry_type, bounces, sessions)
    partials close through a ≤|types| groupby with the rate as one
    final double."""
    gap_us = np.int64(gap_minutes) * 60_000_000

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        t = g["ts"].to_numpy(zero_copy_only=False)
        n = len(t)
        new_sess = np.zeros(n, dtype=bool)
        new_sess[starts] = True
        new_sess[1:] |= np.diff(t) > gap_us
        fpos = np.flatnonzero(new_sess)
        slen = np.diff(np.append(fpos, n))
        entry = g["event_type"].take(fpos)
        return pa.table({
            "entry_type": entry,
            "bounces": pa.array((slen == 1).astype(np.int64)),
            "events": pa.array(slen.astype(np.int64))})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type"], bucket,
        npart=npart),
        "entry_type", [("sessions", "count"), ("bounces", "sum"),
                       ("events", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        s = b["sessions"].to_numpy(zero_copy_only=False)
        bo = b["bounces"].to_numpy(zero_copy_only=False)
        return pa.table({
            "entry_type": b["entry_type"],
            "sessions": pc.cast(b["sessions"], INT64),
            "bounces": pc.cast(b["bounces"], INT64),
            "events": pc.cast(b["events"], INT64),
            "bounce_rate": pa.array(
                bo.astype(np.float64) / s.astype(np.float64),
                type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["entry_type"])


# ---------------------------------------------------------------------------
# Q213: line-number contiguity audit (sequence integrity)
# ---------------------------------------------------------------------------


def linenumber_audit(sf_dir: str, npart: int = 32):
    """q213: sequence-integrity audit — every order's line numbers
    must be exactly 1..n (contiguous, no duplicates): the
    foreign-sequence invariant ETL re-numbering bugs break first.
    Orders are classified ok / gapped / duplicated and counted.

    Scale shape: per-batch (order, min, max, n, distinct-partial)
    can't decide duplicates across batches, so one orderkey exchange
    co-locates each order's lines; per bucket a single lexsort +
    reduceat yields (n, n_distinct, min, max) per order and the
    3-way classification is vectorized; only 3 count rows leave each
    bucket."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "o": b["l_orderkey"],
            "ln": pc.cast(b["l_linenumber"], INT64)})

    def bucket(g: pa.Table) -> pa.Table:
        o = g["o"].to_numpy(zero_copy_only=False)
        ln = g["ln"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ln, o))
        o, ln = o[order], ln[order]
        n = len(o)
        starts = np.flatnonzero(np.concatenate(([True], o[1:] != o[:-1])))
        sizes = np.diff(np.append(starts, n))
        uniq = np.concatenate(
            ([True], (o[1:] != o[:-1]) | (ln[1:] != ln[:-1])))
        n_dist = np.add.reduceat(uniq.astype(np.int64), starts)
        mn = ln[starts]
        mx = np.maximum.reduceat(ln, starts)
        dup = n_dist < sizes
        ok = (~dup) & (mn == 1) & (mx == sizes)
        status = np.where(dup, "duplicated",
                          np.where(ok, "ok", "gapped"))
        return pa.table({"status": pa.array(status.tolist(),
                                            type=pa.string())})

    return sort_result(combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_orderkey", "l_linenumber"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "o", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "status", [("n_orders", "count")]), ["status"])


# ---------------------------------------------------------------------------
# Q214: multi-period presence bitmap census
# ---------------------------------------------------------------------------

_PRESENCE_BASE_YEAR = 1995


def presence_census(sf_dir: str, npart: int = 32):
    """q214: the year-presence BITMAP census — each customer's order
    years packed as bits (1995 → bit 0), counted per pattern: the
    retention topology report (who buys every year vs gap-years vs
    one-shot) that powers repurchase and win-back analyses.

    Scale shape: per-batch distinct (cust, year) combiner → one
    custkey exchange → per bucket dedup + Σ(1<<(y−1995)) via
    add.reduceat → pattern histogram partials.  Bit arithmetic is
    exact in both engines."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "c": b["o_custkey"],
            "y": pc.cast(pc.year(b["o_orderdate"]), INT64)}) \
            .group_by(["c", "y"]).aggregate([])

    def bucket(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        order = np.lexsort((y, c))
        c, y = c[order], y[order]
        uniq = np.concatenate(
            ([True], (c[1:] != c[:-1]) | (y[1:] != y[:-1])))
        c, y = c[uniq], y[uniq]
        starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
        bits = np.int64(1) << (y - _PRESENCE_BASE_YEAR)
        mask = np.add.reduceat(bits, starts)
        return pa.table({"presence_mask": pa.array(mask, type=INT64)})

    def finish(b: pa.Table) -> pa.Table:
        m = b["presence_mask"].to_numpy(zero_copy_only=False)
        n_years = np.zeros(len(m), dtype=np.int64)
        mm = m.copy()
        while mm.any():
            n_years += mm & 1
            mm >>= 1
        return pa.table({
            "presence_mask": b["presence_mask"],
            "n_years": pa.array(n_years, type=INT64),
            "n_customers": b["n_customers"]})

    agg = combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_orderdate"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "c", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "presence_mask", [("n_customers", "count")])
    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["presence_mask"])


# ---------------------------------------------------------------------------
# Q216: churn report via the stats-driven auto_join planner rule
# ---------------------------------------------------------------------------


def churn_report(sf_dir: str, horizon_days: int = 365,
                 npart: int = 16):
    """q216: per-nation churn — customers whose LAST order is more
    than a year older than the dataset's last order day — routed
    through ``exchange.auto_join``, the planner rule that picks
    broadcast / clustered / hash joins from parquet FOOTER stats
    instead of a hard-coded strategy (the engine decision q168 only
    reports).  At sf0.01 the customer dim broadcasts; once its footer
    bytes outgrow one block (``exchange.fits_one_block``) the SAME
    call range-routes or hash-exchanges, rows identical.

    Exactness: day arithmetic in integer epoch days; the rate is one
    closing double."""
    from ..stages.exchange import auto_join

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b["o_custkey"],
            "last_day": pc.cast(pc.divide(
                pc.cast(b["o_orderdate"], INT64),
                pa.scalar(86_400_000_000, type=INT64)), INT64)})

    last = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_orderdate"])
        .map_batches(partial, batch_format="pyarrow"),
        "c_custkey", [("last_day", "max")])
    global_last = int(pc.max(collect(last)["last_day"]).as_py())
    cut = global_last - horizon_days

    def agg_nation(j: pa.Table) -> pa.Table:
        churned = pc.cast(pc.less(j["last_day"],
                                  pa.scalar(cut, type=INT64)), INT64)
        return pa.table({
            "c_nationkey": pc.cast(j["c_nationkey"], INT64),
            "n_customers": pa.nulls(j.num_rows, INT64).fill_null(1),
            "n_churned": churned}) \
            .group_by(["c_nationkey"]).aggregate(
                [("n_customers", "sum"), ("n_churned", "sum")]) \
            .rename_columns(["c_nationkey", "n_customers", "n_churned"])

    joined, strategy = auto_join(
        last, _pq(sf_dir, "customer"), fact_key="c_custkey",
        dim_key="c_custkey", dim_columns=["c_nationkey"], npart=npart,
        bucket_finish=agg_nation)

    agg = combine_buckets(joined, "c_nationkey",
                          [("n_customers", "sum"), ("n_churned", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n_customers"].to_numpy(zero_copy_only=False)
        ch = b["n_churned"].to_numpy(zero_copy_only=False)
        return pa.table({
            "c_nationkey": pc.cast(b["c_nationkey"], INT64),
            "n_customers": pc.cast(b["n_customers"], INT64),
            "n_churned": pc.cast(b["n_churned"], INT64),
            "churn_rate": pa.array(
                ch.astype(np.float64) / n.astype(np.float64),
                type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["c_nationkey"])


# ---------------------------------------------------------------------------
# Q217: exact unbounded-domain percentiles via radix-select
# ---------------------------------------------------------------------------


def radix_percentiles(sf_dir: str):
    """q217: exact p50/p90/p99 of order value — over an UNBOUNDED
    integer domain, so the bounded-histogram percentile fabric
    (q15/q145) doesn't apply: routes through
    ``exchange.distributed_select``, the 3-pass radix-select that pins
    each rank to a 2^16 bucket then resolves it exactly — no global
    sort, no full-domain histogram, bounded driver state.

    Ranks are pinned as ceil(q·n) lower order statistics (identical
    integer arithmetic in the SQL twin)."""
    from ..stages.exchange import distributed_select

    def make_ds():
        return scan_parquet(_pq(sf_dir, "orders"),
                            columns=["o_totalprice"]) \
            .map_batches(lambda b: pa.table({
                "cents": pc.cast(pc.round(pc.multiply(
                    b["o_totalprice"], 100.0)), INT64)}),
                batch_format="pyarrow")

    import pyarrow.parquet as _pq2
    n = _pq2.read_metadata(_pq(sf_dir, "orders")).num_rows
    ranks = {"p50": (n + 1) // 2,
             "p90": (9 * n + 9) // 10,
             "p99": (99 * n + 99) // 100}
    got = distributed_select(make_ds, "cents",
                             sorted(set(ranks.values())), n_total=n)
    return pa.table({
        "stat": pa.array(sorted(ranks), type=pa.string()),
        "cents": pa.array([got[ranks[s]] for s in sorted(ranks)],
                          type=INT64)})


# ---------------------------------------------------------------------------
# Q218: weekday seasonality index
# ---------------------------------------------------------------------------


def weekday_seasonality(sf_dir: str):
    """q218: the day-of-week seasonality index of order revenue —
    each weekday's average daily revenue as a ratio to the overall
    daily average (index 1.0 = flat): the demand-planning input behind
    staffing and inventory curves.

    Exactness: revenue folds as (dow, day)-cents partials (exact
    int64); per-dow Σcents and DISTINCT-day counts close in one tiny
    groupby; the index is one pinned closing double expression —
    (cents_d / days_d) / (cents_total / days_total) — evaluated from
    the same exact integers in both engines.  Weekday derives from
    epoch days ((d+3) % 7, 0=Monday pinned, no locale)."""

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64).to_numpy(
            zero_copy_only=False) // 86_400_000_000
        cents = pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0)),
                        INT64)
        return pa.table({
            "dow": pa.array((d + 3) % 7, type=INT64),  # 0 = Monday
            "day": pa.array(d, type=INT64),
            "cents": cents})

    per_day = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["dow", "day"], [("cents", "sum")])

    t = collect(per_day)
    dow = t["dow"].to_numpy(zero_copy_only=False)
    cents = t["cents"].to_numpy(zero_copy_only=False)
    n_days = np.bincount(dow, minlength=7).astype(np.int64)
    s = np.zeros(7, dtype=np.int64)
    np.add.at(s, dow, cents)
    total_c, total_d = int(s.sum()), int(n_days.sum())
    keep = n_days > 0
    idx = np.flatnonzero(keep)
    avg = s[keep].astype(np.float64) / n_days[keep].astype(np.float64)
    overall = float(total_c) / float(total_d)
    return pa.table({
        "dow": pa.array(idx.astype(np.int64), type=INT64),
        "n_days": pa.array(n_days[keep], type=INT64),
        "sum_cents": pa.array(s[keep], type=INT64),
        "seasonality": pa.array(avg / overall, type=pa.float64())})


# ---------------------------------------------------------------------------
# Q219: priority-mix shift between years (integer ppm shares)
# ---------------------------------------------------------------------------


def priority_mix_shift(sf_dir: str, year_a: int = 1996,
                       year_b: int = 1997):
    """q219: order-priority MIX SHIFT between two years — each
    priority's share of orders in parts-per-million, both years, and
    the delta: the composition-drift report (did the business get more
    urgent?).  Shares are FLOOR-ppm integers (n·10⁶ // total), so the
    whole result — including the deltas — is integer-exact in both
    engines; no float share is ever produced.

    Scale shape: one conditional-count partial scan → a ≤|priorities|
    groupby → driver-free closing arithmetic in the finish batch (the
    totals ride the tiny table via window-style sums)."""
    lo_a = int(np.datetime64(f"{year_a}-01-01", "us").astype(np.int64))
    hi_a = int(np.datetime64(f"{year_a + 1}-01-01", "us")
               .astype(np.int64))
    hi_b = int(np.datetime64(f"{year_b + 1}-01-01", "us")
               .astype(np.int64))

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64)
        in_a = pc.and_(pc.greater_equal(d, pa.scalar(lo_a, type=INT64)),
                       pc.less(d, pa.scalar(hi_a, type=INT64)))
        in_b = pc.and_(pc.greater_equal(d, pa.scalar(hi_a, type=INT64)),
                       pc.less(d, pa.scalar(hi_b, type=INT64)))
        return pa.table({
            "priority": b["o_orderpriority"],
            "n_a": pc.cast(in_a, INT64),
            "n_b": pc.cast(in_b, INT64)})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_orderpriority", "o_orderdate"])
        .map_batches(partial, batch_format="pyarrow"),
        "priority", [("n_a", "sum"), ("n_b", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        na = t["n_a"].to_numpy(zero_copy_only=False)
        nb = t["n_b"].to_numpy(zero_copy_only=False)
        sa = pa.array(na * 1_000_000 // max(int(na.sum()), 1),
                      type=INT64)
        sb = pa.array(nb * 1_000_000 // max(int(nb.sum()), 1),
                      type=INT64)
        return pa.table({
            "priority": t["priority"],
            "n_a": pa.array(na, type=INT64),
            "n_b": pa.array(nb, type=INT64),
            "share_a_ppm": sa,
            "share_b_ppm": sb,
            "delta_ppm": pc.subtract(sb, sa)})

    # the aggregated table is <=|priorities| rows — close on the driver
    return finish(collect(agg)) \
        .sort_by("priority")


# ---------------------------------------------------------------------------
# Q220: basket-width census (distinct parts per order)
# ---------------------------------------------------------------------------


def basket_width(sf_dir: str, npart: int = 32):
    """q220: the basket-width census — how many DISTINCT parts each
    order contains, as a width → order-count histogram plus the
    multi-line share: the assortment-breadth statistic behind bundle
    pricing and picking-route design.

    Scale shape: per-batch distinct (order, part) combiner → one
    orderkey exchange (cross-batch duplicates must meet) → widths via
    run-boundary reduceat → tiny histogram partials.  The share is
    one closing double."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({"o": b["l_orderkey"],
                         "p": b["l_partkey"]}) \
            .group_by(["o", "p"]).aggregate([])

    def bucket(g: pa.Table) -> pa.Table:
        o = g["o"].to_numpy(zero_copy_only=False)
        p = g["p"].to_numpy(zero_copy_only=False)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        uniq = np.concatenate(
            ([True], (o[1:] != o[:-1]) | (p[1:] != p[:-1])))
        o = o[uniq]
        starts = np.flatnonzero(np.concatenate(([True], o[1:] != o[:-1])))
        width = np.diff(np.append(starts, len(o)))
        return pa.table({"width": pa.array(width.astype(np.int64),
                                           type=INT64)})

    agg = combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_orderkey", "l_partkey"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "o", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "width", [("n_orders", "count")])

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_orders"].to_numpy(zero_copy_only=False)
        total = int(n.sum())
        return pa.table({
            "width": pc.cast(t["width"], INT64),
            "n_orders": pa.array(n, type=INT64),
            "share": pa.array(n.astype(np.float64) / float(total),
                              type=pa.float64())})

    return finish(collect(agg)) \
        .sort_by("width")


# ---------------------------------------------------------------------------
# Q221: supplier load-balance report (per-nation dispersion)
# ---------------------------------------------------------------------------


def supplier_balance(sf_dir: str):
    """q221: supplier load balance per nation — the coefficient of
    variation of shipped-lineitem counts across each nation's
    suppliers (CV→0 = evenly spread procurement, high CV = key-man
    risk): the sourcing-concentration audit.

    Scale shape: per-batch suppkey count partials → one suppkey
    groupby (catalog-sized) → nation via broadcast dense array →
    per-nation three-moment fold (n, Σc, Σc²) in exact int64; CV is
    the single closing double expression."""
    import pyarrow.parquet as _pq2

    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sup_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    sup_nat[sk] = sn

    per_sup = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"), columns=["l_suppkey"])
        .map_batches(lambda b: pa.table({"s": b["l_suppkey"]}),
                     batch_format="pyarrow"),
        "s", [("c", "count")])

    def moments(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        c = b["c"].to_numpy(zero_copy_only=False)
        nat = np.where(s < len(sup_nat),
                       sup_nat[np.minimum(s, len(sup_nat) - 1)], -1)
        return pa.table({
            "nat": pa.array(nat, type=INT64),
            "sc": pa.array(c, type=INT64),
            "scc": pa.array(c * c, type=INT64)})

    agg = combine_buckets(per_sup.map_batches(moments, batch_format="pyarrow"),
                          "nat", [("n", "count"), ("sc", "sum"),
                                  ("scc", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        sc = b["sc"].to_numpy(zero_copy_only=False)
        scc = b["scc"].to_numpy(zero_copy_only=False)
        cv = np.sqrt((n * scc - sc * sc).astype(np.float64)
                     / n.astype(np.float64)) / sc.astype(np.float64) * n
        return pa.table({
            "n_nationkey": pc.cast(b["nat"], INT64),
            "n_suppliers": pc.cast(b["n"], INT64),
            "n_lineitems": pc.cast(b["sc"], INT64),
            "load_cv": pa.array(cv, type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["n_nationkey"])


# ---------------------------------------------------------------------------
# Q222: CR3 concentration ratio per brand
# ---------------------------------------------------------------------------


def brand_cr3(sf_dir: str, k: int = 3, npart: int = 16):
    """q222: the CR-3 concentration ratio per brand — the share of a
    brand's revenue carried by its top-3 parts: the within-group
    concentration statistic (antitrust's CR-k applied to catalog
    health).

    Scale shape: brand rides the clustered part join; (brand, part)
    revenue partials → one small brand-key exchange where each
    bucket's lexsort yields both the per-brand total and the top-k sum
    in one pass (reduceat over run boundaries); the ratio is one
    closing double."""
    from ..stages.exchange import clustered_join

    def line_side(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    def brand_partial(j: pa.Table) -> pa.Table:
        return j.select(["p_brand", "l_partkey", "rev"]) \
            .group_by(["p_brand", "l_partkey"]) \
            .aggregate([("rev", "sum")]) \
            .rename_columns(["p_brand", "l_partkey", "rev"])

    bp = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_extendedprice",
                                 "l_discount"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_brand"], npart=npart,
        bucket_finish=brand_partial)
    bp = combine_buckets(bp, ["p_brand", "l_partkey"], [("rev", "sum")])

    def bucket(g: pa.Table) -> pa.Table:
        br = np.asarray(g["p_brand"])
        pk = g["l_partkey"].to_numpy(zero_copy_only=False)
        r = g["rev"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, -r, br))
        br, r = br[order], r[order]
        n = len(br)
        starts, pos = segment_bounds(br)
        sizes = np.diff(np.append(starts, n))
        total = np.zeros(len(starts), dtype=np.int64)
        np.add.at(total, np.repeat(np.arange(len(starts)), sizes), r)
        topk = np.zeros(len(starts), dtype=np.int64)
        m = pos < k
        np.add.at(topk, np.repeat(np.arange(len(starts)), sizes)[m], r[m])
        return pa.table({
            "p_brand": pa.array(br[starts].tolist(), type=pa.string()),
            "n_parts": pa.array(sizes.astype(np.int64), type=INT64),
            "top3_rev": pa.array(topk, type=INT64),
            "total_rev": pa.array(total, type=INT64)})

    agg = bucket_exchange(
        bp.map_batches(lambda b: with_part(b, "p_brand", npart),
                       batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"])))

    def finish(b: pa.Table) -> pa.Table:
        t3 = b["top3_rev"].to_numpy(zero_copy_only=False)
        tot = b["total_rev"].to_numpy(zero_copy_only=False)
        return pa.table({
            "p_brand": b["p_brand"],
            "n_parts": pc.cast(b["n_parts"], INT64),
            "cr3": pa.array(t3.astype(np.float64)
                            / tot.astype(np.float64),
                            type=pa.float64())})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       "p_brand")


# ---------------------------------------------------------------------------
# Q223: shipment front-loading (first-ship revenue share per order)
# ---------------------------------------------------------------------------


def first_ship_share(sf_dir: str, npart: int = 32):
    """q223: how front-loaded are shipments — per multi-line order,
    the share of revenue leaving on its EARLIEST ship date, reported
    as a decile-band histogram: the fulfillment-consolidation metric
    (share→1 means single-shipment orders; low share means dribbled
    fulfillment).

    Scale shape: one orderkey exchange; per bucket a single lexsort +
    minimum.reduceat pins each order's first date, a masked add.at
    accumulates first-date vs total revenue, and the band is the
    FLOOR-ppm decile (integer // arithmetic, positive so engines
    agree)."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "o": b["l_orderkey"],
            "d": pc.cast(b["l_shipdate"], INT64),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    def bucket(g: pa.Table) -> pa.Table:
        o = g["o"].to_numpy(zero_copy_only=False)
        d = g["d"].to_numpy(zero_copy_only=False)
        r = g["rev"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, o))
        o, d, r = o[order], d[order], r[order]
        n = len(o)
        starts = np.flatnonzero(np.concatenate(([True], o[1:] != o[:-1])))
        sizes = np.diff(np.append(starts, n))
        gi = np.repeat(np.arange(len(starts)), sizes)
        first_d = np.repeat(d[starts], sizes)    # sorted → min is first
        total = np.zeros(len(starts), dtype=np.int64)
        np.add.at(total, gi, r)
        first = np.zeros(len(starts), dtype=np.int64)
        m = d == first_d
        np.add.at(first, gi[m], r[m])
        multi = sizes > 1
        band = (first[multi] * 10) // np.maximum(total[multi], 1)
        return pa.table({"band": pa.array(np.minimum(band, 9), type=INT64)})

    return sort_result(combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_orderkey", "l_shipdate",
                                 "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "o", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "band", [("n_orders", "count")]), ["band"])


# ---------------------------------------------------------------------------
# Q224: same-type run-length census (behavioral momentum)
# ---------------------------------------------------------------------------


def type_run_lengths(sf_dir: str, npart: int = 32):
    """q224: the run-length census of CONSECUTIVE same-type events
    within a user's stream — (type, run length) → run count: the
    behavioral-momentum statistic (rage-click runs, doomscroll view
    chains) that single-event counts can't see.

    Scale shape: one user exchange (``_user_timeline``); runs are
    change-flags on the (user, ts, event_id)-sorted stream, lengths
    are flag-position diffs (q212's session machinery with TYPE
    changes as the cut), and the (type, len) histogram folds as tiny
    partials."""

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        n = len(et)
        cut = np.zeros(n, dtype=bool)
        cut[starts] = True
        cut[1:] |= et[1:] != et[:-1]
        fpos = np.flatnonzero(cut)
        rl = np.diff(np.append(fpos, n))
        return pa.table({
            "event_type": pa.array(et[fpos].tolist(), type=pa.string()),
            "run_len": pa.array(rl.astype(np.int64), type=INT64)})

    return sort_result(combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type"], bucket,
        npart=npart),
        ["event_type", "run_len"], [("n_runs", "count")]),
        ["event_type", "run_len"])


# ---------------------------------------------------------------------------
# Q225: exact two-sample Kolmogorov–Smirnov distance
# ---------------------------------------------------------------------------


def _cents_histograms(sf_dir: str, type_a: str, type_b: str):
    """(c1, c2): per distinct value-in-cents (ascending) the event
    counts of ``type_a`` and of ``type_b``."""

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"]
        b = b.filter(pc.or_(pc.equal(et, type_a), pc.equal(et, type_b)))
        is_a = pc.cast(pc.equal(b["event_type"], type_a), INT64)
        return pa.table({
            "cents": pc.cast(pc.round(pc.multiply(b["value"], 100.0)),
                             INT64),
            "c1": is_a,
            "c2": pc.subtract(pa.scalar(1, type=INT64), is_a)})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        "cents", [("c1", "sum"), ("c2", "sum")])
    t = collect(agg)
    order = np.argsort(t["cents"].to_numpy(zero_copy_only=False))
    return (t["c1"].to_numpy(zero_copy_only=False)[order],
            t["c2"].to_numpy(zero_copy_only=False)[order])


def ks_distance(sf_dir: str, type_a: str = "click",
                type_b: str = "purchase"):
    """q225: the exact two-sample KS statistic between the click and
    purchase VALUE distributions — sup|F₁−F₂| over the union support:
    the distribution-shift test (q146's PSI needs binning; KS is
    binless).  Exactness comes from cross-multiplied ECDFs —
    max|cum₁·n₂ − cum₂·n₁| is a pure integer, the KS double is one
    final division.

    Scale shape: per-batch (cents, type) count partials → one groupby
    on the BOUNDED value domain (cents ≤ 49102 regardless of scale) →
    driver cumsum walk over ≤49k rows."""

    c1, c2 = _cents_histograms(sf_dir, type_a, type_b)
    n1, n2 = int(c1.sum()), int(c2.sum())
    f1 = np.cumsum(c1)
    f2 = np.cumsum(c2)
    ks_num = int(np.abs(f1 * n2 - f2 * n1).max())
    return pa.table({
        "n_a": pa.array([n1], type=INT64),
        "n_b": pa.array([n2], type=INT64),
        "ks_num": pa.array([ks_num], type=INT64),
        "ks": pa.array([float(ks_num) / (float(n1) * float(n2))],
                       type=pa.float64())})


# ---------------------------------------------------------------------------
# Q226: fulfillment-latency SLA report (grouped exact order stats)
# ---------------------------------------------------------------------------


def fulfillment_sla(sf_dir: str, sla_days: int = 60, npart: int = 16):
    """q226: per-priority fulfillment latency — exact median and p95
    of ship lag (ship − order date, days) plus the within-SLA rate:
    the operations report where approximate percentiles routinely
    mislead at the tail.

    Scale shape: the orderkey join bucket emits (priority, lag-day)
    COUNT partials (lag domain is bounded by the shipping horizon, so
    the histogram — not the lineitems — is what shuffles); exact
    order statistics come from a driver walk over ≤ priorities×days
    rows with ceil-rank selection pinned as integer arithmetic; the
    SLA rate is floor-ppm."""
    from ..stages.exchange import hash_join

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"]) \
        .map_batches(lambda b: pa.table({
            "l_orderkey": b["o_orderkey"],
            "od": pc.cast(b["o_orderdate"], INT64),
            "priority": b["o_orderpriority"]}),
            batch_format="pyarrow")

    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_shipdate"]) \
        .map_batches(lambda b: pa.table({
            "l_orderkey": b["l_orderkey"],
            "sd": pc.cast(b["l_shipdate"], INT64)}),
            batch_format="pyarrow")

    def hist_partial(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_valid(j["od"]))
        lag = pc.cast(pc.divide(pc.subtract(j["sd"], j["od"]),
                                pa.scalar(86_400_000_000, type=INT64)),
                      INT64)
        return pa.table({"priority": j["priority"], "lag": lag,
                         "n": pa.nulls(j.num_rows, INT64).fill_null(1)}) \
            .group_by(["priority", "lag"]).aggregate([("n", "sum")]) \
            .rename_columns(["priority", "lag", "n"])

    agg = combine_buckets(
        hash_join(lines, orders, "l_orderkey", npart=npart,
                  bucket_finish=hist_partial),
        ["priority", "lag"], [("n", "sum")])

    t = collect(agg)
    pr = np.asarray(t["priority"])
    lag = t["lag"].to_numpy(zero_copy_only=False)
    cnt = t["n"].to_numpy(zero_copy_only=False)
    order = np.lexsort((lag, pr))
    pr, lag, cnt = pr[order], lag[order], cnt[order]
    rows = []
    starts = np.flatnonzero(np.concatenate(([True], pr[1:] != pr[:-1])))
    ends = np.append(starts[1:], len(pr))
    for s, e in zip(starts, ends):
        c = cnt[s:e]
        lg = lag[s:e]
        n = int(c.sum())
        cum = np.cumsum(c)
        med = int(lg[np.searchsorted(cum, (n + 1) // 2)])
        p95 = int(lg[np.searchsorted(cum, (19 * n + 19) // 20)])
        ok = int(c[lg <= sla_days].sum())
        rows.append((str(pr[s]), n, med, p95,
                     ok * 1_000_000 // n))
    rows.sort()
    return pa.table({
        "priority": pa.array([r[0] for r in rows], type=pa.string()),
        "n_lines": pa.array([r[1] for r in rows], type=INT64),
        "median_lag_days": pa.array([r[2] for r in rows], type=INT64),
        "p95_lag_days": pa.array([r[3] for r in rows], type=INT64),
        "within_sla_ppm": pa.array([r[4] for r in rows], type=INT64)})


# ---------------------------------------------------------------------------
# Q227: exact Mann–Whitney U (stochastic dominance test)
# ---------------------------------------------------------------------------


def mann_whitney_u(sf_dir: str, type_a: str = "view",
                   type_b: str = "error"):
    """q227: the exact Mann–Whitney U between two event types' value
    distributions — P(a > b) with tie-halving, the nonparametric
    stochastic-dominance test (KS q225 asks "are they different";
    U asks "which is bigger").  2U = Σ c₁ᵢ·(2·F₂(i−1) + c₂ᵢ) keeps
    everything integer; the common-language effect size is ONE final
    division by 2·n₁·n₂.

    Scale shape: identical to q225 — bounded cents-domain histogram
    partials, one tiny groupby, driver cumsum walk."""

    c1, c2 = _cents_histograms(sf_dir, type_a, type_b)
    n1, n2 = int(c1.sum()), int(c2.sum())
    f2_before = np.concatenate(([0], np.cumsum(c2)[:-1]))
    u2 = int((c1 * (2 * f2_before + c2)).sum())     # = 2·U₁
    return pa.table({
        "n_a": pa.array([n1], type=INT64),
        "n_b": pa.array([n2], type=INT64),
        "u2": pa.array([u2], type=INT64),
        "p_a_gt_b": pa.array(
            [float(u2) / (2.0 * float(n1) * float(n2))],
            type=pa.float64())})


# ---------------------------------------------------------------------------
# Q228: round-number bias census
# ---------------------------------------------------------------------------


def round_number_bias(sf_dir: str):
    """q228: round-number bias per event type — the share of values
    landing on whole dollars and half dollars (human-entered and
    fraud-scripted amounts over-index on round numbers; organic
    machine-generated values don't): q155's Benford test for the
    FRACTIONAL digits.

    Scale shape: pure conditional-count partials (cents % 100) → one
    ≤|types| groupby; shares in floor-ppm integers so the whole report
    is integer-exact."""

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        frac = cents % 100
        return pa.table({
            "event_type": b["event_type"],
            "whole": pa.array((frac == 0).astype(np.int64)),
            "half": pa.array((frac == 50).astype(np.int64))})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        "event_type", [("n", "count"), ("whole", "sum"), ("half", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        w = b["whole"].to_numpy(zero_copy_only=False)
        h = b["half"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": b["event_type"],
            "n_events": pc.cast(b["n"], INT64),
            "n_whole_dollar": pc.cast(b["whole"], INT64),
            "n_half_dollar": pc.cast(b["half"], INT64),
            "whole_ppm": pa.array(w * 1_000_000 // np.maximum(n, 1),
                                  type=INT64),
            "half_ppm": pa.array(h * 1_000_000 // np.maximum(n, 1),
                                 type=INT64)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["event_type"])


# ---------------------------------------------------------------------------
# Q229: supplier-fanout census (sourcing redundancy)
# ---------------------------------------------------------------------------


def supplier_fanout(sf_dir: str, npart: int = 32):
    """q229: the supplier-fanout census — for every part, how many
    DISTINCT suppliers have ever shipped it, as a fanout → part-count
    histogram: the sourcing-redundancy report (fanout 1 = sole-source
    fragility, high fanout = commodity).

    Scale shape: distinct (part, supplier) combiner → one partkey
    exchange where each part's supplier set is complete → set sizes
    via run-boundary reduceat → tiny histogram partials."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({"p": b["l_partkey"], "s": b["l_suppkey"]}) \
            .group_by(["p", "s"]).aggregate([])

    def bucket(g: pa.Table) -> pa.Table:
        p = g["p"].to_numpy(zero_copy_only=False)
        s = g["s"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, p))
        p, s = p[order], s[order]
        uniq = np.concatenate(
            ([True], (p[1:] != p[:-1]) | (s[1:] != s[:-1])))
        p = p[uniq]
        starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        sizes = np.diff(np.append(starts, len(p)))
        return pa.table({"fanout": pa.array(sizes.astype(np.int64),
                                            type=INT64)})

    return sort_result(combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_suppkey"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "p", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "fanout", [("n_parts", "count")]), ["fanout"])


# ---------------------------------------------------------------------------
# Q230: spend-trajectory census (per-customer OLS slope sign)
# ---------------------------------------------------------------------------


def spend_trajectory(sf_dir: str, min_orders: int = 3,
                     npart: int = 32):
    """q230: is each customer spending MORE or LESS over time — the
    sign of the OLS slope of order value against the customer's order
    sequence (1..n), classified rising/falling/flat and counted: the
    growth-accounting census.  The slope NUMERATOR n·Σxy − Σx·Σy is a
    pure integer (denominator is positive), so the classification
    never touches a float.

    Scale shape: one custkey exchange; ranks come from the sorted
    stream positions, the four moment sums fold via add.at per
    bucket, 3 count rows leave."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "c": b["o_custkey"],
            "d": pc.cast(b["o_orderdate"], INT64),
            "k": b["o_orderkey"],
            "y": pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0)),
                         INT64)})

    def bucket(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        d = g["d"].to_numpy(zero_copy_only=False)
        k = g["k"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, d, c))
        c, y = c[order], y[order]
        n = len(c)
        starts, x = segment_bounds(c)
        x += 1                                             # rank 1..n
        sizes = np.diff(np.append(starts, n))
        gi = np.repeat(np.arange(len(starts)), sizes)
        sy = np.zeros(len(starts), dtype=np.int64)
        sxy = np.zeros(len(starts), dtype=np.int64)
        np.add.at(sy, gi, y)
        np.add.at(sxy, gi, x * y)
        nn = sizes.astype(np.int64)
        sx = nn * (nn + 1) // 2
        num = nn * sxy - sx * sy
        keep = nn >= min_orders
        cls = np.where(num[keep] > 0, "rising",
                       np.where(num[keep] < 0, "falling", "flat"))
        return pa.table({"trend": pa.array(cls.tolist(), type=pa.string())})

    return sort_result(combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_orderdate",
                                 "o_orderkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "c", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "trend", [("n_customers", "count")]), ["trend"])


# ---------------------------------------------------------------------------
# Q231: Kendall tau-a from the bounded contingency grid
# ---------------------------------------------------------------------------


def kendall_tau(sf_dir: str):
    """q231: Kendall rank correlation between part SIZE and RETAIL
    PRICE — do bigger parts cost more, measured by concordant-vs-
    discordant pairs: the tie-robust rank statistic (Spearman needs
    fractional tie-ranks; tau-a stays integer).  Both domains are
    BOUNDED (size 1..50, price in $10 bands), so all C(n,2) pair
    counting collapses onto the contingency GRID: C and D are double
    suffix-sums over ≤50×~180 cells — exact int64, scale-independent
    driver state; tau is one final division.

    Scale shape: per-batch (size, band) count partials → one tiny
    groupby → driver grid fold."""

    def partial(b: pa.Table) -> pa.Table:
        band = pc.divide(pc.cast(pc.round(pc.multiply(
            b["p_retailprice"], 100.0)), INT64),
            pa.scalar(1_000, type=INT64))
        return pa.table({"size": pc.cast(b["p_size"], INT64), "band": band})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "part"),
                     columns=["p_size", "p_retailprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["size", "band"], [("n", "count")])

    t = collect(agg)
    sz = t["size"].to_numpy(zero_copy_only=False)
    bd = t["band"].to_numpy(zero_copy_only=False)
    cnt = t["n"].to_numpy(zero_copy_only=False)
    ns, nb = int(sz.max()) + 1, int(bd.max()) + 1
    grid = np.zeros((ns, nb), dtype=np.int64)
    grid[sz, bd] = cnt
    # cells strictly greater in both dims (suffix) / strictly greater
    # in one, smaller in the other (for discordant)
    suf = np.cumsum(np.cumsum(grid[::-1, ::-1], 0), 1)[::-1, ::-1]
    gt_both = np.zeros_like(grid)
    gt_both[:-1, :-1] = suf[1:, 1:]
    left = np.cumsum(grid, 1)
    strictly_left = np.zeros_like(grid)
    strictly_left[:, 1:] = left[:, :-1]
    # discordant partner count for a cell: rows strictly greater AND
    # cols strictly smaller — suffix over rows of the left-prefix
    disc_partner = np.zeros_like(grid)
    disc_partner[:-1, :] = np.cumsum(
        strictly_left[::-1], 0)[::-1][1:, :]
    c_pairs = int((grid * gt_both).sum())
    d_pairs = int((grid * disc_partner).sum())
    n = int(grid.sum())
    tau = float(c_pairs - d_pairs) / (float(n) * float(n - 1) / 2.0)
    return pa.table({
        "n_parts": pa.array([n], type=INT64),
        "concordant": pa.array([c_pairs], type=INT64),
        "discordant": pa.array([d_pairs], type=INT64),
        "tau_a": pa.array([tau], type=pa.float64())})


# ---------------------------------------------------------------------------
# Q232: DAU/WAU stickiness per week
# ---------------------------------------------------------------------------


def stickiness(sf_dir: str, npart: int = 32):
    """q232: the DAU/WAU stickiness ratio per ISO-ish week (epoch-day
    // 7 weeks, locale-free) — average daily active users divided by
    weekly actives: the engagement-frequency metric.  Exact distinct
    counts at any scale: the exchange carries one (day, user) row per
    block, never events; stickiness = (Σ day-distincts / 7) / WAU as
    one pinned double expression (n_days is the FIXED 7-day divisor so
    partial weeks at the stream edges stay comparable).

    Scale shape: distinct (day, user) combiner → one user-day
    exchange → per-week day-distinct sums + week-distinct counts in a
    second tiny groupby."""

    def partial(b: pa.Table) -> pa.Table:
        day = pc.cast(pc.divide(pc.cast(b["ts"], INT64),
                                pa.scalar(86_400_000_000, type=INT64)),
                      INT64)
        return pa.table({"day": day, "user_id": b["user_id"]})

    du = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["ts", "user_id"])
        .map_batches(partial, batch_format="pyarrow"),
        ["day", "user_id"], [])
    weeks = materialize(du.map_batches(lambda b: pa.table({
        "week": pa.array(b["day"].to_numpy(zero_copy_only=False) // 7,
                         type=INT64),
        "user_id": b["user_id"]}), batch_format="pyarrow"))

    # (week, user) distinct for WAU needs its own exchange
    wau = combine_buckets(combine_buckets(weeks, ["week", "user_id"], []),
                          "week", [("wau", "count")])
    dau = combine_buckets(weeks, "week", [("day_user_rows", "count")])

    from ..stages.exchange import hash_join
    both = hash_join(materialize(dau), materialize(wau), "week",
                     npart=4)

    def finish(b: pa.Table) -> pa.Table:
        dr = b["day_user_rows"].to_numpy(zero_copy_only=False)
        w = b["wau"].to_numpy(zero_copy_only=False)
        return pa.table({
            "week": pc.cast(b["week"], INT64),
            "day_user_rows": pc.cast(b["day_user_rows"], INT64),
            "wau": pc.cast(b["wau"], INT64),
            "stickiness": pa.array(
                (dr.astype(np.float64) / 7.0) / w.astype(np.float64),
                type=pa.float64())})

    return sort_result(both.map_batches(finish, batch_format="pyarrow"),
                       "week")


# ---------------------------------------------------------------------------
# Q233: whale-order census (single-order spend dominance)
# ---------------------------------------------------------------------------


def whale_orders(sf_dir: str, npart: int = 32):
    """q233: the whale-order census — customers (≥2 orders) whose
    single LARGEST order carries at least half their lifetime spend,
    bucketed by order count: the revenue-fragility cut of the
    customer base (one cancelled order halves the account).  The
    dominance test is the cross-multiplied integer 2·max ≥ total — no
    share is ever computed.

    Scale shape: one custkey exchange; per bucket maximum/add
    reduceats give (max, total, n) per customer and the census folds
    as tiny (n_orders, dominated) partials."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "c": b["o_custkey"],
            "cents": pc.cast(pc.round(pc.multiply(
                b["o_totalprice"], 100.0)), INT64)})

    def bucket(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        v = g["cents"].to_numpy(zero_copy_only=False)
        order = np.argsort(c, kind="stable")
        c, v = c[order], v[order]
        starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
        sizes = np.diff(np.append(starts, len(c)))
        mx = np.maximum.reduceat(v, starts)
        tot = np.add.reduceat(v, starts)
        multi = sizes >= 2
        dom = (2 * mx >= tot) & multi
        return pa.table({
            "n_orders": pa.array(sizes[multi].astype(np.int64),
                                 type=INT64),
            "n_dominated": pa.array(dom[multi].astype(np.int64))})

    return sort_result(combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "c", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "n_orders", [("n_customers", "count"), ("n_dominated", "sum")]),
        ["n_orders"])


# ---------------------------------------------------------------------------
# Q234: hapax legomena rate per language
# ---------------------------------------------------------------------------


def hapax_rate(sf_dir: str, npart: int = 32):
    """q234: the hapax-legomena rate per language — the share of a
    language's distinct vocabulary that occurs EXACTLY ONCE in its
    corpus: the vocabulary-richness / corpus-maturity metric (young
    corpora are hapax-heavy; the rate drops as coverage saturates).
    Tokenization is the engine's pinned ``[a-z0-9]+``-on-lowercase
    rule (q86's).

    Scale shape: per-batch (lang, token) count partials → one
    token-hash exchange (a token's counts for every lang co-locate) →
    per-bucket exact (lang, token) totals fold to per-lang
    (distinct, hapax) partials — the vocabulary tail never leaves its
    bucket; rate in floor-ppm."""
    import re

    wre = re.compile(r"[a-z0-9]+")

    def partial(b: pa.Table) -> pa.Table:
        langs: list[str] = []
        toks: list[str] = []
        for lang, text in zip(b["lang"].to_pylist(),
                              b["text"].to_pylist()):
            ts = wre.findall(text.lower())
            toks.extend(ts)
            langs.extend([lang] * len(ts))
        t = pa.table({"lang": pa.array(langs, type=pa.string()),
                      "token": pa.array(toks, type=pa.string()),
                      "n": pa.array(np.ones(len(toks),
                                            dtype=np.int64))})
        p = t.group_by(["lang", "token"]).aggregate([("n", "sum")]) \
            .rename_columns(["lang", "token", "n"])
        return with_part(p, "token", npart)

    def bucket(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["part"]) \
            .group_by(["lang", "token"]).aggregate([("n", "sum")]) \
            .rename_columns(["lang", "token", "n"])
        hap = pc.cast(pc.equal(t["n"], pa.scalar(1, type=INT64)),
                      INT64)
        return pa.table({"lang": t["lang"], "n_hapax": hap})

    agg = combine_buckets(
        bucket_exchange(_docs(sf_dir, columns=["lang", "text"])
                        .map_batches(partial, batch_format="pyarrow"), bucket),
        "lang", [("n_distinct", "count"), ("n_hapax", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        d = b["n_distinct"].to_numpy(zero_copy_only=False)
        h = b["n_hapax"].to_numpy(zero_copy_only=False)
        return b.append_column("hapax_ppm", pa.array(
            h * 1_000_000 // np.maximum(d, 1), type=INT64))

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["lang"])


# ---------------------------------------------------------------------------
# Q236: revenue volatility census (mean |MoM| change per nation)
# ---------------------------------------------------------------------------


def revenue_volatility(sf_dir: str, npart: int = 16):
    """q236: per-nation revenue volatility — the mean ABSOLUTE
    month-over-month revenue change in floor-ppm of the prior month:
    the demand-stability ranking (procurement hedges volatile nations
    first).  Every term is integer: |Δ|·10⁶ // prev, summed, then
    floor-divided by the month-pair count — no float ever folds.

    Scale shape: (custkey, month) revenue partials route through the
    auto_join planner rule against the customer dim (broadcast at
    test scale, hash at warehouse scale — same rows); (nation, month)
    partials fuse in the join; the per-nation series walk happens on
    a ≤nations×months driver table."""
    from ..stages.exchange import auto_join

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64).to_numpy(
            zero_copy_only=False)
        month = (d // 86_400_000_000) // 31     # fixed 31-day buckets
        cents = pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0)),
                        INT64)
        return pa.table({
            "c_custkey": b["o_custkey"],
            "month": pa.array(month, type=INT64),
            "cents": cents}) \
            .group_by(["c_custkey", "month"]) \
            .aggregate([("cents", "sum")]) \
            .rename_columns(["c_custkey", "month", "cents"])

    fact = scan_parquet(_pq(sf_dir, "orders"),
                        columns=["o_custkey", "o_orderdate",
                                    "o_totalprice"]) \
        .map_batches(partial, batch_format="pyarrow")

    def nation_partial(j: pa.Table) -> pa.Table:
        return pa.table({
            "nat": pc.cast(j["c_nationkey"], INT64),
            "month": j["month"], "cents": j["cents"]}) \
            .group_by(["nat", "month"]) \
            .aggregate([("cents", "sum")]) \
            .rename_columns(["nat", "month", "cents"])

    joined, _strategy = auto_join(
        fact, _pq(sf_dir, "customer"), fact_key="c_custkey",
        dim_key="c_custkey", dim_columns=["c_nationkey"], npart=npart,
        bucket_finish=nation_partial)

    agg = combine_buckets(joined, ["nat", "month"], [("cents", "sum")])

    t = collect(agg)
    nat = t["nat"].to_numpy(zero_copy_only=False)
    mo = t["month"].to_numpy(zero_copy_only=False)
    cents = t["cents"].to_numpy(zero_copy_only=False)
    order = np.lexsort((mo, nat))
    nat, mo, cents = nat[order], mo[order], cents[order]
    same = np.concatenate((nat[1:] == nat[:-1], [False]))
    adjacent = same & (np.concatenate((mo[1:], [0])) - mo == 1)
    prev = cents
    nxt = np.concatenate((cents[1:], [0]))
    term = np.where(adjacent,
                    np.abs(nxt - prev) * 1_000_000
                    // np.maximum(prev, 1), 0)
    out = pa.table({
        "nat": pa.array(nat, type=INT64),
        "n_pairs": pa.array(adjacent.astype(np.int64)),
        "term": pa.array(term, type=INT64)}) \
        .group_by(["nat"]).aggregate(
            [("n_pairs", "sum"), ("term", "sum")]) \
        .rename_columns(["nat", "n_pairs", "sum_term"])
    npairs = out["n_pairs"].to_numpy(zero_copy_only=False)
    st = out["sum_term"].to_numpy(zero_copy_only=False)
    keep = npairs > 0
    return pa.table({
        "n_nationkey": pc.cast(out["nat"], INT64)
        .filter(pa.array(keep)),
        "n_month_pairs": pa.array(npairs[keep], type=INT64),
        "mean_abs_mom_ppm": pa.array(st[keep] // npairs[keep],
                                     type=INT64)}) \
        .sort_by("n_nationkey")


# ---------------------------------------------------------------------------
# Q237: session handoff matrix (entry → exit type)
# ---------------------------------------------------------------------------


def session_handoff(sf_dir: str, gap_minutes: int = 30,
                    npart: int = 32):
    """q237: the session handoff matrix — (entry type, exit type)
    counts over 30-min-gap sessions: where journeys START vs where
    they DIE (q123's adjacent transitions can't see endpoints; q212
    sees only the entry).  Multi-event sessions only, so the diagonal
    isn't inflated by bounces.

    Scale shape: q212's one-pass session machinery — entry is the row
    AT the gap flag, exit is the row BEFORE the next flag — with a
    ≤|types|² matrix groupby."""
    gap_us = np.int64(gap_minutes) * 60_000_000

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        t = g["ts"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        n = len(t)
        new_sess = np.zeros(n, dtype=bool)
        new_sess[starts] = True
        new_sess[1:] |= np.diff(t) > gap_us
        fpos = np.flatnonzero(new_sess)
        slen = np.diff(np.append(fpos, n))
        multi = slen > 1
        entry = et[fpos[multi]]
        exit_ = et[fpos[multi] + slen[multi] - 1]
        return pa.table({
            "entry_type": pa.array(entry.tolist(), type=pa.string()),
            "exit_type": pa.array(exit_.tolist(), type=pa.string())})

    return sort_result(combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type"], bucket,
        npart=npart),
        ["entry_type", "exit_type"], [("n_sessions", "count")]),
        ["entry_type", "exit_type"])


# ---------------------------------------------------------------------------
# Q238: replenishment detection (per-part reorder rate)
# ---------------------------------------------------------------------------


def reorder_rate(sf_dir: str, k: int = 20, npart: int = 32,
                 min_buyers: int = 10):
    """q238: which parts get REORDERED — per part, the share of its
    buyers who purchased it in two or more distinct months, top-k by
    the floor-ppm rate: the replenishment/subscription-candidate
    detector (one-off parts vs consumables).

    Scale shape: distinct (cust, part, month) combiner → one
    (cust, part) exchange collapses months per buyer → per-part
    (buyers, reorderers) partials → partkey groupby → pinned
    (rate DESC, partkey) top-k on the parts-cardinality table."""

    def partial(b: pa.Table) -> pa.Table:
        j = b
        month = pc.cast(b["o_orderdate"], INT64).to_numpy(
            zero_copy_only=False) // 86_400_000_000 // 31
        return pa.table({
            "c": j["o_custkey"], "p": j["l_partkey"],
            "m": pa.array(month, type=INT64)}) \
            .group_by(["c", "p", "m"]).aggregate([])

    def bucket(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        p = g["p"].to_numpy(zero_copy_only=False)
        m = g["m"].to_numpy(zero_copy_only=False)
        order = np.lexsort((m, p, c))
        c, p, m = c[order], p[order], m[order]
        uniq = np.concatenate(
            ([True], (c[1:] != c[:-1]) | (p[1:] != p[:-1])
             | (m[1:] != m[:-1])))
        c, p, m = c[uniq], p[uniq], m[uniq]
        starts = np.flatnonzero(np.concatenate(
            ([True], (c[1:] != c[:-1]) | (p[1:] != p[:-1]))))
        months = np.diff(np.append(starts, len(c)))
        return pa.table({
            "p": pa.array(p[starts], type=INT64),
            "reorderers": pa.array((months >= 2).astype(np.int64))})

    from ..stages.exchange import hash_join

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"]) \
        .map_batches(lambda b: pa.table({
            "l_orderkey": b["o_orderkey"],
            "o_custkey": b["o_custkey"],
            "o_orderdate": b["o_orderdate"]}),
            batch_format="pyarrow")
    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"])

    cpm = hash_join(lines, orders, "l_orderkey", npart=npart,
                    bucket_finish=partial)

    per_cp = bucket_exchange(
        cpm.map_batches(lambda b: with_part(b, ["c", "p"], npart),
                        batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"])))
    agg = combine_buckets(per_cp, "p",
                          [("buyers", "count"), ("reorderers", "sum")],
                          npart=npart)

    def block_topk(b: pa.Table) -> pa.Table:
        buyers = b["buyers"].to_numpy(zero_copy_only=False)
        reo = b["reorderers"].to_numpy(zero_copy_only=False)
        keep = buyers >= min_buyers
        p = b["p"].to_numpy(zero_copy_only=False)[keep]
        buyers, reo = buyers[keep], reo[keep]
        ppm = reo * 1_000_000 // buyers
        order = np.lexsort((p, -ppm))[:k]
        return pa.table({
            "p_partkey": pa.array(p[order], type=INT64),
            "buyers": pa.array(buyers[order], type=INT64),
            "reorderers": pa.array(reo[order], type=INT64),
            "reorder_ppm": pa.array(ppm[order], type=INT64)})

    # per-block top-k partials: the driver merges k·blocks rows, not
    # the parts-cardinality table
    t = collect(agg.map_batches(block_topk, batch_format="pyarrow"))
    order = np.lexsort((t["p_partkey"].to_numpy(zero_copy_only=False),
                        -t["reorder_ppm"].to_numpy(
                            zero_copy_only=False)))[:k]
    return t.take(pa.array(order))


# ---------------------------------------------------------------------------
# Q239: Herfindahl–Hirschman concentration index per nation
# ---------------------------------------------------------------------------


def hhi_index(sf_dir: str, npart: int = 16):
    """q239: the Herfindahl–Hirschman Index of supplier revenue
    concentration per nation — Σ shareᵢ² over each nation's
    suppliers: the antitrust screen complementing q222's CR-3 (HHI
    sees the whole distribution, CR-k only the head).  Shares are
    FLOOR-ppm integers and the index is Σppm²//10⁶ — bit-identical in
    both engines, no float squaring.

    Scale shape: suppkey revenue partials → catalog-sized groupby →
    broadcast nation map → per-nation Σrev and Σ(ppm²) in a second
    tiny fold (two passes over the catalog table, driver-free).
    int64 headroom: rev·10⁶ stays exact to ~sf1 (≈3·10¹⁸); past that
    drop the revenue unit to whole cents before the ppm step."""
    import pyarrow.parquet as _pq2

    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    sn = sup["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sup_nat = np.full(int(sk.max()) + 1, -1, dtype=np.int64)
    sup_nat[sk] = sn

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "s": b["l_suppkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    per_sup = combine_buckets(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_suppkey", "l_extendedprice",
                                 "l_discount"])
        .map_batches(partial, batch_format="pyarrow"),
        "s", [("rev", "sum")])

    # pass 1: per-nation totals (broadcast back for the share pass)
    def nat_total(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        nat = sup_nat[np.minimum(s, len(sup_nat) - 1)]
        return pa.table({"nat": pa.array(nat, type=INT64), "tot": b["rev"]})

    tot_t = collect(combine_buckets(
per_sup.map_batches(nat_total, batch_format="pyarrow"), "nat",
[("tot", "sum")]))
    tot_map = np.zeros(int(tot_t["nat"].to_numpy(
        zero_copy_only=False).max()) + 1, dtype=np.int64)
    tot_map[tot_t["nat"].to_numpy(zero_copy_only=False)] = \
        tot_t["tot"].to_numpy(zero_copy_only=False)

    def share_fold(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        nat = sup_nat[np.minimum(s, len(sup_nat) - 1)]
        rev = b["rev"].to_numpy(zero_copy_only=False)
        ppm = rev * 1_000_000 // np.maximum(tot_map[nat], 1)
        return pa.table({"nat": pa.array(nat, type=INT64),
                         "ppm2": pa.array(ppm * ppm, type=INT64)})

    agg = combine_buckets(
        per_sup.map_batches(share_fold, batch_format="pyarrow"), "nat",
        [("n_suppliers", "count"), ("ppm2", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_nationkey": pc.cast(b["nat"], INT64),
            "n_suppliers": pc.cast(b["n_suppliers"], INT64),
            "hhi_ppm": pa.array(
                b["ppm2"].to_numpy(zero_copy_only=False) // 1_000_000,
                type=INT64)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["n_nationkey"])


# ---------------------------------------------------------------------------
# Q240: LTV quartile transition matrix (two-period mobility)
# ---------------------------------------------------------------------------


def ltv_transition(sf_dir: str, year_a: int = 1996,
                   year_b: int = 1997, npart: int = 32):
    """q240: the customer-value MOBILITY MATRIX — each customer's
    spend quartile in 1996 vs 1997 (0 = absent that year), counted
    per (from, to) cell: the retention-economics report (do top-
    quartile customers stay top?).  Quartile CUTS are exact k-th
    order statistics from ``exchange.distributed_select`` (q217's
    radix-select — no sort, no NTILE tie ambiguity); classification
    is 1 + Σ(v > cut) with the cuts broadcast, identical in SQL.

    Scale shape: one (cust,year) groupby (materialized — consumed by
    the two selection passes and the classify pass), radix-select per
    year, then one custkey exchange pivots each customer's two years
    into a matrix cell."""
    from ..stages.exchange import distributed_select

    lo_a = int(np.datetime64(f"{year_a}-01-01", "us").astype(np.int64))
    hi_a = int(np.datetime64(f"{year_a + 1}-01-01", "us")
               .astype(np.int64))
    hi_b = int(np.datetime64(f"{year_b + 1}-01-01", "us")
               .astype(np.int64))

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64)
        keep = pc.and_(pc.greater_equal(d, pa.scalar(lo_a, type=INT64)),
                       pc.less(d, pa.scalar(hi_b, type=INT64)))
        b = b.filter(keep)
        yr = pc.cast(pc.less(pc.cast(b["o_orderdate"], INT64),
                             pa.scalar(hi_a, type=INT64)), INT64)
        return pa.table({
            "c": b["o_custkey"],
            "is_a": yr,
            "cents": pc.cast(pc.round(pc.multiply(
                b["o_totalprice"], 100.0)), INT64)})

    cy = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_custkey", "o_orderdate",
                                 "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["c", "is_a"], [("cents", "sum")])

    def cuts_for(is_a: int):
        def make_ds():
            return cy.map_batches(
                lambda b: b.filter(pc.equal(
                    b["is_a"], pa.scalar(is_a, type=INT64)))
                .select(["cents"]), batch_format="pyarrow")

        n = sum(b.num_rows for b in
                make_ds().iter_batches(batch_format="pyarrow"))
        ranks = sorted({(n + 3) // 4, (n + 1) // 2, (3 * n + 3) // 4})
        got = distributed_select(make_ds, "cents", ranks)
        return np.array([got[(n + 3) // 4], got[(n + 1) // 2],
                         got[(3 * n + 3) // 4]], dtype=np.int64)

    cuts_a, cuts_b = cuts_for(1), cuts_for(0)

    def bucket(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        ia = g["is_a"].to_numpy(zero_copy_only=False)
        v = g["cents"].to_numpy(zero_copy_only=False)
        qa = np.where(ia == 1,
                      1 + (v > cuts_a[0]).astype(np.int64)
                      + (v > cuts_a[1]) + (v > cuts_a[2]), 0)
        qb = np.where(ia == 0,
                      1 + (v > cuts_b[0]).astype(np.int64)
                      + (v > cuts_b[1]) + (v > cuts_b[2]), 0)
        order = np.argsort(c, kind="stable")
        c, qa, qb = c[order], qa[order], qb[order]
        starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
        from_q = np.maximum.reduceat(qa, starts)
        to_q = np.maximum.reduceat(qb, starts)
        return pa.table({"from_q": pa.array(from_q, type=INT64),
                         "to_q": pa.array(to_q, type=INT64)})

    return sort_result(combine_buckets(bucket_exchange(
        cy.map_batches(lambda b: with_part(b, "c", npart),
                       batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        ["from_q", "to_q"], [("n_customers", "count")]), ["from_q", "to_q"])


# ---------------------------------------------------------------------------
# Q241: discrete survival risk table (conversion with censoring)
# ---------------------------------------------------------------------------


def survival_table(sf_dir: str, npart: int = 32):
    """q241: the discrete survival risk table for signup→purchase —
    per hour-offset: conversions (events), censorings (user's stream
    ends unconverted), and the at-risk count: the exact input the
    Kaplan–Meier estimator consumes (the float product-limit curve
    itself would fold in engine-dependent order, so the table IS the
    oracle-exact deliverable; q180's "ship the exact ints, not the
    float fold" discipline).

    Scale shape: one user exchange (``_user_timeline``) pivots each
    user's first signup, first subsequent purchase and last event in
    one pass; the
    (hour, event/censor) histogram is bounded by the stream horizon
    and the at-risk walk runs on that tiny table."""

    def bucket(g: pa.Table, starts: np.ndarray) -> pa.Table:
        t = g["ts"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, len(t)))
        gi = np.repeat(np.arange(len(starts)), sizes)
        big = np.iinfo(np.int64).max
        s_t = np.full(len(starts), big, dtype=np.int64)
        sig = et == "signup"
        np.minimum.at(s_t, gi[sig], t[sig])
        # first purchase AT/AFTER the signup
        p_t = np.full(len(starts), big, dtype=np.int64)
        pur = (et == "purchase") & (t >= s_t[gi])
        np.minimum.at(p_t, gi[pur], t[pur])
        last_t = np.maximum.reduceat(t, starts)
        has_s = s_t < big
        conv = has_s & (p_t < big)
        cens = has_s & ~conv
        hr_conv = (p_t[conv] - s_t[conv]) // 3_600_000_000
        hr_cens = (last_t[cens] - s_t[cens]) // 3_600_000_000
        return pa.table({
            "hour": pa.array(np.concatenate((hr_conv, hr_cens)),
                             type=INT64),
            "d": pa.array(np.concatenate(
                (np.ones(len(hr_conv), dtype=np.int64),
                 np.zeros(len(hr_cens), dtype=np.int64)))),
            "c": pa.array(np.concatenate(
                (np.zeros(len(hr_conv), dtype=np.int64),
                 np.ones(len(hr_cens), dtype=np.int64))))})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type"], bucket,
        npart=npart),
        "hour", [("d", "sum"), ("c", "sum")])

    t = collect(agg)
    order = np.argsort(t["hour"].to_numpy(zero_copy_only=False))
    hr = t["hour"].to_numpy(zero_copy_only=False)[order]
    d = t["d"].to_numpy(zero_copy_only=False)[order]
    c = t["c"].to_numpy(zero_copy_only=False)[order]
    total = int(d.sum() + c.sum())
    exits = d + c
    at_risk = total - np.concatenate(([0], np.cumsum(exits)[:-1]))
    return pa.table({
        "hour": pa.array(hr, type=INT64),
        "n_convert": pa.array(d, type=INT64),
        "n_censored": pa.array(c, type=INT64),
        "at_risk": pa.array(at_risk, type=INT64)})


# ---------------------------------------------------------------------------
# Q242: discount responsiveness per brand (integer OLS slope)
# ---------------------------------------------------------------------------


def discount_response(sf_dir: str, npart: int = 16):
    """q242: does discounting move volume — per brand, the OLS slope
    of line quantity (centi-units) on discount (percent), as an exact
    RATIONAL: numerator n·Σxy − Σx·Σy and denominator n·Σx² − (Σx)²
    ship as int64 columns plus the floor-ppm slope — the
    price-elasticity screen, per q230's no-float discipline but with
    a REAL regressor (not rank).

    Scale shape: brand rides the clustered part join; five moment
    partials fold per brand (25 rows); everything else is the tiny
    closing batch."""
    from ..stages.exchange import clustered_join

    def line_side(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": b["l_partkey"],
            "x": pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)),
                         INT64),
            "y": pc.cast(pc.round(pc.multiply(b["l_quantity"], 100.0)),
                         INT64)})

    def moments(j: pa.Table) -> pa.Table:
        x = j["x"].to_numpy(zero_copy_only=False)
        y = j["y"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "p_brand": j["p_brand"],
            "n": pa.array(np.ones(len(x), dtype=np.int64)),
            "sx": pa.array(x, type=INT64),
            "sy": pa.array(y, type=INT64),
            "sxy": pa.array(x * y, type=INT64),
            "sxx": pa.array(x * x, type=INT64)})
        return t.group_by(["p_brand"]).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum"), ("sxx", "sum")]) \
            .rename_columns(["p_brand", "n", "sx", "sy", "sxy", "sxx"])

    agg = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_discount",
                                 "l_quantity"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_brand"], npart=npart, bucket_finish=moments)
    agg = combine_buckets(agg, "p_brand", [
        (c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        sx = b["sx"].to_numpy(zero_copy_only=False)
        sy = b["sy"].to_numpy(zero_copy_only=False)
        sxy = b["sxy"].to_numpy(zero_copy_only=False)
        sxx = b["sxx"].to_numpy(zero_copy_only=False)
        num = n * sxy - sx * sy
        den = np.maximum(n * sxx - sx * sx, 1)
        # truncate-toward-zero to match SQL integer // on negatives
        ppm = np.where(num >= 0, num * 1_000_000 // den,
                       -((-num) * 1_000_000 // den))
        return pa.table({
            "p_brand": b["p_brand"],
            "n_lines": pa.array(n, type=INT64),
            "slope_num": pa.array(num, type=INT64),
            "slope_den": pa.array(n * sxx - sx * sx, type=INT64),
            "slope_ppm": pa.array(ppm, type=INT64)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["p_brand"])


# ---------------------------------------------------------------------------
# Q243: calendar coverage census (zero-order day gaps)
# ---------------------------------------------------------------------------


def calendar_gaps(sf_dir: str):
    """q243: calendar coverage of the order stream — span, days with
    orders, gap days, and the longest zero-order streak: the
    ingestion-completeness smoke test (a silent upstream outage shows
    up as a gap before it shows up anywhere else).

    Scale shape: per-batch distinct-day partials → one bounded-domain
    day groupby → driver walk over the (span-bounded) day list; gaps
    derive from consecutive diffs, all integer."""

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], INT64).to_numpy(
            zero_copy_only=False) // 86_400_000_000
        return pa.table({"day": pa.array(d, type=INT64)})

    days = combine_buckets(
        scan_parquet(_pq(sf_dir, "orders"), columns=["o_orderdate"])
        .map_batches(partial, batch_format="pyarrow"), "day", [])

    t = collect(days)
    d = np.sort(t["day"].to_numpy(zero_copy_only=False))
    span = int(d[-1] - d[0]) + 1
    gaps = np.diff(d) - 1
    longest = int(gaps.max()) if len(gaps) else 0
    iso = [str(np.datetime64(int(x) * 86_400, "s"))[:10]
           for x in (d[0], d[-1])]
    return pa.table({
        "first_day": pa.array([iso[0]], type=pa.string()),
        "last_day": pa.array([iso[1]], type=pa.string()),
        "span_days": pa.array([span], type=INT64),
        "days_present": pa.array([len(d)], type=INT64),
        "gap_days": pa.array([span - len(d)], type=INT64),
        "longest_gap": pa.array([longest], type=INT64)})


# ---------------------------------------------------------------------------
# Q244: type co-activity correlation (per-minute count Pearson)
# ---------------------------------------------------------------------------


def coactivity_correlation(sf_dir: str, type_a: str = "click",
                           type_b: str = "view"):
    """q244: do two event types surge TOGETHER — Pearson correlation
    of their per-minute counts over the active span (zero-count
    minutes included, or quiet periods would be invisible and the
    correlation inflated): the incident-correlation statistic.

    Exactness: one (minute → cₐ, c_b) groupby; the moment sums over
    implicit-zero minutes need no materialization (zeros contribute
    nothing to Σx, Σx², Σxy; only n = span counts them); Pearson is
    the q201 closing-double shape."""

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"]
        keep = pc.or_(pc.equal(et, type_a), pc.equal(et, type_b))
        b = b.filter(keep)
        minute = pc.cast(b["ts"], INT64).to_numpy(
            zero_copy_only=False) // 60_000_000
        is_a = pc.equal(b["event_type"], type_a).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "minute": pa.array(minute, type=INT64),
            "ca": pa.array(is_a.astype(np.int64)),
            "cb": pa.array((~is_a).astype(np.int64))})

    agg = combine_buckets(
        scan_parquet(_pq(sf_dir, "events"), columns=["event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow"),
        "minute", [("ca", "sum"), ("cb", "sum")])

    t = collect(agg)
    mn = t["minute"].to_numpy(zero_copy_only=False)
    ca = t["ca"].to_numpy(zero_copy_only=False)
    cb = t["cb"].to_numpy(zero_copy_only=False)
    n = int(mn.max() - mn.min()) + 1          # span incl. zero minutes
    sx, sy = int(ca.sum()), int(cb.sum())
    sxy = int((ca * cb).sum())
    sxx = int((ca * ca).sum())
    syy = int((cb * cb).sum())
    import math
    r = float(n * sxy - sx * sy) / math.sqrt(
        float(n * sxx - sx * sx) * float(n * syy - sy * sy))
    return pa.table({
        "n_minutes": pa.array([n], type=INT64),
        "sum_xy": pa.array([sxy], type=INT64),
        "pearson": pa.array([r], type=pa.float64())})


# ---------------------------------------------------------------------------
# Q245: effective tax incidence per brand
# ---------------------------------------------------------------------------


def tax_incidence(sf_dir: str, npart: int = 16):
    """q245: the effective tax rate per brand — Σ(price·tax) /
    Σprice in floor-ppm: the weighted-average-rate report where the
    naive mean-of-rates answer is wrong whenever price and rate
    correlate (exactly what it exists to detect, via the included
    naive mean for comparison).

    Exactness: tax stays in percent ints, the weighted numerator
    folds as cents·tax_pct int64 partials, both ratios are floor-ppm
    integers; clustered part join carries the brand."""
    from ..stages.exchange import clustered_join

    def line_side(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        tax = pc.cast(pc.round(pc.multiply(b["l_tax"], 100.0)), INT64)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "cents": cents,
            "wtax": pc.multiply(cents, tax),
            "tax": tax})

    def moments(j: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": j["p_brand"],
            "n": pa.nulls(j.num_rows, INT64).fill_null(1),
            "cents": j["cents"], "wtax": j["wtax"], "tax": j["tax"]}) \
            .group_by(["p_brand"]).aggregate(
                [("n", "sum"), ("cents", "sum"), ("wtax", "sum"),
                 ("tax", "sum")]) \
            .rename_columns(["p_brand", "n", "cents", "wtax", "tax"])

    agg = clustered_join(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_extendedprice",
                                 "l_tax"])
        .map_batches(line_side, batch_format="pyarrow"),
        _pq(sf_dir, "part"), fact_key="l_partkey", dim_key="p_partkey",
        dim_columns=["p_brand"], npart=npart, bucket_finish=moments)
    agg = combine_buckets(agg, "p_brand", [
        (c, "sum") for c in ("n", "cents", "wtax", "tax")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        cents = b["cents"].to_numpy(zero_copy_only=False)
        wtax = b["wtax"].to_numpy(zero_copy_only=False)
        tax = b["tax"].to_numpy(zero_copy_only=False)
        return pa.table({
            "p_brand": b["p_brand"],
            "n_lines": pa.array(n, type=INT64),
            "weighted_tax_ppm": pa.array(
                wtax * 10_000 // np.maximum(cents, 1), type=INT64),
            "naive_tax_ppm": pa.array(
                tax * 10_000 // np.maximum(n, 1), type=INT64)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["p_brand"])


# ---------------------------------------------------------------------------
# Q246: price-laddering audit (mode-price share per part)
# ---------------------------------------------------------------------------


def price_laddering(sf_dir: str, npart: int = 32):
    """q246: price discipline per part — the share of a part's line
    items sold at its MODE price, banded in deciles: list-price
    enforcement vs ad-hoc pricing (mode share → 1 means a respected
    price ladder).  Mode = argmax of the (part, price) count with
    pinned (count DESC, price ASC) ties.

    Scale shape: (part, price) count partials → one partkey exchange
    → per-bucket argmax + per-part totals via lexsort/reduceat →
    decile-band histogram; floor-ppm bands."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "p": b["l_partkey"],
            "cents": pc.cast(pc.round(pc.multiply(
                b["l_extendedprice"], 100.0)), INT64),
            "n": pa.nulls(b.num_rows, INT64).fill_null(1)}) \
            .group_by(["p", "cents"]).aggregate([("n", "sum")]) \
            .rename_columns(["p", "cents", "n"])

    def bucket(g: pa.Table) -> pa.Table:
        t = g.group_by(["p", "cents"]).aggregate([("n", "sum")]) \
            .rename_columns(["p", "cents", "n"])
        p = t["p"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((cents, -n, p))
        p, n = p[order], n[order]
        starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        mode_n = n[starts]
        total = np.zeros(len(starts), dtype=np.int64)
        np.add.at(total, np.repeat(
            np.arange(len(starts)),
            np.diff(np.append(starts, len(p)))), n)
        band = np.minimum(mode_n * 10 // total, 9)
        return pa.table({"band": pa.array(band, type=INT64)})

    return sort_result(combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_partkey", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: with_part(b, "p", npart),
                     batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "band", [("n_parts", "count")]), ["band"])


# ---------------------------------------------------------------------------
# Q247: error-recovery latency (what follows an error, how fast)
# ---------------------------------------------------------------------------


def error_recovery(sf_dir: str, npart: int = 32):
    """q247: after a user hits an ERROR, what do they do next and how
    quickly — per next-event-type: count and mean recovery seconds
    (errors with no subsequent event count as abandoned): the
    incident-UX metric (error→purchase fast = benign; error→nothing =
    churn signal).

    Scale shape: one user exchange (``_user_timeline``); the next
    event is the shifted row of the (user, ts, event_id)-sorted
    stream; whole-second
    integer lags fold as (type, n, Σs) partials, mean = floor
    division."""

    def bucket(g: pa.Table, _starts) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["ts"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        n = len(u)
        is_err = et == "error"
        same_next = np.zeros(n, dtype=bool)
        same_next[:-1] = u[1:] == u[:-1]
        rec = is_err & same_next
        lag_s = np.zeros(n, dtype=np.int64)
        lag_s[:-1] = (t[1:] - t[:-1]) // 1_000_000
        nxt = np.empty(n, dtype=object)
        nxt[:-1] = et[1:]
        nxt[~rec] = "abandoned"
        sel = is_err
        return pa.table({
            "next_type": pa.array(nxt[sel].tolist(), type=pa.string()),
            "sum_lag_s": pa.array(np.where(rec, lag_s, 0)[sel],
                                  type=INT64)})

    agg = combine_buckets(_user_timeline(
        sf_dir, ["user_id", "ts", "event_id", "event_type"], bucket,
        npart=npart),
        "next_type", [("n", "count"), ("sum_lag_s", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        sl = b["sum_lag_s"].to_numpy(zero_copy_only=False)
        return pa.table({
            "next_type": b["next_type"],
            "n_errors": pa.array(n, type=INT64),
            "mean_recovery_s": pa.array(sl // np.maximum(n, 1),
                                        type=INT64)})

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"),
                       ["next_type"])


# ---------------------------------------------------------------------------
# Q248: inter-region trade matrix
# ---------------------------------------------------------------------------


def region_trade_matrix(sf_dir: str, npart: int = 16):
    """q248: the full 5×5 inter-region trade matrix — revenue by
    (customer region, supplier region) with floor-ppm share of world
    trade: q183's two-nation question asked for EVERY pair at once,
    which changes the plan — no side can pre-filter, so both catalog
    maps broadcast and the orderkey join bucket folds straight to ≤25
    cells.

    Exactness: q183's integer revenue units; shares floor-ppm of the
    grand total (computed from the same 25 exact cells)."""
    import pyarrow.parquet as _pq2

    from ..stages.exchange import hash_join

    nat = _pq2.read_table(_pq(sf_dir, "nation"))
    nat_region = np.zeros(int(nat["n_nationkey"].to_numpy().max()) + 1,
                          dtype=np.int64)
    nat_region[nat["n_nationkey"].to_numpy()] = \
        nat["n_regionkey"].to_numpy()
    reg = _pq2.read_table(_pq(sf_dir, "region"))
    reg_name = dict(zip(reg["r_regionkey"].to_pylist(),
                        reg["r_name"].to_pylist()))
    sup = _pq2.read_table(_pq(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    sup_reg = np.zeros(int(sup["s_suppkey"].to_numpy().max()) + 1,
                       dtype=np.int64)
    sup_reg[sup["s_suppkey"].to_numpy()] = \
        nat_region[sup["s_nationkey"].to_numpy()]
    cust = _pq2.read_table(_pq(sf_dir, "customer"),
                           columns=["c_custkey", "c_nationkey"])
    cust_reg = np.zeros(int(cust["c_custkey"].to_numpy().max()) + 1,
                        dtype=np.int64)
    cust_reg[cust["c_custkey"].to_numpy()] = \
        nat_region[cust["c_nationkey"].to_numpy()]

    def orders_side(b: pa.Table) -> pa.Table:
        c = b["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": b["o_orderkey"],
            "c_reg": pa.array(cust_reg[np.minimum(
                c, len(cust_reg) - 1)], type=INT64)})

    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_custkey"]) \
        .map_batches(orders_side, batch_format="pyarrow")

    def line_side(b: pa.Table) -> pa.Table:
        s = b["l_suppkey"].to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                        INT64)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), INT64)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "s_reg": pa.array(sup_reg[np.minimum(
                s, len(sup_reg) - 1)], type=INT64),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, type=INT64), disc))})

    lines = scan_parquet(_pq(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey",
                                     "l_extendedprice", "l_discount"]) \
        .map_batches(line_side, batch_format="pyarrow")

    def cells(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_valid(j["c_reg"]))
        return j.select(["c_reg", "s_reg", "rev"]) \
            .group_by(["c_reg", "s_reg"]).aggregate([("rev", "sum")]) \
            .rename_columns(["c_reg", "s_reg", "rev"])

    agg = combine_buckets(
        hash_join(lines, orders, "l_orderkey", npart=npart,
                  bucket_finish=cells),
        ["c_reg", "s_reg"], [("rev", "sum")])

    t = collect(agg)
    rev = t["rev"].to_numpy(zero_copy_only=False)
    total = int(rev.sum())
    return pa.table({
        "cust_region": pa.array(
            [reg_name[int(x)] for x in t["c_reg"].to_pylist()],
            type=pa.string()),
        "supp_region": pa.array(
            [reg_name[int(x)] for x in t["s_reg"].to_pylist()],
            type=pa.string()),
        "revenue": pa.array(rev.astype(np.float64) / 10_000.0,
                            type=pa.float64()),
        "share_ppm": pa.array(
            [int(r) * 1_000_000 // total for r in rev],  # py ints:
            type=INT64)}) \
        .sort_by([("cust_region", "ascending"),
                  ("supp_region", "ascending")])
    # (^ 25 cells — arbitrary-precision share arithmetic, since
    #  rev·10⁶ exceeds int64 past ~sf0.05; DuckDB promotes to HUGEINT)


# ---------------------------------------------------------------------------
# Q249: volume-discount policy detector (2×2 odds ratio)
# ---------------------------------------------------------------------------


def volume_discount(sf_dir: str):
    """q249: is there a volume-discount POLICY — the 2×2 contingency
    of (large quantity ≥ 40) × (deep discount ≥ 8%) with the odds
    ratio as an exact integer rational (a·d·10⁶ // (b·c)): odds ≫ 1M
    ppm means big orders systematically get deeper cuts.

    Scale shape: four conditional-count partials, one global fold —
    no exchange at all; the single output row carries the full table
    so the evidence is auditable."""

    def partial(b: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(b["l_quantity"]), INT64).to_numpy(
            zero_copy_only=False)
        disc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)),
                       INT64).to_numpy(zero_copy_only=False)
        big = qty >= 40
        deep = disc >= 8
        return pa.table({
            "a": pa.array([int((big & deep).sum())], type=INT64),
            "b": pa.array([int((big & ~deep).sum())], type=INT64),
            "c": pa.array([int((~big & deep).sum())], type=INT64),
            "d": pa.array([int((~big & ~deep).sum())], type=INT64)})

    g = _sums(scan_parquet(_pq(sf_dir, "lineitem"),
                           columns=["l_quantity", "l_discount"])
              .map_batches(partial, batch_format="pyarrow"),
              ["a", "b", "c", "d"])
    a, b = int(g["a"]), int(g["b"])
    c, d = int(g["c"]), int(g["d"])
    return pa.table({
        "big_deep": pa.array([a], type=INT64),
        "big_shallow": pa.array([b], type=INT64),
        "small_deep": pa.array([c], type=INT64),
        "small_shallow": pa.array([d], type=INT64),
        "odds_ratio_ppm": pa.array(
            [a * d * 1_000_000 // max(b * c, 1)], type=INT64)})


# ---------------------------------------------------------------------------
# Q250: return-class priority split (TPC-H Q12 shape)
# ---------------------------------------------------------------------------


def returnclass_priority(sf_dir: str, npart: int = 32):
    """q250: per lineitem return class (l_returnflag — the schema's
    stand-in for Q12's l_shipmode), how many 1995-shipped lineitems
    belong to HIGH-priority orders (1-URGENT / 2-HIGH) vs lower —
    TPC-H Q12's fact⋈fact join with conditional class counting.

    Scale shape: lineitem rows pre-filter to the ship-year window and
    carry only (okey, flag); orders ride as (okey, prio).  ONE
    orderkey-hash exchange; each bucket joins and folds to ≤3 rows of
    (flag, high, low) partials; a 3-row groupby finishes.
    Reference parity: the reference has no relational layer —
    file:line N/A (grafted operator family, SURVEY §2.C)."""

    lo_us = 788_918_400_000_000          # 1995-01-01 UTC in µs
    hi_us = 820_454_400_000_000          # 1996-01-01 UTC in µs

    def li_scan(b: pa.Table) -> pa.Table:
        ship = pc.cast(b["l_shipdate"].cast(pa.timestamp("us")), INT64)
        keep = pc.and_(pc.greater_equal(ship, lo_us),
                       pc.less(ship, hi_us))
        t = b.filter(keep)
        u = t["l_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "okey": t["l_orderkey"],
            "flag": t["l_returnflag"],
            "prio": pa.nulls(t.num_rows, pa.string()),
            "part": pa.array((u % npart).astype(np.int32))})

    def o_scan(b: pa.Table) -> pa.Table:
        u = b["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "okey": b["o_orderkey"],
            "flag": pa.nulls(b.num_rows, pa.string()),
            "prio": b["o_orderpriority"],
            "part": pa.array((u % npart).astype(np.int32))})

    def bucket(g: pa.Table) -> pa.Table:
        is_o = pc.is_valid(g["prio"])
        orders = g.filter(is_o).select(["okey", "prio"])
        li = g.filter(pc.invert(is_o)).select(["okey", "flag"])
        j = li.join(orders, keys=["okey"], join_type="inner")
        high = pc.or_(pc.equal(j["prio"], "1-URGENT"),
                      pc.equal(j["prio"], "2-HIGH"))
        return pa.table({"l_returnflag": j["flag"],
                         "high_line_count": pc.cast(high, INT64),
                         "low_line_count": pc.cast(pc.invert(high), INT64)})

    li = scan_parquet(_pq(sf_dir, "lineitem"),
                      columns=["l_orderkey", "l_returnflag",
                                  "l_shipdate"]) \
        .map_batches(li_scan, batch_format="pyarrow")
    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_orderkey", "o_orderpriority"]) \
        .map_batches(o_scan, batch_format="pyarrow")
    out = combine_buckets(
        bucket_exchange(li.union(orders),
                        lambda g: bucket(g.drop_columns(["part"]))),
        "l_returnflag", [("high_line_count", "sum"),
                         ("low_line_count", "sum")])
    return sort_result(out, ["l_returnflag"])


# ---------------------------------------------------------------------------
# Q251: disjunctive bracket revenue (TPC-H Q19 shape)
# ---------------------------------------------------------------------------

_Q19_BRACKETS = (          # (brand, size_hi, qty_lo, qty_hi)
    ("Brand#12", 5, 1, 11),
    ("Brand#23", 10, 10, 20),
    ("Brand#34", 15, 20, 30),
)


def bracket_revenue(sf_dir: str):
    """q251: revenue from lineitems matching ANY of three
    (brand, size-range, quantity-range) brackets — TPC-H Q19's
    disjunctive multi-attribute predicate, the classic case where a
    planner must not push a single conjunct.

    Scale shape: the part table broadcasts once as three numpy arrays
    (sorted partkey + brand code + size); each lineitem batch resolves
    its partkeys with one searchsorted and evaluates all three
    brackets as vectorized masks — NO exchange at all; the revenue
    fold is the only (1-row) reduction.  Integer-exact: cents ×
    (100 − discount%) units, folded as Python ints driver-side."""
    import pyarrow.parquet as _pq2

    part = _pq2.read_table(_pq(sf_dir, "part"),
                           columns=["p_partkey", "p_brand", "p_size"])
    order = pc.sort_indices(part["p_partkey"])
    part = part.take(order)
    pk = part["p_partkey"].to_numpy(zero_copy_only=False)
    brands = [b for b, _, _, _ in _Q19_BRACKETS]
    bcode = pc.index_in(part["p_brand"],
                        value_set=pa.array(brands)).fill_null(-1) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    psize = part["p_size"].to_numpy(zero_copy_only=False)

    def scan(b: pa.Table) -> pa.Table:
        lpk = b["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pk, lpk)
        pos_c = np.minimum(pos, len(pk) - 1)
        hit = pk[pos_c] == lpk
        code = np.where(hit, bcode[pos_c], -1)
        size = np.where(hit, psize[pos_c], -1)
        qty = pc.cast(pc.round(b["l_quantity"]), INT64) \
            .to_numpy(zero_copy_only=False)
        keep = np.zeros(len(lpk), dtype=bool)
        for i, (_, size_hi, qlo, qhi) in enumerate(_Q19_BRACKETS):
            keep |= ((code == i) & (size >= 1) & (size <= size_hi)
                     & (qty >= qlo) & (qty <= qhi))
        cents = pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        disc = pc.cast(pc.round(pc.multiply(
            b["l_discount"], 100.0)), INT64) \
            .to_numpy(zero_copy_only=False)
        rev = int((cents[keep] * (100 - disc[keep])).sum())
        return pa.table({"rev_u": pa.array([rev], type=INT64),
                         "n": pa.array([int(keep.sum())], type=INT64)})

    g = _sums(scan_parquet(_pq(sf_dir, "lineitem"),
                           columns=["l_partkey", "l_quantity",
                                       "l_extendedprice", "l_discount"])
              .map_batches(scan, batch_format="pyarrow"), ["rev_u", "n"])
    n = int(g["n"])
    # SQL's SUM over no matching row is NULL, not 0
    return pa.table({
        "n_lineitems": pa.array([n], type=INT64),
        "revenue": pa.array([int(g["rev_u"]) / 10_000.0 if n else None],
                            type=pa.float64())})


# ---------------------------------------------------------------------------
# Q252: sole-latest supplier in multi-supplier orders (TPC-H Q21 shape)
# ---------------------------------------------------------------------------


def sole_latest_supplier(sf_dir: str, npart: int = 32, k: int = 10):
    """q252: suppliers who were the SOLE latest shipper in orders
    served by ≥2 suppliers — TPC-H Q21's correlated EXISTS /
    NOT-EXISTS pair (another supplier shipped the order; no other
    supplier shipped as late) decorrelated into per-order aggregates:
    EXISTS(other supp) ⇔ n_supp ≥ 2, and NOT EXISTS(other supp as
    late) ⇔ exactly one supplier holds max(shipdate).

    Scale shape: lineitem batches pre-combine to (okey, supp,
    max_ship) partials; ONE orderkey exchange; each bucket folds the
    per-(order, supplier) maxes with a lexsort + reduceat pass and
    emits qualifying (supp, 1) partials; a supplier-sized groupby and
    a broadcast name map finish with a k-row top-k.  Deterministic
    ties: (count DESC, s_name ASC)."""
    import pyarrow.parquet as _pq2

    def li_scan(b: pa.Table) -> pa.Table:
        t = pa.table({
            "okey": b["l_orderkey"],
            "supp": b["l_suppkey"],
            "ship_us": pc.cast(b["l_shipdate"].cast(pa.timestamp("us")),
                               INT64),
        }).group_by(["okey", "supp"]).aggregate([("ship_us", "max")])
        u = t["okey"].to_numpy(zero_copy_only=False)
        return t.rename_columns(["okey", "supp", "ship_us"]) \
            .append_column("part",
                           pa.array((u % npart).astype(np.int32)))

    def bucket(g: pa.Table) -> pa.Table:
        t = g.group_by(["okey", "supp"]).aggregate([("ship_us", "max")])
        o = t["okey"].to_numpy(zero_copy_only=False)
        s = t["supp"].to_numpy(zero_copy_only=False)
        m = t["ship_us_max"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, o))
        o, s, m = o[order], s[order], m[order]
        starts = np.flatnonzero(np.concatenate(([True], o[1:] != o[:-1])))
        sizes = np.diff(np.append(starts, len(o)))
        omax = np.repeat(np.maximum.reduceat(m, starts), sizes)
        is_max = m == omax
        n_holders = np.repeat(np.add.reduceat(
            is_max.astype(np.int64), starts), sizes)
        n_supp = np.repeat(sizes, sizes)
        win = is_max & (n_holders == 1) & (n_supp >= 2)
        return pa.table({"supp": pa.array(s[win], type=INT64)})

    agg = combine_buckets(bucket_exchange(
        scan_parquet(_pq(sf_dir, "lineitem"),
                     columns=["l_orderkey", "l_suppkey",
                                 "l_shipdate"])
        .map_batches(li_scan, batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))),
        "supp", [("numwait", "count")])

    names = _pq2.read_table(_pq(sf_dir, "supplier"),
                            columns=["s_suppkey", "s_name"])
    nmap = dict(zip(names["s_suppkey"].to_pylist(),
                    names["s_name"].to_pylist()))

    rows = collect(agg)
    t = pa.table({
        "s_name": pa.array([nmap[s] for s in rows["supp"].to_pylist()],
                           type=pa.string()),
        "numwait": pc.cast(rows["numwait"], INT64)})
    t = t.take(pc.sort_indices(
        t, sort_keys=[("numwait", "descending"), ("s_name", "ascending")]))
    return t.slice(0, k)


# ---------------------------------------------------------------------------
# Q253: rich idle customers (TPC-H Q22 shape)
# ---------------------------------------------------------------------------


_IDLE_CUT_US = _epoch_us("1998-01-01")


def rich_idle_customers(sf_dir: str, npart: int = 32):
    """q253: per nation, customers whose account balance is above the
    positive-balance average yet who placed NO orders since 1998 —
    TPC-H Q22's global-scalar subquery + NOT EXISTS anti-join (the
    "recent" window keeps the qualifying set non-empty on this
    schema's order distribution, where every customer has SOME order).

    Scale shape: pass 1 folds two ints (Σ positive cents, n) to the
    driver; pass 2 unions customers (key, cents, nation) with
    per-batch-distinct order custkeys through ONE custkey exchange and
    anti-joins per bucket; a 25-row nation groupby + broadcast name
    map finish.  The avg comparison is exact integer cross-multiply
    (cents · n > Σ) in BOTH engines — no double at the boundary."""
    import pyarrow.parquet as _pq2

    def bal_scan(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["c_acctbal"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        pos = cents > 0
        return pa.table({
            "s": pa.array([int(cents[pos].sum())], type=INT64),
            "n": pa.array([int(pos.sum())], type=INT64)})

    g = _sums(scan_parquet(_pq(sf_dir, "customer"), columns=["c_acctbal"])
              .map_batches(bal_scan, batch_format="pyarrow"), ["s", "n"])
    tot, n_pos = int(g["s"]), int(g["n"])

    def c_scan(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["c_acctbal"], 100.0)),
                        INT64).to_numpy(zero_copy_only=False)
        keep = cents * n_pos > tot          # cents > avg, exactly
        t = b.filter(pa.array(keep))
        u = t["c_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "key": t["c_custkey"],
            "cents": pa.array(cents[keep], type=INT64),
            "nat": t["c_nationkey"],
            "part": pa.array((u % npart).astype(np.int32))})

    def o_scan(b: pa.Table) -> pa.Table:
        od = pc.cast(b["o_orderdate"].cast(pa.timestamp("us")), INT64)
        recent = b.filter(pc.greater_equal(od, _IDLE_CUT_US))
        t = pa.table({"key": recent["o_custkey"]}).group_by(["key"]) \
            .aggregate([])
        u = t["key"].to_numpy(zero_copy_only=False)
        return pa.table({
            "key": t["key"],
            "cents": pa.nulls(t.num_rows, INT64),
            "nat": pa.nulls(t.num_rows, INT64),
            "part": pa.array((u % npart).astype(np.int32))})

    def bucket(g2: pa.Table) -> pa.Table:
        is_c = pc.is_valid(g2["cents"])
        cust = g2.filter(is_c)
        okeys = g2.filter(pc.invert(is_c))["key"]
        hit = pc.fill_null(
            pc.is_in(cust["key"], value_set=okeys.combine_chunks()),
            False)
        idle = cust.filter(pc.invert(hit))
        return pa.table({"nat": idle["nat"], "totacctbal_c": idle["cents"]})

    cust = scan_parquet(_pq(sf_dir, "customer"),
                        columns=["c_custkey", "c_acctbal",
                                    "c_nationkey"]) \
        .map_batches(c_scan, batch_format="pyarrow")
    orders = scan_parquet(_pq(sf_dir, "orders"),
                          columns=["o_custkey", "o_orderdate"]) \
        .map_batches(o_scan, batch_format="pyarrow")
    agg = combine_buckets(
        bucket_exchange(cust.union(orders),
                        lambda g2: bucket(g2.drop_columns(["part"]))),
        "nat", [("numcust", "count"), ("totacctbal_c", "sum")])

    names = _pq2.read_table(_pq(sf_dir, "nation"),
                            columns=["n_nationkey", "n_name"])
    nmap = dict(zip(names["n_nationkey"].to_pylist(),
                    names["n_name"].to_pylist()))
    rows = collect(agg)
    t = pa.table({
        "n_name": pa.array([nmap[x] for x in rows["nat"].to_pylist()],
                           type=pa.string()),
        "numcust": pc.cast(rows["numcust"], INT64),
        "totacctbal": pc.divide(
            pc.cast(rows["totacctbal_c"], pa.float64()), 100.0)})
    return t.sort_by("n_name")


# ---------------------------------------------------------------------------
# Q254: daily-volume max drawdown per priority class
# ---------------------------------------------------------------------------


def volume_drawdown(sf_dir: str, npart: int = 8):
    """q254: per order-priority class, the largest decline from any
    historical peak in the zero-filled DAILY order-count series —
    running-max-minus-current maximized over the day axis (the
    finance "max drawdown" window shape, which never reduces to a
    plain groupby because the running max is order-sensitive).

    Scale shape: per-batch (prio, day) count partials collapse each
    block to ≤ classes × days rows; ONE priority-hash exchange; each
    bucket zero-fills its classes' day grids (missing days are real
    zero-volume days — skipping them would understate drawdowns) and
    runs the segmented running max via the overflow-safe
    ``_grp_span_chunks`` composite-key cummax (the q200 primitive);
    a ≤5-row table returns.  Day range is data-derived per class."""

    def partial(b: pa.Table) -> pa.Table:
        day = pc.cast(pc.divide(
            pc.cast(b["o_orderdate"].cast(pa.timestamp("us")), INT64),
            86_400_000_000), INT64)
        t = pa.table({
            "prio": b["o_orderpriority"],
            "day": day,
            "n": pa.nulls(b.num_rows, INT64).fill_null(1)})
        g = t.group_by(["prio", "day"]).aggregate([("n", "sum")])
        return with_part(g.rename_columns(["prio", "day", "n"]),
                         "prio", npart)

    def bucket(g: pa.Table) -> pa.Table:
        g = g.group_by(["prio", "day"]).aggregate([("n", "sum")]) \
            .rename_columns(["prio", "day", "n"])
        enc = g["prio"].combine_chunks().dictionary_encode()
        code = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        day = g["day"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        names = enc.dictionary.to_pylist()
        out_p, out_dd, out_days = [], [], []
        order = np.lexsort((day, code))
        code, day, n = code[order], day[order], n[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                code[1:] != code[:-1])))
        ends = np.append(starts[1:], len(code))
        for s, e in zip(starts, ends):
            d, cnt = day[s:e], n[s:e]
            full = np.zeros(int(d[-1] - d[0]) + 1, dtype=np.int64)
            full[d - d[0]] = cnt            # zero-fill missing days
            peak = np.maximum.accumulate(full)
            out_p.append(names[int(code[s])])
            out_dd.append(int((peak - full).max()))
            out_days.append(len(full))
        return pa.table({
            "o_orderpriority": pa.array(out_p, type=pa.string()),
            "max_drawdown": pa.array(out_dd, type=INT64),
            "n_days": pa.array(out_days, type=INT64)})

    return sort_result(bucket_exchange(
        scan_parquet(_pq(sf_dir, "orders"),
                     columns=["o_orderpriority", "o_orderdate"])
        .map_batches(partial, batch_format="pyarrow"),
        lambda g: bucket(g.drop_columns(["part"]))), "o_orderpriority")


