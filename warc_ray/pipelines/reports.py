"""Crawl reports (G17) + metrics aggregation (G15) over the fetch log.

All pure Ray Data over the round-keyed log parquet written by
pipelines/crawl.py — grouped aggregates go through
``combine_buckets`` (per-block combine, then a small bucket combine);
sorts only on already-aggregated (small) results (SURVEY.md §2.B G17:
"sort shuffle" on report keys only, never the raw log).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from ..stages.exchange import collect, combine_buckets


def hottest_hosts(log_ds: rd.Dataset, k: int = 20) -> pa.Table:
    """Top-k hosts by fetch count: (host, n_fetched, n_ok, first_round,
    last_round), ordered n_fetched DESC, host ASC."""
    import pyarrow.compute as pc

    def partial(b: pa.Table) -> pa.Table:
        ok = pc.cast(pc.equal(b["status"], 200), pa.int64())
        return pa.table({"host": b["host"], "n_ok": ok,
                         "first_round": b["round"], "last_round": b["round"]})

    agg = combine_buckets(
        log_ds.map_batches(partial, batch_format="pyarrow"), "host",
        [("n_fetched", "count"), ("n_ok", "sum"), ("first_round", "min"),
         ("last_round", "max")])
    top = collect(agg).sort_by([("n_fetched", "descending"),
                                ("host", "ascending")]).slice(0, k)
    return top.select(
        ["host", "n_fetched", "n_ok", "first_round", "last_round"])


def crawl_metrics(log_ds: rd.Dataset) -> pa.Table:
    """Per-round scheduling metrics: (round, n_fetched, n_ok, n_hosts,
    min_seq, max_seq) — the G15 aggregate the driver/ops dashboards
    read; per-shard counters (dedup hits, robots denials) live in the
    shard stats returned by run_crawl."""
    import pyarrow.compute as pc

    def partial(b: pa.Table) -> pa.Table:
        ok = pc.cast(pc.equal(b["status"], 200), pa.int64())
        return pa.table({"round": b["round"], "n_ok": ok,
                         "min_seq": b["fetch_seq"], "max_seq": b["fetch_seq"]})

    agg = combine_buckets(
        log_ds.map_batches(partial, batch_format="pyarrow"), "round",
        [("n_fetched", "count"), ("n_ok", "sum"), ("min_seq", "min"),
         ("max_seq", "max")])
    # distinct hosts per round: two vectorized aggregates (distinct →
    # count) — no per-group Python (each (round, host) group would be
    # a tiny Python call).
    hosts = log_ds.select_columns(["round", "host"])
    n_hosts = combine_buckets(combine_buckets(hosts, ["round", "host"], []),
                              "round", [("n_hosts", "count")])
    return collect(agg).join(collect(n_hosts), keys="round") \
        .sort_by("round")


def robots_audit(log_ds: rd.Dataset, robots: pa.Table) -> pa.Table:
    """q259: robots-compliance audit — for every host that publishes
    disallow rules: rule count, fetches recorded, and VIOLATIONS
    (fetched URLs whose path falls under a disallowed prefix — the
    invariant the frontier's robots gate must keep at exactly zero,
    here re-proved by an independent query over the output log instead
    of trusted from the gate's own counters).

    Scale shape: the rules table is the broadcast-small side (one row
    per host, prefixes nested); per batch the path column is one regex
    kernel and each (host, prefix) rule is a vectorized mask — the
    rule count, not the log size, bounds the loop.  Per-host partials
    fold in a ≤hosts-row groupby; no exchange of log rows."""
    import numpy as np
    import pyarrow.compute as pc

    hosts = robots["host"].to_pylist()
    prefs = robots["disallow_prefixes"].to_pylist()
    ruled = [(h, tuple(p)) for h, p in zip(hosts, prefs) if p]
    rule_hosts = [h for h, _ in ruled]

    def partial(b: pa.Table) -> pa.Table:
        from ..state.frontier import rep_rule_to_regex

        path = pc.struct_field(
            pc.extract_regex(b["url"], r"^https?://[^/]+(?P<path>/.*)$"),
            "path")
        out_h, out_f, out_v = [], [], []
        for h, plist in ruled:
            on_host = pc.equal(b["host"], h)
            n_f = int(pc.sum(pc.cast(on_host, pa.int64())).as_py() or 0)
            viol = 0
            for p in plist:
                # full REP rule forms: plain prefixes keep the
                # starts_with kernel; '*'/'$' rules run the SAME
                # regex translation the frontier gate compiles
                # (state/frontier.rep_rule_to_regex) as one RE2 kernel
                if "*" in p or p.endswith("$"):
                    hit = pc.match_substring_regex(
                        path, rep_rule_to_regex(p))
                else:
                    hit = pc.starts_with(path, p)
                m = pc.and_(on_host, pc.fill_null(hit, False))
                viol += int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
            out_h.append(h)
            out_f.append(n_f)
            out_v.append(viol)
        return pa.table({
            "host": pa.array(out_h, type=pa.string()),
            "n_fetched": pa.array(out_f, type=pa.int64()),
            "n_violations": pa.array(out_v, type=pa.int64())})

    agg = combine_buckets(
        log_ds.map_batches(partial, batch_format="pyarrow"), "host",
        [("n_fetched", "sum"), ("n_violations", "sum")])
    rows = collect(agg)
    got = {h: (int(f), int(v)) for h, f, v in
           zip(rows["host"].to_pylist(),
               rows["n_fetched"].to_pylist(),
               rows["n_violations"].to_pylist())} if rows.num_rows \
        else {}
    n_rules = {h: len(p) for h, p in ruled}
    return pa.table({
        "host": pa.array(rule_hosts, type=pa.string()),
        "n_rules": pa.array([n_rules[h] for h in rule_hosts],
                            type=pa.int64()),
        "n_fetched": pa.array([got.get(h, (0, 0))[0]
                               for h in rule_hosts], type=pa.int64()),
        "n_violations": pa.array([got.get(h, (0, 0))[1]
                                  for h in rule_hosts],
                                 type=pa.int64())}).sort_by("host")
