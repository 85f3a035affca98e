"""Seeded benchmark inputs, built from ``--seed`` inside the checkout.

* Crawl corpus.  The document buckets of a scaled ``bench`` profile
  (same 2,000 hosts and 128 buckets, a quarter of the documents) are
  generated once per checkout by ``warc_ray.corpus.ensure_corpus`` at
  the registered base seed and cached; that step is a build, like a
  compile, and is not part of any timed figure.  Each run then gets
  its own corpus directory whose seed list and robots table come from
  ``--seed``: a seeded sample of documents as seeds (with planted
  non-canonical variants) and ``corpus._gen_robots`` under the run's
  seed.  The profile keeps the registered name ``bench`` so
  ``run_crawl`` resolves it from ``corpus.PROFILES``.
* Star-schema tables for the query mix, with the column domains and
  sizes of the sf0.01 test tables, drawn from ``--seed``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from warc_ray import corpus
from warc_ray.schema import SEED_SCHEMA

# a quarter of the registered bench corpus: the strict-politeness crawl
# is budget-bound (2,000 hosts x 2 URLs a round), so it fetches the
# same ~60k URLs as the full corpus at a quarter of the bucket I/O
BASE_PROFILE = dataclasses.replace(corpus.PROFILES["bench"],
                                   n_docs=300_000, n_seeds=150_000)


def crawl_corpus(cache_root: str, run_dir: str, seed: int) -> str:
    """Corpus directory for one run: cached docs + seeded seeds/robots."""
    base = corpus.ensure_corpus(BASE_PROFILE, root=cache_root)
    prof = dataclasses.replace(BASE_PROFILE, seed=seed)
    d = os.path.join(run_dir, "corpus")
    os.makedirs(d, exist_ok=True)
    os.symlink(os.path.join(base, "docs"), os.path.join(d, "docs"))
    pq.write_table(seed_table(prof), os.path.join(d, "seeds.parquet"))
    pq.write_table(corpus._gen_robots(prof), os.path.join(d, "robots.parquet"))
    with open(os.path.join(d, "MANIFEST.json"), "w") as f:
        json.dump(dict(dataclasses.asdict(prof), docs_seed=BASE_PROFILE.seed,
                       gen_version=corpus.GEN_VERSION), f)
    return d


def seed_table(p: corpus.Profile) -> pa.Table:
    """``p.n_seeds`` distinct documents drawn by ``p.seed``, plus one
    non-canonical variant (upper-case host, default port, dot segment,
    fragment, %-encoded path) of every 8th, with seeded priorities."""
    rng = np.random.default_rng([p.seed, 10_001])
    idx = np.sort(rng.choice(p.n_docs, size=p.n_seeds, replace=False))
    urls = corpus.doc_url_array(idx, p.n_hosts).to_pylist()
    var_idx = idx[::8]
    hosts = corpus.host_index(var_idx, p.n_hosts)
    forms = ("http://HOST-%d.EXAMPLE/doc/%d", "http://host-%d.example:80/doc/%d",
             "http://host-%d.example/./doc/%d", "http://host-%d.example/doc/%d#f",
             "http://host-%d.example/%%64oc/%d")
    urls += [forms[k % 5] % (h, i)
             for k, (h, i) in enumerate(zip(hosts.tolist(), var_idx.tolist()))]
    prio = rng.integers(0, 10, size=len(urls)).astype(np.int32)
    return pa.table({"url": urls, "priority": prio}, schema=SEED_SCHEMA)


# ---------------------------------------------------------------------------
# star schema (sf0.01 shapes)
# ---------------------------------------------------------------------------

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_PTYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_COLORS = ["blue", "cold", "hot", "large", "new", "old", "red", "small"]
_NOUNS = ["anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"]
_EVENTS = ["click", "error", "purchase", "signup", "view"]
_DAY_US = 86_400 * 1_000_000


def _days(rng, lo: str, hi: str, n: int) -> pa.Array:
    lo_d = np.datetime64(lo, "D").astype(np.int64)
    hi_d = np.datetime64(hi, "D").astype(np.int64)
    d = rng.integers(lo_d, hi_d + 1, size=n)
    return pa.array(d * _DAY_US, type=pa.timestamp("us"))


def _cents(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.integers(round(lo * 100), round(hi * 100) + 1, size=n) / 100.0


def _pick(rng, values: list, n: int) -> pa.Array:
    return pa.array(np.array(values, dtype=object)[rng.integers(0, len(values), n)],
                    type=pa.string())


def write_star_schema(out_dir: str, seed: int) -> str:
    """Write the eight query tables (sf0.01 row counts) under
    ``out_dir/sf0.01`` and return that directory.  The basename matters:
    ``corpus.profile_for_sf_dir`` maps it to the ``t2`` crawl corpus
    that the link-statistics query reads."""
    rng = np.random.default_rng([seed, 20_001])
    d = os.path.join(out_dir, "sf0.01")
    os.makedirs(d, exist_ok=True)
    n_cust, n_supp, n_part, n_ord, n_li, n_ev = 1500, 100, 2000, 15000, 60000, 10000
    i32 = pa.int32()
    tables = {
        "region": pa.table({"r_regionkey": pa.array(range(5), i32),
                            "r_name": _REGIONS}),
        "nation": pa.table({"n_nationkey": pa.array(range(25), i32),
                            "n_name": ["NATION_%d" % i for i in range(25)],
                            "n_regionkey": pa.array([i % 5 for i in range(25)], i32)}),
        "customer": pa.table({
            "c_custkey": np.arange(n_cust, dtype=np.int64),
            "c_name": ["Customer#%09d" % i for i in range(n_cust)],
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), i32),
            "c_acctbal": _cents(rng, -999.99, 9999.99, n_cust),
            "c_mktsegment": _pick(rng, _SEGMENTS, n_cust)}),
        "supplier": pa.table({
            "s_suppkey": np.arange(n_supp, dtype=np.int64),
            "s_name": ["Supplier#%09d" % i for i in range(n_supp)],
            "s_nationkey": pa.array(rng.integers(0, 25, n_supp), i32),
            "s_acctbal": _cents(rng, -999.99, 9999.99, n_supp)}),
        "part": pa.table({
            "p_partkey": np.arange(n_part, dtype=np.int64),
            "p_name": pc.binary_join_element_wise(
                _pick(rng, _COLORS, n_part), _pick(rng, _NOUNS, n_part), " "),
            "p_brand": pa.array(["Brand#%d" % b for b in rng.integers(1, 26, n_part)]),
            "p_type": _pick(rng, _PTYPES, n_part),
            "p_size": pa.array(rng.integers(1, 51, n_part), i32),
            "p_retailprice": 900.0 + (np.arange(n_part) % 1000) / 10.0}),
        "orders": pa.table({
            "o_orderkey": np.arange(n_ord, dtype=np.int64),
            "o_custkey": rng.integers(0, n_cust, n_ord),
            "o_orderstatus": _pick(rng, ["F", "O", "P"], n_ord),
            "o_totalprice": _cents(rng, 1000.0, 500000.0, n_ord),
            "o_orderdate": _days(rng, "1995-01-01", "2001-08-01", n_ord),
            "o_orderpriority": _pick(rng, _PRIORITIES, n_ord)}),
        "lineitem": pa.table({
            "l_orderkey": rng.integers(0, n_ord, n_li),
            "l_partkey": rng.integers(0, n_part, n_li),
            "l_suppkey": rng.integers(0, n_supp, n_li),
            "l_linenumber": pa.array(rng.integers(1, 8, n_li), i32),
            "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
            "l_extendedprice": _cents(rng, 900.0, 105000.0, n_li),
            "l_discount": rng.integers(0, 11, n_li) / 100.0,
            "l_tax": rng.integers(0, 9, n_li) / 100.0,
            "l_returnflag": _pick(rng, ["A", "N", "R"], n_li),
            "l_linestatus": _pick(rng, ["F", "O"], n_li),
            "l_shipdate": _days(rng, "1995-01-02", "2001-11-04", n_li)}),
        "events": pa.table({
            "event_id": np.arange(n_ev, dtype=np.int64),
            "ts": pa.array(np.sort(rng.integers(0, 30 * _DAY_US, n_ev))
                           + np.datetime64("2024-01-01", "us").astype(np.int64),
                           type=pa.timestamp("us")),
            "user_id": rng.integers(0, 150, n_ev),
            "event_type": _pick(rng, _EVENTS, n_ev),
            "value": np.maximum(0.01, np.round(rng.exponential(50.0, n_ev), 2)),
            "props": pa.array(['{"k": %d}' % k for k in rng.integers(0, 100, n_ev)])}),
    }
    for name, t in tables.items():
        pq.write_table(t, os.path.join(d, name + ".parquet"))
    return d
