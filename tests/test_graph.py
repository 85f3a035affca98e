"""Tests for the iterative BSP graph fabric (pipelines/graph.py), the
Bloom join-pruning sketch, and the pipelines built on them (q19 q27
q28 q29): single-process integer references, shard-count invariance,
and DuckDB parity on the real sf0.001 tables."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _rand_sym_edges(n_nodes=60, n_edges=150, seed=7):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges, dtype=np.int64)
    dst = rng.integers(0, n_nodes, n_edges, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return (np.concatenate([src, dst]), np.concatenate([dst, src]))


def _pagerank_reference(src, dst, iters=5):
    """Pure-python/numpy single-process formulation of the integer
    recurrence (floor division, damping 85/100, SCALE=1e12)."""
    from warc_ray.pipelines.graph import SCALE

    packed = np.unique((src.astype(np.uint64) << np.uint64(32))
                       | dst.astype(np.uint64))
    src = (packed >> np.uint64(32)).astype(np.int64)
    dst = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    si = np.array([idx[int(s)] for s in src])
    di = np.array([idx[int(d)] for d in dst])
    deg = np.bincount(si, minlength=len(nodes))
    r = np.full(len(nodes), SCALE // len(nodes), dtype=np.int64)
    base = (15 * (SCALE // len(nodes))) // 100
    for _ in range(iters):
        s = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(s, di, r[si] // deg[si])
        r = base + (85 * s) // 100
    return {int(n): int(v) for n, v in zip(nodes, r)}


def _cc_reference(src, dst):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src.tolist(), dst.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _edges_ds(src, dst):
    import ray.data as rd

    return rd.from_arrow(pa.table({"src": pa.array(src),
                                   "dst": pa.array(dst)}))


def test_pagerank_matches_reference_and_nparts_invariant(ray_session):
    from warc_ray.pipelines import graph

    src, dst = _rand_sym_edges()
    want = _pagerank_reference(src, dst)
    for nparts in (1, 5):
        got = graph.pagerank(_edges_ds(src, dst), iters=5, nparts=nparts)
        gm = dict(zip(got["node_id"].to_pylist(), got["rank"].to_pylist()))
        assert gm == want, f"nparts={nparts}"


def test_connected_components_matches_union_find(ray_session):
    from warc_ray.pipelines import graph

    src, dst = _rand_sym_edges(n_nodes=80, n_edges=70, seed=11)
    want = _cc_reference(src, dst)
    got = graph.connected_components(_edges_ds(src, dst), nparts=4)
    gm = dict(zip(got["node_id"].to_pylist(), got["cluster"].to_pylist()))
    assert gm == want


def test_bloom_properties():
    from warc_ray.stages.sketch import (bloom_contains, bloom_merge,
                                        bloom_partial)

    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 62, 5000, dtype=np.int64)
    b = rng.integers(0, 1 << 62, 5000, dtype=np.int64)
    pa_, pb = bloom_partial(a), bloom_partial(b)
    merged = bloom_merge([pa_, pb])
    # no false negatives, either partial or merged
    assert bloom_contains(pa_, a).all()
    assert bloom_contains(merged, np.concatenate([a, b])).all()
    # merge == build-from-union (OR is the exact lattice join)
    assert np.array_equal(merged, bloom_partial(np.concatenate([a, b])))
    # false-positive rate sane at this fill (2 probes, 1 MiB bits)
    probe = rng.integers(0, 1 << 62, 20000, dtype=np.int64)
    fpr = bloom_contains(merged, probe).mean()
    assert fpr < 0.01


def _duck(sql: str, tables=("lineitem", "orders", "customer",
                            "documents")) -> pd.DataFrame:
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{SF}/{t}.parquet')")
    return con.execute(sql).df()


def _oracle(name: str) -> str:
    from unittest import mock

    import __ray_entry__ as entry

    # the crawl log and archive builders feed only other oracles
    with mock.patch.object(entry, "_ensure_sim_log", lambda *_: ""), \
            mock.patch.object(entry, "_ensure_archive", lambda *_: ""):
        return entry.oracle_sql()[name]


def test_bloom_semi_join_vs_duckdb(ray_session):
    from warc_ray.pipelines.relational import bloom_semi_join

    got = bloom_semi_join(SF).to_pandas().reset_index(drop=True)
    want = _duck(_oracle("q19_bloom_semi_join"))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_tfidf_vs_duckdb(ray_session):
    from warc_ray.pipelines.training import tfidf_topk

    got = tfidf_topk(SF).to_pandas().reset_index(drop=True)
    want = _duck(_oracle("q28_tfidf_topterms"))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_dup_clusters_vs_duckdb(ray_session):
    from warc_ray.pipelines.training import dup_clusters

    got = dup_clusters(SF).to_pandas().reset_index(drop=True)
    want = _duck(_oracle("q27_dup_clusters"))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pagerank_pipeline_vs_duckdb(ray_session):
    from warc_ray.pipelines.relational import part_supplier_pagerank

    got = part_supplier_pagerank(SF).to_pandas().reset_index(drop=True)
    want = _duck("""WITH edges AS (
          SELECT DISTINCT l_partkey AS src, 1000000 + l_suppkey AS dst
          FROM lineitem
          UNION
          SELECT DISTINCT 1000000 + l_suppkey AS src, l_partkey AS dst
          FROM lineitem),
         deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
         n AS (SELECT COUNT(*) AS n FROM deg),
         r0 AS (SELECT src AS id, 1000000000000 // (SELECT n FROM n) AS rank
                FROM deg)
         %s
         SELECT id AS node_id, rank FROM r5 ORDER BY node_id""" % "".join(
        f""", r{i} AS (
              SELECT e.dst AS id,
                     CAST((15 * (1000000000000 // (SELECT n FROM n))) // 100
                          + (85 * SUM(r.rank // d.outdeg)) // 100
                          AS BIGINT) AS rank
              FROM edges e JOIN r{i - 1} r ON r.id = e.src
              JOIN deg d ON d.src = e.src GROUP BY e.dst)"""
        for i in range(1, 6)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_neardup_curation_vs_duckdb(ray_session):
    """q59: kept set = corpus minus non-canonical family members; also
    pin the keep-one law directly — kept ∪ families covers every doc,
    each family keeps exactly its min member."""
    from warc_ray.pipelines.training import dup_clusters, neardup_curation

    got = neardup_curation(SF).to_pandas().reset_index(drop=True)
    want = _duck(_oracle("q59_neardup_curation"))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    cc = dup_clusters(SF).to_pandas()
    kept = set(got.doc_id)
    by_cluster = cc.groupby("cluster")["doc_id"]
    assert all(min(m) in kept for _, m in by_cluster)
    assert all(d not in kept for d, c in zip(cc.doc_id, cc.cluster) if c < d)
