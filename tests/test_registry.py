"""Registry invariants for the correctness driver.

The driver samples the FIRST ~50 ``queries()`` entries; round-2's
VERDICT asked for that window to span every operator family with
fully-oracle-backed entries, and round-3's VERDICT asked for the head
to ROTATE each round to never-driver-sampled queries so cumulative
driver-hard coverage grows.  These tests pin both contracts so future
registry edits can't silently break them.  No Ray needed — the
registry is plain list construction, and the two corpus-artifact
builders ``oracle_sql()`` calls are stubbed the way perfbench stubs
them.  The last tests start Ray: q56 against its oracle, every query
that finishes at one CPU against its oracle at sf0.001 and sf0.01, and
q76 under two hash seeds.

The registry declares each query once (name, engine function, oracle),
and the oracle SQL lives apart from the engine in
``warc_ray/oracle_sql/``; the invariants below pin both.
"""

import ast
import collections
import contextlib
import glob
import os
import re
import signal
import subprocess
import sys

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import __ray_entry__ as entry

SF = "/root/testdata/sf0.001"
HEAD = 50  # the driver samples the first HEAD queries() entries

ROWS_ONLY = {
    "q31_knn_topk_ivf", "q40_media_features", "q41_frame_samples",
    "q42_media_resize", "q43_audio_features", "q60_semdedup",
    "q64_quantile_sketch", "q75_compression_signal", "q114_ivf_recall",
    "q179_pca_label_map", "q255_pq_retrieval",
}

# Union of CORRECTNESS_r01-r04 sampled keys (159 queries already
# driver-verified in rounds 1-4).  The round-5 head must be DISJOINT
# from this set so the driver's 50-query sample extends cumulative
# coverage instead of re-verifying old ground.
PREVIOUSLY_SAMPLED = {
    # round 4 window (CORRECTNESS_r04.json)
    "q08_sessionize", "q09_asof_join", "q112_seed_distance",
    "q135_triangle_count", "q137_time_travel", "q14_grouped_topk",
    "q152_rle_advisor", "q154_bpe_merges", "q15_event_quantiles",
    "q160_bloom_join", "q168_join_advisor", "q173_late_orders",
    "q17_range_join", "q181_merkle_diff", "q186_promo_effect",
    "q187_top_supplier", "q188_small_qty_revenue", "q18_anti_join",
    "q205_collision_detector", "q206_mutual_best", "q225_ks_distance",
    "q227_mann_whitney", "q234_hapax_rate", "q250_returnclass_priority",
    "q251_bracket_revenue", "q252_sole_latest_supplier",
    "q253_rich_idle_customers", "q256_span_census", "q257_anchor_index",
    "q258_wat_extract", "q259_robots_audit", "q27_dup_clusters",
    "q28_tfidf_topterms", "q32_inverted_index", "q33_pack_chunks",
    "q34_pii_scrub", "q35_split_assign", "q37_stratified_sample",
    "q38_ngram_counts", "q45_contamination", "q46_group_centroids",
    "q48_embedding_quantize", "q62_quality_model", "q63_weighted_sample",
    "q67_moving_average", "q69_cube_lineitem", "q71_snapshot_diff",
    "q74_fuzzy_name_pairs", "q79_export_partitioned",
    "q99_host_reciprocity",
    # rounds 1-3
    "q01_agg_lineitem", "q02_revenue_by_nation", "q03_topk_events",
    "q04_events_by_type", "q05_filter_orders", "q06_user_event_stats",
    "q07_windowed_events", "q100_shipping_priority",
    "q101_bucketed_dedup", "q102_compact_files", "q103_skewed_user_join",
    "q104_unpivot_lineitem", "q105_percent_rank", "q106_event_mad",
    "q107_weighted_avg", "q108_normalized_dedup",
    "q109_table_fingerprints", "q10_token_counts", "q110_zscore_outliers",
    "q111_streaming_windows", "q113_last_touch", "q114_ivf_recall",
    "q115_integrity_audit", "q116_point_lookup", "q117_dense_event_grid",
    "q118_charclass_entropy", "q119_median_interarrival",
    "q11_quality_scores", "q120_audience_overlap",
    "q121_top_user_per_type", "q122_bm25_topk", "q123_event_transitions",
    "q124_sliding_distinct", "q125_pruned_join", "q126_above_avg_orders",
    "q127_discount_revenue", "q128_source_lang_lift", "q129_part_skyline",
    "q12_lang_id", "q130_lineitem_regression", "q131_scd2_user_state",
    "q132_embedding_covariance", "q138_join_cardinality",
    "q13_doc_fingerprints", "q150_custdist", "q157_wet_extract",
    "q158_jsonl_ingest", "q162_evolved_scan", "q163_tpch_q5",
    "q167_dlq_ingest", "q183_volume_shipping", "q184_market_share",
    "q185_returned_items", "q189_large_orders", "q190_product_profit",
    "q19_bloom_semi_join", "q202_csv_ingest", "q20_exact_dedup",
    "q215_fixedwidth_ingest", "q216_churn_report",
    "q217_radix_percentiles", "q21_minhash_pairs", "q22_simhash",
    "q235_format_consistency", "q23_embedding_neardup", "q24_curation",
    "q25_ngram_jaccard", "q26_hll_host_distinct", "q30_knn_topk",
    "q31_knn_topk_ivf", "q39_bottomk_distinct", "q40_media_features",
    "q44_segment_dedup", "q47_embedding_lsh", "q49_cms_url_refs",
    "q50_extract_links", "q51_seen_dedup", "q52_crawl_frontier",
    "q53_warc_roundtrip", "q54_hottest_hosts", "q55_crawl_metrics",
    "q56_host_link_stats", "q57_verify_spans", "q58_arc_roundtrip",
    "q59_neardup_curation", "q65_cdx_lookup", "q68_segment_order_stats",
    "q70_global_sort_orders", "q72_heavy_hitter_hosts",
    "q76_duplicate_spans", "q78_arc_to_warc", "q81_merge_upsert",
    "q82_group_concat", "q83_feature_corr", "q84_json_props",
    "q85_retention_cohorts", "q86_vocab_build", "q87_containment_pairs",
    "q88_source_mixture", "q89_pivot_events", "q90_funnel",
    "q91_degree_histogram", "q92_debounce_events", "q93_bigram_topk",
    "q94_cumulative_users", "q95_cooccurrence", "q96_revisit_dedup",
    "q97_session_trigrams", "q98_incremental_agg",
}


def _unused(*_a, **_k):
    return "/nonexistent"


@pytest.fixture(scope="module")
def oracles():
    """``oracle_sql()`` with perfbench's two stubs
    (``perfbench/queries.oracle_sqls``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entry, "_ensure_sim_log", _unused)
        mp.setattr(entry, "_ensure_archive", _unused)
        return entry.oracle_sql()


def _head():
    return [q.name for q in entry.registry()[:HEAD]]


def test_sample_head_is_fully_oracle_backed(oracles):
    qs = list(entry.queries())
    head = qs[:HEAD]
    assert head == _head()
    missing = [k for k in head if k not in oracles]
    assert not missing, f"sampled head lacks oracles: {missing}"


def test_sample_head_never_driver_sampled_before():
    overlap = set(_head()) & PREVIOUSLY_SAMPLED
    assert not overlap, f"head re-samples already-verified queries: {overlap}"
    assert len(_head()) == 50


def test_sample_head_spans_families():
    head = _head()
    families = {
        "graph/hierarchy": {"q29_pagerank", "q201_assortativity",
                            "q176_bom_explosion", "q159_hierarchy_rollup"},
        "engine": {"q16_doc_sample", "q66_rollup_lineitem",
                   "q145_weighted_median", "q200_interval_union"},
        "storage": {"q139_zorder_range", "q142_replica_repair"},
        "text/training": {"q36_repetition", "q80_mode_lang_by_source",
                          "q151_naive_bayes", "q208_quantized_retrieval"},
        "statistics": {"q146_drift_psi", "q155_benford",
                       "q231_kendall_tau", "q140_private_count"},
        "business/audit": {"q156_gdpr_cascade", "q170_fd_discovery",
                           "q174_reconcile", "q182_lifecycle_audit"},
    }
    for fam, keys in families.items():
        assert keys <= set(head), f"family {fam} missing from head"


def test_every_query_key_unique_and_well_formed():
    qs = list(entry.queries())
    assert len(qs) == len(set(qs))
    pat = re.compile(r"^q\d+_[a-z0-9_]+$")
    bad = [k for k in qs if not pat.match(k)]
    assert not bad, bad


def test_oracle_keys_subset_of_queries(oracles):
    qs = set(entry.queries())
    orphans = [k for k in oracles if k not in qs]
    assert not orphans, f"oracle entries with no query: {orphans}"


def test_every_row_has_one_oracle_or_a_rows_only_reason():
    rows = entry.registry()
    for q in rows:
        if q.sql is None:
            assert q.rows_only.strip(), f"{q.name}: no oracle and no reason"
        else:
            assert not q.rows_only, f"{q.name}: an oracle AND rows_only"
            assert isinstance(q.sql, str) or callable(q.sql), q.name
    assert {q.name for q in rows if q.sql is None} == ROWS_ONLY


def _engine_files():
    return sorted(glob.glob(os.path.join(ROOT, "warc_ray", "**", "*.py"),
                            recursive=True))


def test_each_query_name_written_once():
    """A name has one home, its registry row: a typo can no longer
    leave an orphaned oracle or a second spelling."""
    pat = re.compile(r"^q\d+_[a-z0-9_]+$")
    seen = collections.Counter()
    for f in _engine_files() + [os.path.join(ROOT, "__ray_entry__.py")]:
        for n in ast.walk(ast.parse(open(f).read())):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and pat.match(n.value)):
                seen[n.value] += 1
    assert set(seen) == {q.name for q in entry.registry()}
    twice = {k: v for k, v in seen.items() if v != 1}
    assert not twice, f"query names written more than once: {twice}"


def test_oracle_sql_stays_out_of_the_engine():
    pkg = os.path.join(ROOT, "warc_ray", "oracle_sql") + os.sep
    bad = []
    for f in _engine_files():
        if f.startswith(pkg):
            continue
        rel = os.path.relpath(f, ROOT)
        for n in ast.walk(ast.parse(open(f).read())):
            if isinstance(n, ast.Assign):
                bad += [f"{rel}: {t.id}" for t in n.targets
                        if isinstance(t, ast.Name) and t.id.endswith("_SQL")]
            elif isinstance(n, ast.Import):
                bad += [f"{rel}: import {a.name}" for a in n.names
                        if "oracle_sql" in a.name]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""] + [a.name for a in n.names]
                if any("oracle_sql" in x for x in names):
                    bad.append(f"{rel}: from {n.module} import ...")
    assert not bad, bad


def test_previously_sampled_names_still_exist():
    missing = PREVIOUSLY_SAMPLED - {q.name for q in entry.registry()}
    assert not missing, f"renamed or dropped queries: {missing}"


def test_perfbench_stubs_replace_the_artifact_builders(monkeypatch):
    """perfbench (``queries.oracle_sqls``) stubs ``_ensure_sim_log`` and
    ``_ensure_archive`` on this module; ``oracle_sql()`` must reach them
    through the module globals, so the stubs run and the real builders
    (which always call ``_stamp_for`` / ``_corpus_for``) do not."""
    calls = []

    def stub(name):
        def f(*a, **_k):
            calls.append((name, a))
            return "/nonexistent"
        return f

    def spy(name):
        def f(*_a, **_k):
            raise AssertionError(f"a real builder ran ({name})")
        return f

    monkeypatch.setattr(entry, "_stamp_for", spy("_stamp_for"))
    monkeypatch.setattr(entry, "_corpus_for", spy("_corpus_for"))
    monkeypatch.setattr(entry, "_ensure_sim_log", stub("sim_log"))
    monkeypatch.setattr(entry, "_ensure_archive", stub("archive"))
    sqls = entry.oracle_sql()
    assert len(sqls) == 248
    assert sorted(n for n, _ in calls) == ["archive", "sim_log"]


def test_no_oracle_returns_wide_ints(monkeypatch, tmp_path):
    """Every oracle binds on sf0.001 with no DECIMAL or HUGEINT column:
    the engine returns int64, and the driver's dtype-sensitive hash
    fails a wide column even when the values are equal."""
    import duckdb
    import pyarrow.parquet as pq

    from warc_ray.schema import CDX_SCHEMA

    # the sim log is built for real (single process, ~1 s); the archive
    # needs Ray, so its CDX index is an empty table of the same schema
    (tmp_path / "warc-cdx").mkdir()
    pq.write_table(CDX_SCHEMA.empty_table(),
                   str(tmp_path / "warc-cdx" / "empty.parquet"))
    monkeypatch.setattr(entry, "_ensure_archive",
                        lambda _sf: str(tmp_path / "warc"))
    sqls = entry.oracle_sql()
    assert len(sqls) == 248
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    wide = {}
    for name, sql in sqls.items():
        rel = con.sql(sql)   # binds; nothing runs
        cols = [f"{c} {t}" for c, t in zip(rel.columns, rel.types)
                if str(t).startswith(("DECIMAL", "HUGEINT"))]
        if cols:
            wide[name] = cols
    assert not wide, wide


def test_corpus_oracles_follow_the_sf_dir(ray_session, monkeypatch):
    """``oracle_sql(sf_dir)`` renders the corpus oracles from the corpus
    the queries read for ``sf_dir``: at sf0.001 (the t1 corpus) q56's
    oracle equals the engine's rows.  The no-argument text reads
    sf0.01's corpus, so it differs."""
    import duckdb

    monkeypatch.setattr(entry, "_ensure_sim_log", _unused)
    monkeypatch.setattr(entry, "_ensure_archive", _unused)
    name = "q56_host_link_stats"
    sql = entry.oracle_sql(SF)[name]
    assert sql != entry.oracle_sql()[name]

    def norm(df):
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    got = norm(entry.queries()[name](SF).to_pandas())
    want = norm(duckdb.connect().execute(sql).fetchdf())
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# Direction 2's queries that do not finish at num_cpus=1: each starts
# an actor pool whose minimum size starves the tasks after it.  A PR
# that takes a name out of this set shows that query passing.
EXPECTED_HANGS = {
    "q30_knn_topk": "similarity.knn_topk: actor pool (1, 2)",
    "q31_knn_topk_ivf": "similarity.ivf_topk: actor pool (1, 2)",
    "q114_ivf_recall": "similarity.knn_topk / ivf_topk: actor pools (1, 2)",
    "q255_pq_retrieval": "similarity.pq_topk: actor pool (1, 2)",
    "q62_quality_model": "training.quality_model_scores: actor pool (1, 8)",
    "q40_media_features": "training.media_features: actor pool (2, 28)",
    "q41_frame_samples": "training.frame_samples: actor pool (2, 24)",
    "q42_media_resize": "training.media_resize: actor pool (2, 24)",
    "q43_audio_features": "training.audio_features: actor pool (2, 24)",
    "q143_revenue_rollup_geo":
        "analytics.revenue_rollup_geo: actor pool (1, 2)",
    "q58_arc_roundtrip": "_write_arc_fixture: FetchGroup pool (4, 28); "
                         "hangs below 8 CPUs",
    "q78_arc_to_warc": "_write_arc_fixture: FetchGroup pool (4, 28); "
                       "hangs below 8 CPUs",
}
# rows-only queries (no oracle): columns and row count per scale
ROWS_ONLY_SHAPES = {
    "q60_semdedup": (["vec_id"], {"sf0.001": 441, "sf0.01": 455}),
    "q64_quantile_sketch": (["event_type", "p50_milli", "p90_milli",
                             "p99_milli"], {"sf0.001": 5, "sf0.01": 5}),
    "q75_compression_signal": (["comp_len", "doc_id", "keep", "ratio_ppm",
                                "raw_len"], {"sf0.001": 500, "sf0.01": 500}),
    "q179_pca_label_map": (["label", "mean_pc1", "mean_pc2", "n",
                            "var_explained_pc1", "var_explained_pc2"],
                           {"sf0.001": 10, "sf0.01": 10}),
}
QUERY_DEADLINE_S = 90


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this thread once ``seconds`` pass (Ray's
    blocking calls check for signals), so one hang fails one query."""
    def expire(*_):
        raise TimeoutError(f"no result in {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_expected_hangs_are_registry_queries():
    names = set(entry.queries())
    assert set(EXPECTED_HANGS) <= names
    assert set(ROWS_ONLY_SHAPES) == \
        names - set(EXPECTED_HANGS) - set(entry.oracle_sql(SF))


@pytest.mark.parametrize("scale", ["sf0.001", "sf0.01"])
def test_every_query_matches_its_oracle(ray_session, scale):
    """Every query that finishes at one CPU equals its ``oracle_sql``
    DuckDB twin at ``scale``, compared as ``tools/check_oracle.py``
    compares (same row count and columns, values after sorting every
    column); a rows-only query keeps its columns and row count.  Each
    query runs under its own deadline.  Fails with the FAIL names."""
    import duckdb

    sys.path.insert(0, os.path.join(ROOT, "tools"))
    from check_oracle import normalize, to_pandas

    sf_dir = os.path.join(os.path.dirname(SF), scale)
    oracles = entry.oracle_sql(sf_dir)
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    fails = []
    for name, fn in entry.queries().items():
        if name in EXPECTED_HANGS:
            continue
        try:
            with _deadline(QUERY_DEADLINE_S):
                got = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001 - reported as a FAIL name
            fails.append(f"{name} ({type(e).__name__}: {e})"[:200])
            continue
        if name not in oracles:
            cols, rows = ROWS_ONLY_SHAPES[name]
            if list(got.columns) != cols or len(got) != rows[scale]:
                fails.append(f"{name} (rows {len(got)}, {list(got.columns)})")
            continue
        want = normalize(con.execute(oracles[name]).fetchdf())
        try:
            assert list(got.columns) == list(want.columns)
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
        except AssertionError:
            fails.append(f"{name} (rows {len(got)}/{len(want)})")
    assert not fails, f"FAIL at {scale}: {fails}"


def test_q76_row_order_is_hash_seed_free(ray_session):
    """q76 ``duplicate_spans`` returns its rows in one order whatever
    ``PYTHONHASHSEED`` is: each run joins this Ray session from its own
    process (whose driver runs the small plan) and digests the rows in
    order."""
    import ray

    code = (
        "import hashlib, sys\n"
        "import pandas as pd, ray\n"
        f"sys.path.insert(0, {ROOT!r})\n"
        f"ray.init(address={ray.get_runtime_context().gcs_address!r},"
        " logging_level='ERROR')\n"
        "import __ray_entry__ as entry\n"
        f"df = entry.queries()['q76_duplicate_spans']({SF!r}).to_pandas()\n"
        "print(len(df), hashlib.sha1(pd.util.hash_pandas_object("
        "df, index=False).values.tobytes()).hexdigest())\n")
    digests = set()
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": ROOT})
        rows, digest = out.stdout.split()[-2:]
        assert int(rows) > 0
        digests.add(digest)
    assert len(digests) == 1, digests
