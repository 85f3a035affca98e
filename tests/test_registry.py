"""Registry invariants for the correctness driver.

The driver samples the FIRST ~50 ``queries()`` entries; round-2's
VERDICT asked for that window to span every operator family with
fully-oracle-backed entries, and round-3's VERDICT asked for the head
to ROTATE each round to never-driver-sampled queries so cumulative
driver-hard coverage grows.  These tests pin both contracts so future
registry edits can't silently break them.  No Ray needed — the
registry is plain dict construction.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entry

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


def test_sample_head_is_fully_oracle_backed():
    qs = list(entry.queries())
    oracles = entry.oracle_sql()
    head = qs[:50]
    assert head == entry._DRIVER_SAMPLE_ORDER
    missing = [k for k in head if k not in oracles]
    assert not missing, f"sampled head lacks oracles: {missing}"


def test_sample_head_never_driver_sampled_before():
    overlap = set(entry._DRIVER_SAMPLE_ORDER) & PREVIOUSLY_SAMPLED
    assert not overlap, f"head re-samples already-verified queries: {overlap}"
    assert len(entry._DRIVER_SAMPLE_ORDER) == 50


def test_sample_head_spans_families():
    head = entry._DRIVER_SAMPLE_ORDER
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


def test_oracle_keys_subset_of_queries():
    qs = set(entry.queries())
    orphans = [k for k in entry.oracle_sql() if k not in qs]
    assert not orphans, f"oracle entries with no query: {orphans}"
