"""Driver contract for the warc_ray engine.

``entry()``   — flagship crawl pipeline on the t1 synthetic corpus.
``queries()`` — one callable per implemented operator/pipeline
                (SURVEY.md §2 + training-data extensions), each taking
                ``sf_dir`` and returning a Dataset / pyarrow Table.
``oracle_sql()`` — DuckDB-equivalent SQL for every value-checkable
                query (same column names; integer-exact measures).

Both are built from ``registry()``, which declares each query once:
its name, its engine function and its oracle, held by reference in the
``warc_ray.oracle_sql`` package (which no engine module imports).

Ray is initialised by the driver BEFORE importing this module; nothing
here calls ray.init/ray.shutdown.  The synthetic interleaved corpus
(BASELINE.json input_hint) is generated deterministically under /tmp at
first use — both the Ray queries and the oracle SQL (via
read_parquet('<corpus>/docs/*.parquet')) read the same files.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any, NamedTuple

from warc_ray import corpus as corpus_mod

# query outputs (WARC/ARC shards, crawl logs) go to tmpfs when present:
# this host's /tmp disk writes ~11 MB/s with multi-second writeback
# stalls, vs ~1.5 GB/s to /dev/shm — archive-writing queries were
# writeback-throttled, not compute-bound
_CRAWL_OUT = os.environ.get(
    "GRAFT_QUERY_OUT",
    "/dev/shm/warc_ray_out" if os.path.isdir("/dev/shm")
    else "/tmp/warc_ray_out")


def _corpus_for(sf_dir: str) -> str:
    return corpus_mod.ensure_corpus(corpus_mod.profile_for_sf_dir(sf_dir))


def entry() -> Any:
    """Flagship: frontier crawl of the t1 corpus → fetch log Dataset."""
    from warc_ray.pipelines.crawl import read_fetch_log, run_crawl
    from warc_ray.state.frontier import FrontierConfig

    cdir = corpus_mod.ensure_corpus("t1")
    out = os.path.join(_CRAWL_OUT, "entry-crawl")
    run_crawl(cdir, out,
              config=FrontierConfig(num_shards=4, max_rounds=30,
                                    filter_capacity=1 << 14),
              write_warc=True)
    return read_fetch_log(out)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _extract_links_q(sf_dir: str):
    from warc_ray.sources._util import scan_parquet
    from warc_ray.stages.urls import extract_links

    cdir = _corpus_for(sf_dir)
    ds = scan_parquet(corpus_mod.docs_path(cdir))
    # no final sort: the driver's value check is order-insensitive, and
    # a total sort of millions of link rows would be the single biggest
    # shuffle in the query for zero semantic content
    return ds.map_batches(lambda b: extract_links(b).drop_columns(["depth"]),
                          batch_format="pyarrow")


def _degree_histogram_q(sf_dir: str):
    from warc_ray.pipelines.analytics import degree_histogram

    cdir = _corpus_for(sf_dir)
    return degree_histogram(corpus_mod.docs_path(cdir))


def _triangle_count_q(sf_dir: str):
    from warc_ray.pipelines.analytics import triangle_count

    cdir = _corpus_for(sf_dir)
    return triangle_count(corpus_mod.docs_path(cdir))


def _seed_distance_q(sf_dir: str):
    from warc_ray.pipelines.analytics import seed_distance_histogram

    cdir = _corpus_for(sf_dir)
    return seed_distance_histogram(
        corpus_mod.docs_path(cdir),
        os.path.join(cdir, "seeds.parquet"))


def _host_reciprocity_q(sf_dir: str):
    from warc_ray.pipelines.analytics import host_reciprocity

    cdir = _corpus_for(sf_dir)
    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    return host_reciprocity(corpus_mod.docs_path(cdir), prof.n_hosts)


def _revisit_dedup_q(sf_dir: str):
    from warc_ray.pipelines.archive import revisit_decisions

    arch = _ensure_archive(sf_dir)
    cdir = _corpus_for(sf_dir)
    return revisit_decisions(arch, corpus_mod.docs_path(cdir))


def _seen_dedup_q(sf_dir: str):
    import pyarrow as pa

    from warc_ray.sources._util import read_parquet
    from warc_ray.stages.exchange import combine_buckets
    from warc_ray.stages.urls import canonicalize_batch, extract_links

    cdir = _corpus_for(sf_dir)
    ds = read_parquet(corpus_mod.docs_path(cdir))

    def partial(b: pa.Table) -> pa.Table:
        # with_hashes=False: this pipeline groups on the canonical URL
        # string; sha1/hash64 would be computed for 14M links and
        # immediately dropped
        links = canonicalize_batch(extract_links(b), with_hashes=False)
        return pa.table({"url": links["url"], "first_doc": links["src_doc"]})

    # order-insensitive driver check → no final sort (see q50).
    # combine_buckets reduces each block before its 32-bucket exchange,
    # so one row per (block, URL) moves, not one per link.
    return combine_buckets(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        "url", [("first_doc", "min"), ("n_refs", "count")])


def _hll_host_distinct_q(sf_dir: str):
    """Approximate distinct URLs per host via the mergeable HyperLogLog
    sketch (stages/sketch.py): shuffle volume is one 4 KB register cell
    per (host, batch) regardless of link cardinality — the 100-TB
    alternative to q51's exact exchange.  Value-exact vs the DuckDB
    oracle (md5-prefix-64 key hash + integer estimator); accuracy and
    merge laws additionally pytest-gated."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from warc_ray.sources._util import read_parquet
    from warc_ray.stages.exchange import sort_result
    from warc_ray.stages.sketch import hll_distinct
    from warc_ray.stages.urls import extract_links

    cdir = _corpus_for(sf_dir)
    ds = read_parquet(corpus_mod.docs_path(cdir))

    def links_with_host(b: pa.Table) -> pa.Table:
        links = extract_links(b)
        host = pc.struct_field(pc.extract_regex(
            links["url"], r"^https?://(?P<host>[^/:]+)"), "host")
        return pa.table({"url": links["url"], "host": host})

    return sort_result(hll_distinct(
        ds.map_batches(links_with_host, batch_format="pyarrow",
                       batch_size=None),
        key_col="url", group_col="host"), "host")


def _cms_url_refs_q(sf_dir: str):
    """Estimated reference count per URL from a count-min sketch
    (stages/sketch.py), probed at the deterministic 1/97 md5 sample of
    the URL space — the fixed-size-sketch alternative to q51's exact
    per-URL exchange when key cardinality is too large to shuffle: the
    scan ships one 256 KiB counter cell per block plus the sampled
    probe keys, never the URL stream.  Value-exact vs the DuckDB
    oracle (the D row hashes are the four 32-bit chunks of one md5, so
    SQL folds the same hex chunks); no-undercount / merge laws
    additionally pytest-gated."""
    import pyarrow as pa

    from warc_ray.sources._util import read_parquet
    from warc_ray.stages.sketch import cms_freq
    from warc_ray.stages.urls import extract_links

    cdir = _corpus_for(sf_dir)
    ds = read_parquet(corpus_mod.docs_path(cdir))

    def links(b: pa.Table) -> pa.Table:
        return extract_links(b).select(["url"])

    return cms_freq(
        ds.map_batches(links, batch_format="pyarrow", batch_size=None),
        key_col="url")


def _crawl_config(prof):
    """The ONE config both the distributed query crawl and the
    single-process oracle simulator run under — crawl-order / seen-set
    parity (BASELINE.json) is only meaningful at identical configs."""
    from warc_ray.state.frontier import FrontierConfig

    return FrontierConfig(num_shards=min(8, max(4, prof.n_buckets // 2)),
                          max_rounds=30, filter_capacity=1 << 18)


def _stamp_for(prof) -> str:
    import json
    from dataclasses import asdict

    return json.dumps(dict(asdict(prof), gen=corpus_mod.GEN_VERSION,
                           layout=2))


def _ensure_crawl(sf_dir: str) -> str:
    """Run the frontier crawl for sf_dir's corpus once (deterministic);
    later queries over the fetch log reuse the output directory."""
    import shutil

    from warc_ray.pipelines.crawl import run_crawl

    cdir = _corpus_for(sf_dir)
    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    out = os.path.join(_CRAWL_OUT, f"crawl-{prof.name}")
    done = os.path.join(out, "DONE")
    # stamp = corpus params + generator + output-layout version, so a
    # cached crawl is invalidated whenever any of them change
    stamp = _stamp_for(prof)
    if not (os.path.exists(done) and open(done).read() == stamp):
        shutil.rmtree(out, ignore_errors=True)
        run_crawl(cdir, out, config=_crawl_config(prof), write_warc=False)
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _ensure_sim_log(profile_name: str) -> str:
    """Fetch-log parquet from the SINGLE-PROCESS oracle simulator
    (pipelines/oracle.py) for ``profile_name``, stamp-cached.

    This is the independent side of the q52/q54/q55 DuckDB oracles: the
    distributed crawl's fetch log (Ray side) must equal plain SQL over
    the simulator's log — the north-rule crawl-order parity check,
    surfaced as a driver value-hash match instead of pytest-only."""
    from warc_ray.pipelines.oracle import simulate

    import pyarrow.parquet as pq

    prof = corpus_mod.PROFILES[profile_name]
    cdir = corpus_mod.ensure_corpus(prof)
    os.makedirs(_CRAWL_OUT, exist_ok=True)
    path = os.path.join(_CRAWL_OUT, f"simlog-{prof.name}.parquet")
    done = path + ".DONE"
    stamp = _stamp_for(prof)
    if not (os.path.exists(done) and open(done).read() == stamp
            and os.path.exists(path)):
        res = simulate(cdir, config=_crawl_config(prof))
        pq.write_table(res["log"], path)
        with open(done, "w") as f:
            f.write(stamp)
    return path


def _crawl_q(sf_dir: str):
    """Full frontier crawl (seen-set, politeness, robots, round barriers);
    value parity vs the single-process oracle is asserted in pytest —
    here the driver records the rows-only check."""
    from warc_ray.pipelines.crawl import read_fetch_log
    from warc_ray.stages.exchange import sort_result

    out = _ensure_crawl(sf_dir)
    return sort_result(read_fetch_log(out),
                       ["round", "host", "fetch_seq", "url"])


def _hottest_hosts_q(sf_dir: str):
    from warc_ray.pipelines.crawl import read_fetch_log
    from warc_ray.pipelines.reports import hottest_hosts

    return hottest_hosts(read_fetch_log(_ensure_crawl(sf_dir)), k=20)


def _crawl_metrics_q(sf_dir: str):
    from warc_ray.pipelines.crawl import read_fetch_log
    from warc_ray.pipelines.reports import crawl_metrics

    return crawl_metrics(read_fetch_log(_ensure_crawl(sf_dir)))


def _host_link_stats_q(sf_dir: str):
    """Per-host inbound-link aggregation with hot-key salting (G11) —
    host-0 owns ~20% of the corpus, the exact skew the salting splits."""
    from warc_ray.sources._util import read_parquet
    from warc_ray.stages.exchange import sort_result
    from warc_ray.stages.hoststats import host_link_stats
    from warc_ray.stages.urls import extract_links

    cdir = _corpus_for(sf_dir)
    links = read_parquet(corpus_mod.docs_path(cdir)).map_batches(
        lambda b: extract_links(b), batch_format="pyarrow", batch_size=None)
    # one row per host: sorted on the driver, not by a Ray sort
    return sort_result(host_link_stats(links, target_per_group=2_000),
                       ["host"])


def _heavy_hitter_hosts_q(sf_dir: str):
    """Exact phi-heavy-hitter hosts through the two-pass Misra-Gries
    sketch (stages/sketch.mg_heavy_hitters): pass 1 folds ≤65 summary
    rows per block into a candidate superset guaranteed to contain
    every host with > 1/64 of all links (host-0's Zipf head), pass 2
    exact-counts only the ≤64 candidates.  Nothing key-cardinality-
    shaped ever shuffles or lands on the driver — the bounded-memory
    complement to q56's exact per-host exchange and q49's CMS
    estimates."""
    from warc_ray.sources._util import read_parquet
    from warc_ray.stages.hoststats import add_host_column
    from warc_ray.stages.sketch import mg_heavy_hitters
    from warc_ray.stages.urls import extract_links

    cdir = _corpus_for(sf_dir)
    hosts = read_parquet(corpus_mod.docs_path(cdir)).map_batches(
        lambda b: add_host_column(extract_links(b)).select(["host"]),
        batch_format="pyarrow", batch_size=None)
    return mg_heavy_hitters(hosts, "host", k=64, phi_inv=64,
                            count_name="n_links")


def _ensure_archive(sf_dir: str) -> str:
    """Archive the corpus to .warc.gz shards once; q53/q57 share it."""
    import json
    import shutil
    from dataclasses import asdict

    from warc_ray.pipelines.archive import archive_corpus

    cdir = _corpus_for(sf_dir)
    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    out = os.path.join(_CRAWL_OUT, f"warc-{prof.name}")
    done = out + ".DONE"   # outside the dir — the WARC reader scans ALL files
    stamp = json.dumps(dict(asdict(prof), gen=corpus_mod.GEN_VERSION,
                        fmt=3))  # fmt: archive record layout version
    if not (os.path.exists(done) and open(done).read() == stamp):
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(out + "-cdx", ignore_errors=True)
        # persist the CDX offset index next to the shards (its own dir
        # — the WARC reader scans every file under `out`); q65 replays
        # records through it by compressed offset
        archive_corpus(corpus_mod.docs_path(cdir), out) \
            .write_parquet(out + "-cdx")
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _cdx_lookup_q(sf_dir: str):
    """Distributed random-access record replay through the CDX offset
    index — the read side of reference op #10 (``browse()``/``tell()``
    compressed offsets, warc/warc.py:284-313): a deterministic md5
    sample of CDX rows fans out to readers that SEEK each shard at the
    recorded offset, gunzip exactly one member (the member-per-record
    write invariant makes any record independently decodable), parse
    it, and verify the payload digest.  No shard is scanned — bytes
    read = sum of sampled record lengths.  Oracle is expected-value in
    the q53 style: the same sample straight off the CDX parquet with
    digest_ok asserted TRUE, so any seek/frame/parse/digest defect
    hash-mismatches."""
    import numpy as np
    import pyarrow as pa

    from warc_ray.pipelines.archive import cdx_replay_batch
    from warc_ray.sources._util import scan_parquet
    from warc_ray.stages.exchange import sort_result
    from warc_ray.stages.sketch import md5_prefix64

    out = _ensure_archive(sf_dir)
    cdx = scan_parquet(out + "-cdx")

    def sample(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.not_equal(b["rec_type"], "warcinfo"))
        h = md5_prefix64(b["record_id"].to_pylist())
        return b.filter(pa.array(h % np.uint64(97) == 0))

    return sort_result(cdx.map_batches(sample, batch_format="pyarrow")
                       .map_batches(cdx_replay_batch, batch_format="pyarrow"),
                       "record_id")


def _verify_spans_q(sf_dir: str):
    """Span-invariant verifier (G13): archive the corpus, read the WARC
    back, compare recovered (kind, text, media_ref, order) against the
    corpus.  Shuffle-free fingerprint fast path; per-doc shuffle join
    fallback localizes failures (pipelines/verify.py)."""
    from warc_ray.pipelines.verify import verify_spans_summary

    cdir = _corpus_for(sf_dir)
    out = _ensure_archive(sf_dir)
    return verify_spans_summary(out, corpus_mod.docs_path(cdir))


def _warc_roundtrip_q(sf_dir: str):
    """Archive the corpus to .warc.gz shards, read back with the
    distributed reader, return per-type record counts + digest checks.

    warcinfo records are excluded from the compared output — their
    count is the (layout-dependent) shard count, not a corpus
    invariant; warcinfo integrity itself is pinned by the pytest
    roundtrip tests.  The oracle is expected-value: every corpus doc
    must come back as exactly one response + one metadata record, all
    payload digests verified."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from warc_ray.core.warcrec import sha1_digest
    from warc_ray.sources import read_warc
    from warc_ray.stages.exchange import combine_buckets, sort_result

    ds = read_warc(_ensure_archive(sf_dir))

    def check(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b["rec_type"], "warcinfo"))
        ok = [int(sha1_digest(bytes(p)) == d)
              for p, d in zip(b["payload"].to_pylist(),
                              b["payload_digest"].to_pylist())]
        return pa.table({"rec_type": b["rec_type"],
                         "n_digest_ok": pa.array(ok, type=pa.int64())})

    # combine_buckets reduces each block to <= 2 rows before the combine
    return sort_result(combine_buckets(
        ds.map_batches(check, batch_format="pyarrow"), "rec_type",
        [("n_records", "count"), ("n_digest_ok", "sum")]), ["rec_type"])


def _wet_extract_q(sf_dir: str):
    """WET-style text-extraction derivative over the WARC archive
    (pipelines/archive.py:wet_extraction) — oracle reconstructs the
    expected per-doc plain text (and its md5) from the corpus spans."""
    from warc_ray.pipelines.archive import wet_extraction

    return wet_extraction(_ensure_archive(sf_dir))


def _robots_audit_q(sf_dir: str):
    """q259: robots-compliance audit over the fetch log — n_violations
    must be zero for every ruled host (pipelines/reports.py)."""
    from warc_ray.pipelines.crawl import read_fetch_log
    from warc_ray.pipelines.reports import robots_audit

    cdir = _corpus_for(sf_dir)
    return robots_audit(read_fetch_log(_ensure_crawl(sf_dir)),
                        corpus_mod.read_robots(cdir))


def _wat_extract_q(sf_dir: str):
    """q258: WAT-style metadata derivative over the WARC archive
    (pipelines/archive.py:wat_extraction) — oracle reconstructs the
    expected per-doc outlink list + media count from the corpus
    spans."""
    from warc_ray.pipelines.archive import wat_extraction

    return wat_extraction(_ensure_archive(sf_dir))


def _span_census_q(sf_dir: str):
    """q256: per-kind span census over the interleaved corpus (spans
    list<struct> analytics — pipelines/spans.py)."""
    from warc_ray.pipelines.spans import span_census

    return span_census(corpus_mod.docs_path(_corpus_for(sf_dir)))


def _anchor_index_q(sf_dir: str):
    """q257: anchor-text index over the corpus link spans
    (pipelines/spans.py)."""
    from warc_ray.pipelines.spans import anchor_text_index

    return anchor_text_index(corpus_mod.docs_path(_corpus_for(sf_dir)))


def _ensure_jsonl(sf_dir: str) -> str:
    """events.parquet → nested .jsonl shards ONCE per sf dir (stamped)
    — the q158 text-ingestion fixture (pipelines/logs.py)."""
    from warc_ray.pipelines.logs import export_events_jsonl

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CRAWL_OUT, f"jsonl-{tag}")
    done = out + ".DONE"
    stamp = "fmt=1|src=%s" % os.path.join(sf_dir, "events.parquet")
    if not (os.path.exists(done) and open(done).read() == stamp):
        export_events_jsonl(sf_dir, out)
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _jsonl_ingest_q(sf_dir: str):
    """JSONL log ingestion (q158): export events as nested NDJSON
    shards, read back distributed, flatten, aggregate — value-exact
    against DuckDB over the ORIGINAL parquet."""
    from warc_ray.pipelines.logs import ingest_events_jsonl

    return ingest_events_jsonl(_ensure_jsonl(sf_dir))


def _ensure_csv(sf_dir: str) -> str:
    """events.parquet → RFC-4180 .csv shards ONCE per sf dir (stamped)
    — the q202 CSV-ingestion fixture (pipelines/logs.py)."""
    from warc_ray.pipelines.logs import export_events_csv

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CRAWL_OUT, f"csv-{tag}")
    done = out + ".DONE"
    stamp = "fmt=1|src=%s" % os.path.join(sf_dir, "events.parquet")
    if not (os.path.exists(done) and open(done).read() == stamp):
        export_events_csv(sf_dir, out)
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _csv_ingest_q(sf_dir: str):
    """CSV ingestion (q202): export events as quoted RFC-4180 shards,
    read back distributed, aggregate — value-exact against DuckDB over
    the ORIGINAL parquet (quoting defects shift props_bytes/sum_k)."""
    from warc_ray.pipelines.logs import ingest_events_csv

    return ingest_events_csv(_ensure_csv(sf_dir))


def _ensure_fixedwidth(sf_dir: str) -> str:
    """orders.parquet → fixed-width .dat shards ONCE per sf dir
    (stamped) — the q215 mainframe-format fixture (pipelines/logs.py)."""
    from warc_ray.pipelines.logs import export_orders_fixedwidth

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CRAWL_OUT, f"fixedwidth-{tag}")
    done = out + ".DONE"
    stamp = "fmt=1|src=%s" % os.path.join(sf_dir, "orders.parquet")
    if not (os.path.exists(done) and open(done).read() == stamp):
        export_orders_fixedwidth(sf_dir, out)
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _fixedwidth_ingest_q(sf_dir: str):
    """Fixed-width ingestion (q215): export orders as 60-char layout
    lines, read back via read_text + vectorized slicing, aggregate —
    value-exact against DuckDB over the ORIGINAL parquet."""
    from warc_ray.pipelines.logs import ingest_orders_fixedwidth

    return ingest_orders_fixedwidth(_ensure_fixedwidth(sf_dir))


def _format_consistency_q(sf_dir: str):
    """q235: cross-format consistency audit — the SAME event totals
    computed from the parquet source, the JSONL landing zone (q158)
    and the CSV landing zone (q202) must agree byte-for-byte: the
    multi-source reconciliation a lake ingest runs before promoting a
    format migration.  Each leg reuses its ingest pipeline's exact
    integer aggregate; the driver folds three 5-row tables."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from warc_ray.pipelines.logs import (ingest_events_csv,
                                         ingest_events_jsonl)
    from warc_ray.sources._util import scan_parquet
    from warc_ray.stages.exchange import collect

    def totals_from(t):
        return (int(pc.sum(t["n_events"]).as_py()),
                int(pc.sum(t["sum_cents"]).as_py()))

    import numpy as np

    # parquet leg: distributed per-batch (count, cents-sum) partials +
    # scalar driver fold, mirroring the JSONL/CSV legs — never a
    # driver-side pq.read_table of a fact column (at 100x the events
    # table that is a driver OOM)
    def pq_partial(b: pa.Table) -> pa.Table:
        cents = np.rint(b["value"].to_numpy(zero_copy_only=False)
                        * 100).astype(np.int64)
        return pa.table({
            "n_events": pa.array([b.num_rows], type=pa.int64()),
            "sum_cents": pa.array([int(cents.sum())], type=pa.int64())})

    pt = collect(scan_parquet(os.path.join(sf_dir, "events.parquet"),
                              columns=["value"])
                 .map_batches(pq_partial, batch_format="pyarrow"))
    pq_totals = totals_from(pt)
    jt = collect(ingest_events_jsonl(_ensure_jsonl(sf_dir)))
    ct = collect(ingest_events_csv(_ensure_csv(sf_dir)))
    rows = [("csv",) + totals_from(ct),
            ("jsonl",) + totals_from(jt),
            ("parquet",) + pq_totals]
    ref = rows[2][1:]
    return pa.table({
        "format": pa.array([r[0] for r in rows], type=pa.string()),
        "n_events": pa.array([r[1] for r in rows], type=pa.int64()),
        "sum_cents": pa.array([r[2] for r in rows], type=pa.int64()),
        "matches_parquet": pa.array([r[1:] == ref for r in rows])})


def _ensure_jsonl_corrupt(sf_dir: str) -> str:
    """events.parquet → .jsonl shards with planted torn lines ONCE per
    sf dir (stamped) — the q167 dead-letter fixture."""
    from warc_ray.pipelines.logs import export_events_jsonl_corrupt

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CRAWL_OUT, f"jsonlbad-{tag}")
    done = out + ".DONE"
    stamp = "fmt=1|src=%s" % os.path.join(sf_dir, "events.parquet")
    if not (os.path.exists(done) and open(done).read() == stamp):
        export_events_jsonl_corrupt(sf_dir, out)
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _jsonl_dlq_q(sf_dir: str):
    """Error-tolerant ingestion + dead-letter queue (q167): torn lines
    quarantine (and reconcile in the report), valid lines aggregate —
    oracle replays the corruption rule on the original table."""
    import shutil

    from warc_ray.pipelines.logs import ingest_events_jsonl_dlq

    src = _ensure_jsonl_corrupt(sf_dir)
    dlq = src + "-dlq"
    shutil.rmtree(dlq, ignore_errors=True)
    return ingest_events_jsonl_dlq(src, dlq)


def _ensure_evolved(sf_dir: str) -> str:
    """events.parquet → two mixed-schema parquet generations ONCE per
    sf dir (stamped) — the q162 schema-evolution fixture."""
    from warc_ray.pipelines.logs import export_events_evolved

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CRAWL_OUT, f"evolved-{tag}")
    done = out + ".DONE"
    stamp = "fmt=1|src=%s" % os.path.join(sf_dir, "events.parquet")
    if not (os.path.exists(done) and open(done).read() == stamp):
        export_events_evolved(sf_dir, out)
        with open(done, "w") as f:
            f.write(stamp)
    return out


def _evolved_scan_q(sf_dir: str):
    """Schema-evolution read (q162): union-by-name + type widening
    inside the scan task (io.read_evolved), aggregated across
    generations — oracle replays the generation rules on the
    original table."""
    from warc_ray.pipelines.logs import evolved_scan

    return evolved_scan(_ensure_evolved(sf_dir))


def _write_arc_fixture(sf_dir: str, out: str) -> None:
    """Fetched docs → .arc.gz shards under ``out``: the corpus seeds,
    canonicalized and fetched by a ``FetchGroup`` pool, one ARC record
    per document (q58 and q78)."""
    import pyarrow as pa

    from warc_ray.sinks import write_arc_shards
    from warc_ray.stages.exchange import (from_arrow, materialize,
                                          sort_result)
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column
    from warc_ray.stages.urls import urls_from_seeds

    cdir = _corpus_for(sf_dir)
    prof = corpus_mod.profile_for_sf_dir(sf_dir)

    def prep(b: pa.Table) -> pa.Table:
        # canonicalize IN the workers (the serial driver-side pass was
        # ~1/4 of q58), then tag the columns FetchGroup reads
        t = urls_from_seeds(b)
        n = t.num_rows
        t = t.append_column("round", pa.array([0] * n, type=pa.int32()))
        t = t.append_column("fetch_seq",
                            pa.array(t["src_offset"].cast(pa.int64())))
        return add_bucket_column(t, prof.n_buckets)

    def to_arc_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "url": b["url"],
            "ip_address": pa.array(["127.0.0.1"] * n),
            "date": pa.array(["20260101000000"] * n),
            "content_type": b["content_type"],
            "body": b["body"],
        })

    # bucket-sort so each fetch actor's batch touches few corpus
    # buckets (same locality the crawl loop gets from its stable
    # bucket→worker assignment); FetchGroup as an actor POOL keeps the
    # rendered bucket caches warm across batches
    seeds = from_arrow(corpus_mod.read_seeds(cdir)).repartition(32) \
        .map_batches(prep, batch_format="pyarrow")
    fetched = sort_result(seeds, "bucket") \
        .map_batches(FetchGroup, fn_constructor_args=(cdir, prof.n_buckets),
                     batch_format="pyarrow", batch_size=8192,
                     # rendering dominates this query (~110 µs/row —
                     # 67 core-s at sf0.1), so size the pool to the
                     # node, not to cache frugality: (4,28) measured
                     # 8.7 s cold / 6.2 s warm vs 12.4 / 7.8 at (1,12);
                     # bucket-sorted input keeps per-actor bucket
                     # ranges contiguous either way
                     concurrency=(4, 28))
    materialize(write_arc_shards(
        fetched.map_batches(to_arc_rows, batch_format="pyarrow"), out))


def _ensure_arc_src(sf_dir: str) -> str:
    """``_write_arc_fixture`` ONCE per profile (stamped) — the
    migration fixture q78 reads; q58 keeps its own unstamped dir (it
    tests the sink itself, rewriting deliberately)."""
    import json
    import shutil
    from dataclasses import asdict

    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    out = os.path.join(_CRAWL_OUT, f"arcsrc-{prof.name}")
    done = out + ".DONE"
    stamp = json.dumps(dict(asdict(prof), gen=corpus_mod.GEN_VERSION, fmt=1))
    if os.path.exists(done) and open(done).read() == stamp:
        return out
    shutil.rmtree(out, ignore_errors=True)
    _write_arc_fixture(sf_dir, out)
    with open(done, "w") as f:
        f.write(stamp)
    return out


def _arc_to_warc_q(sf_dir: str):
    """q78: ARC → WARC migration — the cross-format pipeline the
    reference's dual reader/writer surface exists for (the Internet
    Archive's own historical ARC→WARC conversion): distributed
    ``read_arc`` (member-aligned splits) → per-record field mapping
    (ARC positional header → WARC named headers, ARC
    ``YYYYmmddHHMMSS`` date → ISO-8601 WARC-Date, fresh record ids +
    sha1 payload digests) → ``serialize_records`` fast path →
    ``write_warc_shards`` (record-per-member gzip + CDX) →
    distributed ``read_warc`` read-back verifying every migrated
    record's digest.  Output: one row — migrated record count, total
    payload bytes, digests_ok — matched against the corpus-derived
    expected values in SQL (q58's body-length model + asserted-true
    digest column)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from warc_ray.core.warcrec import sha1_digest
    from warc_ray.sinks import write_warc_shards
    from warc_ray.sources import read_arc, read_warc
    from warc_ray.stages.assemble import (arc_rows_to_warc_records,
                                          serialize_records)
    from warc_ray.stages.exchange import (collect, combine_buckets,
                                          materialize)

    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    arc_dir = _ensure_arc_src(sf_dir)
    out = os.path.join(_CRAWL_OUT, f"warc-mig-{prof.name}")

    migrated = read_arc(arc_dir) \
        .map_batches(arc_rows_to_warc_records, batch_format="pyarrow") \
        .map_batches(serialize_records, batch_format="pyarrow")
    materialize(write_warc_shards(migrated, out))

    def check(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["rec_type"], "response"))
        ok = sum(int(sha1_digest(bytes(p)) == d)
                 for p, d in zip(b["payload"].to_pylist(),
                                 b["payload_digest"].to_pylist()))
        nb = int(pc.sum(pc.binary_length(b["payload"])).as_py() or 0)
        return pa.table({"k": pa.array([0], type=pa.int64()),
                         "n_records": pa.array([b.num_rows], type=pa.int64()),
                         "payload_bytes": pa.array([nb], type=pa.int64()),
                         "n_digest_ok": pa.array([ok], type=pa.int64())})

    agg = combine_buckets(
        read_warc(out).map_batches(check, batch_format="pyarrow"), "k",
        [("n_records", "sum"), ("payload_bytes", "sum"),
         ("n_digest_ok", "sum")])
    t = collect(agg)
    return pa.table({
        "n_records": t["n_records"],
        "payload_bytes": t["payload_bytes"],
        "digests_ok": pa.array(
            [t["n_digest_ok"][0].as_py() == t["n_records"][0].as_py()]),
    })


def _arc_roundtrip_q(sf_dir: str):
    """ARC slice: fetched docs → .arc.gz shards (filedesc headers) →
    distributed read-back; returns per-shard record counts + byte sums."""
    import shutil

    import pyarrow as pa

    from warc_ray.sources import read_arc
    from warc_ray.stages.exchange import combine_buckets

    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    out = os.path.join(_CRAWL_OUT, f"arc-{prof.name}")
    shutil.rmtree(out, ignore_errors=True)
    _write_arc_fixture(sf_dir, out)
    back = read_arc(out)

    def lengths(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "version": b["arc_version"],
            "payload_bytes": pc.cast(pc.binary_length(b["payload"]),
                                     pa.int64())})

    return combine_buckets(
        back.map_batches(lengths, batch_format="pyarrow"), "version",
        [("n_records", "count"), ("payload_bytes", "sum")])


# ---------------------------------------------------------------------------
# the query registry
# ---------------------------------------------------------------------------

class Query(NamedTuple):
    """One registry row.  ``fn`` takes ``sf_dir`` and returns a Dataset
    or pyarrow Table.  ``sql`` is its DuckDB oracle (same column names,
    integer-exact measures): the text, or a function of
    ``oracle_sql.corpus.CorpusPaths`` for an oracle that reads corpus
    artifacts.  A query with no SQL twin has ``sql=None`` and says why
    in ``rows_only``; its laws are pytest-gated instead."""
    name: str
    fn: Callable[[str], Any]
    sql: str | Callable[[Any], str] | None
    rows_only: str = ""


def registry() -> list[Query]:
    """Every query, declared once, in driver order.

    The correctness driver samples the FIRST 50 rows.  Round-3 VERDICT
    item 1: rotate this head each round to a NEVER-driver-sampled,
    family-spanning set so cumulative driver-hard coverage grows
    (rounds 1-4 verified 159 distinct queries; the round-5 head adds 50
    more, none of which appear in CORRECTNESS_r01-r04).  Every head row
    has a full DuckDB oracle, and the rows-only queries sit after it,
    so the sampled window is 100% value-checked.  The round 1-4 sampled
    set is pinned in tests/test_registry.py (PREVIOUSLY_SAMPLED) with a
    disjointness invariant."""
    from warc_ray.oracle_sql import analytics as oa
    from warc_ray.oracle_sql import corpus as oc
    from warc_ray.oracle_sql import relational as orl
    from warc_ray.oracle_sql import training as otr
    from warc_ray.pipelines import analytics as an
    from warc_ray.pipelines import relational as rel
    from warc_ray.pipelines import training as tr

    Q = Query
    return [
        # graph / hierarchy (iterative + semiring pointer doubling)
        Q("q29_pagerank", rel.part_supplier_pagerank, orl.PAGERANK_SQL),
        Q("q201_assortativity", an.degree_assortativity, oa.ASSORT_SQL),
        Q("q176_bom_explosion", an.bom_explosion, oa.BOM_SQL),
        Q("q159_hierarchy_rollup", an.hierarchy_rollup, oa.HIERARCHY_SQL),
        # engine primitives (window / sample / quantile / interval shapes)
        Q("q16_doc_sample", rel.sample_documents, orl.DOC_SAMPLE_SQL),
        Q("q66_rollup_lineitem", rel.rollup_lineitem, orl.ROLLUP_LINEITEM_SQL),
        Q("q73_quality_deciles", rel.quality_deciles, orl.QUALITY_DECILES_SQL),
        Q("q77_outlier_events", rel.outlier_events, orl.OUTLIER_EVENTS_SQL),
        Q("q133_lineitem_profile", an.lineitem_profile, oa.LINEITEM_PROFILE_SQL),
        Q("q134_trimmed_mean", an.trimmed_mean_value, oa.TRIMMED_MEAN_SQL),
        Q("q136_equidepth_histogram", an.equidepth_histogram, oa.EQUIDEPTH_SQL),
        Q("q141_big_spenders", an.big_spenders, oa.BIG_SPENDERS_SQL),
        Q("q145_weighted_median", an.weighted_median_price, oa.WEIGHTED_MEDIAN_SQL),
        Q("q144_max_concurrent", an.max_concurrent_sessions, oa.MAX_CONCURRENT_SQL),
        Q("q164_pit_snapshot", an.pit_state_snapshot, oa.PIT_SNAPSHOT_SQL),
        Q("q165_windowed_pairs", an.windowed_pair_join, oa.WINDOWED_PAIR_SQL),
        Q("q200_interval_union", an.interval_union, oa.INTERVAL_UNION_SQL),
        # storage layout / anti-entropy
        Q("q139_zorder_range", an.zorder_range_scan, oa.ZORDER_RANGE_SQL),
        Q("q142_replica_repair", an.replica_repair, oa.REPLICA_REPAIR_SQL),
        # text / training-data prep
        Q("q36_repetition", tr.repetition_stats, otr.REPETITION_SQL),
        Q("q61_window_chunks", tr.window_chunks, otr.WINDOW_CHUNKS_SQL),
        Q("q80_mode_lang_by_source", tr.mode_lang_by_source, otr.MODE_LANG_BY_SOURCE_SQL),
        Q("q151_naive_bayes", an.naive_bayes, oa.NAIVE_BAYES_SQL),
        Q("q153_logreg_train", an.logreg_train, oa.LOGREG_SQL),
        Q("q196_brand_triples", an.brand_triples, oa.TRIPLES_SQL),
        Q("q204_journey_paths", an.journey_paths, oa.JOURNEY_SQL),
        Q("q208_quantized_retrieval", an.quantized_retrieval, oa.QUANT_RETRIEVAL_SQL),
        # exact / privacy statistics
        Q("q140_private_count", an.private_purchase_count, oa.PRIVATE_COUNT_SQL),
        Q("q146_drift_psi", an.drift_psi, oa.DRIFT_PSI_SQL),
        Q("q147_ab_experiment", an.ab_experiment, oa.AB_EXPERIMENT_SQL),
        Q("q155_benford", an.benford_audit, oa.BENFORD_SQL),
        Q("q166_bootstrap_ci", an.bootstrap_ci, oa.BOOTSTRAP_SQL),
        Q("q178_mi_table", an.mi_contributions, oa.MI_SQL),
        Q("q231_kendall_tau", an.kendall_tau, oa.KENDALL_SQL),
        Q("q242_discount_response", an.discount_response, oa.DISCOUNT_RESPONSE_SQL),
        Q("q191_gini_spend", an.gini_spend, oa.GINI_SQL),
        # business / operational censuses and audits
        Q("q143_revenue_rollup_geo", an.revenue_rollup_geo, oa.REVENUE_ROLLUP_GEO_SQL),
        Q("q148_basket_pairs", an.basket_pairs, oa.BASKET_PAIRS_SQL),
        Q("q149_spatial_join", an.spatial_radius_join, oa.SPATIAL_JOIN_SQL),
        Q("q156_gdpr_cascade", an.gdpr_cascade, oa.GDPR_CASCADE_SQL),
        Q("q161_lpm_enrich", an.lpm_enrich, oa.LPM_ENRICH_SQL),
        Q("q169_activity_streaks", an.activity_streaks, oa.STREAKS_SQL),
        Q("q170_fd_discovery", an.fd_discovery, oa.FD_DISCOVERY_SQL),
        Q("q171_changepoint", an.cusum_changepoint, oa.CUSUM_SQL),
        Q("q172_period_movers", an.period_movers, oa.MOVERS_SQL),
        Q("q174_reconcile", an.reconciliation_audit, oa.RECONCILE_SQL),
        Q("q175_pareto_cut", an.pareto_cut, oa.PARETO_SQL),
        Q("q177_apportioned_sample", an.apportioned_sample, oa.APPORTION_SQL),
        Q("q180_time_weighted_avg", an.time_weighted_avg, oa.TWA_SQL),
        Q("q182_lifecycle_audit", an.lifecycle_audit, oa.LIFECYCLE_SQL),
        # ---- end of the driver-sampled head ----
        # relational / wide operators (G11/G15/G17 patterns)
        Q("q01_agg_lineitem", rel.agg_lineitem, orl.AGG_LINEITEM_SQL),
        # session-5 analytics / lakehouse operators
        Q("q81_merge_upsert", an.merge_upsert, oa.MERGE_UPSERT_SQL),
        Q("q82_group_concat", an.group_concat, oa.GROUP_CONCAT_SQL),
        Q("q83_feature_corr", an.feature_corr, oa.FEATURE_CORR_SQL),
        Q("q84_json_props", an.json_props_stats, oa.JSON_PROPS_SQL),
        Q("q85_retention_cohorts", an.retention_cohorts, oa.RETENTION_SQL),
        Q("q86_vocab_build", an.vocab_build, oa.VOCAB_BUILD_SQL),
        Q("q87_containment_pairs", an.containment_pairs, oa.CONTAINMENT_SQL),
        Q("q88_source_mixture", an.source_mixture, oa.SOURCE_MIXTURE_SQL),
        Q("q89_pivot_events", an.pivot_events, oa.PIVOT_EVENTS_SQL),
        Q("q90_funnel", an.funnel, oa.FUNNEL_SQL),
        Q("q91_degree_histogram", _degree_histogram_q, oc.degree_histogram),
        Q("q92_debounce_events", an.debounce_events, oa.DEBOUNCE_SQL),
        Q("q93_bigram_topk", an.bigram_topk, oa.BIGRAM_TOPK_SQL),
        Q("q94_cumulative_users", an.cumulative_users, oa.CUMULATIVE_USERS_SQL),
        Q("q95_cooccurrence", an.cooccurrence, oa.COOCCURRENCE_SQL),
        Q("q97_session_trigrams", an.session_trigrams, oa.SESSION_TRIGRAMS_SQL),
        Q("q98_incremental_agg", an.incremental_agg, oa.INCREMENTAL_AGG_SQL),
        Q("q100_shipping_priority", an.shipping_priority, oa.SHIPPING_PRIORITY_SQL),
        Q("q101_bucketed_dedup", an.bucketed_dedup, oa.BUCKETED_DEDUP_SQL),
        Q("q102_compact_files", an.compact_files, oa.COMPACT_FILES_SQL),
        Q("q103_skewed_user_join", an.skewed_user_join, oa.SKEWED_USER_JOIN_SQL),
        Q("q104_unpivot_lineitem", an.unpivot_lineitem, oa.UNPIVOT_SQL),
        Q("q105_percent_rank", an.percent_rank_orders, oa.PERCENT_RANK_SQL),
        Q("q106_event_mad", an.event_mad, oa.EVENT_MAD_SQL),
        Q("q107_weighted_avg", an.weighted_avg_chars, oa.WEIGHTED_AVG_SQL),
        Q("q108_normalized_dedup", an.normalized_dedup, oa.NORMALIZED_DEDUP_SQL),
        Q("q109_table_fingerprints", an.table_fingerprints, oa.TABLE_FINGERPRINTS_SQL),
        Q("q110_zscore_outliers", an.zscore_outliers, oa.ZSCORE_SQL),
        Q("q111_streaming_windows", an.streaming_windows, oa.STREAMING_WINDOWS_SQL),
        Q("q113_last_touch", an.last_touch_attribution, oa.LAST_TOUCH_SQL),
        Q("q114_ivf_recall", an.ivf_recall, None,
          rows_only="IVF recall over k-means lists: no SQL twin"),
        Q("q115_integrity_audit", an.integrity_audit, oa.INTEGRITY_AUDIT_SQL),
        Q("q116_point_lookup", an.point_lookup, oa.POINT_LOOKUP_SQL),
        Q("q117_dense_event_grid", an.dense_event_grid, oa.DENSE_GRID_SQL),
        Q("q118_charclass_entropy", an.charclass_entropy, oa.CHARCLASS_ENTROPY_SQL),
        Q("q119_median_interarrival", an.median_interarrival, oa.MEDIAN_INTERARRIVAL_SQL),
        Q("q120_audience_overlap", an.audience_overlap, oa.AUDIENCE_OVERLAP_SQL),
        Q("q121_top_user_per_type", an.top_user_per_type, oa.TOP_USER_PER_TYPE_SQL),
        Q("q122_bm25_topk", an.bm25_topk, oa.BM25_SQL),
        Q("q123_event_transitions", an.event_transitions, oa.EVENT_TRANSITIONS_SQL),
        Q("q124_sliding_distinct", an.sliding_distinct_users, oa.SLIDING_DISTINCT_SQL),
        Q("q125_pruned_join", an.pruned_join_revenue, oa.PRUNED_JOIN_SQL),
        Q("q126_above_avg_orders", an.above_avg_orders, oa.ABOVE_AVG_SQL),
        Q("q127_discount_revenue", an.discount_revenue, oa.DISCOUNT_REVENUE_SQL),
        Q("q128_source_lang_lift", an.source_lang_lift, oa.SOURCE_LANG_LIFT_SQL),
        Q("q129_part_skyline", an.part_skyline, oa.PART_SKYLINE_SQL),
        Q("q130_lineitem_regression", an.lineitem_regression, oa.LINEITEM_REGRESSION_SQL),
        Q("q131_scd2_user_state", an.scd2_user_state, oa.SCD2_USER_STATE_SQL),
        Q("q132_embedding_covariance", an.embedding_covariance, oa.EMBEDDING_COVARIANCE_SQL),
        Q("q137_time_travel", an.time_travel_orders, oa.TIME_TRAVEL_SQL),
        Q("q138_join_cardinality", an.join_cardinality, oa.JOIN_CARDINALITY_SQL),
        Q("q150_custdist", an.custdist, oa.CUSTDIST_SQL),
        Q("q152_rle_advisor", an.rle_advisor, oa.RLE_ADVISOR_SQL),
        Q("q154_bpe_merges", an.bpe_merges, oa.BPE_MERGES_SQL),
        Q("q160_bloom_join", an.bloom_pruned_join, oa.BLOOM_JOIN_SQL),
        Q("q163_tpch_q5", an.local_supplier_revenue, oa.Q5_SQL),
        Q("q168_join_advisor", an.join_advisor, oa.JOIN_ADVISOR_SQL),
        Q("q173_late_orders", an.late_orders, oa.LATE_ORDERS_SQL),
        Q("q179_pca_label_map", an.pca_label_map, None,
          rows_only="PCA eigenvectors (eigh): no SQL twin"),
        Q("q181_merkle_diff", an.merkle_diff, oa.MERKLE_SQL),
        Q("q183_volume_shipping", an.volume_shipping, oa.Q7_SQL),
        Q("q184_market_share", an.national_market_share, oa.Q8_SQL),
        Q("q185_returned_items", an.returned_items, oa.Q10_SQL),
        Q("q186_promo_effect", an.promo_effect, oa.Q14_SQL),
        Q("q187_top_supplier", an.top_supplier, oa.Q15_SQL),
        Q("q188_small_qty_revenue", an.small_quantity_revenue, oa.Q17_SQL),
        Q("q189_large_orders", an.large_volume_customers, oa.Q18_SQL),
        Q("q190_product_profit", an.product_profit, oa.Q9_SQL),
        Q("q192_stockout_crossing", an.stockout_crossing, oa.STOCKOUT_SQL),
        Q("q193_ushape_attribution", an.ushape_attribution, oa.USHAPE_SQL),
        Q("q194_ewma_anomalies", an.ewma_anomalies, oa.EWMA_SQL),
        Q("q195_split_scan", an.split_scan, oa.SPLIT_SCAN_SQL),
        Q("q197_simpson_diversity", an.simpson_diversity, oa.SIMPSON_SQL),
        Q("q198_watermark_audit", an.watermark_audit, oa.WATERMARK_SQL),
        Q("q199_monetary_sample", an.monetary_unit_sample, oa.MUS_SQL),
        Q("q203_burst_audit", an.burst_audit, oa.BURST_SQL),
        Q("q205_collision_detector", an.collision_detector, oa.COLLISION_SQL),
        Q("q206_mutual_best", an.mutual_best, oa.MUTUAL_SQL),
        Q("q207_k_anonymity", an.k_anonymity, oa.KANON_SQL),
        Q("q209_cheapest_supplier", an.cheapest_supplier, oa.CHEAPEST_SQL),
        Q("q210_order_cadence", an.order_cadence, oa.CADENCE_SQL),
        Q("q211_abc_classes", an.abc_classification, oa.ABC_SQL),
        Q("q212_bounce_rate", an.bounce_rate, oa.BOUNCE_SQL),
        Q("q213_linenumber_audit", an.linenumber_audit, oa.LINENUM_SQL),
        Q("q214_presence_census", an.presence_census, oa.PRESENCE_SQL),
        Q("q216_churn_report", an.churn_report, oa.CHURN_SQL),
        Q("q217_radix_percentiles", an.radix_percentiles, oa.RADIX_PCTL_SQL),
        Q("q218_weekday_seasonality", an.weekday_seasonality, oa.SEASONALITY_SQL),
        Q("q219_priority_mix_shift", an.priority_mix_shift, oa.MIX_SHIFT_SQL),
        Q("q220_basket_width", an.basket_width, oa.BASKET_WIDTH_SQL),
        Q("q221_supplier_balance", an.supplier_balance, oa.SUPPLIER_BALANCE_SQL),
        Q("q222_brand_cr3", an.brand_cr3, oa.BRAND_CR3_SQL),
        Q("q223_first_ship_share", an.first_ship_share, oa.FIRST_SHIP_SQL),
        Q("q224_type_run_lengths", an.type_run_lengths, oa.RUN_LENGTH_SQL),
        Q("q225_ks_distance", an.ks_distance, oa.KS_SQL),
        Q("q226_fulfillment_sla", an.fulfillment_sla, oa.SLA_SQL),
        Q("q227_mann_whitney", an.mann_whitney_u, oa.MWU_SQL),
        Q("q228_round_bias", an.round_number_bias, oa.ROUND_BIAS_SQL),
        Q("q229_supplier_fanout", an.supplier_fanout, oa.SUPPLIER_FANOUT_SQL),
        Q("q230_spend_trajectory", an.spend_trajectory, oa.TRAJECTORY_SQL),
        Q("q232_stickiness", an.stickiness, oa.STICKINESS_SQL),
        Q("q233_whale_orders", an.whale_orders, oa.WHALE_SQL),
        Q("q234_hapax_rate", an.hapax_rate, oa.HAPAX_SQL),
        Q("q236_revenue_volatility", an.revenue_volatility, oa.VOLATILITY_SQL),
        Q("q237_session_handoff", an.session_handoff, oa.HANDOFF_SQL),
        Q("q238_reorder_rate", an.reorder_rate, oa.REORDER_SQL),
        Q("q239_hhi_index", an.hhi_index, oa.HHI_SQL),
        Q("q240_ltv_transition", an.ltv_transition, oa.LTV_TRANSITION_SQL),
        Q("q241_survival_table", an.survival_table, oa.SURVIVAL_SQL),
        Q("q243_calendar_gaps", an.calendar_gaps, oa.CALENDAR_SQL),
        Q("q244_coactivity", an.coactivity_correlation, oa.COACTIVITY_SQL),
        Q("q245_tax_incidence", an.tax_incidence, oa.TAX_SQL),
        Q("q246_price_laddering", an.price_laddering, oa.LADDER_SQL),
        Q("q247_error_recovery", an.error_recovery, oa.RECOVERY_SQL),
        Q("q248_region_matrix", an.region_trade_matrix, oa.REGION_MATRIX_SQL),
        Q("q249_volume_discount", an.volume_discount, oa.VOLUME_DISCOUNT_SQL),
        Q("q250_returnclass_priority", an.returnclass_priority, oa.RETURNCLASS_PRIORITY_SQL),
        Q("q251_bracket_revenue", an.bracket_revenue, oa.BRACKET_REVENUE_SQL),
        Q("q252_sole_latest_supplier", an.sole_latest_supplier, oa.SOLE_LATEST_SQL),
        Q("q253_rich_idle_customers", an.rich_idle_customers, oa.RICH_IDLE_SQL),
        Q("q254_volume_drawdown", an.volume_drawdown, oa.VOLUME_DRAWDOWN_SQL),
        Q("q255_pq_retrieval", tr.pq_retrieval, None,
          rows_only="PQ-ADC retrieval: approximate by construction "
                    "(quantization error)"),
        Q("q67_moving_average", rel.moving_average, orl.MOVING_AVERAGE_SQL),
        Q("q68_segment_order_stats", rel.segment_order_stats, orl.SEGMENT_ORDER_STATS_SQL),
        Q("q69_cube_lineitem", rel.cube_lineitem, orl.CUBE_LINEITEM_SQL),
        Q("q71_snapshot_diff", tr.snapshot_diff, otr.SNAPSHOT_DIFF_SQL),
        Q("q70_global_sort_orders", rel.global_sort_orders, orl.GLOBAL_SORT_ORDERS_SQL),
        Q("q74_fuzzy_name_pairs", rel.fuzzy_name_pairs, orl.FUZZY_NAME_PAIRS_SQL),
        Q("q75_compression_signal", tr.compression_signal, None,
          rows_only="zlib compression ratios: no SQL twin"),
        Q("q76_duplicate_spans", tr.duplicate_spans, otr.DUPLICATE_SPANS_SQL),
        Q("q79_export_partitioned", tr.export_partitioned, otr.EXPORT_PARTITIONED_SQL),
        Q("q02_revenue_by_nation", rel.revenue_by_nation, orl.REVENUE_BY_NATION_SQL),
        Q("q03_topk_events", rel.topk_events, orl.TOPK_EVENTS_SQL),
        Q("q04_events_by_type", rel.events_by_type, orl.EVENTS_BY_TYPE_SQL),
        Q("q05_filter_orders", rel.filter_orders, orl.FILTER_ORDERS_SQL),
        Q("q06_user_event_stats", rel.user_event_stats, orl.USER_EVENT_STATS_SQL),
        Q("q07_windowed_events", rel.windowed_events, orl.WINDOWED_EVENTS_SQL),
        Q("q08_sessionize", rel.sessionize, orl.SESSIONIZE_SQL),
        Q("q09_asof_join", rel.asof_prior_event, orl.ASOF_JOIN_SQL),
        Q("q14_grouped_topk", rel.grouped_topk_events, orl.GROUPED_TOPK_SQL),
        Q("q15_event_quantiles", rel.event_quantiles, orl.EVENT_QUANTILES_SQL),
        Q("q64_quantile_sketch", rel.event_quantile_sketch, None,
          rows_only="KLL sketch: approximate by construction"),
        Q("q17_range_join", rel.range_join_views, orl.RANGE_JOIN_SQL),
        Q("q18_anti_join", rel.customers_without_orders, orl.ANTI_JOIN_SQL),
        Q("q19_bloom_semi_join", rel.bloom_semi_join, orl.BLOOM_SEMI_JOIN_SQL),
        # text analysis
        Q("q10_token_counts", tr.token_counts, otr.TOKEN_COUNTS_SQL),
        Q("q11_quality_scores", tr.quality_scores, otr.QUALITY_SCORES_SQL),
        Q("q12_lang_id", tr.lang_id, otr.LANG_ID_SQL),
        Q("q13_doc_fingerprints", tr.doc_fingerprints, otr.DOC_FINGERPRINTS_SQL),
        Q("q62_quality_model", tr.quality_model_scores, otr.QUALITY_MODEL_SQL),
        # dedup family
        Q("q20_exact_dedup", tr.exact_dedup, otr.EXACT_DEDUP_SQL),
        Q("q21_minhash_pairs", tr.minhash_pairs, otr.MINHASH_PAIRS_SQL),
        Q("q22_simhash", tr.simhash, otr.SIMHASH_SQL),
        Q("q23_embedding_neardup", tr.embedding_neardup, otr.EMBEDDING_NEARDUP_SQL),
        Q("q24_curation", tr.curation, otr.CURATION_SQL),
        Q("q25_ngram_jaccard", tr.ngram_jaccard, otr.NGRAM_JACCARD_SQL),
        Q("q26_hll_host_distinct", _hll_host_distinct_q, oc.hll_host_distinct),
        Q("q49_cms_url_refs", _cms_url_refs_q, oc.cms_url_refs),
        # iterative graph ops (BSP fabric, pipelines/graph.py)
        Q("q27_dup_clusters", tr.dup_clusters, otr.DUP_CLUSTERS_SQL),
        Q("q59_neardup_curation", tr.neardup_curation, otr.NEARDUP_CURATION_SQL),
        Q("q28_tfidf_topterms", tr.tfidf_topk, otr.TFIDF_TOPTERMS_SQL),
        # similarity search
        Q("q30_knn_topk", tr.knn_topk, otr.KNN_TOPK_SQL),
        Q("q31_knn_topk_ivf", tr.knn_topk_ivf, None,
          rows_only="IVF probes k-means lists: approximate by construction"),
        Q("q60_semdedup", tr.semdedup, None,
          rows_only="k-means cluster assignment: no SQL twin"),
        # training-loader prep (index / packing / scrubbing / splits)
        Q("q32_inverted_index", tr.inverted_index, otr.INVERTED_INDEX_SQL),
        Q("q33_pack_chunks", tr.pack_chunks, otr.PACK_CHUNKS_SQL),
        Q("q34_pii_scrub", tr.pii_scrub, otr.PII_SCRUB_SQL),
        Q("q35_split_assign", tr.split_assign, otr.SPLIT_ASSIGN_SQL),
        Q("q37_stratified_sample", tr.stratified_sample, otr.STRATIFIED_SAMPLE_SQL),
        Q("q63_weighted_sample", tr.weighted_sample, otr.WEIGHTED_SAMPLE_SQL),
        Q("q38_ngram_counts", tr.ngram_counts, otr.NGRAM_COUNTS_SQL),
        Q("q39_bottomk_distinct", tr.bottomk_distinct, otr.BOTTOMK_DISTINCT_SQL),
        # multimodal (stubbed codec, real plumbing)
        Q("q40_media_features", tr.media_features, None,
          rows_only="media codec output (stub codec): no SQL twin"),
        Q("q41_frame_samples", tr.frame_samples, None,
          rows_only="media codec output (stub codec): no SQL twin"),
        Q("q42_media_resize", tr.media_resize, None,
          rows_only="media codec output (stub codec): no SQL twin"),
        Q("q43_audio_features", tr.audio_features, None,
          rows_only="media codec output (stub codec): no SQL twin"),
        # corpus hygiene (segment dedup / contamination / centroids)
        Q("q44_segment_dedup", tr.segment_dedup, otr.SEGMENT_DEDUP_SQL),
        Q("q45_contamination", tr.contamination, otr.CONTAMINATION_SQL),
        Q("q46_group_centroids", tr.group_centroids, otr.GROUP_CENTROIDS_SQL),
        # sign-LSH embedding near-dup (sub-quadratic scale path)
        Q("q47_embedding_lsh", tr.embedding_lsh_pairs, otr.EMBEDDING_LSH_SQL),
        # int8 scalar quantization of the embedding table
        Q("q48_embedding_quantize", tr.embedding_quantize, otr.EMBEDDING_QUANTIZE_SQL),
        # crawl substrate over the interleaved corpus
        Q("q50_extract_links", _extract_links_q, oc.extract_links),
        Q("q51_seen_dedup", _seen_dedup_q, oc.seen_dedup),
        Q("q52_crawl_frontier", _crawl_q, oc.crawl_frontier),
        Q("q53_warc_roundtrip", _warc_roundtrip_q, oc.warc_roundtrip),
        Q("q65_cdx_lookup", _cdx_lookup_q, oc.cdx_lookup),
        Q("q157_wet_extract", _wet_extract_q, oc.wet_extract),
        Q("q158_jsonl_ingest", _jsonl_ingest_q, oc.JSONL_INGEST_SQL),
        Q("q202_csv_ingest", _csv_ingest_q, oc.CSV_INGEST_SQL),
        Q("q215_fixedwidth_ingest", _fixedwidth_ingest_q, oc.FIXEDWIDTH_INGEST_SQL),
        Q("q235_format_consistency", _format_consistency_q, oc.FORMAT_CONSISTENCY_SQL),
        Q("q162_evolved_scan", _evolved_scan_q, oc.EVOLVED_SCAN_SQL),
        Q("q167_dlq_ingest", _jsonl_dlq_q, oc.DLQ_INGEST_SQL),
        # reports (G17) + metrics (G15) over the crawl fetch log
        Q("q54_hottest_hosts", _hottest_hosts_q, oc.hottest_hosts),
        Q("q55_crawl_metrics", _crawl_metrics_q, oc.crawl_metrics),
        # skew-salted wide aggregation (G11) + span invariant (G13)
        Q("q56_host_link_stats", _host_link_stats_q, oc.host_link_stats),
        Q("q72_heavy_hitter_hosts", _heavy_hitter_hosts_q, oc.heavy_hitter_hosts),
        Q("q57_verify_spans", _verify_spans_q, oc.verify_spans),
        # ARC write/read slice (reference ops #13-19)
        Q("q58_arc_roundtrip", _arc_roundtrip_q, oc.arc_roundtrip),
        Q("q78_arc_to_warc", _arc_to_warc_q, oc.arc_to_warc),
        Q("q96_revisit_dedup", _revisit_dedup_q, oc.revisit_dedup),
        Q("q99_host_reciprocity", _host_reciprocity_q, oc.host_reciprocity),
        Q("q112_seed_distance", _seed_distance_q, oc.seed_distance),
        Q("q135_triangle_count", _triangle_count_q, oc.triangle_count),
        Q("q256_span_census", _span_census_q, oc.span_census),
        Q("q257_anchor_index", _anchor_index_q, oc.anchor_index),
        Q("q258_wat_extract", _wat_extract_q, oc.wat_extract),
        Q("q259_robots_audit", _robots_audit_q, oc.robots_audit),
    ]


def queries() -> dict[str, Callable[[str], Any]]:
    return {q.name: q.fn for q in registry()}


def oracle_sql(sf_dir: str = "sf0.01") -> dict[str, str]:
    """Every query's DuckDB oracle text.  The corpus-path oracles read
    the artifacts of ``sf_dir``'s corpus profile (its basename picks
    it, as for the queries); the default is sf0.01's."""
    from warc_ray.oracle_sql.corpus import CorpusPaths

    prof = corpus_mod.profile_for_sf_dir(sf_dir)
    # the corpus parquet files must exist for q50/q51 — same generator
    # the Ray queries use (deterministic, idempotent)
    cdir = corpus_mod.ensure_corpus(prof)
    docs_glob = f"{cdir}/docs/*.parquet"
    # independent single-process-simulator fetch log for the crawl
    # oracles (q52/q54/q55): distributed crawl == plain SQL over the
    # simulator's log is the BASELINE.json crawl-order parity invariant
    sim_log = _ensure_sim_log(prof.name)
    # q65's CDX parquet (persisted by _ensure_archive beside the shards)
    warc_cdx = _ensure_archive(sf_dir) + "-cdx"
    paths = CorpusPaths(docs_glob, cdir, sim_log, warc_cdx, prof.n_hosts)
    return {q.name: q.sql(paths) if callable(q.sql) else q.sql
            for q in registry() if q.sql is not None}
