"""crawl-polite and crawl-archive: ``run_crawl`` on the seeded corpus.

Both workloads run the same loop: set-up (Ray session plus a one-round
warm-up crawl that spawns the actor fleet and fills its bucket caches),
then whole crawls back to back until ``--seconds`` have passed and at
least two crawls ran (a run checks that its crawls agree).  The traced
run also replays one crawl in this process through the functions the
single-process oracle drives, which gives per-layer self times, and
crawl-archive's traced run reads its last crawl back (archive_read.py).
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import archive_read
import inputs
from harness import Run, median, percentile

SPECS = {
    # strict politeness, no WARC output: frontier, cuckoo filter and the
    # round barrier do the work
    "crawl-polite": dict(rate=1.0, burst=2, budget=2, rounds=20, write_warc=False),
    # wide rounds with WARC output: the fused assemble+gzip writer does it
    "crawl-archive": dict(rate=8.0, burst=16, budget=8, rounds=3, write_warc=True),
}
NUM_SHARDS = 4
# two crawls a run: the second must reproduce the first, and a run fits
# the benchmark's time envelope on one CPU
MIN_CRAWLS = 2
CRAWL_DEADLINE = 120.0


def frontier_config(spec: dict, rounds: int | None = None):
    from warc_ray.state.frontier import FrontierConfig

    # per-shard seen-set capacity sized as bench.py sizes it
    cap = 1
    while cap * NUM_SHARDS < 6 * inputs.BASE_PROFILE.n_docs:
        cap <<= 1
    return FrontierConfig(rate=spec["rate"], burst=spec["burst"],
                          per_round_host_budget=spec["budget"],
                          max_rounds=rounds or spec["rounds"], max_depth=16,
                          num_shards=NUM_SHARDS, filter_capacity=cap)


def _digest(table: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    t = table.sort_by([(c, "ascending") for c in table.column_names]).combine_chunks()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha1(sink.getvalue()).hexdigest()


def _round_latencies(path: str) -> list[float]:
    """Per-round driver latency (pop wait + work + seal) from the
    ``WARC_RAY_ROUND_LOG`` lines ``run_crawl`` appends."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [sum(map(float, line.split()[2:5])) for line in f if line.strip()]


def read_log(out_dir: str) -> pa.Table:
    from warc_ray.pipelines.crawl import LOG_COLS

    paths = sorted(glob.glob(os.path.join(out_dir, "log", "*.parquet")))
    return pa.concat_tables([pq.read_table(p) for p in paths]).select(LOG_COLS)


def warc_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "round=*", "warc", "*.warc.gz")))


def crawl_checks(res: dict, log: pa.Table, spec: dict, out_dir: str) -> dict[str, bool]:
    per_host = log.group_by(["round", "host"]).aggregate([("url", "count")])
    emitted = sum(s["emitted"] for s in res["shard_stats"])
    checks = {
        "no URL fetched twice": pc.count_distinct(log["url"]).as_py() == log.num_rows,
        "no host over its per-round budget":
            pc.max(per_host["url_count"]).as_py() <= spec["budget"],
        "fetched == sum of shard emitted == log rows":
            res["total_fetched"] == emitted == log.num_rows,
    }
    if spec["write_warc"]:
        n_files = len(warc_files(out_dir))
        cdx_rows = sum(pq.ParquetFile(p).metadata.num_rows
                       for p in glob.glob(os.path.join(out_dir, "cdx", "*.parquet")))
        checks["records == 3 x fetched + warcinfo"] = (
            res["warc_records"] == 3 * res["total_fetched"] + n_files == cdx_rows)
    return checks


def robots_violations(log: pa.Table, corpus_dir: str) -> int:
    import ray.data as rd

    from warc_ray import corpus
    from warc_ray.pipelines.reports import robots_audit

    audit = robots_audit(rd.from_arrow(log), corpus.read_robots(corpus_dir))
    return int(pc.sum(audit["n_violations"]).as_py() or 0)


def run(r: Run, workload: str) -> None:
    from warc_ray.pipelines.crawl import run_crawl

    spec = SPECS[workload]
    corpus_dir = inputs.crawl_corpus(os.path.join(r.work_dir, "corpus"), r.run_dir, r.seed)
    cfg = frontier_config(spec)
    out = os.path.join(r.run_dir, "crawl")

    t0 = time.perf_counter()
    r.start_session()
    r.call("setup.warmup_crawl", run_crawl, corpus_dir, out + "-warmup",
           config=dataclasses.replace(cfg, max_rounds=1),
           write_warc=spec["write_warc"], deadline=CRAWL_DEADLINE)
    r.e2e["setup_s"] = time.perf_counter() - t0
    shutil.rmtree(out + "-warmup", ignore_errors=True)

    done: list[dict] = []
    digests: set = set()
    t_start = time.perf_counter()
    while not r.broken and (r.attempted < MIN_CRAWLS
                            or time.perf_counter() - t_start < r.seconds):
        round_log = os.path.join(r.run_dir, f"rounds-{r.attempted}.log")
        os.environ["WARC_RAY_ROUND_LOG"] = round_log
        try:
            ok, res, wall = r.op("pipelines.crawl.run_crawl", run_crawl, corpus_dir, out,
                                 config=cfg, write_warc=spec["write_warc"],
                                 deadline=CRAWL_DEADLINE)
        finally:
            del os.environ["WARC_RAY_ROUND_LOG"]
        if not ok:
            continue
        with r.tracer.span("check.crawl"):
            log = read_log(out)
            checks = crawl_checks(res, log, spec, out)
            digests.add((_digest(log), hashlib.sha1(b"".join(res["filter_bytes"])).hexdigest()))
            checks["fetch log and seen-set identical across crawls"] = len(digests) == 1
        if r.verify(checks):
            done.append(dict(res, wall=wall, rounds_ms=[x * 1e3 for x in _round_latencies(round_log)],
                             bytes_out=sum(os.path.getsize(p) for p in warc_files(out))))
    if r.tracer.enabled and done:
        # a Ray Data groupby: ~5 s at one CPU, so only the traced run audits
        with r.tracer.span("check.robots_audit"):
            r.verify({"robots_audit finds no violation": robots_violations(log, corpus_dir) == 0})

    items = [(d["warc_records"] if spec["write_warc"] else d["total_fetched"]) / d["wall"]
             for d in done]
    lat = [x for d in done for x in d["rounds_ms"]]
    r.e2e["items_per_s"] = median(items)
    r.layer.update(op_samples=len(lat), op_p50_ms=median(lat), op_p90_ms=percentile(lat, 90))
    if done:
        layer_metrics(r, done, cfg)
    if r.tracer.enabled and done:
        if spec["write_warc"]:
            archive_read.measure(r, out, warc_files(out))
        replay(r, corpus_dir, cfg, spec, done[-1])


def layer_metrics(r: Run, done: list[dict], cfg) -> None:
    def med(key):
        return median([d["phase_sec"].get(key, 0.0) for d in done])

    last = done[-1]
    stats = last["shard_stats"]
    cnt = {k: sum(s[k] for s in stats)
           for k in ("offered", "dup", "robots_denied", "queued", "emitted")}
    rounds = max(1, last["rounds"])
    L = r.layer
    L.update({
        "crawl_urls_per_s": median([d["total_fetched"] / d["wall"] for d in done]),
        "crawl_records_per_s": median([d["warc_records"] / d["wall"] for d in done]),
        "crawl.wall_s": median([d["wall"] for d in done]),
        "crawl.spawn_s": med("spawn_shards") + med("spawn_pools"),
        "crawl.seed_s": med("seed"),
        "crawl.rounds_s": med("rounds"),
        "crawl.round_mean_ms": med("rounds") / rounds * 1e3,
        "crawl.final_flush_s": med("final_flush"),
        "frontier.seal_busy_max_s": med("seal_busy_max"),
        "frontier.seal_busy_sum_s": med("seal_busy_sum"),
        "frontier.pop_busy_max_s": med("pop_busy_max"),
        "frontier.hot_seal_sort_s": med("hot_seal_sort"),
        "frontier.hot_seal_filter_s": med("hot_seal_filter"),
        "frontier.hot_seal_queue_s": med("hot_seal_queue"),
        "frontier.emit_ratio": cnt["emitted"] / max(1, cnt["offered"]),
        "cuckoo.load": sum(s["filter_count"] for s in stats)
            / (cfg.num_shards * cfg.filter_capacity),
        "cuckoo.fresh_ratio": (cnt["offered"] - cnt["dup"]) / max(1, cnt["offered"]),
        "writer.busy_sum_s": med("writer_busy"),
        "writer.busy_cpu_sum_s": med("writer_busy_cpu"),
        "writer.records": last["warc_records"],
        "writer.bytes_out": last["bytes_out"],
        "writer.bytes_per_record": last["bytes_out"] / max(1, last["warc_records"]),
    })
    L.update({"frontier." + k: v for k, v in cnt.items()})


def replay(r: Run, corpus_dir: str, cfg, spec: dict, ref: dict) -> None:
    """One crawl in this process, single-threaded, through the public
    functions ``pipelines.oracle.simulate`` drives (with the vectorized
    ``FetchGroup`` the crawl workers use).  Its fetch log and seen-set
    must equal the distributed crawl's."""
    from warc_ray import corpus
    from warc_ray.pipelines.crawl import LOG_COLS, WRITER_COLS
    from warc_ray.sinks.warc_sink import write_fused_round
    from warc_ray.stages.assemble import logical_date
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column
    from warc_ray.stages.urls import canonicalize_batch, extract_links, urls_from_seeds
    from warc_ray.state.frontier import (FrontierCore, robots_to_shard_dict, shard_of,
                                         split_by_host_shard)

    tr = r.tracer
    n_buckets = inputs.BASE_PROFILE.n_buckets
    warc_dir = os.path.join(r.run_dir, "replay-warc")
    t0 = time.perf_counter()
    robots = robots_to_shard_dict(corpus.read_robots(corpus_dir))
    cores = [FrontierCore(s, cfg, {h: v for h, v in robots.items()
                                   if shard_of(h, cfg.num_shards) == s})
             for s in range(cfg.num_shards)]
    fetch = FetchGroup(corpus_dir, n_buckets)

    def offer_and_seal(table):
        with tr.span("frontier.offer"):
            for s, sub in enumerate(split_by_host_shard(table, cfg.num_shards)):
                if sub is not None:
                    cores[s].offer(sub)
        with tr.span("frontier.seal_round"):
            for c in cores:
                c.seal_round()

    with tr.span("urls.urls_from_seeds"):
        seeds = urls_from_seeds(corpus.read_seeds(corpus_dir))
    offer_and_seal(seeds)
    logs, links_out, t = [], 0, 0
    while t < cfg.max_rounds:
        with tr.span("frontier.pop_round"):
            emits = [e for e in (c.pop_round(t) for c in cores) if e.num_rows]
        if not emits:
            if not any(c.has_pending() for c in cores):
                break
            nexts = [x for x in (c.earliest_allowed(t) for c in cores) if x is not None]
            t = max(t + 1, min(nexts)) if nexts else t + 1
            continue
        with tr.span("fetch.FetchGroup"):
            fetched = fetch(add_bucket_column(pa.concat_tables(emits), n_buckets))
        logs.append(fetched.select(LOG_COLS))
        if spec["write_warc"]:
            with tr.span("warc_sink.write_fused_round"):
                write_fused_round(fetched.select(WRITER_COLS), warc_dir, logical_date(t))
        with tr.span("urls.extract_links"):
            links = extract_links(fetched, doc_col="doc_id", depth_col="depth")
        links_out += links.num_rows
        with tr.span("urls.canonicalize_batch"):
            links = canonicalize_batch(links)
        offer_and_seal(links)
        t += 1
    wall = time.perf_counter() - t0
    shutil.rmtree(warc_dir, ignore_errors=True)

    log = pa.concat_tables(logs)
    same = (_digest(log) == _digest(read_log(os.path.join(r.run_dir, "crawl")))
            and b"".join(c.filter.table.tobytes() for c in cores) == b"".join(ref["filter_bytes"]))
    r.verify({"single-process replay reproduces the crawl's fetch log and seen-set": same})
    st = tr.self_times()
    offered = sum(c.counters["offered"] for c in cores)
    r.layer.update({
        "replay.wall_s": wall,
        "replay.frontier_s": sum(st.get(k, 0.0) for k in
                                 ("frontier.offer", "frontier.seal_round", "frontier.pop_round")),
        "cuckoo.keys_per_s": offered / max(1e-9, sum(c.busy["seal_filter"] for c in cores)),
        "fetch.s": st.get("fetch.FetchGroup", 0.0),
        "urls.extract_links_s": st.get("urls.extract_links", 0.0),
        "urls.canonicalize_s": st.get("urls.canonicalize_batch", 0.0)
            + st.get("urls.urls_from_seeds", 0.0),
        "urls.links_out": links_out,
        "warc_sink.write_fused_round_s": st.get("warc_sink.write_fused_round", 0.0),
    })
