"""Crawl-order + URL-seen-set parity: distributed engine vs oracle (G14),
and checkpoint/resume (G16).

BASELINE.json: "crawl ordering and the final URL-seen set required to
match exactly" under the same seed list + politeness budget.
"""

import glob
import os
import shutil

import pytest

from warc_ray import corpus
from warc_ray.state.frontier import FrontierConfig

KEY = ["round", "host", "fetch_seq", "url"]
CFG = FrontierConfig(num_shards=4, max_rounds=60, filter_capacity=1 << 14)


@pytest.fixture(scope="module")
def t1_dir(tmp_path_factory):
    return corpus.ensure_corpus("t1", root=str(tmp_path_factory.mktemp("corpus")))


@pytest.fixture(scope="module")
def oracle_result(t1_dir):
    from warc_ray.pipelines.oracle import simulate

    return simulate(t1_dir, config=CFG)


@pytest.fixture(scope="module")
def crawl_result(ray_session, t1_dir, tmp_path_factory):
    from warc_ray.pipelines.crawl import run_crawl

    out = str(tmp_path_factory.mktemp("crawl"))
    res = run_crawl(t1_dir, out, config=CFG, write_warc=True, checkpoint_every=10)
    return out, res


def _logs(out, oracle_result):
    from warc_ray.pipelines.crawl import read_fetch_log

    d = read_fetch_log(out).to_pandas().sort_values(KEY).reset_index(drop=True)
    o = oracle_result["log"].to_pandas().sort_values(KEY).reset_index(drop=True)
    return d, o


def test_fetch_log_parity(crawl_result, oracle_result):
    out, _res = crawl_result
    d, o = _logs(out, oracle_result)
    assert len(d) == len(o) > 0
    assert d.equals(o)  # crawl order (per host) + outcomes identical


def test_seen_set_parity(crawl_result, oracle_result):
    """Final cuckoo tables byte-identical per shard."""
    _out, res = crawl_result
    assert res["filter_bytes"] == oracle_result["filter_bytes"]


def test_politeness_budget_respected(crawl_result, oracle_result):
    out, _res = crawl_result
    d, _ = _logs(out, oracle_result)
    per = d.groupby(["round", "host"]).size()
    assert per.max() <= CFG.per_round_host_budget


def test_robots_and_dedup_counters(crawl_result, oracle_result):
    _out, res = crawl_result
    dstats = {k: sum(s[k] for s in res["shard_stats"])
              for k in ("offered", "dup", "robots_denied", "queued", "emitted")}
    ostats = {k: sum(s[k] for s in oracle_result["stats"])
              for k in ("offered", "dup", "robots_denied", "queued", "emitted")}
    assert dstats == ostats
    assert dstats["robots_denied"] > 0
    assert dstats["dup"] > 0


def test_frontier_depth_reported(crawl_result):
    """Each shard's stats carry its frontier depth: ``pending`` rows
    (queued and not yet emitted) on ``active_hosts`` hosts — at the
    end of the crawl and in every checkpoint's lineage metrics."""
    import json

    out, res = crawl_result
    stats = list(res["shard_stats"])
    with open(os.path.join(out, "LINEAGE.jsonl")) as f:
        for line in f:
            stats.extend(json.loads(line)["metrics"])
    for s in stats:
        assert s["pending"] == s["queued"] - s["emitted"]
        assert 0 < s["active_hosts"] <= s["pending"] or \
            s["active_hosts"] == s["pending"] == 0
    assert max(s["pending"] for s in stats) > 0


def test_warc_output_per_round(crawl_result):
    out, res = crawl_result
    rounds = sorted(glob.glob(os.path.join(out, "round=*")))
    assert len(rounds) == res["rounds"]
    shards = glob.glob(os.path.join(out, "round=*", "warc", "*.warc.gz"))
    assert shards
    # every fetch produced a request+response+metadata triple
    from warc_ray.core import WARCFile

    n_records = 0
    for s in shards:
        for rec in WARCFile(s):
            n_records += 1
    n_info = len(shards)
    assert n_records == n_info + 3 * res["total_fetched"]


def test_resume_from_checkpoint(ray_session, t1_dir, oracle_result, tmp_path_factory):
    """Interrupt after ~half the rounds; resume must converge to the
    exact same fetch log and seen set."""
    from warc_ray.pipelines.crawl import read_fetch_log, run_crawl

    out = str(tmp_path_factory.mktemp("crawl_resume"))
    half_cfg = FrontierConfig(num_shards=4, max_rounds=8, filter_capacity=1 << 14)
    res1 = run_crawl(t1_dir, out, config=half_cfg, write_warc=False,
                     checkpoint_every=1)
    assert res1["last_round"] == 8
    # resume with the full horizon
    res2 = run_crawl(t1_dir, out, config=CFG, write_warc=False,
                     checkpoint_every=1, resume=True)
    d = read_fetch_log(out).to_pandas().sort_values(KEY).reset_index(drop=True)
    o = oracle_result["log"].to_pandas().sort_values(KEY).reset_index(drop=True)
    assert d.equals(o)
    assert res2["filter_bytes"] == oracle_result["filter_bytes"]


def test_shard_count_invariance(ray_session, t1_dir, tmp_path_factory):
    """Crawl results are invariant to num_shards (hosts are partitioned
    by hash, but each host's queue/politeness state is self-contained)
    — which is what lets the bench scale shard count with cluster
    size."""
    import pandas as pd

    from warc_ray.pipelines.crawl import read_fetch_log, run_crawl

    logs = []
    totals = []
    for ns in (3, 5):
        out = str(tmp_path_factory.mktemp(f"shards{ns}"))
        cfg = FrontierConfig(num_shards=ns, max_rounds=40,
                             filter_capacity=1 << 12)
        res = run_crawl(t1_dir, out, config=cfg, write_warc=False)
        df = read_fetch_log(out).to_pandas().sort_values(KEY).reset_index(drop=True)
        logs.append(df)
        agg = {}
        for s in res["shard_stats"]:
            for k, v in s.items():
                if k != "shard_id":
                    agg[k] = agg.get(k, 0) + v
        totals.append(agg)
    pd.testing.assert_frame_equal(logs[0], logs[1])
    assert totals[0] == totals[1]


def test_lineage_and_metrics(crawl_result):
    """G16 lineage + G15 metrics: every checkpoint appends a row with
    the committed shard-state digests and per-shard counters."""
    import json
    import os

    out, res = crawl_result
    path = os.path.join(out, "LINEAGE.jsonl")
    rows = [json.loads(line) for line in open(path)]
    assert rows, "no lineage rows written"
    last = rows[-1]
    assert last["next_round"] == res["last_round"]
    assert set(last["shard_state_sha1"]) == {
        f"shard-{i:03d}.pkl" for i in range(CFG.num_shards)}
    # the committed metrics must add up to the crawl's totals
    assert sum(s["emitted"] for s in last["metrics"]) == res["total_fetched"]
    # monotone rounds across checkpoints
    assert [r["next_round"] for r in rows] == sorted(
        r["next_round"] for r in rows)


def _totals(stats) -> dict:
    return {k: sum(s[k] for s in stats)
            for k in ("offered", "dup", "robots_denied", "too_deep",
                      "queued", "emitted")}


def test_several_producers_per_shard(ray_session, t1_dir, oracle_result,
                                     tmp_path, monkeypatch):
    """Three fetch workers each hand every shard an offer object per
    round, and the seeds arrive in seven slices, one from each worker
    and shard: the fetch log, seen-set and counters still equal the
    oracle's."""
    from warc_ray.pipelines import crawl

    monkeypatch.setattr(crawl, "SEED_SLICE_ROWS", 2)
    out = str(tmp_path / "w3")
    res = crawl.run_crawl(t1_dir, out, config=CFG, write_warc=False,
                          fetch_concurrency=3)
    assert res["seed_slices"] == 7
    d, o = _logs(out, oracle_result)
    assert len(d) == len(o) > 0 and d.equals(o)
    assert res["filter_bytes"] == oracle_result["filter_bytes"]
    assert _totals(res["shard_stats"]) == _totals(oracle_result["stats"])


def test_single_shard_crawl(ray_session, t1_dir, tmp_path):
    """One frontier shard: each seeding call returns its one offer
    object as a bare ObjectRef, not a list."""
    from warc_ray.pipelines.crawl import read_fetch_log, run_crawl
    from warc_ray.pipelines.oracle import simulate

    cfg = FrontierConfig(num_shards=1, max_rounds=30, filter_capacity=1 << 15)
    out = str(tmp_path / "s1")
    res = run_crawl(t1_dir, out, config=cfg, write_warc=False)
    want = simulate(t1_dir, config=cfg)
    d = read_fetch_log(out).to_pandas().sort_values(KEY).reset_index(drop=True)
    o = want["log"].to_pandas().sort_values(KEY).reset_index(drop=True)
    assert len(d) == len(o) > 0 and d.equals(o)
    assert res["filter_bytes"] == want["filter_bytes"]
    assert _totals(res["shard_stats"]) == _totals(want["stats"])


def test_offer_counts_suppressed_repeats():
    """``offer(empty, n)``: n re-offers the producer suppressed count as
    offered and dup, and nothing is buffered for the seal."""
    import pyarrow as pa

    from warc_ray.state.frontier import FrontierCore

    core = FrontierCore(0, CFG)
    assert core.offer(pa.table({}), 7) == 7
    assert core.counters["offered"] == core.counters["dup"] == 7
    assert core.buffer == [] and not core.has_pending()


def test_seed_offers_split_matches_serial():
    """Strided seed slices canonicalized apart and concatenated per
    shard give each shard the serial path's rows once sorted by their
    global ``src_offset`` (the seal's order), keep only the offer
    columns, and one shard gets its pair bare."""
    import pyarrow as pa

    from warc_ray.stages.urls import urls_from_seeds
    from warc_ray.state.frontier import (OFFER_COLS, seed_offers,
                                         split_by_host_shard)

    seeds = corpus.read_seeds(corpus.ensure_corpus("t2"))
    n = seeds.num_rows
    serial = split_by_host_shard(urls_from_seeds(seeds), 3)
    for k in (1, 4, 7):
        parts = [seed_offers(seeds, i, k, 3) for i in range(k)]
        for s in range(3):
            assert all(p[s][1] == 0 for p in parts)
            got = pa.concat_tables([p[s][0] for p in parts]) \
                .sort_by("src_offset")
            assert got.column_names == OFFER_COLS
            assert got.equals(serial[s].select(OFFER_COLS))
    table, n_suppressed = seed_offers(seeds, 0, 1, 1)
    assert table.num_rows == n and n_suppressed == 0


def test_shard_ids_memo_matches_shard_of(monkeypatch):
    """``shard_ids_of`` remembers each host's shard per process; its ids
    equal ``shard_of`` row for row across calls, also once the memo has
    been cleared for size."""
    import numpy as np
    import pyarrow as pa

    from warc_ray.state import frontier

    monkeypatch.setattr(frontier, "_SHARD_MEMO", {})
    monkeypatch.setattr(frontier, "_SHARD_MEMO_CAP", 8)
    rng = np.random.default_rng(11)
    for call in range(4):
        hosts = [f"host-{i}.example" for i in rng.integers(0, 20, 60)]
        t = pa.table({"host": pa.chunked_array([hosts[:25], hosts[25:]])})
        for ns in (3, 4):
            want = [frontier.shard_of(h, ns) for h in hosts]
            assert frontier.shard_ids_of(t, ns).tolist() == want
        assert all(len(m) <= 8 for m in frontier._SHARD_MEMO.values())


def test_worker_phases_reported(crawl_result):
    # every run_crawl reports the crawl workers' per-layer time, summed
    # over rounds: fetch, WARC dispatch, link extraction, offer
    from warc_ray.pipelines.crawl import WORKER_PHASES

    _out, res = crawl_result
    ph = res["phase_sec"]
    assert all(ph[k] >= 0 for k in WORKER_PHASES)
    assert ph["worker_fetch"] > 0 and ph["worker_links"] > 0


def test_writer_deflate_reported(crawl_result):
    # the writers' busy time splits into record building and the
    # deflate loop; deflate is a part of busy, never more
    _out, res = crawl_result
    ph = res["phase_sec"]
    assert 0 < ph["writer_deflate"] <= ph["writer_busy"]


def _warc_outputs(out: str) -> tuple:
    """sha1 of every WARC shard by run-relative path, and each CDX part
    by name as its on-disk rows with ``shard`` made run-relative (as
    ``tools/kill_resume_check.py::_cdx_table`` does)."""
    import hashlib

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    warc = {os.path.relpath(p, out): hashlib.sha1(open(p, "rb").read())
            .hexdigest()
            for p in glob.glob(os.path.join(out, "round=*", "warc", "*"))}
    cdx = {}
    for p in sorted(glob.glob(os.path.join(out, "cdx", "*.parquet"))):
        t = pq.read_table(p)
        rel = pc.replace_substring(t["shard"], out.rstrip("/") + "/", "")
        cdx[os.path.basename(p)] = t.set_column(
            t.column_names.index("shard"), "shard", rel).to_pydict()
    return warc, cdx


def test_warc_output_independent_of_deflater_layout(ray_session, t1_dir,
                                                    tmp_path, monkeypatch):
    """The same crawl under two deflater fleets — one WarcWriter and
    five, by the cluster size ``run_crawl`` reads — writes
    sha1-identical WARC shards and identical CDX parts (names and
    rows), and the one-writer crawl's final drain hands chunks to
    actors that are not writers.  Both crawls keep two fetch workers:
    a WARC chunk is cut per (fetch worker, shard), so the fetch-worker
    count is part of the output and a ``fetch_concurrency`` change
    re-cuts the shards."""
    import ray

    from warc_ray.pipelines import crawl

    # rounds 0-9 of t1 fetch from all four shards: the last round's
    # chunks arrive together, more than one writer takes at once
    cfg = FrontierConfig(num_shards=4, max_rounds=5, filter_capacity=1 << 14)
    got = []
    for cpus, n_writers in ((3, 1), (8, 5)):
        monkeypatch.setattr(ray, "cluster_resources",
                            lambda cpus=cpus: {"CPU": float(cpus)})
        out = str(tmp_path / f"cpus{cpus}")
        res = crawl.run_crawl(t1_dir, out, config=cfg, write_warc=True,
                              fetch_concurrency=2)
        (workers, writers, _), = crawl._POOL_CACHE.values()
        assert (len(workers), len(writers)) == (2, n_writers)
        got.append((res, _warc_outputs(out)))
    (one, out_one), (five, out_five) = got
    assert one["warc_chunks"]["writer"] > 0
    assert one["warc_chunks"]["fetch_worker"] + one["warc_chunks"]["shard"] > 0
    assert sum(one["warc_chunks"].values()) == sum(five["warc_chunks"].values())
    warc, cdx = out_one
    assert warc and list(cdx) == ["part-r00005.parquet"]
    assert out_one == out_five
    assert one["warc_records"] == five["warc_records"] == sum(
        len(t["offset"]) for t in cdx.values())


def test_fresh_run_clears_stale_parts(ray_session, tmp_path):
    """A fresh (non-resume) run into a reused out_dir must not leave
    stale log/cdx parts from a previous run with a DIFFERENT pool
    layout (part filenames are keyed by worker id)."""
    import shutil

    from warc_ray import corpus as corpus_mod
    from warc_ray.pipelines.crawl import read_fetch_log, run_crawl
    from warc_ray.state.frontier import FrontierConfig

    cdir = corpus_mod.ensure_corpus("t1")
    out = str(tmp_path / "reused-out")
    cfg = FrontierConfig(num_shards=2, max_rounds=6, filter_capacity=1 << 14)
    run_crawl(cdir, out, config=cfg, write_warc=False, fetch_concurrency=2)
    n2 = read_fetch_log(out).count()
    run_crawl(cdir, out, config=cfg, write_warc=False, fetch_concurrency=1)
    n1 = read_fetch_log(out).count()
    assert n1 == n2


def test_sort_offers_fast_path_exact():
    """The seed-ingest int-argsort fast path must equal the full
    multi-key sort when depth/src_doc are constant and offsets unique,
    and FALL BACK (still exact) when offsets tie."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from warc_ray.state.frontier import FrontierCore

    rng = np.random.default_rng(3)
    n = 10_000
    offs = rng.permutation(n).astype(np.int32)
    buf = pa.table({
        "url": pa.array([f"http://h/x/{i}" for i in rng.integers(0, n, n)]),
        "host": pa.array(["h"] * n),
        "priority": pa.array(np.full(n, 5, dtype=np.int32)),
        "depth": pa.array(np.zeros(n, dtype=np.int32)),
        "hash64": pa.array(rng.integers(0, 2**63, n), type=pa.uint64()),
        "src_doc": pa.array([""] * n),
        "src_offset": pa.array(offs),
    })
    full = pc.sort_indices(buf, sort_keys=[("depth", "ascending"),
                                           ("src_doc", "ascending"),
                                           ("src_offset", "ascending"),
                                           ("url", "ascending")])
    fast = FrontierCore._sort_offers(buf, n)
    assert fast.to_pylist() == full.to_pylist()

    # ties in src_offset -> fallback path, still the full ordering
    dup = buf.set_column(buf.schema.get_field_index("src_offset"),
                         "src_offset",
                         pa.array(np.repeat(np.arange(n // 2), 2)
                                  .astype(np.int32)))
    full2 = pc.sort_indices(dup, sort_keys=[("depth", "ascending"),
                                            ("src_doc", "ascending"),
                                            ("src_offset", "ascending"),
                                            ("url", "ascending")])
    fast2 = FrontierCore._sort_offers(dup, n)
    assert fast2.to_pylist() == full2.to_pylist()

    # varying depth -> fallback
    vd = buf.set_column(buf.schema.get_field_index("depth"), "depth",
                        pa.array((offs % 3).astype(np.int32)))
    fullv = pc.sort_indices(vd, sort_keys=[("depth", "ascending"),
                                           ("src_doc", "ascending"),
                                           ("src_offset", "ascending"),
                                           ("url", "ascending")])
    assert FrontierCore._sort_offers(vd, n).to_pylist() == fullv.to_pylist()


def test_offer_suppression_is_a_round_snapshot(ray_session, t1_dir,
                                               tmp_path):
    """Two docs that link to one URL, fetched in two waves of one round
    (one slice ready, the other from a task that sleeps), offer what
    they offer when both slices are ready at once: suppression answers
    against the round-start set, and the round's keys join it only at
    the round's end."""
    import collections
    import time

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from warc_ray.pipelines.crawl import CrawlWorker

    prof = corpus.PROFILES["t1"]
    linkers = collections.defaultdict(list)
    for d in pq.read_table(corpus.docs_path(t1_dir),
                           columns=["doc_id", "spans"]).to_pylist():
        i = int(d["doc_id"].rsplit("-", 1)[1])
        for s in d["spans"]:
            if s["kind"] == "link" and s["media_ref"] != corpus.doc_url(
                    i, prof.n_hosts) and i not in linkers[s["media_ref"]]:
                linkers[s["media_ref"]].append(i)
    common, (a, b) = next((u, ds[:2]) for u, ds in sorted(linkers.items())
                          if len(ds) >= 2)

    def one_slice(i: int) -> pa.Table:
        url = corpus.doc_url(i, prof.n_hosts)
        return pa.table({
            "url": [url],
            "host": [url.split("/")[2]],
            "priority": pa.array([5], type=pa.int32()),
            "depth": pa.array([0], type=pa.int32()),
            "round": pa.array([0], type=pa.int32()),
            "fetch_seq": pa.array([0], type=pa.int64())})

    @ray.remote
    def late(tb: pa.Table) -> pa.Table:
        time.sleep(0.5)
        return tb

    num_shards = 2
    w = CrawlWorker.remote(0, t1_dir, prof.n_buckets, num_shards,
                           str(tmp_path))

    def offers(refs) -> list:
        w.bind_run.remote(str(tmp_path))      # empty suppression set
        got = ray.get(w.process_round_refs.options(
            num_returns=1 + num_shards).remote(0, refs, False))[1:]
        return [(sorted(tuple(r.values()) for r in tb.to_pylist()), n)
                for tb, n in got]

    ready = offers([ray.put(one_slice(a)), ray.put(one_slice(b))])
    waves = offers([ray.put(one_slice(a)), late.remote(one_slice(b))])
    urls = [r[0] for rows, _ in ready for r in rows]
    assert urls.count(common) == 2                # non-vacuous: both offer it
    assert waves == ready
    ray.kill(w)
