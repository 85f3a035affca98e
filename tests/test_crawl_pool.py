"""The warm crawl fleet: ``run_crawl`` keeps its frontier shards, fetch
workers and WARC writers in ``crawl._POOL_CACHE`` and rebinds them to
the next crawl in the same process.

A pooled crawl must be byte-identical to one on a fresh fleet, a pool
that lost an actor between crawls must be replaced, and idle pooled
actors must hold no CPU (a 1-CPU node still runs Ray Data after a
crawl)."""

import glob
import hashlib
import os
import signal
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from warc_ray import corpus
from warc_ray.state.frontier import FrontierConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEY = ["round", "host", "fetch_seq", "url"]


@pytest.fixture
def t1_dir(tmp_path):
    # a private corpus: test_pool_rebinds_across_configs rewrites its
    # robots table between crawls
    return corpus.ensure_corpus("t1", root=str(tmp_path / "corpus"))


def _shard_ids(pool_cache) -> list:
    (_workers, _writers, shards), = pool_cache.values()
    return [s._actor_id.hex() for s in shards]


def _log_files(out: str) -> dict:
    return {os.path.basename(p): hashlib.sha1(open(p, "rb").read()).hexdigest()
            for p in sorted(glob.glob(os.path.join(out, "log", "*.parquet")))}


def test_pool_rebinds_across_configs(ray_session, t1_dir, tmp_path):
    """Back-to-back crawls reuse the same shard actors even when the
    seen-set capacity and the robots table change between them, and the
    second crawl's fetch log and seen-set are byte-identical to the same
    crawl on a freshly spawned fleet."""
    from warc_ray.pipelines import crawl

    cfg_a = FrontierConfig(num_shards=4, max_rounds=20, filter_capacity=1 << 14)
    cfg_b = FrontierConfig(num_shards=4, max_rounds=20, filter_capacity=1 << 13)
    res_a = crawl.run_crawl(t1_dir, str(tmp_path / "a"), config=cfg_a,
                            write_warc=False)
    ids_a = _shard_ids(crawl._POOL_CACHE)

    # every disallow rule goes; crawl delays stay
    robots = corpus.read_robots(t1_dir)
    robots = robots.set_column(
        robots.schema.get_field_index("disallow_prefixes"), "disallow_prefixes",
        pa.array([[]] * robots.num_rows,
                 type=robots.schema.field("disallow_prefixes").type))
    pq.write_table(robots, os.path.join(t1_dir, "robots.parquet"))

    res_b = crawl.run_crawl(t1_dir, str(tmp_path / "b"), config=cfg_b,
                            write_warc=False)
    assert _shard_ids(crawl._POOL_CACHE) == ids_a

    crawl._POOL_CACHE.clear()
    res_fresh = crawl.run_crawl(t1_dir, str(tmp_path / "fresh"), config=cfg_b,
                                write_warc=False)
    assert set(_shard_ids(crawl._POOL_CACHE)).isdisjoint(ids_a)

    def denied(res):
        return sum(s["robots_denied"] for s in res["shard_stats"])

    assert denied(res_a) > 0 and denied(res_b) == 0   # new robots took hold
    assert res_b["shard_stats"] == res_fresh["shard_stats"]
    assert res_b["filter_bytes"] == res_fresh["filter_bytes"]
    assert len(res_b["filter_bytes"][0]) != len(res_a["filter_bytes"][0])
    logs_b = _log_files(str(tmp_path / "b"))
    assert logs_b and logs_b == _log_files(str(tmp_path / "fresh"))


def test_pool_respawns_after_shard_loss(ray_session, t1_dir, tmp_path):
    """A pooled shard killed between two crawls: the second crawl drops
    the whole pool, spawns a fresh fleet and still matches the oracle's
    fetch log and seen-set."""
    import ray

    from warc_ray.pipelines import crawl
    from warc_ray.pipelines.oracle import simulate

    cfg = FrontierConfig(num_shards=4, max_rounds=60, filter_capacity=1 << 14)
    crawl.run_crawl(t1_dir, str(tmp_path / "first"),
                    config=FrontierConfig(num_shards=4, max_rounds=3,
                                          filter_capacity=1 << 14),
                    write_warc=False)
    ids_first = _shard_ids(crawl._POOL_CACHE)
    (_workers, _writers, shards), = crawl._POOL_CACHE.values()
    ray.kill(shards[1])
    del shards, _workers, _writers

    out = str(tmp_path / "second")
    res = crawl.run_crawl(t1_dir, out, config=cfg, write_warc=False)
    assert set(_shard_ids(crawl._POOL_CACHE)).isdisjoint(ids_first)

    want = simulate(t1_dir, config=cfg)
    got = crawl.read_fetch_log(out).to_pandas().sort_values(KEY).reset_index(drop=True)
    exp = want["log"].to_pandas().sort_values(KEY).reset_index(drop=True)
    assert len(got) > 0 and got.equals(exp)
    assert res["filter_bytes"] == want["filter_bytes"]


def test_idle_pool_leaves_the_cpu_to_ray_data(tmp_path):
    """At ``num_cpus=1`` a crawl, then a Ray Data job (q259's
    ``robots_audit``) while the crawl fleet idles in the pool: the job
    must finish.  Pooled actors that held a fraction of a CPU each
    starved it forever.  A later Ray session in the same process then
    crawls on a fleet of its own."""
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {REPO!r})
        import ray
        import ray.data as rd
        import pyarrow.compute as pc
        from warc_ray import corpus
        from warc_ray.pipelines.crawl import read_fetch_log, run_crawl
        from warc_ray.pipelines.reports import robots_audit
        from warc_ray.state.frontier import FrontierConfig

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        cdir = corpus.ensure_corpus("t1", root={str(tmp_path / "corpus")!r})
        run_crawl(cdir, {str(tmp_path / "out")!r}, write_warc=False,
                  config=FrontierConfig(num_shards=4, max_rounds=10,
                                        filter_capacity=1 << 14))
        log = read_fetch_log({str(tmp_path / "out")!r}).materialize()
        n_fetched = log.count()
        audit = robots_audit(log, corpus.read_robots(cdir))
        print("VIOLATIONS", int(pc.sum(audit["n_violations"]).as_py() or 0))
        ray.shutdown()
        # a new session in the same process: the old session's pooled
        # handles are unusable, so this crawl must spawn its own fleet
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        res = run_crawl(cdir, {str(tmp_path / "out2")!r}, write_warc=False,
                        config=FrontierConfig(num_shards=4, max_rounds=10,
                                              filter_capacity=1 << 14))
        print("REFETCHED", res["total_fetched"] == n_fetched)
        ray.shutdown()
    """)
    # own session: a missed deadline takes down the driver and every
    # Ray process it started
    p = subprocess.Popen([sys.executable, "-c", script], cwd=REPO, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("crawl + robots_audit at num_cpus=1 missed its 300 s deadline")
    assert p.returncode == 0, out + err
    assert "VIOLATIONS 0" in out
    assert "REFETCHED True" in out
