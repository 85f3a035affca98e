#!/usr/bin/env python
"""Multi-raylet "cluster" smoke (round-3 VERDICT item 6).

Runs the SAME crawl twice through ``tools/submit_crawl.py``:

  1. single-raylet — ``ray start --head --num-cpus=24`` (one node);
  2. multi-raylet  — ``ray start --head --num-cpus=8`` plus two
     ``ray start --address=...`` worker processes (8 CPUs each), i.e.
     three separate raylets/object stores on this machine — the
     in-sandbox stand-in for a 3-node cluster in which actor
     placement, cross-raylet object transfer and the object manager
     actually execute.

Both runs see a 24-CPU cluster, so every derived pool size (frontier
shards, fetch workers, writers) is identical, and the comparison is
the crash-recovery one: fetch-log parts byte-identical (sha1), CDX
content-identical up to the absolute output path inside ``shard``,
WARC shards byte-identical (sha1).  Prints one JSON line.

Usage::

    python tools/cluster_smoke.py [profile] [--out /tmp/cluster_smoke]

Profile defaults to ``bench`` (1.2M docs — big enough that every pool
runs wide; benchxl2 is the same code path at 4x the wall).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

HEAD_PORT = 6379


def _sh(cmd: list[str], env: dict | None = None, timeout: int = 600) -> str:
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=timeout, env=env)
    if p.returncode != 0:
        raise RuntimeError(f"{cmd} failed:\n{p.stdout[-800:]}\n{p.stderr[-1200:]}")
    return p.stdout


def _ray_stop(env: dict) -> None:
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                    "--force"], capture_output=True, text=True, env=env)


def _start_cluster(n_raylets: int, cpus_each: int, env: dict) -> str:
    """Head + (n_raylets-1) worker raylet processes; returns address."""
    _ray_stop(env)
    addr = f"127.0.0.1:{HEAD_PORT}"
    _sh([sys.executable, "-m", "ray.scripts.scripts", "start", "--head",
         f"--num-cpus={cpus_each}", f"--port={HEAD_PORT}",
         "--include-dashboard=false"], env=env)
    for _ in range(n_raylets - 1):
        _sh([sys.executable, "-m", "ray.scripts.scripts", "start",
             f"--address={addr}", f"--num-cpus={cpus_each}"], env=env)
    return addr


def _wait_cluster_cpus(addr: str, want: int, env: dict,
                       timeout: int = 120) -> None:
    probe = ("import ray, time, sys\n"
             "ray.init(address='%s', logging_level='ERROR')\n"
             "t0 = time.time()\n"
             "while time.time() - t0 < %d:\n"
             "    if ray.cluster_resources().get('CPU', 0) >= %d:\n"
             "        print('READY'); sys.exit(0)\n"
             "    time.sleep(1)\n"
             "sys.exit(1)\n" % (addr, timeout, want))
    out = _sh([sys.executable, "-c", probe], env=env, timeout=timeout + 30)
    assert "READY" in out


def _submit(corpus: str, out: str, addr: str, env: dict,
            shards: int, fetch_workers: int) -> dict:
    """One ``submit_crawl.py`` job; its stats' ``wall_sec`` is
    ``run_crawl``'s own elapsed, as in tools/cluster_scaling.py."""
    env = dict(env, RAY_ADDRESS=addr)
    stdout = _sh([sys.executable, os.path.join(REPO, "tools",
                                               "submit_crawl.py"),
                  "--corpus", corpus, "--out", out,
                  "--shards", str(shards),
                  "--fetch-workers", str(fetch_workers)],
                 env=env, timeout=3600)
    return json.loads(stdout.strip().splitlines()[-1])


def _sha1_glob(root: str, pattern: str) -> dict[str, str]:
    out = {}
    for p in sorted(glob.glob(os.path.join(root, pattern))):
        out[os.path.relpath(p, root)] = hashlib.sha1(
            open(p, "rb").read()).hexdigest()
    return out


def _cdx_table(out_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    paths = sorted(glob.glob(os.path.join(out_dir, "cdx", "*.parquet")))
    if not paths:
        return pa.table({})
    t = pa.concat_tables([pq.read_table(p) for p in paths])
    rel = pc.replace_substring(t["shard"], out_dir.rstrip("/") + "/", "")
    return t.set_column(t.column_names.index("shard"), "shard", rel)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("profile", nargs="?", default="bench")
    ap.add_argument("--out", default="/dev/shm/warc_ray_cluster_smoke")
    ap.add_argument("--cpus-total", type=int, default=24)
    ap.add_argument("--raylets", type=int, default=3)
    args = ap.parse_args()

    from warc_ray import corpus as corpus_mod

    cdir = corpus_mod.ensure_corpus(args.profile)
    prof = corpus_mod.PROFILES[args.profile]
    shards = max(4, args.cpus_total // 2)
    # explicit fetch-worker count so BOTH topologies use the same pool
    # split even if reserve heuristics drift
    budget = args.cpus_total - 1 - (shards + 3) // 4
    fetch_workers = max(1, min(prof.n_buckets, 32, round(budget * 0.22)))

    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    shutil.rmtree(args.out, ignore_errors=True)
    res: dict = {"profile": args.profile, "cpus_total": args.cpus_total,
                 "raylets": args.raylets, "shards": shards,
                 "fetch_workers": fetch_workers}
    try:
        # 1. single raylet
        addr = _start_cluster(1, args.cpus_total, env)
        _wait_cluster_cpus(addr, args.cpus_total, env)
        one = os.path.join(args.out, "single")
        res["single"] = _submit(cdir, one, addr, env, shards, fetch_workers)
        _ray_stop(env)

        # 2. three raylets, same total CPUs
        per = args.cpus_total // args.raylets
        addr = _start_cluster(args.raylets, per, env)
        _wait_cluster_cpus(addr, per * args.raylets, env)
        multi = os.path.join(args.out, "multi")
        res["multi"] = _submit(cdir, multi, addr, env, shards, fetch_workers)
    finally:
        _ray_stop(env)

    log_a, log_b = (_sha1_glob(one, "log/*.parquet"),
                    _sha1_glob(multi, "log/*.parquet"))
    warc_a, warc_b = (_sha1_glob(one, "round=*/warc/*"),
                      _sha1_glob(multi, "round=*/warc/*"))
    res["equal_log"] = bool(log_a) and log_a == log_b
    res["equal_warc"] = bool(warc_a) and warc_a == warc_b
    res["equal_cdx"] = _cdx_table(one).equals(_cdx_table(multi))
    res["n_log_parts"] = len(log_a)
    res["n_warc_shards"] = len(warc_a)
    res["ok"] = res["equal_log"] and res["equal_warc"] and res["equal_cdx"]
    print(json.dumps(res))
    sys.exit(0 if res["ok"] else 1)


if __name__ == "__main__":
    main()
