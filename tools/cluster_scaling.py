#!/usr/bin/env python
"""Scaling pair ACROSS RAYLET BOUNDARIES (round-4 VERDICT ask #7).

``bench.py --scaling`` reads the two-cluster-size criterion inside one
local raylet (num_cpus=8 vs 32).  This harness reads the same pair
with the wide arm spread over REAL raylet topology — the in-sandbox
stand-in for "N nodes vs 4N nodes":

  * narrow arm: ``ray start --head --num-cpus=8``          (1 node × 8)
  * wide arm:   head + 3 workers, 8 CPUs each = 32 total   (4 nodes × 8)

Same per-"node" size, 4× the nodes, so actor placement, cross-raylet
object transfer and the object manager are on the measured path of the
wide arm (tools/cluster_smoke.py already proved output byte-parity on
this topology).  Each raylet gets an identical bounded object store —
topology-faithful: a 4-node cluster has 4× the aggregate store.

Measurement discipline mirrors ``bench.run_scaling``: arms ALTERNATE
(wide, narrow, …) keeping each arm's best of ``GRAFT_SCALING_REPS``
runs, a 2-round warmup per cluster start (worker-pool spinup + page
cache), ``_wait_quiet`` + ``host_probe`` before each measured run and
after the pair, outputs on /dev/shm wiped between runs.  Pool sizing
comes from ``tools/submit_crawl.py``'s cluster-CPU rules, identical to
``bench_crawl``'s (shards = CPUs//2, measured-cost fetch split).  Each
arm is timed by the engine-internal elapsed ``run_crawl`` returns
(``wall_sec``), not by the submit subprocess, whose interpreter start,
imports and Ray connect are not the engine's.

Prints one JSON line; record the reading in BASELINE.md.

Usage::

    python tools/cluster_scaling.py [profile]     # default benchxl3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import bench  # noqa: E402  (repo-root module: _wait_quiet/_host_probe)

HEAD_PORT = 6379
STORE_BYTES = int(os.environ.get("GRAFT_STORE_GB", "12")) * (1 << 30)
# per-raylet object store: bounded so 4 raylets fit one host's /dev/shm
# (126 G here); 0 = ray's default sizing


def _sh(cmd: list[str], env: dict, timeout: int = 3600) -> str:
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=timeout, env=env)
    if p.returncode != 0:
        raise RuntimeError(f"{cmd} failed:\n{p.stdout[-800:]}\n"
                           f"{p.stderr[-1200:]}")
    return p.stdout


def _ray_stop(env: dict) -> None:
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                    "--force"], capture_output=True, text=True, env=env)


def _start_cluster(n_raylets: int, cpus_each: int, env: dict) -> str:
    _ray_stop(env)
    time.sleep(2)
    addr = f"127.0.0.1:{HEAD_PORT}"
    base = [sys.executable, "-m", "ray.scripts.scripts", "start",
            f"--num-cpus={cpus_each}"]
    if STORE_BYTES:
        base.append(f"--object-store-memory={STORE_BYTES}")
    _sh(base + ["--head", f"--port={HEAD_PORT}",
                "--include-dashboard=false"], env=env)
    for _ in range(n_raylets - 1):
        _sh(base + [f"--address={addr}"], env=env)
    # wait for every raylet's CPUs to register
    want = n_raylets * cpus_each
    probe = ("import ray, time, sys\n"
             f"ray.init(address='{addr}', logging_level='ERROR')\n"
             "t0 = time.time()\n"
             "while time.time() - t0 < 120:\n"
             f"    if ray.cluster_resources().get('CPU', 0) >= {want}:\n"
             "        print('READY'); sys.exit(0)\n"
             "    time.sleep(1)\n"
             "sys.exit(1)\n")
    out = _sh([sys.executable, "-c", probe], env=env, timeout=150)
    assert "READY" in out
    return addr


def _submit(corpus: str, out: str, addr: str, env: dict,
            rounds: int = 12) -> dict:
    """One ``submit_crawl.py`` job; its stats' ``wall_sec`` is
    ``run_crawl``'s own elapsed, actor spawn to return."""
    env = dict(env, RAY_ADDRESS=addr)
    shutil.rmtree(out, ignore_errors=True)
    stdout = _sh([sys.executable, os.path.join(REPO, "tools",
                                               "submit_crawl.py"),
                  "--corpus", corpus, "--out", out,
                  "--rounds", str(rounds)], env=env)
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("profile", nargs="?",
                    default=os.environ.get("GRAFT_SCALING_PROFILE",
                                           "benchxl3"))
    ap.add_argument("--out", default="/dev/shm/warc_ray_cluster_scaling")
    ap.add_argument("--cpus-per-raylet", type=int, default=8)
    ap.add_argument("--raylets-wide", type=int, default=4)
    args = ap.parse_args()
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "2"))

    from warc_ray import corpus as corpus_mod

    cdir = corpus_mod.ensure_corpus(args.profile)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}

    arms = {  # name -> (n_raylets, total_cpus)
        "wide": (args.raylets_wide,
                 args.raylets_wide * args.cpus_per_raylet),
        "narrow": (1, args.cpus_per_raylet),
    }
    best: dict[str, dict] = {}
    probes: dict[str, dict | None] = {}
    try:
        for arm in ("wide", "narrow") * reps:
            n_raylets, total = arms[arm]
            shutil.rmtree(args.out, ignore_errors=True)
            bench._settle(15)
            bench._wait_quiet(thresh=max(4.0, 34.0 - total))
            # probe-GATE the arm (the round-3/4 workflow): unhealthy
            # windows produce 0.3-0.7 tenancy artifacts, not engine
            # readings — wait up to ~20 min for a healthy probe
            probe_pre = bench._host_probe()
            t_gate = time.time()
            while (probe_pre is None or not probe_pre.get("healthy")) \
                    and time.time() - t_gate < 1200:
                time.sleep(120)
                probe_pre = bench._host_probe()
            addr = _start_cluster(n_raylets, args.cpus_per_raylet, env)
            # warmup: worker-pool spinup + corpus page cache
            _submit(cdir, os.path.join(args.out, "warmup"), addr, env,
                    rounds=2)
            shutil.rmtree(args.out, ignore_errors=True)
            r = _submit(cdir, os.path.join(args.out, arm), addr, env)
            _ray_stop(env)
            if arm not in best or r["wall_sec"] < best[arm]["wall_sec"]:
                best[arm] = r
                probes[arm] = probe_pre
    finally:
        _ray_stop(env)
        shutil.rmtree(args.out, ignore_errors=True)

    t_low = best["narrow"]["wall_sec"]
    t_high = best["wide"]["wall_sec"]
    n_low, n_high = arms["narrow"][1], arms["wide"][1]
    eff = (t_low * n_low) / (t_high * n_high)
    print(json.dumps({
        "metric": "scaling efficiency across raylet topologies "
                  "(1 raylet x8 vs 4 raylets x8)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "profile": args.profile,
        "n_low": n_low, "n_high": n_high,
        "sec_low": t_low, "sec_high": t_high,
        "urls_low": best["narrow"].get("total_fetched"),
        "urls_high": best["wide"].get("total_fetched"),
        "urls_per_sec_high": round(
            best["wide"].get("total_fetched", 0) / t_high, 1),
        "probe_low": probes.get("narrow"),
        "probe_high": probes.get("wide"),
        "probe_final": bench._host_probe(),
        "threshold": 0.8,
        "pass": eff >= 0.8,
    }))


if __name__ == "__main__":
    main()
