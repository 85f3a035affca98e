"""Kill-and-resume crash check (G16): SIGKILL a crawl mid-round, resume
from the last checkpoint, and require the final fetch log, CDX index
and WARC shard BYTES to equal an uninterrupted run's.

Round-2 VERDICT item 5: the toy-scale resume test interrupts
gracefully; this drives the crash path — the victim run is killed with
SIGKILL (process group: driver + every frontier shard / fetch worker /
WARC writer actor dies instantly, no flush, no atexit), which is
strictly stronger than killing one shard actor.  Torn WARC shards and
log/cdx parts written after the last durable checkpoint must be
discarded by the resume logic and regenerated byte-identically.

Usage:
    python tools/kill_resume_check.py [profile] [--kill-at N]
        profile: corpus profile name (default t2; bench/benchxl2 for
                 bench-scale evidence)
        --kill-at N: SIGKILL once the checkpoint manifest reaches
                 next_round >= N (default 4)

Child mode (internal): --child {run,resume} <corpus_dir> <out_dir>
Prints one JSON line: {"profile":..., "equal_log":..., "equal_cdx":...,
"equal_warc":..., "killed_at_round":..., "ok": bool}
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

CKPT_EVERY = 2


def _cfg(prof):
    from warc_ray.state.frontier import FrontierConfig

    budget = 128 if prof.name.startswith("benchxl") else 64
    n_shards = 8
    cap = 1
    while cap * n_shards < 6 * prof.n_docs:
        cap <<= 1
    return FrontierConfig(rate=float(budget), burst=2 * budget,
                          per_round_host_budget=budget,
                          num_shards=n_shards, max_rounds=12,
                          max_depth=16, filter_capacity=cap)


def _child(mode: str, corpus_dir: str, out_dir: str,
           profile_name: str) -> None:
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
             include_dashboard=False, logging_level="ERROR")
    from warc_ray import corpus as corpus_mod
    from warc_ray.pipelines.crawl import run_crawl

    prof = corpus_mod.PROFILES[profile_name]
    run_crawl(corpus_dir, out_dir, config=_cfg(prof), write_warc=True,
              checkpoint_every=CKPT_EVERY, resume=(mode == "resume"))
    ray.shutdown()


def _sha1_dir(root: str, pattern: str) -> dict[str, str]:
    out = {}
    for p in sorted(glob.glob(os.path.join(root, pattern),
                              recursive=True)):
        rel = os.path.relpath(p, root)
        out[rel] = hashlib.sha1(open(p, "rb").read()).hexdigest()
    return out


def _cdx_table(out_dir: str):
    """CDX parts, path-relativized, in on-disk row order.

    Each drain point (checkpoint barrier, crawl end) writes one part,
    ``cdx/part-rNNNNN.parquet``, of the CDX rows of every WARC chunk
    deflated since the last one, sorted by (shard, offset) — whichever
    actors deflated them.  So the comparison is deliberately
    ORDER-SENSITIVE — two runs must produce the parts with identical
    row sequences, not just equal multisets.
    Byte-level sha1 can't be used here only because the ``shard``
    column embeds each run's absolute output path."""
    import pyarrow.parquet as pq

    paths = sorted(glob.glob(os.path.join(out_dir, "cdx", "*.parquet")))
    import pyarrow as pa
    import pyarrow.compute as pc

    if not paths:
        return pa.table({})
    t = pa.concat_tables([pq.read_table(p) for p in paths])
    # shard paths embed the run's output dir — compare run-relative
    if "shard" in t.column_names:
        rel = pc.replace_substring(t["shard"],
                                   out_dir.rstrip("/") + "/", "")
        t = t.set_column(t.column_names.index("shard"), "shard", rel)
    return t


def _spawn(mode: str, corpus_dir: str, out_dir: str, prof: str):
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         corpus_dir, out_dir, prof],
        cwd=REPO, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def main() -> None:
    if "--child" in sys.argv:
        i = sys.argv.index("--child")
        _child(sys.argv[i + 1], sys.argv[i + 2], sys.argv[i + 3],
               sys.argv[i + 4])
        return

    prof_name = next((a for a in sys.argv[1:]
                      if not a.startswith("--")), "t2")
    kill_at = 4
    if "--kill-at" in sys.argv:
        kill_at = int(sys.argv[sys.argv.index("--kill-at") + 1])

    from warc_ray import corpus as corpus_mod

    prof = corpus_mod.PROFILES[prof_name]
    cdir = corpus_mod.ensure_corpus(prof)
    root = os.environ.get("GRAFT_BENCH_OUT", "/dev/shm/warc_ray_bench")
    ref_dir = os.path.join(root, f"killcheck-{prof_name}-ref")
    vic_dir = os.path.join(root, f"killcheck-{prof_name}-vic")
    import shutil

    for d in (ref_dir, vic_dir):
        shutil.rmtree(d, ignore_errors=True)

    # 1. uninterrupted reference
    p = _spawn("run", cdir, ref_dir, prof_name)
    assert p.wait(timeout=1800) == 0, "reference run failed"

    # 2. victim: SIGKILL the whole process group once the manifest
    #    shows the crawl is mid-flight past `kill_at`
    p = _spawn("run", cdir, vic_dir, prof_name)
    manifest = os.path.join(vic_dir, "CRAWL_MANIFEST.json")
    killed_at = None
    deadline = time.time() + 1800
    while time.time() < deadline:
        if p.poll() is not None:
            break  # finished before we killed it — kill_at too high
        if os.path.exists(manifest):
            try:
                nr = json.load(open(manifest))["next_round"]
            except (json.JSONDecodeError, KeyError):
                nr = -1
            if nr >= kill_at:
                try:
                    os.killpg(os.getpgid(p.pid), signal.SIGKILL)
                    killed_at = nr
                except ProcessLookupError:
                    pass  # finished in the race window — reported below
                break
        time.sleep(0.05)
    p.wait()
    assert killed_at is not None, \
        "crawl finished before reaching kill_at — lower --kill-at"

    # 3. resume the victim to completion
    p = _spawn("resume", cdir, vic_dir, prof_name)
    assert p.wait(timeout=1800) == 0, "resume run failed"

    # 4. compare — log parts are BYTE-identical (flush_log sorts rows
    # into canonical order, so sha1 per part file must match); CDX is
    # order-sensitive content-identical up to the absolute output path
    # embedded in shard names; WARC shards are byte-identical.
    ref_log = _sha1_dir(ref_dir, "log/*.parquet")
    vic_log = _sha1_dir(vic_dir, "log/*.parquet")
    equal_log = bool(ref_log) and ref_log == vic_log
    equal_cdx = _cdx_table(ref_dir).equals(_cdx_table(vic_dir))
    ref_warc = _sha1_dir(ref_dir, "round=*/warc/*")
    vic_warc = _sha1_dir(vic_dir, "round=*/warc/*")
    equal_warc = ref_warc == vic_warc
    res = {"profile": prof_name, "killed_at_round": killed_at,
           "n_warc_shards": len(ref_warc),
           "equal_log": equal_log, "equal_cdx": equal_cdx,
           "equal_warc": equal_warc,
           "ok": equal_log and equal_cdx and equal_warc}
    print(json.dumps(res))
    sys.exit(0 if res["ok"] else 1)


if __name__ == "__main__":
    main()
