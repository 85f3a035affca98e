#!/usr/bin/env python3
"""The WARC writer layer in µs per fetched URL, min of k.

Builds crawl-archive-shaped writer input in this process: the perfbench
corpus for ``--seed`` (``perfbench/inputs.crawl_corpus``; the document
buckets are generated once and cached under
``.bench_build/perfbench/corpus``), the crawl-archive frontier config
(``perfbench/crawls.py``), and a single-process replay of the crawl
through ``FrontierCore`` and ``FetchGroup``.  Each round's fetched rows
are fetched per frontier shard and cut into ``crawl.WRITE_CHUNK``
slices of ``crawl.WRITER_COLS``, as a ``CrawlWorker`` cuts them into
the chunk jobs that the crawl driver hands to a free deflater (a
``WarcWriter`` during rounds, any actor of the fleet at a drain point).

Three paths are timed over the same chunks, each pass writing every
chunk, and the best of ``--repeat`` passes is reported:

* ``fused``: ``sinks.warc_sink.write_fused_round``, the deflaters'
  call;
* ``two_pass``: ``WriteWarcShard(fused_fetch_records(chunk))``, the
  per-row parity reference;
* ``deflate_floor``: one ``zlib.compressobj`` (level 9, or 0 for a
  stored octet-stream response; memLevel 6), one ``compress`` and one
  ``flush`` per record over the same records, prepared outside the
  timing.  While every record is its own gzip member this is the
  least any writer can take.

``fused_outside_deflate`` is the best pass of ``fused`` less the time
its own ``gzipm.compress_members`` loop took in that pass (the
``timing`` dict ``write_fused_round`` fills): the writer's work other
than deflate, measured in the same calls.  The three paths take turns
pass by pass, so a slow host window hits all of them.  Shards go to a
temporary directory that is removed at exit.  The last stdout line is
one JSON object.

    python tools/bench_writer.py --seed 3 --repeat 5
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]


def build_chunks(seed: int, work: str) -> list:
    """``[(round, chunk)]``: the writer input of one crawl-archive crawl."""
    import crawls
    import inputs
    import pyarrow as pa

    from warc_ray import corpus
    from warc_ray.pipelines.crawl import WRITE_CHUNK, WRITER_COLS
    from warc_ray.stages.fetch import FetchGroup, add_bucket_column
    from warc_ray.stages.urls import (canonicalize_batch, extract_links,
                                      urls_from_seeds)
    from warc_ray.state.frontier import (FrontierCore, robots_to_shard_dict,
                                         shard_of, split_by_host_shard)

    cfg = crawls.frontier_config(crawls.SPECS["crawl-archive"])
    corpus_dir = inputs.crawl_corpus(
        os.path.join(ROOT, ".bench_build", "perfbench", "corpus"), work, seed)
    n_buckets = inputs.BASE_PROFILE.n_buckets
    robots = robots_to_shard_dict(corpus.read_robots(corpus_dir))
    cores = [FrontierCore(s, cfg, {h: v for h, v in robots.items()
                                   if shard_of(h, cfg.num_shards) == s})
             for s in range(cfg.num_shards)]
    fetch = FetchGroup(corpus_dir, n_buckets)

    def offer_and_seal(table):
        for s, sub in enumerate(split_by_host_shard(table, cfg.num_shards)):
            if sub is not None:
                cores[s].offer(sub)
        for c in cores:
            c.seal_round()

    offer_and_seal(urls_from_seeds(corpus.read_seeds(corpus_dir)))
    chunks = []
    for t in range(cfg.max_rounds):
        parts = [fetch(add_bucket_column(e, n_buckets))
                 for e in (c.pop_round(t) for c in cores) if e.num_rows]
        if not parts:
            break
        for fp in parts:
            rows = fp.select(WRITER_COLS)
            chunks += [(t, rows.slice(lo, WRITE_CHUNK))
                       for lo in range(0, fp.num_rows, WRITE_CHUNK)]
        offer_and_seal(canonicalize_batch(extract_links(
            pa.concat_tables(parts), doc_col="doc_id", depth_col="depth")))
    return chunks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    from harness import nproc

    from warc_ray.sinks.warc_sink import WriteWarcShard, write_fused_round
    from warc_ray.stages.assemble import fused_fetch_records, logical_date

    work = tempfile.mkdtemp(prefix="bench_writer-")
    try:
        chunks = build_chunks(args.seed, work)
        n_urls = sum(c.num_rows for _, c in chunks)
        recs = [fused_fetch_records(c) for _, c in chunks]
        floor_in = [(r["record_bytes"].to_pylist(),
                     r["entropy_hint"].to_pylist()) for r in recs]
        n_recs = sum(len(b) for b, _ in floor_in)
        rec_bytes = sum(sum(map(len, b)) for b, _ in floor_in)
        out = os.path.join(work, "warc")

        def fused(timing):
            shutil.rmtree(out, ignore_errors=True)
            for t, c in chunks:
                write_fused_round(c, out, logical_date(t), timing)

        def two_pass(_):
            shutil.rmtree(out, ignore_errors=True)
            for t, c in chunks:
                WriteWarcShard(out, date=logical_date(t))(
                    fused_fetch_records(c))

        def deflate_floor(_):
            co = zlib.compressobj
            for blobs, stored in floor_in:
                for b, s in zip(blobs, stored):
                    c = co(0 if s else 9, zlib.DEFLATED, -15, 6)
                    c.compress(b)
                    c.flush()

        paths = {"fused": fused, "two_pass": two_pass,
                 "deflate_floor": deflate_floor}
        best = dict.fromkeys(list(paths) + ["fused_outside_deflate"],
                             float("inf"))
        for _ in range(args.repeat):
            for name, fn in paths.items():
                timing: dict = {}
                t0 = time.perf_counter()
                fn(timing)
                wall = time.perf_counter() - t0
                best[name] = min(best[name], wall)
                if name == "fused":
                    best["fused_outside_deflate"] = min(
                        best["fused_outside_deflate"],
                        wall - timing["deflate"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "seed": args.seed, "repeat": args.repeat,
        "nproc": nproc(), "affinity": len(os.sched_getaffinity(0)),
        "chunks": len(chunks), "urls": n_urls, "records": n_recs,
        "mean_record_bytes": round(rec_bytes / max(1, n_recs), 1),
        **{f"{k}_us_per_url": round(v / n_urls * 1e6, 2)
           for k, v in best.items()},
    }))


if __name__ == "__main__":
    main()
