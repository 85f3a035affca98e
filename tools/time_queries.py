#!/usr/bin/env python3
"""Wall seconds of named registry queries, min and median of k passes.

Runs the queries of the checkout this file lives in, in one warm Ray
session (``num_cpus`` = ``nproc``): one untimed warm-up pass, then
``--passes`` timed passes.  Each pass runs every named query once, in
the order given, so a slow host window hits all of them alike.  A
query's time covers its call and the conversion of its result to
pandas; a Dataset result is pulled with ``exchange.collect``, the
engine's one driver pull (a lazy result executes there).  Per query
and pass the tool also counts, by wrapping them in its own process:
Ray Data executions (``StreamingExecutor.execute``; a materialized
Dataset or a plan the driver runs starts none), Dataset constructions
(``Dataset.__new__``, which Ray's constructor and
``exchange.from_arrow`` both reach) and ``ParquetDatasource``
constructions (Ray-read Parquet scans).  Prints one line per query
(min, median, and the three counts of its busiest pass) and, last, one
JSON object with the per-pass seconds and counts, ``nproc`` and the
CPU affinity count.

Whole-workload benchmark runs swing together with the host; a loop
inside one session is the steadier reading for one query.  To compare
two checkouts, copy this file into each and alternate the sessions.

    python tools/time_queries.py --sf /path/to/sf0.01 --passes 5 \\
        q169_activity_streaks q204_journey_paths
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("queries", nargs="+", help="registry query names")
    ap.add_argument("--sf", required=True, help="scale-factor table dir")
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args()

    # the driver and the Ray workers both import this checkout
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    import ray

    nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                               check=True).stdout)
    affinity = len(os.sched_getaffinity(0))
    ray.init(address="local", num_cpus=nproc, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    from ray.data.dataset import Dataset

    counts = {"executions": 0, "datasets": 0, "parquet_sources": 0}

    def counting(key, fn):
        def wrapped(*a, **k):
            counts[key] += 1
            return fn(*a, **k)
        return wrapped

    StreamingExecutor.execute = counting("executions",
                                         StreamingExecutor.execute)
    ParquetDatasource.__init__ = counting("parquet_sources",
                                          ParquetDatasource.__init__)
    Dataset.__new__ = counting("datasets",
                               lambda cls, *a, **k: object.__new__(cls))

    import __ray_entry__ as entrymod
    import ray.data as rd
    from warc_ray.stages.exchange import collect

    qs = entrymod.queries()
    missing = [q for q in args.queries if q not in qs]
    if missing:
        sys.exit(f"unknown queries: {missing}")

    secs: dict[str, list[float]] = {q: [] for q in args.queries}
    seen = {k: {q: [] for q in args.queries} for k in counts}
    for p in range(args.passes + 1):
        for q in args.queries:
            counts.update(dict.fromkeys(counts, 0))
            t0 = time.perf_counter()
            res = qs[q](args.sf)
            (collect(res) if isinstance(res, rd.Dataset) else res).to_pandas()
            if p:                                  # pass 0 warms up
                secs[q].append(time.perf_counter() - t0)
                for k, n in counts.items():
                    seen[k][q].append(n)
    ray.shutdown()

    print(f"checkout={ROOT} nproc={nproc} affinity={affinity} "
          f"passes={args.passes}")
    for q, s in secs.items():
        print(f"{q:36s} min {min(s):.4f} s  "
              f"median {statistics.median(s):.4f} s  "
              + "  ".join(f"{k} {max(seen[k][q])}" for k in counts))
    print("per query, busiest pass: " + ", ".join(
        f"{k} mean {statistics.mean(max(v) for v in seen[k].values()):.2f}"
        f" sum {sum(max(v) for v in seen[k].values())}" for k in counts))
    print(json.dumps({"checkout": ROOT, "sf": args.sf, "nproc": nproc,
                      "affinity": affinity, "passes": args.passes,
                      "secs": secs, **seen}))


if __name__ == "__main__":
    main()
