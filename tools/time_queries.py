#!/usr/bin/env python3
"""Wall seconds of named registry queries, min and median of k passes.

Runs the queries of the checkout this file lives in, in one warm Ray
session (``num_cpus`` = ``nproc``): one untimed warm-up pass, then
``--passes`` timed passes.  Each pass runs every named query once, in
the order given, so a slow host window hits all of them alike.  A
query's time covers its call and the conversion of its result to
pandas; a Dataset result is pulled with ``exchange.collect``, the
engine's one driver pull (a lazy result executes there).  Each query's
Ray Data executions are counted too: the tool wraps
``StreamingExecutor.execute`` in its own process (a materialized
Dataset or a plan the driver runs starts none).  Prints one line per
query (min, median, executions per pass) and, last, one JSON object
with the per-pass seconds and execution counts, ``nproc`` and the CPU
affinity count.

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
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    started = [0]
    execute = StreamingExecutor.execute

    def counted(self, *a, **k):
        started[0] += 1
        return execute(self, *a, **k)

    StreamingExecutor.execute = counted

    import __ray_entry__ as entrymod
    import ray.data as rd
    from warc_ray.stages.exchange import collect

    qs = entrymod.queries()
    missing = [q for q in args.queries if q not in qs]
    if missing:
        sys.exit(f"unknown queries: {missing}")

    secs: dict[str, list[float]] = {q: [] for q in args.queries}
    execs: dict[str, list[int]] = {q: [] for q in args.queries}
    for p in range(args.passes + 1):
        for q in args.queries:
            started[0] = 0
            t0 = time.perf_counter()
            res = qs[q](args.sf)
            (collect(res) if isinstance(res, rd.Dataset) else res).to_pandas()
            if p:                                  # pass 0 warms up
                secs[q].append(time.perf_counter() - t0)
                execs[q].append(started[0])
    ray.shutdown()

    print(f"checkout={ROOT} nproc={nproc} affinity={affinity} "
          f"passes={args.passes}")
    for q, s in secs.items():
        print(f"{q:36s} min {min(s):.4f} s  "
              f"median {statistics.median(s):.4f} s  "
              f"executions {max(execs[q])}")
    mean = statistics.mean(max(e) for e in execs.values())
    print(f"executions per query: mean {mean:.2f}")
    print(json.dumps({"checkout": ROOT, "sf": args.sf, "nproc": nproc,
                      "affinity": affinity, "passes": args.passes,
                      "secs": secs, "executions": execs}))


if __name__ == "__main__":
    main()
