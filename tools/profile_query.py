"""Per-stage profiler for any ``queries()`` entry.

Runs one query and prints Ray Data's per-operator wall/CPU/row stats
(``Dataset.stats()``) plus total wall — the feedback loop for deciding
whether a stage is compute-bound (good) or exchange-bound (fix the
plan).  Used during the q189/q201/q206 lazy-double-execution hunt.

Usage: python tools/profile_query.py q201_assortativity [sf_dir]
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.1"

    # the driver and the Ray workers both import this checkout
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    fn = entrymod.queries()[name]
    t0 = time.time()
    res = fn(sf_dir)
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        res = res.materialize()
        wall = time.time() - t0
        print(res.stats())
    else:
        wall = time.time() - t0
        print(f"(driver-side result: {type(res).__name__}, "
              "no dataset stats)")
    print(f"\n== {name} total wall: {wall:.2f}s  (sf_dir={sf_dir})")
    ray.shutdown()


if __name__ == "__main__":
    main()
