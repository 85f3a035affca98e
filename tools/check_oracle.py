"""Driver-style correctness harness: run each queries() entry and its
oracle_sql() twin on the same sf dir; compare row count, column names,
and order-insensitive values (sorted by all columns).

Runs the code of the checkout this file lives in, with Ray's
``num_cpus`` taken from ``nproc``.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import duckdb
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # one line per finished query even when the sweep is killed
    sys.stdout.reconfigure(line_buffering=True)

    # the driver and the Ray workers both import this checkout
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import ray

    num_cpus = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    print(f"checkout={ROOT} num_cpus={num_cpus}")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql(sf_dir)

    con = duckdb.connect()
    # a table the sf dir lacks is left undefined: only the oracles that
    # read it fail
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        if os.path.exists(f"{sf_dir}/{t}.parquet"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"{name}: QUERY ERROR {type(e).__name__}: {e}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"{name}: rows={len(mine)} cols={list(mine.columns)} "
                  f"({dt:.1f}s) [rows-only]")
            continue
        want = normalize(con.execute(oracles[name]).fetchdf())
        ok_rows = len(mine) == len(want)
        ok_cols = list(mine.columns) == list(want.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                pd.testing.assert_frame_equal(mine, want, check_dtype=False)
                ok_vals = True
            except AssertionError as e:
                msg = str(e).splitlines()[0]
        status = "OK" if (ok_rows and ok_cols and ok_vals) else "FAIL"
        print(f"{name}: {status} rows={len(mine)}/{len(want)} ({dt:.1f}s)"
              + ("" if status == "OK" else
                 f" cols_ok={ok_cols} mine={list(mine.columns)} want={list(want.columns)}"
                 + (f" vals: {msg}" if ok_rows and ok_cols else "")))
        if status != "OK":
            failures.append(name)
    print("FAILURES:", failures if failures else "none")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
