"""The engine's one read-block rule.

Every scan that overrides Ray Data's own block count takes it from
``default_read_blocks``; ``read_parquet`` is the Parquet scan that does.
"""

from __future__ import annotations

import os

import ray.data as rd


def default_read_blocks(n_files: int | None = None) -> int:
    """Read blocks for one scan: ``2 × cluster CPUs``, capped at
    ``n_files`` when the caller passes a file count, never below 1.
    Outside a Ray session the CPU count is ``os.cpu_count()``.

    Why a CPU multiple, and why not Ray's own estimate or a constant:

    - Ray estimates in-memory size from COMPRESSED file bytes, so gzip
      archives get bundled into far too few read tasks (159 ARC shards
      → ~2 tasks read 8× slower than file-level parallelism at sf0.1).
      The WARC/ARC datasources pass their file count, so each core gets
      read work and no task reads an empty range.
    - One block per file poisons any downstream all-to-all: every
      exchange's partition count and per-block task cost scale with the
      block count.  A grouped exchange over 1280 shard blocks spent
      ~100 s in task overhead where 64 blocks take 2 s; q96's 200 CDX
      files plus 256 doc splits made ~450 sort partitions, ~10× the
      cost of the exchange they fed.
    - Sketch scans ship one cell per (group, block) (q26's 4 KB HLL
      registers, q49's 256 KiB count-min table), so their shuffle
      volume grows with blocks, not data.
    - A constant sized for one cluster is wrong on every other: q56's
      64 blocks (sized for 32 CPUs) took 1.61–1.75 s at one CPU, where
      2 blocks took 0.37–0.40 s for the same 100 rows (perfbench seed-3
      tables, nproc 1, affinity 4).

    ``2 ×`` keeps every core busy when one block runs long.  A caller
    that passes ``override_num_blocks`` to the datasources still wins.
    """
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 0)) \
            if ray.is_initialized() else 0
    except Exception:  # pragma: no cover - defensive
        cpus = 0
    if cpus <= 0:
        cpus = os.cpu_count() or 1
    blocks = 2 * cpus
    if n_files is not None:
        blocks = min(blocks, n_files)
    return max(1, blocks)


def read_parquet(path, **kwargs) -> "rd.Dataset":
    """``ray.data.read_parquet`` with ``default_read_blocks()`` blocks."""
    return rd.read_parquet(path, override_num_blocks=default_read_blocks(),
                           **kwargs)
