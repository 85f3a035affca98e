"""The engine's one read-block rule and its one Parquet scan.

Every scan that overrides Ray Data's own block count takes it from
``default_read_blocks``; ``read_parquet`` is the Parquet scan that does.

``scan_parquet`` is the only caller of ``ray.data.read_parquet``, whose
``ParquetDatasource`` samples the files in a remote task (~16 ms at one
CPU) before anything runs.  It reads the footers first: a local scan
whose files share one schema, with no partition values in their paths
and no keyword beyond ``columns`` and ``override_num_blocks``, whose
row-group bytes pass ``exchange.fits_one_block`` and
``exchange.LOCAL_PLAN_BYTES``, is read in the driver with
``pq.ParquetFile.read`` and returned through ``exchange.from_arrow``,
cut into the block count asked for (one if none).  Any other scan is
``ray.data.read_parquet`` with the caller's arguments.
"""

from __future__ import annotations

import os

import pyarrow as pa
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


def _driver_table(paths, kwargs: dict) -> pa.Table | None:
    """The scan's rows read in the driver, or None when Ray must read
    it.  Files are listed as Ray's datasource lists them: one directory
    through ``pq.ParquetDataset``, else the named files in order."""
    import pyarrow.parquet as pq
    from ray.data.datasource.partitioning import (Partitioning,
                                                  PathPartitionParser)

    from ..stages.exchange import LOCAL_PLAN_BYTES, fits_one_block

    names = [paths] if isinstance(paths, str) else paths
    if (set(kwargs) - {"columns", "override_num_blocks"}
            or not isinstance(names, list) or not names
            or not all(isinstance(p, str) and "://" not in p for p in names)):
        return None
    try:
        if len(names) == 1 and os.path.isdir(names[0]):
            names = [f.path for f in pq.ParquetDataset(
                names[0], partitioning=None).fragments]
        hive = PathPartitionParser(Partitioning("hive"))
        if not names or any(not os.path.isfile(p) or hive(p) for p in names):
            return None
        mds = [pq.read_metadata(p) for p in names]
    except (OSError, pa.ArrowException):
        return None                     # Ray raises its own error
    if any(not md.schema.equals(mds[0].schema) for md in mds[1:]):
        return None                     # an evolved scan: Ray unifies it
    nbytes = sum(md.row_group(i).total_byte_size
                 for md in mds for i in range(md.num_row_groups))
    if not (fits_one_block(nbytes) and nbytes <= LOCAL_PLAN_BYTES):
        return None
    return pa.concat_tables([pq.ParquetFile(p, metadata=md).read(
        columns=kwargs.get("columns")) for p, md in zip(names, mds)])


def scan_parquet(paths, **kwargs) -> "rd.Dataset":
    """The engine's one Parquet scan: ``ray.data.read_parquet(paths,
    **kwargs)``, read in the driver when its footers allow (see the
    module docstring)."""
    from ..stages.exchange import cut_blocks, from_arrow

    tab = _driver_table(paths, kwargs)
    if tab is None:
        return rd.read_parquet(paths, **kwargs)
    return from_arrow(cut_blocks(tab,
                                 kwargs.get("override_num_blocks") or 1))


def read_parquet(path, **kwargs) -> "rd.Dataset":
    """``scan_parquet`` with ``default_read_blocks()`` blocks."""
    return scan_parquet(path, override_num_blocks=default_read_blocks(),
                        **kwargs)
