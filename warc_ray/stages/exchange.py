"""Hash-bucket exchange: every grouped aggregate and join of the engine,
without a per-key shuffle.

``combine_buckets`` is the engine's one grouped aggregate.  No module
calls Ray Data's ``groupby(key).aggregate(...)``, which sort-shuffles
the full key domain and combines per key at the reduce, so for
high-cardinality keys its exchange fabric dominates the aggregation
itself.  ``combine_buckets`` instead runs:

  1. per Ray block, a vectorized Arrow ``Table.group_by`` (the classic
     combiner, so row skew collapses before anything moves),
  2. ``with_part``, which appends a bucket ``hash(keys) % npart``,
  3. ``bucket_exchange``, one Arrow group_by per bucket — exact,
     because ``with_part`` puts every key tuple in exactly one bucket.

``bucket_exchange`` is the engine's only exchange: ``combine_buckets``,
``hash_join``, ``skew_join``, ``range_scan`` and ``clustered_join``
only build its input and its ``bucket_fn``, and every per-bucket plan
in ``pipelines`` and ``stages`` calls it directly.  It materializes its
input once and picks the path by size.  At most one Ray block folds on
the driver: concatenate, stable-sort by the part column, one
``bucket_fn`` call per part.  Anything larger takes one Ray
``groupby(part_col).map_groups`` (one Python call per distinct part —
not per key).  Either way the result is a materialized Dataset.  The
part column is usually ``with_part``'s int bucket, but may be any
non-null sortable column.  Every primitive executes each of its inputs
exactly once.

One size rule decides every broadcast-or-exchange choice:
``fits_one_block`` (bytes ≤ ``DataContext.target_max_block_size``,
128 MiB by default).  ``bucket_exchange`` applies it to its input,
``lookup_join`` to its dimension (fits → broadcast it and join each
fact batch with Arrow, no exchange; else ``hash_join``),
``auto_join`` to the dimension's parquet footer bytes, and
``sort_result`` to a result it sorts (fits → sort on the driver; else
Ray's distributed sort).

This module also owns how a result leaves Ray.  ``collect`` is the
engine's one driver pull: a Dataset becomes one Arrow table (blocks
whose types differ promote; empty input keeps the schema when Ray
knows it).  ``materialize`` is the engine's one materialization.
``sort_result`` is the engine's one Dataset sort, a
drop-in for ``Dataset.sort(key, descending)``: the same rows in the
same key order (nulls last either way) and the same block count, so a
sorted Dataset that feeds more distributed work keeps its
parallelism.  A loop that reduces batch by batch
(``for b in ds.iter_batches()``) is a streaming fold, not a pull.

Small plans run in the driver.  Every Ray Data execution costs tens
of ms of fixed wall, most of a query's time at sf0.01, so ``collect``,
``materialize`` and with them every primitive here first ask
``local_blocks`` for the plan's output blocks.  It walks the logical
plan over a whitelist (``from_arrow`` or materialized input, which a
small Parquet scan is: ``sources._util.scan_parquet`` reads it in the
driver; a task-pool pyarrow ``map_batches`` with ``batch_size=None``;
``select_columns``; ``union``) and computes the blocks with Arrow,
keeping Ray's per-block semantics, when the plan's source bytes pass
``fits_one_block`` and ``LOCAL_PLAN_BYTES`` (64 MiB).  The primitives
compose on Arrow blocks (``_blocks``): on the driver path a call
builds one Dataset, its result (``from_arrow``, which asks no Ray
actor or task).  Anything else runs on Ray unchanged; so do the tests
that lower the block ceiling to force an exchange.

``npart`` sizes the reduce parallelism and bounds per-task group state:
at cluster scale set it to a few × total cores so each bucket's
distinct keys fit a worker's heap.  Keys hash uniformly, so buckets
balance regardless of key skew in the ROW distribution (skew collapses
in step 1's partials).
"""

from __future__ import annotations

import inspect
import os
import types

import numpy as np
import polars as pl
import pyarrow as pa


def hash64_strings(arr: pa.Array | pa.ChunkedArray,
                   seed: int = 42) -> np.ndarray:
    """Vectorized, deterministic 64-bit hash (polars) of an Arrow column."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pl.from_arrow(arr).hash(seed=seed).to_numpy()


def with_part(tab: pa.Table, key_cols, npart: int, seed: int = 42, *,
              part_col: str = "part") -> pa.Table:
    """Append ``part_col = hash64(key) % npart`` (int32, vectorized).
    ``key_cols`` is one column name or a list: one key hashes with
    ``hash64_strings``, several hash each row's key tuple (polars
    ``DataFrame.hash_rows``)."""
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    if len(keys) == 1:
        h = hash64_strings(tab[keys[0]], seed=seed)
    else:
        h = pl.from_arrow(tab.select(keys)).hash_rows(seed=seed).to_numpy()
    part = (h % np.uint64(npart)).astype(np.int32)
    return tab.append_column(part_col, pa.array(part))


def segment_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment starts, per-row 0-based rank within its segment) of a
    SORTED key array — the vectorized backbone of the grouped top-k,
    window and per-bucket rank kernels that ``bucket_fn``s run."""
    n = len(sorted_keys)
    new = np.ones(n, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    rank = np.arange(n, dtype=np.int64) - np.repeat(
        starts, np.diff(np.append(starts, n)))
    return starts, rank


def fits_one_block(nbytes: int | None) -> bool:
    """The engine's one size rule: ``nbytes`` (None = unknown) is at
    most one Ray block, ``DataContext.target_max_block_size``.  Inputs
    that fit are handled whole on the driver or broadcast; larger ones
    take an exchange."""
    from ray.data import DataContext

    return (nbytes is not None
            and nbytes <= DataContext.get_current().target_max_block_size)


# The driver path's cap on a plan's source bytes (in-memory input block
# sizes) and on a Parquet scan's footer ``total_byte_size`` (the same
# bytes once ``scan_parquet`` has read it).  A Ray Data execution
# has a fixed cost of ~70-100 ms however few the rows; the driver path
# pays none of it but gives up the tasks' parallelism, which pays only
# once per-block work outweighs that fixed cost.  Measured with
# ``collect(read_parquet(f).map_batches(fn))``, Ray path against driver
# path, min of 3-5 warm calls, nproc 1, affinity 4:
#   - a per-block row-count partial over lineitem: sf0.01 (1.2 MB of
#     footer bytes) 98 -> 27 ms at num_cpus 1 and 117 -> 26 ms at 4;
#     sf0.1 (13.6 MB) 258 -> 123 ms and 306 -> 132 ms;
#   - a per-block four-aggregate ``group_by`` over 1x, 2x and 4x
#     sf0.1 lineitem (15.5, 31 and 62 MiB): 256/457/658 -> 131/201/328
#     ms at num_cpus 1 and 271/375/569 -> 130/196/324 ms at 4;
#   - q01 and q100 at sf0.1 and num_cpus 4: 425 -> 156 ms, 935 -> 280.
# The driver won every case; its margin shrinks with size at 4 CPUs
# (x2.1, x1.9, x1.8), so the cap is the largest measured size, 64 MiB,
# which also bounds the driver's memory for one plan.  At 32 CPUs the
# crossover is unmeasured.
LOCAL_PLAN_BYTES = 64 << 20


def _local_source(op, refs: list, nbytes: list):
    """The driver-side evaluator of one source operator (see
    ``local_blocks``), or None when ``op`` is not whitelisted.  Appends
    the source's block refs to ``refs`` and its bytes to ``nbytes``."""
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData)

    if type(op) not in (FromArrow, InputData):
        return None
    metas = [m for bundle in op.input_data for _, m in bundle.blocks]
    if any(m.size_bytes is None for m in metas):
        return None
    lo = len(refs)
    refs += [r for bundle in op.input_data for r, _ in bundle.blocks]
    nbytes.append(sum(m.size_bytes for m in metas))
    return lambda got: got[lo:lo + len(metas)]


def _map_block(fn, b: pa.Table, args=(), kwargs=None) -> pa.Table:
    """``fn`` on one block as a task-pool pyarrow ``map_batches`` with
    ``batch_size=None`` runs it: never on an empty block (which gives
    an empty, schema-less block), generator outputs concatenated."""
    from ray.data.block import BlockAccessor

    if not b.num_rows:                  # Ray never calls fn on these
        return pa.table({})
    out = fn(b, *args, **(kwargs or {}))
    outs = list(out) if isinstance(out, types.GeneratorType) else [out]
    outs = [BlockAccessor.batch_to_block(o) for o in outs]
    return outs[0] if len(outs) == 1 else pa.concat_tables(
        outs, promote_options="default")


def _local_op(op, refs: list, nbytes: list):
    """The driver-side evaluator of the plan rooted at ``op``: a
    function from the fetched source blocks to ``op``'s output blocks,
    or None when some operator is not whitelisted."""
    from ray.data._internal.compute import TaskPoolStrategy
    from ray.data._internal.logical.operators.map_operator import (
        MapBatches, Project)
    from ray.data._internal.logical.operators.n_ary_operator import Union

    if type(op) is Union:
        kids = [_local_op(k, refs, nbytes) for k in op.input_dependencies]
        if any(k is None for k in kids):
            return None
        return lambda got: [b for k in kids for b in k(got)]
    if type(op) is Project:
        if op.cols is None or op.cols_rename or op.exprs:
            return None
        child, cols = _local_op(op.input_dependencies[0], refs,
                                nbytes), op.cols
        # Ray passes an empty block through unprojected
        return child and (lambda got: [b.select(cols) if b.num_rows else b
                                       for b in child(got)])
    if type(op) is MapBatches:
        fn = op._fn
        if (not isinstance(op._compute, TaskPoolStrategy)
                or op._batch_format != "pyarrow" or op._batch_size is not None
                or op._fn_constructor_args or op._fn_constructor_kwargs
                or op._ray_remote_args_fn is not None
                or inspect.isclass(fn) or inspect.iscoroutinefunction(fn)
                or inspect.isasyncgenfunction(fn)):
            return None
        child = _local_op(op.input_dependencies[0], refs, nbytes)
        args, kwargs = op._fn_args or (), op._fn_kwargs
        return child and (lambda got: [_map_block(fn, b, args, kwargs)
                                       for b in child(got)])
    return _local_source(op, refs, nbytes)


def local_blocks(ds) -> list[pa.Table] | None:
    """``ds``'s output blocks computed in the driver process, or None
    when its plan is not small and simple; then Ray runs it.

    Every Ray Data execution costs tens of ms of fixed wall, most of a
    query's time at sf0.01, where the rows are few.  So a plan built
    only of whitelisted operators whose source bytes pass
    ``fits_one_block`` and ``LOCAL_PLAN_BYTES`` runs here with Arrow,
    keeping Ray's per-block semantics:

    - ``from_arrow`` / a materialized Dataset: its blocks, with one
      ``ray.get`` of all the plan's block refs.  A small Parquet scan
      is one: ``sources._util.scan_parquet`` reads it in the driver;
    - a task-pool ``map_batches`` with ``batch_format="pyarrow"``,
      ``batch_size=None`` and no constructor: ``fn`` once per block,
      never on an empty one (which, as in Ray, yields an empty
      schema-less block);
    - ``select_columns`` (a ``Project`` without renames or
      expressions);
    - ``union``: its inputs' blocks in input order.

    Anything else returns None.  The walker reads Ray internals; a
    test pins them, so a Ray upgrade that moves them fails loudly."""
    import ray
    from ray.data.block import BlockAccessor

    refs, nbytes = [], []
    run = _local_op(ds._logical_plan.dag, refs, nbytes)
    src = sum(nbytes)
    if run is None or not (fits_one_block(src) and src <= LOCAL_PLAN_BYTES):
        return None
    got = [b if isinstance(b, pa.Table)
           else BlockAccessor.for_block(b).to_arrow()
           for b in (ray.get(refs) if refs else [])]
    return run(got)


def from_arrow(tables):
    """``ray.data.from_arrow(tables)`` built in the driver, which holds
    the tables: Ray's reads the blocks' metadata in one remote task per
    table (~20 ms a call at one CPU), and its ``Dataset`` constructor
    asks the stats actor for an id (~1.5 ms).  This one reads the
    metadata here and takes the id Ray falls back to, ``uuid4().hex``;
    the rest is ``Dataset.__init__``'s, pinned by a test."""
    import uuid

    import ray
    from ray.data import DataContext
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data._internal.util import get_table_block_metadata_schema
    from ray.data.dataset import MaterializedDataset

    tables = [tables] if isinstance(tables, pa.Table) else tables
    meta = [get_table_block_metadata_schema(t) for t in tables]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": meta},
                                      parent=None),
                         DataContext.get_current().copy())
    dag = LogicalPlan(FromArrow([ray.put(t) for t in tables], meta),
                      plan._context)
    ds = MaterializedDataset.__new__(MaterializedDataset)
    ds._plan, ds._logical_plan = plan, dag
    plan.link_logical_plan(dag)
    ds._current_executor = ds._write_ds = None
    ds._set_uuid(uuid.uuid4().hex)
    return ds


def cut_blocks(tab: pa.Table, k: int) -> list[pa.Table]:
    """``tab`` as ``k`` contiguous slices of near-equal row counts."""
    cuts = np.arange(k + 1) * tab.num_rows // k
    return [tab.slice(s, e - s) for s, e in zip(cuts[:-1], cuts[1:])]


def materialize(ds):
    """``ds.materialize()`` through the local path: the engine's one
    materialization.  A materialized input is returned as it is
    (``materialize`` would re-run its block list, ~5 ms); a plan that
    ``local_blocks`` runs becomes a ``from_arrow`` Dataset of its
    blocks; anything else is ``ds.materialize()``."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        return ds
    blocks = local_blocks(ds)
    if blocks is None:
        return ds.materialize()
    return _dataset(blocks)


def _blocks(ds, fn=None):
    """How the primitives compose: ``ds`` (a Dataset, or Arrow blocks
    an earlier step returned) with ``fn`` applied per block, as a
    task-pool pyarrow ``map_batches`` applies it.  On the driver path
    (``ds`` is blocks, or ``local_blocks`` runs its plan) this is a
    list of Arrow blocks, and no Dataset is built; else it is Ray's:
    ``ds.map_batches(fn)``, which its consumer executes, or
    ``materialize(ds)`` without ``fn``."""
    blocks = ds if isinstance(ds, list) else local_blocks(ds)
    if blocks is None:
        return materialize(ds) if fn is None else ds.map_batches(
            fn, batch_format="pyarrow")
    return blocks if fn is None else [_map_block(fn, b) for b in blocks]


def _dataset(blocks):
    """A ``_blocks`` result as a Dataset (Arrow blocks: ``from_arrow``;
    no blocks: one empty, schema-less block)."""
    if not isinstance(blocks, list):
        return blocks
    return from_arrow(blocks or [pa.table({})])


def _size(blocks) -> tuple[int, int]:
    """(rows, bytes) of Arrow blocks or a materialized Dataset."""
    if isinstance(blocks, list):
        return (sum(b.num_rows for b in blocks),
                sum(b.nbytes for b in blocks))
    return blocks.count(), blocks.size_bytes()


def block_refs(ds) -> list:
    """The block refs of ``materialize(ds)``, for a fold that reads one
    block at a time.  A materialized or driver-run Dataset's refs are
    read from its plan (``to_arrow_refs`` would start a Ray execution
    over them)."""
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData)

    ds = materialize(ds)
    op = ds._logical_plan.dag
    if type(op) in (FromArrow, InputData):
        return [r for bundle in op.input_data for r, _ in bundle.blocks]
    return ds.to_arrow_refs()


def bucket_exchange(ds, bucket_fn, *, part_col: str = "part"):
    """Run ``bucket_fn`` once per distinct ``part_col`` value of ``ds``,
    picking the path by size.

    ``part_col`` may be any non-null sortable column; ``bucket_fn(
    pa.Table) -> pa.Table`` sees all of one part's rows (``part_col``
    included) either way.  Executes ``ds`` once, when called, and
    returns a materialized Dataset.  If the materialized input
    ``fits_one_block`` the driver concatenates it (blocks whose types
    differ, e.g. int32 vs int64, promote as they do in the
    sort-shuffle), stable-sorts by ``part_col`` and calls
    ``bucket_fn`` per part: the sort-shuffle's fixed cost (seconds per
    exchange) is far above a driver pass over result-sized rows.
    Larger inputs take ``groupby(part_col).map_groups(bucket_fn)``.
    Empty input never calls ``bucket_fn`` and yields an empty Dataset.
    Output row order is unspecified.
    """
    return _dataset(_exchange(ds, bucket_fn, part_col))


def _exchange(ds, bucket_fn, part_col: str = "part"):
    """``bucket_exchange`` as a ``_blocks`` result: the fold's output
    block (none for empty input), or the exchange's Dataset."""
    mat = _blocks(ds)
    rows, nbytes = _size(mat)
    if rows and not fits_one_block(nbytes):
        return materialize(_dataset(mat).groupby(part_col).map_groups(
            bucket_fn, batch_format="pyarrow"))
    tab = collect(mat)
    if not tab.num_rows:
        return []
    part = tab[part_col].to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    tab, part = tab.take(pa.array(order)), part[order]
    cuts = np.flatnonzero(part[1:] != part[:-1]) + 1
    outs = [bucket_fn(tab.slice(s, e - s))
            for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(part)])]
    return [pa.concat_tables(outs, promote_options="permissive")]


def collect(ds, schema: pa.Schema | None = None) -> pa.Table:
    """The engine's one driver pull: all rows of ``ds`` (a Dataset or
    ``_blocks``' Arrow blocks) as one Arrow table, in block order.

    Executes ``ds`` once: on the driver when ``local_blocks`` runs its
    plan (a materialized input's blocks take one ``ray.get``, with no
    Ray execution), else through ``materialize`` and one ``ray.get``
    of its block refs.  Non-empty blocks concatenate with permissive
    promotion (int32 and int64 blocks give int64).  Empty input gives
    the zero-row table of its blocks' schema (or a materialized
    input's known schema); when they have none (Ray drops the schema
    of an empty block a map passed), of ``schema``, or
    ``pa.table({})``."""
    import ray
    from ray.data.dataset import MaterializedDataset

    blocks = ds if isinstance(ds, list) else local_blocks(ds)
    if blocks is None:
        ds = materialize(ds)
        blocks = ray.get(ds.to_arrow_refs())
    known = next((b.schema for b in blocks if b.num_columns), None)
    if known is None and isinstance(ds, MaterializedDataset):
        known = getattr(ds.schema(), "base_schema", None)
    rows = [b for b in blocks if b.num_rows]
    if rows:
        return pa.concat_tables(rows, promote_options="permissive")
    if known is not None:
        return known.empty_table()
    return pa.table({}) if schema is None else schema.empty_table()


def sort_result(ds, keys, descending=False):
    """``ds.sort(keys, descending)`` for a RESULT-sized Dataset: the
    engine's one Dataset sort.

    ``keys`` is a column or a list, ``descending`` a bool or one per
    key, as for ``Dataset.sort``; nulls sort last either way and ties
    keep input order.  Ray's distributed sort costs seconds of fixed
    all-to-all wall whatever the row count, so a materialized input
    that ``fits_one_block`` is sorted on the driver and returned as
    contiguous slices, one per input block (Ray's sort keeps the block
    count too); a larger one takes ``Dataset.sort``.  Executes ``ds``
    once."""
    mat = _blocks(ds)
    if not fits_one_block(_size(mat)[1]):
        return _dataset(mat).sort(keys, descending=descending)
    tab = collect(mat)
    if not tab.num_rows:
        return _dataset(mat)
    keys = [keys] if isinstance(keys, str) else list(keys)
    desc = descending if isinstance(descending, (list, tuple)) \
        else [descending] * len(keys)
    tab = tab.sort_by([(k, "descending" if d else "ascending")
                       for k, d in zip(keys, desc)])
    return from_arrow(cut_blocks(tab, len(mat) if isinstance(mat, list)
                                 else mat.num_blocks()))


_COMBINE_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
# combine_buckets' bucket column: private, so keys and outputs may use
# any other name, ``part`` included
_PART = "_combine_part"


def _group(tab: pa.Table, keys: list[str], aggs) -> pa.Table:
    """Arrow ``group_by(keys)`` with each ``(col, op)`` written back
    under ``col`` (``count`` counts rows)."""
    out = tab.group_by(keys, use_threads=False).aggregate(
        [([], "count_all") if op == "count" else (col, op)
         for col, op in aggs])
    return out.rename_columns(keys + [col for col, _ in aggs])


def combine_buckets(ds, keys, aggs: list[tuple[str, str]], *,
                    npart: int = 32):
    """The engine's grouped aggregate: one row per distinct ``keys``
    tuple of ``ds``, with each ``(col, op)`` of ``aggs`` in column
    ``col``.

    ``op`` is ``sum``, ``min``, ``max`` or ``count`` (rows per group,
    like Ray's ``Count()``; ``col`` names the output and need not be
    an input column).  ``aggs=[]`` is a distinct.  Null keys form one
    group; a sum over only nulls is null.  Each whole Ray block is
    first reduced with an Arrow ``group_by`` (the combiner), then
    tagged by ``with_part(keys)`` and combined per bucket through
    ``bucket_exchange`` (counts are summed).  Output row order is
    unspecified — sort where order matters.  Executes ``ds`` once,
    when called (callers must not run it again).  Empty input keeps
    the output schema when ``ds`` knows its schema without running
    (e.g. Arrow or materialized input); otherwise it yields an empty
    Dataset, as ``bucket_exchange`` does.
    """
    from ray.data.dataset import MaterializedDataset

    keys = [keys] if isinstance(keys, str) else list(keys)
    merge = [(col, _COMBINE_OP[op]) for col, op in aggs]

    def partial(b: pa.Table) -> pa.Table:
        return with_part(_group(b, keys, aggs), keys, npart,
                         part_col=_PART)

    def combine(g: pa.Table) -> pa.Table:
        return _group(g.drop_columns([_PART]), keys, merge)

    out = _exchange(_blocks(ds, partial), combine, _PART)
    if not _size(out)[0]:
        # an all-empty materialized Dataset reads its schema from its
        # blocks (``collect``): Ray's metadata of empty blocks has none
        schema = collect(ds).schema if isinstance(ds, MaterializedDataset) \
            else getattr(ds.schema(), "base_schema", None)
        if schema is not None and schema.names:
            return from_arrow(combine(partial(schema.empty_table())))
    return _dataset(out)


def _join_exchange(left_ds, right_ds, keys: list[str], how: str,
                   right_suffix: str, bucket_finish, route_left,
                   route_right):
    """The padded-union bucket join under ``hash_join`` and
    ``skew_join``.  Each side executes once: it is materialized before
    its schema is read.  Both sides are padded to one union schema
    (each side's non-key columns null on the other side, plus a
    ``side`` flag) so ONE ``bucket_exchange`` moves everything; each
    bucket runs a single vectorized pyarrow ``Table.join``.
    ``route_*(batch) -> (row indices | None, part)`` picks each padded
    row's bucket; indices, when given, first replicate rows."""
    left_ds, right_ds = _blocks(left_ds), _blocks(right_ds)
    l_schema, r_schema = (
        collect(d).schema if isinstance(d, list) else d.schema()
        for d in (left_ds, right_ds))
    l_extra = [n for n in l_schema.names if n not in keys]
    r_extra = [n for n in r_schema.names if n not in keys]
    r_out = [n + right_suffix if n in l_schema.names else n
             for n in r_extra]
    l_cols, r_cols = keys + l_extra, keys + r_out
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    def pad(side: int, route):
        def fn(b: pa.Table) -> pa.Table:
            idx, part = route(b)
            if idx is not None:
                b = b.take(pa.array(idx))
            n = b.num_rows
            cols = [b[k] for k in keys]
            cols += [b[c] if side == 0 else pa.nulls(n, type=l_types[c])
                     for c in l_extra]
            cols += [b[c] if side == 1 else pa.nulls(n, type=r_types[c])
                     for c in r_extra]
            cols += [pa.array(np.full(n, side, dtype=np.int8)),
                     pa.array(part)]
            return pa.table(cols, names=l_cols + r_out + ["side", "part"])
        return fn

    def bucket(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        lt = g.filter(pa.array(side == 0)).select(l_cols)
        rt = g.filter(pa.array(side == 1)).select(r_cols)
        j = lt.join(rt, keys=keys, join_type=how)
        # join→consumer fusion: a key's rows are COMPLETE inside this
        # bucket, so a per-key finish (aggregate, top-k partial, dedup)
        # applied here needs no second exchange downstream
        return bucket_finish(j) if bucket_finish is not None else j

    u = [_blocks(left_ds, pad(0, route_left)),
         _blocks(right_ds, pad(1, route_right))]
    u = u[0] + u[1] if all(isinstance(d, list) for d in u) \
        else _dataset(u[0]).union(_dataset(u[1]))
    return bucket_exchange(u, bucket)


def hash_join(left_ds, right_ds, keys, how: str = "inner", *,
              npart: int = 32, right_suffix: str = "_r",
              bucket_finish=None):
    """General bucket-exchange join for two Datasets — the
    both-sides-large path (for fact ⋈ dim, ``lookup_join`` broadcasts
    a dim that fits one block and falls back to this join).

    Both sides move through ONE hash ``bucket_exchange`` on the join
    key (see ``_join_exchange``); each side executes once.  Compared
    with Ray's built-in join this avoids the shuffle-actor spawn cost
    that dominates at small-to-medium cardinalities, and it composes
    with the `with_part` fabric the rest of the engine uses.
    Right-side non-key columns that clash with left names get
    ``right_suffix``.

    Partitioning assumption: one key's rows (both sides) fit a
    bucket's worker — salt hot keys upstream if that breaks.
    ``how`` ∈ {"inner", "left outer", "right outer", "full outer"}.
    ``bucket_finish``: optional per-bucket post-join callable — because
    a join key's rows are complete within a bucket, any per-key finish
    (grouped aggregate, top-k partial, keep-first) fused here avoids a
    second exchange (q100 uses this for join→aggregate→top-k).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def route(b: pa.Table):
        h = np.zeros(b.num_rows, dtype=np.uint64)
        for k in keys:
            col = b[k]
            if pa.types.is_integer(col.type):
                kv = col.to_numpy(zero_copy_only=False).astype(np.uint64)
                with np.errstate(over="ignore"):
                    kv = (kv ^ (kv >> np.uint64(33))) \
                        * np.uint64(0xFF51AFD7ED558CCD)
            else:
                kv = hash64_strings(col)
            h ^= kv
        return None, (h % np.uint64(npart)).astype(np.int32)

    return _join_exchange(left_ds, right_ds, keys, how, right_suffix,
                          bucket_finish, route, route)


def _broadcast_join(fact_ds, dim: pa.Table, keys, bucket_finish):
    """The broadcast kernel: inner-join ``dim`` into every fact batch
    with Arrow (N:M keys expand; an empty ``dim`` gives zero rows with
    the joined schema), then ``bucket_finish``.  Clashing dim columns
    get ``_r`` as in ``hash_join``.  On Ray, ``dim`` travels inside
    the map function, which Ray puts in the object store once."""
    def probe(b: pa.Table) -> pa.Table:
        j = b.join(dim, keys=keys, join_type="inner", right_suffix="_r")
        return bucket_finish(j) if bucket_finish is not None else j

    return _dataset(_blocks(fact_ds, probe))


def lookup_join(fact_ds, dim_ds, keys, *, npart: int = 32,
                bucket_finish=None):
    """Inner join of a fact Dataset with a dimension Dataset, broadcast
    when the dimension is small and exchanged otherwise.

    ``dim_ds`` executes once (materialized).  If it ``fits_one_block``
    its table is broadcast and each fact batch joins it with Arrow:
    the fact never moves, and the result is a lazy Dataset that runs
    the fact when consumed (or, when the driver runs the fact's plan,
    a materialized one).  Otherwise this is ``hash_join(fact_ds,
    dim_ds, keys, npart=npart, bucket_finish=bucket_finish)``.  Key
    columns must have the same types on both sides.

    ``bucket_finish`` runs once per FACT BATCH on the broadcast path,
    not once per key bucket, so it must be row-wise (select, filter)
    or a partial the caller re-reduces (a per-key sum, a local top-k).
    """
    dim_ds = _blocks(dim_ds)
    if not fits_one_block(_size(dim_ds)[1]):
        return hash_join(fact_ds, dim_ds, keys, npart=npart,
                         bucket_finish=bucket_finish)
    return _broadcast_join(fact_ds, collect(dim_ds), keys, bucket_finish)


# ---------------------------------------------------------------------------
# Range-partitioned prefix scan and global sort (terasort shape)
# ---------------------------------------------------------------------------

# keys per block (about; evenly strided) in range_scan's splitter sample
_SAMPLE_PER_BLOCK = 256


def ordered_bits_i64(x: np.ndarray) -> np.ndarray:
    """int64 → uint64 preserving order (flip the sign bit)."""
    return x.view(np.uint64) ^ np.uint64(1 << 63)


def i64_key(col: str):
    """A ``range_scan`` key or tiebreak function: the int64 column
    ``col`` ascending, as ``ordered_bits_i64``."""
    return lambda b: ordered_bits_i64(b[col].to_numpy(zero_copy_only=False))


def ordered_bits_f64(v: np.ndarray) -> np.ndarray:
    """float64 → uint64 with the IEEE total order (lexicographic bytes
    compare == numeric compare, negatives included)."""
    bits = v.view(np.uint64)
    neg = (bits >> np.uint64(63)).astype(bool)
    out = bits ^ np.uint64(1 << 63)
    out[neg] = ~bits[neg]
    return out


# op -> (identity, per-block ufunc, driver prefix fold)
_SCAN_OP = {
    "count": (0, np.add, np.cumsum),
    "sum": (0, np.add, np.cumsum),
    "max": (np.iinfo(np.int64).min, np.maximum, np.maximum.accumulate),
}


def range_scan(ds, key_fn, tiebreak_fn, value_col, op, bucket_fn, *,
               npart: int = 32):
    """Two-phase parallel prefix scan over sampled key ranges (Blelloch):
    ``bucket_fn`` sees every row of one key range in (key, tiebreak)
    order, with the scan of ``value_col`` over all EARLIER ranges.

      1. SAMPLE pass — each block contributes a deterministic,
         evenly-strided sample of its primary sort keys; the driver
         cuts ``npart - 1`` splitters at even quantiles.  Splitters are
         *data-adaptive*, so skewed keys still yield balanced ranges.
      2. PARTIAL pass — ``part = searchsorted(splitters, key)`` is a
         pure stateless function of the row, so each block reduces to
         one value per range (``np.add.at`` / ``np.maximum.at``; npart
         ints per block — the shuffle never carries rows).  The driver
         folds them into each range's EXCLUSIVE carry-in and the total.
      3. EXCHANGE pass — one range ``bucket_exchange``; each bucket
         sorts vectorized (``np.lexsort`` on tiebreak-then-key) and
         calls ``bucket_fn(rows, carry, total)`` once (``rows`` without
         the part column; ``carry`` and ``total`` Python ints).

    ``op`` is ``sum`` or ``max`` over the int64 ``value_col``, or
    ``count`` (rows; ``value_col`` unused).  The identity — the first
    range's carry, and an empty input's total — is 0 for ``sum`` /
    ``count`` and ``iinfo(int64).min`` for ``max``; ``max`` callers
    mask it.  ``key_fn(batch) -> np.uint64`` must encode the PRIMARY
    order as ascending unsigned bits (``i64_key``, ``ordered_bits_*``;
    invert ``~bits`` for descending).  ``tiebreak_fn(batch) ->
    np.uint64`` breaks ties (unique per row for a deterministic total
    order).  Rows with EQUAL primary keys always land in the same range
    (``searchsorted`` side='right'), so the scan is exact even when
    ties straddle a splitter value.

    Scale shape: ``ds`` executes once (materialized); the three passes
    read those blocks, and only the sample and the npart-int partials
    reach the driver before the exchange.  On ``bucket_exchange``'s
    fold path (input ≤ one block) the driver then holds the whole
    input; otherwise per-bucket memory = rows/npart — size ``npart`` so
    a bucket fits a worker's heap.  Returns a materialized Dataset.
    """
    ident, ufunc, fold = _SCAN_OP[op]
    ds = _blocks(ds)

    # -- pass 1: strided key sample → splitters --------------------------
    def sample_keys(b: pa.Table) -> pa.Table:
        k = np.sort(key_fn(b))
        step = max(1, len(k) // _SAMPLE_PER_BLOCK)
        return pa.table({"k": pa.array(k[::step], type=pa.uint64())})

    samp = collect(_blocks(ds, sample_keys))
    samp = np.sort(samp["k"].to_numpy()) if samp.num_rows \
        else np.array([], dtype=np.uint64)
    if len(samp) == 0:
        splitters = np.array([], dtype=np.uint64)
    else:
        cuts = (np.arange(1, npart) * len(samp)) // npart
        splitters = np.unique(samp[np.minimum(cuts, len(samp) - 1)])
    nranges = len(splitters) + 1

    def _parts(b: pa.Table) -> np.ndarray:
        return np.searchsorted(splitters, key_fn(b),
                               side="right").astype(np.int32)

    # -- pass 2: per-range partials (npart ints per block) ---------------
    def partial(b: pa.Table) -> pa.Table:
        acc = np.full(nranges, ident, dtype=np.int64)
        v = (np.ones(b.num_rows, dtype=np.int64) if op == "count" else
             b[value_col].to_numpy(zero_copy_only=False).astype(np.int64))
        ufunc.at(acc, _parts(b), v)
        return pa.table({"part": pa.array(np.arange(nranges, dtype=np.int32)),
                         "v": pa.array(acc)})

    acc = np.full(nranges, ident, dtype=np.int64)
    parts = collect(_blocks(ds, partial))
    if parts.num_rows:
        # ufunc.at: part indices repeat once per block — fancy-index
        # assignment would silently keep only one block's value per part
        ufunc.at(acc, parts["part"].to_numpy(zero_copy_only=False),
                 parts["v"].to_numpy(zero_copy_only=False))
    run = fold(acc)
    carry = [int(ident)] + run[:-1].tolist()  # carry[p] = scan before p
    total = int(run[-1])

    # -- pass 3: range exchange + per-bucket vectorized sort -------------
    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("part", pa.array(_parts(b)))

    def bucket(g: pa.Table) -> pa.Table:
        part = int(g["part"][0].as_py())
        order = np.lexsort((tiebreak_fn(g), key_fn(g)))
        g = g.drop_columns(["part"]).take(pa.array(order))
        return bucket_fn(g, carry[part], total)

    return bucket_exchange(_blocks(ds, tag), bucket)


def range_sort(ds, key_fn, tiebreak_fn, *, npart: int = 32):
    """Distributed total-order sort with exact global ranks: ``ds``
    with a 1-based ``rank`` column appended.

    The classic sampled range partition (the TeraSort shape; Ray Data's
    own ``Dataset.sort`` uses the same boundary-sampling idea but does
    not expose ranks).  It is ``range_scan`` with ``op="count"``: the
    per-range row counts' exclusive prefix sum is each range's global
    rank offset, and each bucket emits ``rank = offset + local
    position``.  ``key_fn``, ``tiebreak_fn``, the tie rule and the
    scale shape are ``range_scan``'s.
    """
    def ranks(g: pa.Table, carry: int, total: int) -> pa.Table:
        rank = np.arange(1, g.num_rows + 1, dtype=np.int64) + carry
        return g.append_column("rank", pa.array(rank))

    return range_scan(ds, key_fn, tiebreak_fn, None, "count", ranks,
                      npart=npart)


# ---------------------------------------------------------------------------
# Skew-aware join (salted hot keys)
# ---------------------------------------------------------------------------

_GOLD2 = np.uint64(0x9E3779B97F4A7C15)


def detect_hot_keys(ds, key: str, *, hot_share_ppm: int = 20_000,
                    cand_per_batch: int = 32) -> set:
    """Heavy-key detection pre-pass: per-batch top-``cand_per_batch``
    key counts fold driver-side; keys whose summed candidate count is
    ≥ ``hot_share_ppm`` of total rows are hot.  Approximate (a key
    missing some batches' top lists undercounts) but DETERMINISTIC for
    a given block layout — and correctness never depends on it: salted
    and unsalted joins are value-equal, detection only moves work."""
    def cand(b: pa.Table) -> pa.Table:
        t = pa.table({"k": b[key]})
        c = t.group_by(["k"]).aggregate([("k", "count")]) \
            .rename_columns(["k", "n"])
        c = c.take(pa.compute.sort_indices(c, sort_keys=[
            ("n", "descending"), ("k", "ascending")]))
        c = c.slice(0, cand_per_batch)
        return c.append_column(
            "rows", pa.array([b.num_rows] + [0] * (c.num_rows - 1)
                             if c.num_rows else [],
                             type=pa.int64()))

    t = collect(_blocks(ds, cand))
    if t.num_rows == 0:
        return set()
    total = int(pa.compute.sum(t["rows"]).as_py() or 0)
    folded = t.group_by(["k"]).aggregate([("n", "sum")])
    hot = set()
    for k, n in zip(folded["k"].to_pylist(), folded["n_sum"].to_pylist()):
        if n * 1_000_000 >= hot_share_ppm * max(total, 1):
            hot.add(k)
    return hot


def skew_join(left_ds, right_ds, key: str, how: str = "inner", *,
              npart: int = 32, n_salt: int = 8,
              hot_keys: set | None = None, hot_share_ppm: int = 20_000,
              right_suffix: str = "_r", bucket_finish=None):
    """Salted hash join for skewed keys — the big×big join where one
    key (a null/anonymous bucket, a supernode host) would overflow its
    bucket's worker under plain hashing.

    Hot LEFT rows spread across ``n_salt`` sub-buckets
    (``salt = row_index % n_salt``); hot RIGHT rows REPLICATE to every
    salt so each sub-bucket joins completely.  Cold keys pay nothing
    (salt 0).  ``how`` ∈ {"inner", "left outer"} — replicating the
    right side would multiply unmatched right rows under right/full
    outer.  Value-parity with ``hash_join`` is pinned by
    tests/test_exchange.py.

    ``hot_keys``: pass a precomputed set to skip the detection
    pre-pass (e.g. from a Misra-Gries sketch over yesterday's run);
    detection reads the materialized left side, so each side still
    executes once.
    ``bucket_finish`` fuses a per-key consumer exactly as in
    ``hash_join`` — valid because a key's rows (left×replicated-right)
    are complete within each salted sub-bucket only for PER-ROW
    finishes; per-KEY aggregates of hot keys span salts, so fuse only
    per-row work when salting is active."""
    assert how in ("inner", "left outer")
    left_ds = _blocks(left_ds)
    if hot_keys is None:
        hot_keys = detect_hot_keys(left_ds, key,
                                   hot_share_ppm=hot_share_ppm)
    hot_arr = np.sort(np.array(sorted(hot_keys), dtype=np.int64)) \
        if hot_keys else np.zeros(0, dtype=np.int64)

    def _part(kv: np.ndarray, salt: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (kv.astype(np.uint64) ^ (kv.astype(np.uint64)
                                         >> np.uint64(33))) \
                * np.uint64(0xFF51AFD7ED558CCD)
            h = h + salt.astype(np.uint64) * _GOLD2
        return (h % np.uint64(npart)).astype(np.int32)

    def route_left(b: pa.Table):
        kv = b[key].to_numpy(zero_copy_only=False)
        salt = np.where(np.isin(kv, hot_arr), np.arange(len(kv)) % n_salt, 0)
        return None, _part(kv, salt)

    def route_right(b: pa.Table):
        kv = b[key].to_numpy(zero_copy_only=False)
        # replicate hot rows once per salt; cold rows once (salt 0)
        reps = np.where(np.isin(kv, hot_arr), n_salt, 1).astype(np.int64)
        idx = np.repeat(np.arange(len(kv)), reps)
        cs = np.concatenate(([0], np.cumsum(reps)[:-1])) \
            if len(reps) else np.zeros(0, dtype=np.int64)
        salt = np.arange(int(reps.sum())) - np.repeat(cs, reps)
        return idx, _part(kv[idx], salt)

    return _join_exchange(left_ds, right_ds, [key], how, right_suffix,
                          bucket_finish, route_left, route_right)


# ---------------------------------------------------------------------------
# Storage-clustered join (range-pruned, one-sided exchange)
# ---------------------------------------------------------------------------

def clustered_join(fact_ds, dim_path: str, *, fact_key: str,
                   dim_key: str, dim_columns=None, npart: int = 32,
                   bucket_finish=None):
    """Join a fact Dataset against a parquet table SORTED on the join
    key, moving only the fact side — the dimension is never shuffled.

    At 100-TB scale this is the join you want against any big sorted /
    clustered table (a doc store keyed by doc_id, a CDX index keyed by
    url hash): the driver reads only parquet FOOTER metadata, derives
    each partition's key range from row-group min statistics, and each
    bucket task reads exactly its own row groups — dimension bytes
    read equal the dimension's size once, split across tasks, with no
    all-to-all for it.  The fact side takes ONE range exchange
    (np.searchsorted against the partition bounds — no hash, no
    sample pass, because the storage layout already fixes the ranges).

    Partitioning assumption: the dimension file's ``dim_key`` is
    globally non-decreasing across row groups (writer contract, e.g.
    the q101 bucketed layout or any sorted export).  ``bucket_finish``
    fuses a per-key consumer exactly like ``hash_join``'s.  Inner
    join only (fact rows outside the dimension's key range are
    dropped, as they have no match by construction).
    """
    import pyarrow.parquet as pq

    md = pq.read_metadata(dim_path)
    ncols = md.row_group(0).num_columns if md.num_row_groups else 0
    key_idx = next(j for j in range(ncols)
                   if md.row_group(0).column(j).path_in_schema == dim_key)
    mins, rows = [], []
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(key_idx).statistics
        mins.append(st.min)
        rows.append(md.row_group(i).num_rows)
    if any(mins[i] > mins[i + 1] for i in range(len(mins) - 1)):
        raise ValueError(f"{dim_path} is not sorted by {dim_key}")

    # contiguous row-group runs, balanced by rows, at most npart parts
    target = max(1, -(-sum(rows) // npart))
    parts, start, acc = [], 0, 0
    for i, r in enumerate(rows):
        acc += r
        if acc >= target or i == len(rows) - 1:
            parts.append((start, i + 1, mins[start]))
            start, acc = i + 1, 0
    los = np.array([p[2] for p in parts], dtype=np.int64)

    def route(b: pa.Table) -> pa.Table:
        k = b[fact_key].to_numpy(zero_copy_only=False).astype(np.int64)
        part = (np.searchsorted(los, k, side="right") - 1).astype(np.int32)
        t = b.append_column("part", pa.array(part))
        return t.filter(pa.array(part >= 0))

    cols = ([dim_key] + [c for c in (dim_columns or [])
                         if c != dim_key])

    def bucket(g: pa.Table) -> pa.Table:
        pid = int(g["part"][0].as_py())
        s, e, _ = parts[pid]
        dim = pq.ParquetFile(dim_path).read_row_groups(
            list(range(s, e)), columns=cols)
        if dim_key != fact_key:
            dim = dim.rename_columns(
                [fact_key if c == dim_key else c for c in dim.column_names])
        j = g.drop_columns(["part"]).join(dim, keys=fact_key,
                                          join_type="inner")
        return bucket_finish(j) if bucket_finish is not None else j

    return bucket_exchange(_blocks(fact_ds, route), bucket)


# ---------------------------------------------------------------------------
# Stats-driven join strategy selection (the planner's join rule)
# ---------------------------------------------------------------------------

def auto_join(fact_ds, dim_path: str, *, fact_key: str, dim_key: str,
              dim_columns=None, npart: int = 32, bucket_finish=None):
    """Join a fact Dataset against a parquet dimension choosing the
    strategy FROM STORAGE STATISTICS — the rule a query planner runs,
    exposed as an engine primitive (q168 reports these costs; this
    acts on them):

      1. the footer's row-group bytes ``fits_one_block`` → BROADCAST:
         read the dim once driver-side and join each fact batch with
         ``lookup_join``'s kernel — no exchange AT ALL, the fact never
         moves.
      2. dim key-sorted (row-group min stats monotone) → CLUSTERED:
         range-route only the fact; each bucket reads its own row
         groups (``clustered_join``).
      3. otherwise → bucket-exchange ``hash_join`` (both sides move).

    All three produce identical rows (inner join); the choice moves
    only WORK.  Decision inputs are parquet FOOTER metadata — no data
    scan.  ``bucket_finish`` fuses the consumer in every path (for
    the broadcast path it runs per BATCH — correct for any per-row
    finish or any per-key aggregate whose downstream re-reduces)."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(dim_path)
    cols = [dim_key] + [c for c in (dim_columns or []) if c != dim_key]

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            [fact_key if c == dim_key else c for c in b.column_names])

    if fits_one_block(sum(md.row_group(i).total_byte_size
                          for i in range(md.num_row_groups))):
        dim = rename(pq.read_table(dim_path, columns=cols))
        return _broadcast_join(fact_ds, dim, fact_key,
                               bucket_finish), "broadcast"

    key_idx = next(j for j in range(md.row_group(0).num_columns)
                   if md.row_group(0).column(j).path_in_schema == dim_key)
    mins = [md.row_group(i).column(key_idx).statistics.min
            for i in range(md.num_row_groups)]
    if all(mins[i] <= mins[i + 1] for i in range(len(mins) - 1)):
        return clustered_join(fact_ds, dim_path, fact_key=fact_key,
                              dim_key=dim_key, dim_columns=dim_columns,
                              npart=npart,
                              bucket_finish=bucket_finish), "clustered"

    from ..sources._util import scan_parquet

    dim_ds = scan_parquet(dim_path, columns=cols)
    if dim_key != fact_key:
        dim_ds = dim_ds.map_batches(rename, batch_format="pyarrow")
    return hash_join(fact_ds, dim_ds, fact_key, npart=npart,
                     bucket_finish=bucket_finish), "hash"


# ---------------------------------------------------------------------------
# Distributed exact selection (radix-select, no global sort)
# ---------------------------------------------------------------------------


def distributed_select(make_ds, value_col: str, ranks: list[int],
                       *, n_total: int | None = None) -> dict[int, int]:
    """Exact k-th smallest selection over a non-negative int64 column
    WITHOUT a global sort — the distributed quickselect every exact-
    percentile op needs once the value domain is unbounded (the q15/
    q145 bounded-histogram trick stops working):

      pass A: (count, max) partials → radix shift so the high bits
              fit 2^16 buckets,
      pass B: 2^16-bucket histogram partials → driver prefix walk
              pins each rank's bucket + in-bucket residual rank,
      pass C: exact value histogram RESTRICTED to the (few) pinned
              buckets → driver selects.

    Three scans, each reducing to bounded driver state (65k ints); the
    data never moves.  ``make_ds()`` must return a fresh Dataset per
    pass (a lazy Dataset can be consumed once per execution but
    callers may hold non-reusable pipelines).  ``ranks`` are 1-based.
    """
    def fold(ds, fn):
        return collect(_blocks(ds, fn))

    def nm(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        return pa.table({"n": pa.array([len(v)], type=pa.int64()),
                         "mx": pa.array([int(v.max()) if len(v) else 0],
                                        type=pa.int64())})

    t = fold(make_ds(), nm)
    n = int(np.sum(t["n"].to_numpy()))
    mx = int(np.max(t["mx"].to_numpy())) if t.num_rows else 0
    if n_total is not None:
        assert n == n_total
    shift = max(0, int(mx).bit_length() - 16)

    def hist_hi(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        c = np.bincount(v >> shift, minlength=1)
        nz = np.flatnonzero(c)
        return pa.table({"bkt": pa.array(nz.astype(np.int64)),
                         "c": pa.array(c[nz].astype(np.int64))})

    t = fold(make_ds(), hist_hi)
    counts = np.zeros((mx >> shift) + 2, dtype=np.int64)
    np.add.at(counts, t["bkt"].to_numpy(zero_copy_only=False),
              t["c"].to_numpy(zero_copy_only=False))
    cum = np.cumsum(counts)
    targets = {}                      # bucket -> [(rank, residual)]
    for k in ranks:
        b = int(np.searchsorted(cum, k, side="left"))
        res = k - (int(cum[b - 1]) if b > 0 else 0)
        targets.setdefault(b, []).append((k, res))
    want = np.array(sorted(targets), dtype=np.int64)

    def hist_lo(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        keep = np.isin(v >> shift, want)
        v = v[keep]
        uv, cv = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uv.astype(np.int64)),
                         "c": pa.array(cv.astype(np.int64))})

    t = fold(make_ds(), hist_lo)
    uv, inv = np.unique(t["v"].to_numpy(zero_copy_only=False),
                        return_inverse=True)
    cv = np.zeros(len(uv), dtype=np.int64)
    np.add.at(cv, inv, t["c"].to_numpy(zero_copy_only=False))
    out = {}
    for b, lst in targets.items():
        m = (uv >> shift) == b
        vals, cnts = uv[m], cv[m]
        ccum = np.cumsum(cnts)
        for k, res in lst:
            out[k] = int(vals[np.searchsorted(ccum, res, side="left")])
    return out
