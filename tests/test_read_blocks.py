"""The engine's one read-block rule (``sources._util.default_read_blocks``):
its values, its fallback outside Ray, that no scan sizes its own blocks,
and that the block count never reaches a result.  And its one Parquet
scan (``sources._util.scan_parquet``): the driver path gives Ray's rows,
and every scan its footers do not clear is Ray's read."""

import ast
import contextlib
import os
import pathlib
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from warc_ray.sources import _util

ROOT = pathlib.Path(__file__).resolve().parent.parent
SF = "/root/testdata/sf0.001"


def _cluster(monkeypatch, cpus):
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: {} if cpus is None else {"CPU": cpus})


def test_rule_is_two_blocks_per_cluster_cpu(monkeypatch):
    _cluster(monkeypatch, 32)
    assert _util.default_read_blocks() == 64
    assert _util.default_read_blocks(200) == 64
    assert _util.default_read_blocks(5) == 5
    assert _util.default_read_blocks(0) == 1
    _cluster(monkeypatch, 1)
    assert _util.default_read_blocks() == 2
    assert _util.default_read_blocks(1) == 1


def test_rule_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert _util.default_read_blocks() == 6
    assert _util.default_read_blocks(4) == 4
    # a session without CPUs reads the machine's count too
    _cluster(monkeypatch, None)
    assert _util.default_read_blocks() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _util.default_read_blocks() == 2


def test_one_read_block_rule():
    """No engine scan sizes its own blocks: the ``override_num_blocks=``
    keyword appears only in ``sources/_util.py`` (the two datasources
    set it through ``default_read_blocks``), the cluster's CPUs are
    read only by the rule and by ``run_crawl``, which sizes its actor
    fleet, not a scan, and ``rd.read_parquet(`` (or
    ``ray.data.read_parquet(``) is called only by
    ``_util.scan_parquet``."""
    files = sorted((ROOT / "warc_ray").rglob("*.py")) \
        + [ROOT / "__ray_entry__.py"]
    keywords, cpu_reads, ray_reads = [], [], []
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]

        def owner(node):
            d = max((d for d in defs
                     if d.lineno <= node.lineno <= d.end_lineno),
                    key=lambda d: d.lineno, default=None)
            return d.name if d else None

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(k.arg == "override_num_blocks" for k in node.keywords):
                keywords.append((rel, owner(node)))
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "cluster_resources":
                cpu_reads.append((rel, owner(node)))
            if (isinstance(f, ast.Attribute) and f.attr == "read_parquet"
                    and ast.unparse(f.value) in ("rd", "ray.data")):
                ray_reads.append((rel, owner(node)))
    assert keywords == [("warc_ray/sources/_util.py", "read_parquet")]
    assert ray_reads == [("warc_ray/sources/_util.py", "scan_parquet")]
    assert sorted(cpu_reads) == [
        ("warc_ray/pipelines/crawl.py", "run_crawl"),
        ("warc_ray/sources/_util.py", "default_read_blocks"),
    ]
    for src in ("warc_source.py", "arc_source.py"):
        text = (ROOT / "warc_ray" / "sources" / src).read_text()
        assert "default_read_blocks(" in text


def test_q56_rows_do_not_depend_on_block_count(ray_session, monkeypatch):
    sys.path.insert(0, str(ROOT))
    import __ray_entry__ as entry

    def rows():
        return pa.concat_tables(entry._host_link_stats_q(SF)
                                .iter_batches(batch_format="pyarrow"))

    ruled = rows()
    monkeypatch.setattr(_util, "default_read_blocks", lambda n=None: 64)
    forced = rows()
    assert ruled.num_rows > 0
    assert ruled.equals(forced)


# ---------------------------------------------------------------------------
# The one Parquet scan
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _parquet_sources():
    """Count ``ParquetDatasource`` constructions (Ray reads) inside."""
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)

    built, init = [0], ParquetDatasource.__init__

    def counted(self, *a, **k):
        built[0] += 1
        return init(self, *a, **k)

    ParquetDatasource.__init__ = counted
    try:
        yield built
    finally:
        ParquetDatasource.__init__ = init


def _sorted(t: pa.Table) -> pa.Table:
    """``t``'s rows sorted by its flat columns: Ray's read does not
    keep file order (it balances files across read tasks)."""
    flat = [f.name for f in t.schema if not pa.types.is_nested(f.type)]
    return t.sort_by([(c, "ascending") for c in flat])


def _table(n=300, seed=5):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.integers(0, 50, n), type=pa.int64()),
        "s": pa.array([f"s{i}" for i in rng.integers(0, 9, n)]),
        "x": pa.array(rng.random(n)),
    })


def _scan_case(case, tmp_path):
    """(paths, kwargs) of one scan the driver path reads."""
    from warc_ray import corpus

    path = str(tmp_path / "t.parquet")
    if case == "docs_dir":                  # q56's 8-file directory
        return corpus.docs_path(corpus.ensure_corpus("t2")), {}
    if case == "empty_file":
        pq.write_table(_table().slice(0, 0), path)
        return path, {}
    pq.write_table(_table(), path, row_group_size=64)
    if case == "columns":
        return path, {"columns": ["x", "k"]}
    assert case == "one_file"
    return path, {}


@pytest.mark.parametrize("case", ["one_file", "docs_dir", "columns",
                                  "empty_file"])
def test_scan_reads_in_the_driver_as_ray_does(ray_session, tmp_path,
                                              case):
    """A scan the footers clear is read in the driver (no
    ``ParquetDatasource`` is built) and gives ``rd.read_parquet``'s
    rows (in file order; Ray's order is its own) and the types Ray
    declares (Ray's blocks of an empty file carry none)."""
    import ray.data as rd

    from warc_ray.stages.exchange import collect

    paths, kwargs = _scan_case(case, tmp_path)
    with _parquet_sources() as built:
        got = collect(_util.scan_parquet(paths, **kwargs))
        ruled = collect(_util.read_parquet(paths, **kwargs))
    assert built[0] == 0
    ray_ds = rd.read_parquet(paths, **kwargs)
    want = collect(ray_ds)
    assert got.schema == ray_ds.schema().base_schema and ruled.equals(got)
    assert got.num_rows == want.num_rows
    if want.num_rows:
        assert _sorted(got).equals(_sorted(want))
    assert (got.num_rows == 0) == (case == "empty_file")


def test_scan_cuts_the_blocks_asked_for(ray_session, tmp_path):
    """``override_num_blocks=k`` gives k contiguous blocks; none asked
    gives one; ``read_parquet`` asks for ``default_read_blocks()``."""
    from warc_ray.stages.exchange import collect

    paths, _ = _scan_case("one_file", tmp_path)
    whole = collect(_util.scan_parquet(paths))
    assert _util.scan_parquet(paths).num_blocks() == 1
    for k in (2, 5):
        ds = _util.scan_parquet(paths, override_num_blocks=k)
        assert ds.num_blocks() == k
        assert collect(ds).equals(whole)
    assert _util.read_parquet(paths).num_blocks() == \
        _util.default_read_blocks()


def _fallback_case(case, tmp_path, monkeypatch):
    """(paths, kwargs) of one scan Ray must read."""
    import pyarrow.dataset as pds
    from ray.data import DataContext

    from warc_ray.stages import exchange

    t = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)
    if case == "hive_directory":                    # q79's shape
        for part in ("a", "b"):
            os.makedirs(tmp_path / "hive" / f"p={part}")
            pq.write_table(t, str(tmp_path / "hive" / f"p={part}"
                                  / "0.parquet"))
        return str(tmp_path / "hive"), {}
    if case == "evolved_footers":                   # q162's shape
        pq.write_table(t.append_column("w", pa.array(range(t.num_rows))),
                       str(tmp_path / "wide.parquet"))
        return [path, str(tmp_path / "wide.parquet")], {}
    if case == "filter_kwarg":
        return path, {"filter": pds.field("k") < 10}
    if case == "schema_kwarg":
        return path, {"schema": t.schema}
    if case == "above_cap":
        monkeypatch.setattr(exchange, "LOCAL_PLAN_BYTES", 100)
        return path, {}
    assert case == "lowered_block_ceiling"
    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 100)
    return path, {}


@pytest.mark.parametrize("case", [
    "hive_directory", "evolved_footers", "filter_kwarg", "schema_kwarg",
    "above_cap", "lowered_block_ceiling"])
def test_scan_falls_back_to_ray(ray_session, tmp_path, monkeypatch, case):
    """Partition values, footers that differ, a keyword beyond
    ``columns`` / ``override_num_blocks``, and row-group bytes above
    ``LOCAL_PLAN_BYTES`` or the block ceiling each leave the scan to
    ``rd.read_parquet``, with the caller's arguments."""
    import ray.data as rd
    from ray.data._internal.logical.operators.read_operator import Read

    from warc_ray.stages.exchange import collect

    paths, kwargs = _fallback_case(case, tmp_path, monkeypatch)
    with _parquet_sources() as built:
        ds = _util.scan_parquet(paths, **kwargs)
    assert built[0] == 1 and type(ds._logical_plan.dag) is Read
    got, want = collect(ds), collect(rd.read_parquet(paths, **kwargs))
    assert _sorted(got).equals(_sorted(want))
