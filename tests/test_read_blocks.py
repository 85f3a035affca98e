"""The engine's one read-block rule (``sources._util.default_read_blocks``):
its values, its fallback outside Ray, that no scan sizes its own blocks,
and that the block count never reaches a result."""

import ast
import os
import pathlib
import sys

import pyarrow as pa
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
    set it through ``default_read_blocks``), and the cluster's CPUs are
    read only by the rule and by ``run_crawl``, which sizes its actor
    fleet, not a scan."""
    files = sorted((ROOT / "warc_ray").rglob("*.py")) \
        + [ROOT / "__ray_entry__.py"]
    keywords, cpu_reads = [], []
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
    assert keywords == [("warc_ray/sources/_util.py", "read_parquet")]
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
