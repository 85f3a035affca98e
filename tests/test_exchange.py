"""Bucket exchange (stages/exchange.py): equivalence with the built-in
per-key aggregate, hash determinism, and skew balance."""

import ast
import contextlib
import glob
import os

import numpy as np
import pyarrow as pa
import pytest

from warc_ray.stages.exchange import (bucket_exchange, combine_buckets,
                                      hash64_strings, with_part)

PATHS = ["fold", "exchange"]


@contextlib.contextmanager
def _path(path):
    """Run a ``bucket_exchange`` caller on ``path``: "exchange" lowers
    the block ceiling below any input so the sort-shuffle runs; "fold"
    keeps the default ceiling, above these tests' inputs.  Build input
    Datasets before entering: a Dataset made inside keeps the one-byte
    ceiling and splits its output into one-row blocks."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ceiling = ctx.target_max_block_size
    if path == "exchange":
        ctx.target_max_block_size = 1
    try:
        yield
    finally:
        ctx.target_max_block_size = ceiling


def _ran(ds, path):
    """Materialize a ``bucket_exchange`` result and assert which path
    produced it: only the exchange emits a Sort operator."""
    ds = ds.materialize()
    assert ("Sort" in ds.stats()) == (path == "exchange")
    return ds


def _rand_table(n=5000, nkeys=700, seed=7):
    rng = np.random.default_rng(seed)
    keys = [f"key-{i}" for i in rng.integers(0, nkeys, n)]
    return pa.table({
        "k": pa.array(keys, type=pa.string()),
        "v": pa.array(rng.integers(0, 1000, n), type=pa.int64()),
        "s": pa.array([f"s{i}" for i in rng.integers(0, 50, n)],
                      type=pa.string()),
    })


def test_hash64_deterministic_and_spread():
    t = _rand_table()
    h1 = hash64_strings(t["k"])
    h2 = hash64_strings(t["k"])
    assert np.array_equal(h1, h2)
    # same value -> same hash, different value -> (almost surely) different
    arr = pa.array(["a", "b", "a"])
    ha = hash64_strings(arr)
    assert ha[0] == ha[2] and ha[0] != ha[1]
    # buckets balance: no bucket gets more than ~3x its fair share
    part = with_part(t, "k", 16)["part"].to_numpy()
    counts = np.bincount(part, minlength=16)
    assert counts.max() < 3 * len(t) / 16


@pytest.mark.parametrize("keys", [["k"], ["k", "part"]],
                         ids=["one_key", "two_keys"])
@pytest.mark.parametrize("path", ["fold", "exchange", "empty",
                                  "empty_arrow"])
def test_combine_buckets_matches_builtin_aggregate(ray_session, path, keys):
    """combine_buckets over raw rows (no caller partial) equals Ray's own
    ``groupby().aggregate`` on all four ops, on both paths: the driver
    fold (partials fit in one block) and the bucket exchange (forced by
    lowering the block ceiling below the partials' size).  The rows
    include a null key and a group whose sums are all null (null on
    both sides); the second key is named ``part``, which combine_buckets'
    private bucket column leaves free.  Empty input keeps the output
    schema (names and types), also an all-empty ``rd.from_arrow``
    Dataset ("empty_arrow"), whose metadata Ray leaves schema-less."""
    import ray
    import ray.data as rd
    from ray.data import DataContext
    from ray.data.aggregate import Count, Max, Min, Sum

    t = _rand_table()
    v = t["v"].to_pylist()
    k = t["k"].to_pylist()
    k[:40] = [None] * 40                 # a null-key group
    v[:3] = [None] * 3
    for i, key in enumerate(k):          # an all-null sum group
        if key == "key-0":
            v[i] = None
    t = pa.table({"k": pa.array(k, type=pa.string()), "part": t["s"],
                  "v": pa.array(v, type=pa.int64()),
                  "v_min": pa.array(v, type=pa.int64()),
                  "s_max": t["s"]})
    aggs = [("v", "sum"), ("v_min", "min"), ("s_max", "max"), ("n", "count")]
    # ground truth: Ray's built-in aggregate over one block (its
    # multi-block sort cannot order a null string key); on the empty
    # path only its schema (column names and types) is compared
    ref = rd.from_arrow(t).groupby(keys).aggregate(
        Sum("v", alias_name="v"), Min("v_min", alias_name="v_min"),
        Max("s_max", alias_name="s_max"), Count(alias_name="n"))
    want = pa.concat_tables(
        [b for b in ray.get(ref.materialize().to_arrow_refs())
         if b.num_rows])
    if path.startswith("empty"):
        t = t.slice(0, 0)

    ds = rd.from_arrow(t) if path == "empty_arrow" else (
        rd.from_arrow([t] * 4) if path == "empty"
        else rd.from_arrow(t).repartition(13)).materialize()
    ctx = DataContext.get_current()
    ceiling = ctx.target_max_block_size
    if path == "exchange":
        # the partials barely shrink (700 keys over 13 blocks), so half
        # the raw size is below their total but above any one block
        ctx.target_max_block_size = ds.size_bytes() // 2
    try:
        got = combine_buckets(ds, keys, aggs).materialize()
    finally:
        ctx.target_max_block_size = ceiling
    assert ("Sort" in got.stats()) == (path == "exchange")
    want = want.select(keys + ["v", "v_min", "s_max", "n"])
    assert got.schema().base_schema == want.schema
    order = [(c, "ascending") for c in keys]
    # the exchange may emit empty, schema-less blocks
    got_t = pa.concat_tables([b for b in ray.get(got.to_arrow_refs())
                              if b.num_rows] or
                             [got.schema().base_schema.empty_table()])
    if path.startswith("empty"):
        assert got_t.num_rows == 0 and got_t.schema == want.schema
        return
    assert got_t.sort_by(order).equals(want.sort_by(order))
    nul = got_t.filter(pa.compute.equal(got_t["k"], "key-0"))
    assert nul.num_rows and nul["v"].null_count == nul.num_rows
    assert got_t.filter(pa.compute.is_null(got_t["k"])).num_rows


def test_engine_has_no_ray_grouped_aggregate():
    """combine_buckets is the engine's only grouped aggregate: in
    warc_ray/ and __ray_entry__.py no ``.groupby(`` call sits outside
    ``_exchange``, bucket_exchange's body (whose one map_groups is the
    exchange itself), and nothing imports ray.data.aggregate."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = sorted(glob.glob(os.path.join(root, "warc_ray", "**", "*.py"),
                             recursive=True))
    files.append(os.path.join(root, "__ray_entry__.py"))
    bad = []
    for f in files:
        tree = ast.parse(open(f).read())
        rel = os.path.relpath(f, root)
        allowed = set()
        if rel == os.path.join("warc_ray", "stages", "exchange.py"):
            allowed = {id(n) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef)
                       and fn.name == "_exchange"
                       for n in ast.walk(fn)}
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "groupby" and id(n) not in allowed):
                bad.append(f"{rel}:{n.lineno}: .groupby(")
            elif isinstance(n, ast.ImportFrom) and (
                    (n.module or "").startswith("ray.data.aggregate")
                    or (n.module == "ray.data"
                        and any(a.name == "aggregate" for a in n.names))):
                bad.append(f"{rel}:{n.lineno}: from {n.module} import")
            elif isinstance(n, ast.Import) and any(
                    a.name.startswith("ray.data.aggregate") for a in n.names):
                bad.append(f"{rel}:{n.lineno}: import ray.data.aggregate")
    assert not bad, "Ray grouped aggregates left: " + ", ".join(bad)


@pytest.mark.parametrize("path", PATHS)
def test_combine_buckets_empty_aggs_is_distinct(ray_session, path):
    import ray.data as rd

    t = _rand_table()
    ds = rd.from_arrow(t).repartition(7).materialize()
    with _path(path):
        got = _ran(combine_buckets(ds, ["k", "s"], []), path)
    got_t = pa.concat_tables(got.iter_batches(batch_format="pyarrow"))
    assert got_t.column_names == ["k", "s"]
    want = t.group_by(["k", "s"]).aggregate([])
    order = [("k", "ascending"), ("s", "ascending")]
    assert got_t.sort_by(order).equals(want.sort_by(order))


@pytest.mark.parametrize("path,part_col", [
    ("fold", "part"), ("exchange", "part"), ("fold", "s"), ("exchange", "s")],
    ids=["fold", "exchange", "fold-str", "exchange-str"])
def test_bucket_exchange_buckets_equal_on_both_paths(ray_session, path,
                                                     part_col):
    """Each call sees exactly one part's rows, all of them, on either
    path — for an int bucket and for a string part column."""
    import ray.data as rd

    t = with_part(_rand_table(), "k", 8)

    def summary(g: pa.Table) -> pa.Table:
        parts = set(g[part_col].to_pylist())
        assert len(parts) == 1
        return pa.table({part_col: [parts.pop()], "n": [g.num_rows],
                         "v": [pa.compute.sum(g["v"]).as_py()]})

    ds = rd.from_arrow(t).repartition(5)
    with _path(path):
        got = _ran(bucket_exchange(ds, summary, part_col=part_col), path)
    want = t.group_by(part_col).aggregate([("v", "count"), ("v", "sum")]) \
        .select([part_col, "v_count", "v_sum"]).sort_by(part_col)
    got = got.to_pandas().sort_values(part_col).reset_index(drop=True)
    assert got.values.tolist() == want.to_pandas().values.tolist()


@pytest.mark.parametrize("path", PATHS)
def test_bucket_exchange_result_is_materialized(ray_session, tmp_path,
                                                path):
    """Consuming the result twice executes neither the input nor any
    ``bucket_fn`` call again: the result is materialized on both
    paths."""
    from ray.data.dataset import MaterializedDataset

    t = with_part(_rand_table(), "k", 4)
    ds, n_in = _logged_blocks(tmp_path, "in", [t.slice(i, 1000)
                                               for i in range(0, 5000, 1000)])
    calls = tmp_path / "calls"

    def note(g: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("x\n")
        return g.slice(0, 1)

    with _path(path):
        out = bucket_exchange(ds, note)
    assert out.count() == 4 and len(out.take_all()) == 4
    assert n_in() == 5
    assert len(calls.read_text().splitlines()) == 4
    assert isinstance(out, MaterializedDataset)
    assert ("Sort" in out.stats()) == (path == "exchange")


def test_engine_has_one_map_groups_call():
    """Every bucket exchange in the engine goes through
    ``bucket_exchange``: its body, ``_exchange``, holds the only
    ``map_groups`` call."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "warc_ray"
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"):
                owner = max((d for d in defs
                             if d.lineno <= node.lineno <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                sites.append((path.relative_to(root).as_posix(),
                              owner.name if owner else None))
    assert sites == [("stages/exchange.py", "_exchange")]


def test_engine_has_one_result_path():
    """Every driver pull goes through ``collect`` and every Dataset sort
    through ``sort_result``: outside ``stages/exchange.py`` no
    ``concat_tables(`` or ``list(`` takes an ``iter_batches(...)`` call,
    no ``take_all()`` runs, and no ``.sort(`` with a positional
    argument is called on anything but ``np``."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted((root / "warc_ray").rglob("*.py")) \
        + [root / "__ray_entry__.py"]
    sites = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if rel == "warc_ray/stages/exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            first = node.args[0] if node.args else None
            if (name in ("concat_tables", "list")
                    and isinstance(first, ast.Call)
                    and isinstance(first.func, ast.Attribute)
                    and first.func.attr == "iter_batches"):
                sites.append((rel, node.lineno, name))
            elif name == "take_all":
                sites.append((rel, node.lineno, name))
            elif (name == "sort" and isinstance(f, ast.Attribute)
                  and node.args
                  and not (isinstance(f.value, ast.Name)
                           and f.value.id == "np")):
                sites.append((rel, node.lineno, name))
    assert sites == []


def test_one_broadcast_size_rule():
    """Every broadcast-or-exchange choice uses one size rule:
    ``target_max_block_size`` is read only in ``fits_one_block``, and
    no pipeline keeps an untested (``pragma: no cover``) fallback."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "warc_ray"
    readers, pragmas = [], []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(text)
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "target_max_block_size"):
                owner = max((d for d in defs
                             if d.lineno <= node.lineno <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                readers.append((rel, owner.name if owner else None))
        if rel.startswith("pipelines/"):
            pragmas += [(rel, i) for i, line in
                        enumerate(text.splitlines(), 1)
                        if "pragma: no cover" in line]
    assert readers == [("stages/exchange.py", "fits_one_block")]
    assert pragmas == []


def test_segment_bounds():
    from warc_ray.stages.exchange import segment_bounds

    starts, rank = segment_bounds(np.array([3, 3, 5, 7, 7, 7]))
    assert starts.tolist() == [0, 2, 3]
    assert rank.tolist() == [0, 1, 0, 0, 1, 2]
    starts, rank = segment_bounds(np.array(["a", "b", "b"], dtype=object))
    assert starts.tolist() == [0, 1] and rank.tolist() == [0, 0, 1]
    starts, rank = segment_bounds(np.array([], dtype=np.int64))
    assert len(starts) == 0 and len(rank) == 0


@pytest.mark.parametrize("with_schema", [True, False])
def test_bucket_exchange_empty_input_never_calls_bucket_fn(ray_session,
                                                           with_schema):
    import ray.data as rd

    empty = with_part(_rand_table().slice(0, 0), "k", 8)
    ds = rd.from_arrow([empty] * 4)
    if not with_schema:     # an empty exchange's schema-less blocks
        ds = ds.groupby("part").map_groups(lambda g: g,
                                           batch_format="pyarrow")

    def never(g: pa.Table) -> pa.Table:
        raise AssertionError("bucket_fn called on empty input")

    assert bucket_exchange(ds, never).count() == 0


def _logged_blocks(tmp_path, name, tables):
    """A Dataset of ``tables`` (one block each) whose every execution
    appends one line per block to a log file."""
    import ray.data as rd

    log = tmp_path / name

    def note(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x\n")
        return b

    ds = rd.from_arrow(tables).map_batches(note, batch_format="pyarrow",
                                           batch_size=None)
    return ds, lambda: len(log.read_text().splitlines())


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("prim", ["range_sort", "skew_join", "hash_join",
                                  "host_link_stats", "lookup_join",
                                  "sort_result", "collect"])
def test_each_input_executes_once(ray_session, tmp_path, prim, path):
    """Every input of a bucket_exchange caller executes exactly once —
    no schema probe, detection pre-pass or extra pass re-runs it.
    ``lookup_join`` and ``sort_result`` take their broadcast / driver
    path on "fold" and their exchange / Ray sort on "exchange";
    ``collect`` has one path."""
    from warc_ray.stages.exchange import (collect, hash_join, lookup_join,
                                          range_sort, skew_join,
                                          sort_result)
    from warc_ray.stages.hoststats import host_link_stats

    rng = np.random.default_rng(5)
    keys = np.where(rng.random(3000) < 0.5, 0, rng.integers(1, 60, 3000))
    fact = pa.table({"k": pa.array(keys, type=pa.int64()),
                     "v": pa.array(np.arange(3000), type=pa.int64())})
    dim = pa.table({"k": pa.array(np.arange(60), type=pa.int64()),
                    "w": pa.array(np.arange(60), type=pa.int64())})
    if prim == "host_link_stats":
        urls = [f"http://h{k % 7}.example/{i}" for i, k in enumerate(keys)]
        fact = pa.table({"url": urls,
                         "src_doc": [f"d{i:05d}" for i in range(3000)]})
    left, n_left = _logged_blocks(tmp_path, "left", [
        fact.slice(i, 500) for i in range(0, 3000, 500)])
    right, n_right = _logged_blocks(tmp_path, "right", [
        dim.slice(0, 30), dim.slice(30)])
    if prim == "collect":
        with _path(path):
            got = collect(left)
        assert n_left() == 6
        assert got.equals(fact)
        return
    with _path(path):
        if prim == "range_sort":
            out = range_sort(left, lambda b: b["k"].to_numpy().astype(
                np.uint64), lambda b: b["v"].to_numpy().astype(np.uint64),
                npart=4)
        elif prim == "skew_join":       # hot-key detection on
            out = skew_join(left, right, "k", n_salt=4,
                            hot_share_ppm=100_000)
        elif prim == "hash_join":
            out = hash_join(left, right, "k", npart=4)
        elif prim == "lookup_join":
            out = lookup_join(left, right, "k", npart=4)
        elif prim == "sort_result":
            out = sort_result(left, ["k", "v"])
        else:
            out = host_link_stats(left, target_per_group=100)
        out = _ran(out, path)
    assert out.count() == (7 if prim == "host_link_stats" else 3000)
    assert n_left() == 6
    if prim in ("skew_join", "hash_join", "lookup_join"):
        assert n_right() == 2
    if prim == "sort_result":
        got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
        assert got.equals(fact.sort_by([("k", "ascending"),
                                        ("v", "ascending")]))


SORT_CASES = {
    "ascending": ("a", False),
    "descending": (["a"], True),
    "mixed": (["a", "b"], [True, False]),
    "mixed_desc_tail": (["b", "a"], [False, True]),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(SORT_CASES) + ["empty"])
def test_sort_result_matches_dataset_sort(ray_session, monkeypatch, case,
                                          path):
    """``sort_result`` is a drop-in for ``Dataset.sort``: the same rows,
    the same key order (nulls last in both directions) and the same
    block count, on the driver path ("fold") and the Ray-sort fallback
    ("exchange").  Rows whose keys all tie may leave Ray's sort in
    either order (its reduce concatenates map outputs as they arrive);
    the driver path keeps them in input order."""
    import ray.data as rd

    from warc_ray.stages import exchange

    rng = np.random.default_rng(11)
    n = 600
    a = rng.integers(0, 9, n).astype(object)      # many ties
    a[rng.random(n) < 0.1] = None                 # and nulls
    tab = pa.table({"a": pa.array(a.tolist(), type=pa.int64()),
                    "b": pa.array([f"s{i % 7}" for i in range(n)]),
                    "v": pa.array(np.arange(n), type=pa.int64())})
    ds = rd.from_arrow([tab.slice(0, 250), tab.slice(250, 100),
                        tab.slice(350)])
    keys, desc = SORT_CASES.get(case, ("a", False))
    if case == "empty":
        ds = ds.filter(lambda r: False).materialize()
    if path == "exchange":
        monkeypatch.setattr(exchange, "fits_one_block", lambda n: False)
    want = ds.sort(keys, descending=desc).materialize()
    got = exchange.sort_result(ds, keys, descending=desc).materialize()
    assert got.num_blocks() == want.num_blocks() == ds.materialize() \
        .num_blocks()
    if case == "empty":
        assert got.count() == want.count() == 0
        return
    got, want = got.to_pandas(), want.to_pandas()
    assert len(got) == n
    cols = [keys] if isinstance(keys, str) else keys
    # Ray orders nulls of a non-leading descending key differently from
    # run to run (seen once in (b asc, a desc)): there only the leading
    # key's order is compared with Ray's
    same = cols[:1] if case == "mixed_desc_tail" else cols
    assert got[same].equals(want[same])
    assert got.sort_values("v", ignore_index=True).equals(
        want.sort_values("v", ignore_index=True))
    if path == "fold":
        ties = got.duplicated(cols, keep=False)
        assert ties.any()
        assert all(g["v"].is_monotonic_increasing
                   for _, g in got[ties].groupby(cols, dropna=False))


@pytest.mark.parametrize("case", ["schema", "no_schema", "promote",
                                  "blocks"])
def test_collect(ray_session, case):
    """``collect`` pulls all rows in block order as one table: an empty
    input keeps the schema Ray knows and is ``pa.table({})`` when Ray
    knows none, or the caller's ``schema``; int32 and int64 blocks
    promote to int64; a multi-block input equals the concat of its
    ``iter_batches``."""
    import ray.data as rd

    from warc_ray.stages.exchange import collect

    tab = pa.table({"k": pa.array([3, 1, 2], type=pa.int64()),
                    "s": ["x", "y", "z"]})
    if case == "schema":
        got = collect(rd.from_arrow(tab.schema.empty_table()))
        assert got.num_rows == 0 and got.schema == tab.schema
    elif case == "no_schema":
        got = collect(rd.from_arrow([tab, tab]).filter(lambda r: False))
        assert got.num_rows == 0 and got.num_columns == 0
        got = collect(rd.from_arrow([tab, tab]).filter(lambda r: False),
                      tab.schema)
        assert got.num_rows == 0 and got.schema == tab.schema
    elif case == "promote":
        i32 = pa.table({"k": pa.array([7, 8], type=pa.int32())})
        got = collect(rd.from_arrow([tab.select(["k"]), i32]))
        assert got.schema.field("k").type == pa.int64()
        assert got["k"].to_pylist() == [3, 1, 2, 7, 8]
    else:
        ds = rd.from_arrow([tab, tab.slice(1), tab.slice(0, 0), tab])
        got = collect(ds)
        assert got.equals(pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow")))
        assert got["k"].to_pylist() == [3, 1, 2, 1, 2, 3, 1, 2]


def test_with_part_rejects_nothing_and_is_int32():
    t = _rand_table(n=10)
    out = with_part(t, "k", 4)
    assert out.num_rows == t.num_rows
    assert out["part"].type == pa.int32()
    assert set(out["part"].to_pylist()) <= set(range(4))


def test_with_part_key_lists():
    """One key keeps the ``hash64_strings`` assignment; with several
    keys each key tuple lands in exactly one part, however the rows are
    split into blocks."""
    t = _rand_table()
    one = with_part(t, ["k"], 8)["part"].to_numpy()
    assert np.array_equal(one, with_part(t, "k", 8)["part"].to_numpy())
    assert np.array_equal(
        one, (hash64_strings(t["k"]) % np.uint64(8)).astype(np.int32))
    parts = pa.concat_tables([with_part(t.slice(i, 700), ["k", "s"], 8)
                              for i in range(0, t.num_rows, 700)])
    per_tuple = parts.group_by(["k", "s"]).aggregate(
        [("part", "count_distinct")])
    assert per_tuple["part_count_distinct"].to_pylist() == \
        [1] * per_tuple.num_rows
    # the tuple hash is not the first key's: rows of one k spread
    assert parts.group_by("k").aggregate([("part", "count_distinct")])[
        "part_count_distinct"].to_numpy().max() > 1


@pytest.mark.parametrize("path", PATHS)
def test_hash_join_vs_duckdb(ray_session, path):
    """Generic bucket-exchange join: inner and left-outer results match
    DuckDB joins on the same parquet inputs (including unmatched left
    rows and the suffix on clashing right columns)."""
    import duckdb
    import ray.data as rd

    from warc_ray.stages.exchange import hash_join

    sf = "/root/testdata/sf0.001"
    orders = rd.read_parquet(sf + "/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_totalprice"])
    cust = rd.read_parquet(sf + "/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda b: b.rename_columns(
            ["o_custkey", "c_mktsegment"]), batch_format="pyarrow")

    with _path(path):
        got = _ran(hash_join(orders, cust, "o_custkey", how="inner"), path)
    got = got.to_pandas().sort_values(["o_orderkey"]).reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(f"""
        SELECT o.o_custkey, o.o_orderkey, o.o_totalprice, c.c_mktsegment
        FROM read_parquet('{sf}/orders.parquet') o
        JOIN read_parquet('{sf}/customer.parquet') c
          ON o.o_custkey = c.c_custkey
        ORDER BY o.o_orderkey""").df()
    assert len(got) == len(want)
    assert got.o_orderkey.tolist() == want.o_orderkey.tolist()
    assert got.c_mktsegment.tolist() == want.c_mktsegment.tolist()

    # left outer: synthetic right side missing most keys
    import pyarrow as pa

    small = rd.from_arrow(pa.table({
        "o_custkey": pa.array([1, 2, 3], type=pa.int64()),
        "tag": pa.array(["a", "b", "c"])}))
    with _path(path):
        lo = _ran(hash_join(orders, small, "o_custkey", how="left outer"),
                  path).to_pandas()
    assert len(lo) == orders.count()
    matched = lo[lo.o_custkey.isin([1, 2, 3])]
    assert len(matched) > 0 and matched.tag.notna().all()
    assert lo[~lo.o_custkey.isin([1, 2, 3])].tag.isna().all()


# ---------------------------------------------------------------------------
# range_sort (TeraSort-shaped global sort with exact ranks)
# ---------------------------------------------------------------------------

def _sortable_ds(n=4000, seed=11, nblocks=8):
    import ray.data as rd
    rng = np.random.default_rng(seed)
    # heavy ties: values drawn from a small domain so splitter
    # boundaries land ON tied keys
    vals = rng.integers(0, 97, n).astype(np.int64)
    ids = rng.permutation(n).astype(np.int64)
    t = pa.table({"id": pa.array(ids), "val": pa.array(vals)})
    return rd.from_arrow(t).repartition(nblocks), t


@pytest.mark.parametrize(
    "npart,path", [(n, p) for p in PATHS for n in (1, 5, 32)],
    ids=["1", "5", "32", "exchange-1", "exchange-5", "exchange-32"])
def test_range_sort_exact_ranks(ray_session, npart, path):
    from warc_ray.stages.exchange import range_sort

    def u64(a):
        return a.to_numpy(zero_copy_only=False).view(np.uint64) \
            ^ np.uint64(1 << 63)

    ds, t = _sortable_ds()
    with _path(path):
        out = _ran(range_sort(ds, lambda b: u64(b["val"]),
                              lambda b: u64(b["id"]), npart=npart), path)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    got = got.take(pa.array(np.argsort(got["rank"].to_numpy())))
    order = np.lexsort((t["id"].to_numpy(), t["val"].to_numpy()))
    assert got["id"].to_numpy().tolist() == \
        t["id"].to_numpy()[order].tolist()
    ranks = got["rank"].to_numpy()
    assert ranks.tolist() == list(range(1, len(t) + 1))


def test_range_sort_descending_with_tie_leak_check(ray_session):
    """All-equal primary keys: every row lands in ONE bucket (ties may
    never straddle a splitter) and ranks follow the tiebreak."""
    import ray.data as rd
    from warc_ray.stages.exchange import range_sort

    def u64(a):
        return a.to_numpy(zero_copy_only=False).view(np.uint64) \
            ^ np.uint64(1 << 63)

    n = 500
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                  "val": pa.array(np.zeros(n, dtype=np.int64))})
    out = range_sort(rd.from_arrow(t).repartition(4),
                     lambda b: ~u64(b["val"]), lambda b: u64(b["id"]),
                     npart=8)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    got = got.take(pa.array(np.argsort(got["rank"].to_numpy())))
    assert got["id"].to_numpy().tolist() == list(range(n))
    assert got["rank"].to_numpy().tolist() == list(range(1, n + 1))


# ---------------------------------------------------------------------------
# range_scan (two-phase prefix scan over sampled key ranges)
# ---------------------------------------------------------------------------

def _scan_rows(op):
    """A range_scan bucket_fn emitting each row's inclusive scan and
    the grand total."""
    def bucket(g: pa.Table, carry: int, total: int) -> pa.Table:
        w = g["w"].to_numpy()
        if op == "count":
            inc = carry + np.arange(1, g.num_rows + 1, dtype=np.int64)
        elif op == "sum":
            inc = carry + np.cumsum(w)
        else:
            inc = np.maximum(np.maximum.accumulate(w), carry)
        return g.append_column("scan", pa.array(inc, type=pa.int64())) \
            .append_column("total", pa.array(
                np.full(g.num_rows, total), type=pa.int64()))
    return bucket


@pytest.mark.parametrize("op", ["count", "sum", "max"])
@pytest.mark.parametrize("npart", [1, 7, 32])
@pytest.mark.parametrize("path", PATHS)
def test_range_scan_matches_numpy(ray_session, monkeypatch, op, npart,
                                  path):
    """Every row's scan equals NumPy's cumsum / maximum.accumulate /
    row count over the (key, tiebreak) order, with heavily tied keys
    straddling the splitters, on both bucket_exchange paths."""
    from warc_ray.stages import exchange

    def u64(a):
        return a.to_numpy(zero_copy_only=False).view(np.uint64) \
            ^ np.uint64(1 << 63)

    def weight(ids):                    # signed, scrambled by id
        return ids * 7919 % 2_000_003 - 10**6

    ds, t = _sortable_ds()
    ds = ds.map_batches(lambda b: b.append_column(
        "w", pa.array(weight(b["id"].to_numpy()), type=pa.int64())),
        batch_format="pyarrow")
    w = weight(t["id"].to_numpy())
    monkeypatch.setattr(exchange, "fits_one_block",
                        lambda n: path == "fold")
    out = _ran(exchange.range_scan(
        ds, lambda b: u64(b["val"]), lambda b: u64(b["id"]), "w", op,
        _scan_rows(op), npart=npart), path)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    order = np.lexsort((t["id"].to_numpy(), t["val"].to_numpy()))
    got = got.take(pa.array(np.argsort(got["id"].to_numpy())))
    ids = t["id"].to_numpy()[order]
    ws = w[order]
    want = {"count": np.arange(1, len(ws) + 1),
            "sum": np.cumsum(ws),
            "max": np.maximum.accumulate(ws)}[op]
    total = {"count": len(ws), "sum": ws.sum(), "max": ws.max()}[op]
    scan = np.empty(len(ws), dtype=np.int64)
    scan[ids] = want                   # ids are a permutation of 0..n-1
    assert got["id"].to_numpy().tolist() == list(range(len(ws)))
    assert got["scan"].to_numpy().tolist() == scan.tolist()
    assert set(got["total"].to_numpy().tolist()) == {int(total)}


@pytest.mark.parametrize("op", ["count", "sum", "max"])
def test_range_scan_empty_input(ray_session, op):
    import ray.data as rd
    from warc_ray.stages.exchange import range_scan

    t = pa.table({"k": pa.array([], type=pa.int64()),
                  "w": pa.array([], type=pa.int64())})

    def u64(b):
        return b["k"].to_numpy().view(np.uint64) ^ np.uint64(1 << 63)

    def never(g, carry, total):
        raise AssertionError("bucket_fn called on empty input")

    out = range_scan(rd.from_arrow(t), u64, u64, "w", op, never, npart=4)
    assert out.count() == 0


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters
# ---------------------------------------------------------------------------

def test_mg_prune_guarantee():
    """Cumulative prune offsets stay under n/(k+1): a key with true
    count > n/(k+1) can never be evicted."""
    from warc_ray.stages.sketch import mg_prune

    rng = np.random.default_rng(3)
    # Zipf stream, vocab far above k
    raw = rng.zipf(1.3, 200_000)
    raw = raw[raw < 5000]
    keys, counts = np.unique(raw, return_counts=True)
    keys = keys.astype(str).astype(object)
    k = 64
    pk, pcnt = mg_prune(keys, counts, k)
    assert len(pk) <= k
    n = counts.sum()
    thresh = n // (k + 1)
    heavy = set(keys[counts > thresh])
    assert heavy <= set(pk)
    # under-count bounded by the single prune's offset
    m = {key: c for key, c in zip(pk, pcnt)}
    true = {key: c for key, c in zip(keys, counts)}
    for key in pk:
        assert 0 < m[key] <= true[key]
        assert true[key] - m[key] <= thresh + 1


def test_mg_heavy_hitters_exact_vs_bruteforce(ray_session):
    import ray.data as rd
    from warc_ray.stages.sketch import mg_heavy_hitters

    rng = np.random.default_rng(5)
    vals = rng.zipf(1.2, 60_000)
    vals = vals[vals < 3000]
    keys = np.array([f"h{v}" for v in vals], dtype=object)
    ds = rd.from_arrow(pa.table({"host": pa.array(list(keys))})) \
        .repartition(16)
    phi_inv = 64
    got = mg_heavy_hitters(ds, "host", k=256, phi_inv=phi_inv)
    uk, uc = np.unique(keys, return_counts=True)
    n = len(keys)
    want = sorted((str(k_), int(c)) for k_, c in zip(uk, uc)
                  if c * phi_inv > n)
    assert list(zip(got["host"].to_pylist(),
                    got["n_refs"].to_pylist())) == want
    assert len(want) >= 3  # the law test must actually exercise hitters


@pytest.mark.parametrize("path", PATHS)
def test_skew_join_parity_with_hash_join(ray_session, path):
    """Salted and unsalted joins are VALUE-equal on skewed input —
    the skew_join contract (salting only moves work)."""
    import ray.data as rd
    from warc_ray.stages.exchange import hash_join, skew_join

    rng = np.random.default_rng(7)
    # hot key 0 carries ~40% of fact rows; dim has one row per key
    keys = np.where(rng.random(20_000) < 0.4, 0,
                    rng.integers(1, 500, 20_000))
    fact = pa.table({"k": pa.array(keys, type=pa.int64()),
                     "v": pa.array(np.arange(20_000), type=pa.int64())})
    dim = pa.table({"k": pa.array(np.arange(500), type=pa.int64()),
                    "w": pa.array(np.arange(500) * 10, type=pa.int64())})
    f = rd.from_arrow(fact).repartition(8)
    d = rd.from_arrow(dim).repartition(4)

    def norm(ds):
        t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
        df = t.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        return df

    f2, d2 = rd.from_arrow(fact).repartition(8), \
        rd.from_arrow(dim).repartition(4)
    with _path(path):
        a = norm(_ran(skew_join(f, d, "k", how="inner", n_salt=4,
                                hot_keys={0}), path))
        b = norm(_ran(hash_join(f2, d2, "k", how="inner"), path))
    assert len(a) == len(b) == 20_000          # every fact row matched
    assert (a.k.to_numpy() == b.k.to_numpy()).all()
    assert (a.v.to_numpy() == b.v.to_numpy()).all()
    assert (a.w.to_numpy() == b.w.to_numpy()).all()


def test_skew_join_left_outer_and_detection(ray_session):
    import ray.data as rd
    from warc_ray.stages.exchange import detect_hot_keys, skew_join

    keys = np.concatenate([np.zeros(5_000, np.int64),
                           np.arange(1, 101).repeat(10)])
    fact = pa.table({"k": pa.array(keys, type=pa.int64()),
                     "v": pa.array(np.arange(len(keys)), type=pa.int64())})
    dim = pa.table({"k": pa.array([0, 1, 2], type=pa.int64()),
                    "w": pa.array([7, 8, 9], type=pa.int64())})
    f = rd.from_arrow(fact).repartition(8)
    hot = detect_hot_keys(f, "k", hot_share_ppm=100_000)
    assert 0 in hot                            # 5/6 of rows → detected
    out = skew_join(rd.from_arrow(fact).repartition(8),
                    rd.from_arrow(dim), "k", how="left outer",
                    n_salt=4, hot_keys=hot)
    t = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    df = t.to_pandas()
    assert len(df) == len(keys)                # left outer keeps all
    assert df[df.k == 0].w.eq(7).all()
    assert df[df.k > 2].w.isna().all()         # unmatched → null


@pytest.mark.parametrize("path", PATHS)
def test_clustered_join_parity_and_pruning(ray_session, tmp_path, path):
    """clustered_join == plain inner join, over a multi-row-group
    sorted dimension; out-of-range fact keys drop; >1 part is real."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from warc_ray.stages.exchange import clustered_join

    rng = np.arange(1000, dtype=np.int64)
    dim = pa.table({"k": pa.array(rng), "w": pa.array(rng * 7)})
    dim_path = str(tmp_path / "dim.parquet")
    pq.write_table(dim, dim_path, row_group_size=100)  # 10 row groups
    assert pq.read_metadata(dim_path).num_row_groups == 10

    keys = np.array([5, 105, 205, 999, 1500, -3, 0, 205], np.int64)
    fact = pa.table({"k": pa.array(keys),
                     "v": pa.array(np.arange(len(keys), dtype=np.int64))})
    fact_ds = rd.from_arrow(fact).repartition(4)
    with _path(path):
        out = _ran(clustered_join(fact_ds, dim_path, fact_key="k",
                                  dim_key="k", dim_columns=["w"], npart=8),
                   path)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow")) \
        .sort_by([("k", "ascending"), ("v", "ascending")])
    want = fact.join(dim, keys="k", join_type="inner") \
        .sort_by([("k", "ascending"), ("v", "ascending")])
    assert got.select(["k", "v", "w"]).equals(want.select(["k", "v", "w"]))
    assert 1500 not in got["k"].to_pylist()            # beyond range: dropped
    # negative key dropped at route time (part < 0)
    assert -3 not in got["k"].to_pylist()


def test_clustered_join_rejects_unsorted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    import ray.data as rd
    from warc_ray.stages.exchange import clustered_join

    dim = pa.table({"k": pa.array([50, 10, 99], type=pa.int64())})
    path = str(tmp_path / "bad.parquet")
    pq.write_table(dim, path, row_group_size=1)
    fact = rd.from_arrow(pa.table({"k": pa.array([1], type=pa.int64())}))
    with pytest.raises(ValueError, match="not sorted"):
        clustered_join(fact, path, fact_key="k", dim_key="k")


def test_auto_join_three_paths_value_equal(ray_session, tmp_path,
                                           monkeypatch):
    """auto_join must pick broadcast / clustered / hash from parquet
    stats and produce IDENTICAL rows on every path (the strategy only
    moves work).  Each tier is forced by patching the size rule."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from warc_ray.stages import exchange
    from warc_ray.stages.exchange import auto_join

    rng = np.random.RandomState(7)
    fact = pa.table({
        "k": pa.array(rng.randint(0, 50, 300), type=pa.int64()),
        "v": pa.array(np.arange(300), type=pa.int64())})
    fact_path = str(tmp_path / "fact.parquet")
    pq.write_table(fact, fact_path)

    dim_sorted = pa.table({
        "k": pa.array(np.arange(0, 40), type=pa.int64()),   # 10 keys miss
        "w": pa.array(np.arange(0, 40) * 7, type=pa.int64())})
    ds_path = str(tmp_path / "dim_sorted.parquet")
    pq.write_table(dim_sorted, ds_path, row_group_size=8)

    perm = rng.permutation(40)
    du_path = str(tmp_path / "dim_unsorted.parquet")
    pq.write_table(dim_sorted.take(pa.array(perm)), du_path,
                   row_group_size=8)

    def run(dim_path, fits):
        monkeypatch.setattr(exchange, "fits_one_block", lambda n: fits)
        ds, strat = auto_join(rd.read_parquet(fact_path), dim_path,
                              fact_key="k", dim_key="k",
                              dim_columns=["w"], npart=4)
        df = ds.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        return df, strat

    base, s1 = run(ds_path, True)       # small dim → broadcast
    clus, s2 = run(ds_path, False)      # big + sorted → clustered
    hashj, s3 = run(du_path, False)     # big + unsorted → hash
    assert (s1, s2, s3) == ("broadcast", "clustered", "hash")
    assert len(base) == 300 * 0 + int((fact["k"].to_numpy() < 40).sum())
    for other in (clus, hashj):
        assert base.equals(other[base.columns])


def test_auto_join_broadcast_duplicate_and_empty_dim(ray_session,
                                                     tmp_path,
                                                     monkeypatch):
    """Broadcast path edge cases that round-2 ADVICE flagged: a dim
    with DUPLICATE keys must expand matches (N:M parity with the hash
    path), and an EMPTY dim must yield an empty result with the joined
    schema instead of raising IndexError."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from warc_ray.stages import exchange
    from warc_ray.stages.exchange import auto_join

    monkeypatch.setattr(exchange, "fits_one_block", lambda n: True)

    fact = pa.table({
        "k": pa.array([0, 1, 2, 3, 1], type=pa.int64()),
        "v": pa.array([10, 11, 12, 13, 14], type=pa.int64())})
    fact_path = str(tmp_path / "fact.parquet")
    pq.write_table(fact, fact_path)

    # duplicate dim keys: k=1 appears 3x, k=2 appears 2x, k=9 misses
    dim = pa.table({
        "k": pa.array([0, 1, 1, 1, 2, 2, 9], type=pa.int64()),
        "w": pa.array([100, 201, 202, 203, 301, 302, 900],
                      type=pa.int64())})
    dim_path = str(tmp_path / "dim_dup.parquet")
    pq.write_table(dim, dim_path)

    ds, strat = auto_join(rd.read_parquet(fact_path), dim_path,
                          fact_key="k", dim_key="k",
                          dim_columns=["w"])
    assert strat == "broadcast"
    got = ds.to_pandas().sort_values(["k", "v", "w"]) \
        .reset_index(drop=True)
    exp = fact.to_pandas().merge(dim.to_pandas(), on="k") \
        .sort_values(["k", "v", "w"]).reset_index(drop=True)
    assert got.equals(exp[got.columns])

    empty_path = str(tmp_path / "dim_empty.parquet")
    pq.write_table(dim.slice(0, 0), empty_path)
    ds2, strat2 = auto_join(rd.read_parquet(fact_path), empty_path,
                            fact_key="k", dim_key="k",
                            dim_columns=["w"])
    assert strat2 == "broadcast"
    assert ds2.count() == 0
    assert ds2.schema().names == ["k", "v", "w"]


def _lookup_case(case):
    """(fact, dim, keys) for the ``lookup_join`` edge cases."""
    fact = pa.table({"k": pa.array([0, 1, 2, 3, 1, 2], type=pa.int64()),
                     "v": pa.array(np.arange(6) * 10)})
    if case == "dup_keys":          # k=1 three times, k=2 twice, 9 misses
        dim = pa.table({"k": pa.array([0, 1, 1, 1, 2, 2, 9], pa.int64()),
                        "w": pa.array([100, 201, 202, 203, 301, 302, 900])})
        return fact, dim, "k"
    if case == "empty_dim":
        dim = pa.table({"k": pa.array([], pa.int64()),
                        "w": pa.array([], pa.int64())})
        return fact, dim, "k"
    if case == "two_keys":
        fact = fact.append_column("p", pa.array([5, 5, 6, 6, 7, 6]))
        dim = pa.table({"k": pa.array([1, 1, 2, 3], pa.int64()),
                        "p": pa.array([5, 7, 6, 9]),
                        "w": pa.array([1, 2, 3, 4])})
        return fact, dim, ["k", "p"]
    fact = fact.set_column(0, "k", pa.array(["a", "b", "c", "d", "b", "c"]))
    dim = pa.table({"k": ["b", "c", "c", "x"], "w": [1, 2, 3, 4]})
    return fact, dim, "k"


@pytest.mark.parametrize("path", ["broadcast", "exchange"])
@pytest.mark.parametrize("case", ["dup_keys", "empty_dim", "two_keys",
                                  "string_key"])
def test_lookup_join_matches_hash_join(ray_session, monkeypatch, case,
                                       path):
    """``lookup_join`` is an inner join equal to ``hash_join`` on both
    of its paths: duplicate dim keys expand, an empty dim gives no rows
    (with the joined columns when broadcast), and two-column and string
    keys join."""
    import ray.data as rd

    from warc_ray.stages import exchange

    fact, dim, keys = _lookup_case(case)
    fact_ds = rd.from_arrow([fact.slice(0, 3), fact.slice(3)])
    want = exchange.hash_join(fact_ds, rd.from_arrow(dim), keys, npart=3)
    calls = []
    kernel = exchange._broadcast_join
    monkeypatch.setattr(exchange, "_broadcast_join",
                        lambda *a: calls.append(1) or kernel(*a))
    if path == "exchange":
        monkeypatch.setattr(exchange, "fits_one_block", lambda n: False)
    got = exchange.lookup_join(fact_ds, rd.from_arrow(dim), keys, npart=3)
    assert len(calls) == (path == "broadcast")
    cols = ["k", "v", "p", "w"] if case == "two_keys" else ["k", "v", "w"]
    if case == "empty_dim":
        assert got.count() == 0 and want.count() == 0
        if path == "broadcast":
            assert got.schema().names == cols
        return
    got, want = got.to_pandas(), want.to_pandas()
    assert sorted(got.columns) == sorted(want.columns) == sorted(cols)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    assert len(got) == {"dup_keys": 11, "two_keys": 4, "string_key": 6}[case]
    assert got.equals(want)


def test_distributed_select_matches_sort(ray_session):
    """radix-select = sort-based selection on hostile shapes: heavy
    duplicates, values straddling bucket boundaries, rank 1 and n."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from warc_ray.stages.exchange import distributed_select

    rng = np.random.RandomState(3)
    vals = np.concatenate([
        rng.randint(0, 5, 200),                  # heavy dup low values
        rng.randint(0, 1 << 30, 500),            # wide domain
        np.full(50, (1 << 30) - 1),              # boundary pile-up
    ]).astype(np.int64)
    n = len(vals)
    ranks = [1, 2, n // 3, n // 2, n - 1, n]

    def make_ds():
        return rd.from_arrow(pa.table({"v": vals})).repartition(6)

    got = distributed_select(make_ds, "v", ranks, n_total=n)
    srt = np.sort(vals)
    for k in ranks:
        assert got[k] == int(srt[k - 1]), k


# ---------------------------------------------------------------------------
# The local path: small whitelisted plans run in the driver
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _executions():
    """Count Ray Data executions (``StreamingExecutor.execute`` calls)
    started inside the block."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    started, execute = [0], StreamingExecutor.execute

    def counted(self, *a, **k):
        started[0] += 1
        return execute(self, *a, **k)

    StreamingExecutor.execute = counted
    try:
        yield started
    finally:
        StreamingExecutor.execute = execute


def _ray_blocks(ds) -> list:
    """``ds``'s blocks from Ray, in plan order (union inputs in turn)."""
    import ray
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    keep, opts.preserve_order = opts.preserve_order, True
    try:
        return ray.get(ds.materialize().to_arrow_refs())
    finally:
        opts.preserve_order = keep


def _whitelisted_plan(tmp_path):
    """``from_arrow`` (an empty block included) ∪ a one-file Parquet
    scan, then a pyarrow ``map_batches`` and ``select_columns``."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from warc_ray.sources._util import scan_parquet

    t = _rand_table(n=600)
    path = str(tmp_path / "t.parquet")
    pq.write_table(t.slice(300), path)

    def f(b: pa.Table) -> pa.Table:
        return b.append_column("v2", pa.compute.multiply(b["v"], 2)) \
            .filter(pa.compute.greater(b["v"], 100))

    src = rd.from_arrow([t.slice(0, 150), t.slice(0, 0), t.slice(150, 150)])
    read = scan_parquet(path, override_num_blocks=1)
    ds = src.union(read).map_batches(f, batch_format="pyarrow") \
        .select_columns(["k", "v2"])
    return ds, t


def test_local_path_gives_ray_blocks(ray_session, tmp_path):
    """On ``from_arrow`` + ``scan_parquet`` + ``map_batches`` +
    ``select_columns`` + ``union`` the driver path gives Ray's blocks,
    one for one (an empty input block stays an empty, schema-less
    block; the one-file scan is one block at
    ``override_num_blocks=1``), and starts no Ray Data execution;
    ``collect`` and ``materialize`` take it too."""
    from warc_ray.stages.exchange import collect, local_blocks, materialize

    ds, t = _whitelisted_plan(tmp_path)
    with _executions() as started:
        got = local_blocks(ds)
        pulled = collect(ds)
        mat = materialize(ds)
        assert collect(mat).equals(pulled)
    assert started[0] == 0
    want = _ray_blocks(ds)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.equals(w), (g.schema, w.schema)
    assert got[1].num_rows == 0 and got[1].num_columns == 0
    keep = t.filter(pa.compute.greater(t["v"], 100))
    assert pulled.equals(pa.table({
        "k": keep["k"], "v2": pa.compute.multiply(keep["v"], 2)}))
    with _executions() as started:
        _ray_blocks(ds)
    assert started[0] == 1


def _guard_case(case, tmp_path, monkeypatch):
    """(Dataset, its rows) for one plan the local path must refuse."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from warc_ray.stages import exchange

    class _Double:                  # local: Ray workers pickle it by value
        def __call__(self, b: pa.Table) -> pa.Table:
            return b.set_column(1, "v", pa.compute.multiply(b["v"], 2))

    t = _rand_table(n=400)
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)
    double = t.set_column(1, "v", pa.compute.multiply(t["v"], 2))
    if case == "hive_directory":                    # q79's shape
        for part in ("a", "b"):
            os.makedirs(tmp_path / "hive" / f"p={part}")
            pq.write_table(t, str(tmp_path / "hive" / f"p={part}"
                                  / "0.parquet"))
        want = pa.concat_tables([t.append_column(
            "p", pa.array([p] * t.num_rows)) for p in ("a", "b")])
        return rd.read_parquet(str(tmp_path / "hive")), want
    if case == "evolved_files":                     # q162's shape
        wide = t.append_column("w", pa.array(range(t.num_rows)))
        pq.write_table(t, str(tmp_path / "g0.parquet"))
        pq.write_table(wide, str(tmp_path / "g1.parquet"))
        return (rd.read_parquet([str(tmp_path / "g0.parquet"),
                                 str(tmp_path / "g1.parquet")]),
                pa.concat_tables([t, wide], promote_options="default"))
    if case == "read_schema":
        return rd.read_parquet(path, schema=t.schema), t
    if case == "actor_pool":
        return (rd.from_arrow(t).map_batches(
            _Double, batch_format="pyarrow", concurrency=1), double)
    if case == "pandas_batches":
        return (rd.from_arrow(t).map_batches(
            lambda df: df.assign(v=df["v"] * 2), batch_format="pandas"),
            double)
    if case == "batch_size":
        return (rd.from_arrow(t).map_batches(
            _Double(), batch_format="pyarrow", batch_size=64), double)
    if case == "sort":
        return rd.from_arrow(t).sort("v"), t
    if case == "groupby":
        ds = rd.from_arrow(t).groupby("s").count()
        return ds, t.group_by("s").aggregate([([], "count_all")]) \
            .rename_columns(["s", "count()"])
    assert case == "above_cap"
    monkeypatch.setattr(exchange, "LOCAL_PLAN_BYTES", t.nbytes // 2)
    return rd.from_arrow([t.slice(0, 200), t.slice(200)]).map_batches(
        _Double(), batch_format="pyarrow"), double


@pytest.mark.parametrize("case", [
    "hive_directory", "evolved_files", "read_schema", "actor_pool",
    "pandas_batches", "batch_size", "sort", "groupby", "above_cap"])
def test_local_path_guards_fall_back(ray_session, tmp_path, monkeypatch,
                                     case):
    """Each guard of the local path takes Ray's path, with the same
    rows: a hive directory scan and an evolved multi-file scan (the
    q79 and q162 shapes), a read schema, an actor-pool map, a
    non-pyarrow ``batch_format``, a set ``batch_size``, an unlisted
    operator (sort, groupby) and a source above ``LOCAL_PLAN_BYTES``."""
    from warc_ray.stages.exchange import collect, local_blocks

    ds, want = _guard_case(case, tmp_path, monkeypatch)
    assert local_blocks(ds) is None
    with _executions() as started:
        got = collect(ds)
    assert started[0] >= 1
    cols = sorted(want.column_names)
    order = [(c, "ascending") for c in cols]
    assert got.select(cols).sort_by(order).equals(
        want.select(cols).sort_by(order))


def test_local_path_pins_ray_internals(ray_session):
    """The walker reads Ray's logical plan: these operator classes and
    attributes; ``from_arrow`` builds Ray's ``from_arrow`` Dataset from
    Ray internals, with ``Dataset.__init__``'s attributes.  A Ray
    upgrade that moves any of them fails here instead of silently
    sending every plan down Ray's path."""
    import ray.data as rd
    from ray.data._internal.compute import TaskPoolStrategy
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData)
    from ray.data._internal.logical.operators.map_operator import (
        MapBatches, Project)
    from ray.data._internal.logical.operators.n_ary_operator import Union

    from warc_ray.stages.exchange import from_arrow, local_blocks

    t = _rand_table(n=50)
    arrow = rd.from_arrow(t)
    src = arrow._logical_plan.dag
    assert type(src) is FromArrow
    assert type(arrow.materialize()._logical_plan.dag) is InputData
    (ref, meta), = src.input_data[0].blocks
    assert meta.size_bytes > 0
    mapped = arrow.map_batches(lambda b: b, batch_format="pyarrow")
    op = mapped._logical_plan.dag
    assert type(op) is MapBatches and op.input_dependencies == [src]
    assert isinstance(op._compute, TaskPoolStrategy)
    assert (op._batch_format, op._batch_size) == ("pyarrow", None)
    for attr in ("_fn", "_fn_args", "_fn_kwargs", "_fn_constructor_args",
                 "_fn_constructor_kwargs", "_ray_remote_args_fn"):
        assert hasattr(op, attr), attr
    proj = arrow.select_columns(["k"])._logical_plan.dag
    assert type(proj) is Project and proj.cols == ["k"]
    assert proj.cols_rename is None and proj.exprs is None
    assert type(arrow.union(arrow)._logical_plan.dag) is Union
    for ds in (arrow, mapped, arrow.select_columns(["k"]),
               arrow.union(mapped)):
        assert local_blocks(ds) is not None
    # from_arrow builds what ray.data.from_arrow builds, id aside
    ours, theirs = from_arrow([t, t.slice(0, 0)]), rd.from_arrow(
        [t, t.slice(0, 0)])
    assert type(ours) is type(theirs)
    assert vars(ours).keys() == vars(theirs).keys()
    assert ours._plan._dataset_uuid == ours._get_uuid() != theirs._get_uuid()
    assert type(ours._logical_plan.dag) is FromArrow
    assert (ours.count(), ours.num_blocks(), ours.size_bytes(),
            ours.schema()) == (theirs.count(), theirs.num_blocks(),
                               theirs.size_bytes(), theirs.schema())
    assert [b.equals(c) for b, c in zip(local_blocks(ours),
                                        local_blocks(theirs))] == [True] * 2


def test_engine_has_one_materialize():
    """Every materialization in the engine goes through
    ``exchange.materialize``: no other function in ``warc_ray/`` or
    ``__ray_entry__.py`` calls ``.materialize()``."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    sites = []
    for path in sorted((root / "warc_ray").rglob("*.py")) \
            + [root / "__ray_entry__.py"]:
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "materialize"):
                owner = max((d for d in defs
                             if d.lineno <= node.lineno <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                sites.append((path.relative_to(root).as_posix(),
                              owner.name if owner else None))
    assert sites == [("warc_ray/stages/exchange.py", "materialize")]


# ---------------------------------------------------------------------------
# Composed primitives: on the driver path a call builds only its result
# ---------------------------------------------------------------------------

_BUILT: list = []      # [count] while ``_constructions`` counts


@contextlib.contextmanager
def _constructions():
    """Count Dataset constructions (``Dataset.__new__``: Ray's
    constructor and ``exchange.from_arrow`` both reach it) inside.  The
    counting ``__new__`` stays installed, counting only inside this
    block: CPython cannot give a class back its inherited ``__new__``
    once one is assigned."""
    from ray.data.dataset import Dataset

    if "__new__" not in vars(Dataset):
        def new(cls, *a, **k):
            if _BUILT:
                _BUILT[0] += 1
            return object.__new__(cls)

        Dataset.__new__ = new
    built = [0]
    _BUILT[:] = [0]
    try:
        yield built
    finally:
        built[0] = _BUILT.pop()


def _rows(ds) -> pa.Table:
    """``ds``'s rows sorted by every column."""
    from warc_ray.stages.exchange import collect

    t = collect(ds)
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _composed_case(case):
    """(primitive call, its input Datasets) for one composed case."""
    import ray.data as rd

    from warc_ray.stages import exchange as ex

    rng = np.random.default_rng(3)
    n = 900
    k = rng.integers(0, 40, n)
    k[: n // 3] = 7                         # a hot key for skew_join
    left = pa.table({"k": pa.array(k, pa.int64()),
                     "v": pa.array(rng.integers(0, 100, n))})
    right = pa.table({"k": pa.array(np.arange(-5, 35), pa.int64()),
                      "w": pa.array(np.arange(40) * 3)})
    l_ds = rd.from_arrow([left.slice(0, 400), left.slice(400)])
    r_ds = rd.from_arrow(right)
    if case.startswith("combine_"):
        t = {"combine_empty": left.slice(0, 0),
             "combine_null_keys": left.set_column(
                 0, "k", pa.nulls(n, pa.int64())),
             "combine_count_only": left}[case]
        aggs = [("n", "count")] if case == "combine_count_only" \
            else [("v", "sum"), ("v2", "count")]
        ds = rd.from_arrow([t.slice(0, 300), t.slice(300)])
        return lambda: ex.combine_buckets(ds, "k", aggs, npart=4)
    if case.startswith("hash_join_"):
        how = case[len("hash_join_"):].replace("_", " ")
        return lambda: ex.hash_join(l_ds, r_ds, "k", how=how, npart=4)
    if case == "skew_join":
        return lambda: ex.skew_join(l_ds, r_ds, "k", npart=4, n_salt=3,
                                    hot_share_ppm=100_000)
    if case == "lookup_join":
        return lambda: ex.lookup_join(l_ds, r_ds, "k", npart=4)
    assert case == "range_scan"

    def bucket(g, carry, total):
        run = np.cumsum(g["v"].to_numpy()) + carry
        return g.append_column("run", pa.array(run)).append_column(
            "total", pa.array(np.full(g.num_rows, total)))

    rows = rd.from_arrow(left.append_column("id", pa.array(np.arange(n))))
    mapped = rows.map_batches(lambda b: b.set_column(
        1, "v", pa.compute.multiply(b["v"], 2)), batch_format="pyarrow")
    return lambda: ex.range_scan(mapped, ex.i64_key("k"), ex.i64_key("id"),
                                 "v", "sum", bucket, npart=4)


@pytest.mark.parametrize("case", [
    "combine_empty", "combine_null_keys", "combine_count_only",
    "hash_join_inner", "hash_join_left_outer", "hash_join_right_outer",
    "hash_join_full_outer", "skew_join", "range_scan", "lookup_join"])
def test_composed_primitive_builds_one_dataset(ray_session, case):
    """Each primitive built on ``exchange._blocks`` gives the forced Ray
    path's rows on the driver path, and there builds exactly one
    Dataset, its result (no intermediate ``map_batches``, ``union`` or
    ``from_arrow``)."""
    from warc_ray.stages.exchange import local_blocks

    call = _composed_case(case)
    with _constructions() as built, _executions() as started:
        driver = call()
    assert (built[0], started[0]) == (1, 0)
    assert local_blocks(driver) is not None
    with _path("exchange"):
        forced = call()
    assert _rows(driver).equals(_rows(forced))
    if case == "combine_empty":
        assert _rows(driver).column_names == ["k", "v", "v2"]
    elif case == "combine_null_keys":
        assert _rows(driver).num_rows == 1


def test_engine_builds_from_arrow_in_one_place():
    """Every Arrow-table Dataset of the engine is ``exchange.from_arrow``
    (no stats-actor id, no remote metadata task): ``rd.from_arrow(`` or
    ``ray.data.from_arrow(`` appears in no file of ``warc_ray/`` or
    ``__ray_entry__.py`` outside ``stages/exchange.py``, and there in
    no call at all."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    sites = []
    for path in sorted((root / "warc_ray").rglob("*.py")) \
            + [root / "__ray_entry__.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith("from_arrow")
                    and ast.unparse(node.func.value) in ("rd", "ray.data")):
                sites.append(path.relative_to(root).as_posix())
    assert sites == []
