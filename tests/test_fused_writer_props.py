"""Property test: the columnar ``write_fused_round`` against the per-row
reference ``WriteWarcShard(fused_fetch_records(batch))``.

Both must write the same shard file (bytes and name) and the same CDX
rows (``shard`` dropped: the two writers use different directories).
The inputs reach the writer's edge cases: rounds past the 59-second
date clamp and multi-digit salts, every status-line form, URLs with no
path, a query and no path, or ``://`` inside the path, empty and null
bodies, mixed text and octet-stream rows, batches without ``depth`` or
``fetch_seq``, sliced tables, multi-chunk columns, and ``binary`` or
``large_binary`` bodies.
"""

import glob
import os
import tempfile

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warc_ray.sinks.warc_sink import WriteWarcShard, write_fused_round
from warc_ray.stages.assemble import fused_fetch_records

_PATHS = ["", "/", "/doc/12", "?q=1&r=2", "/a/b?x=y", "/x://y/z",
          "/p%20q/", "/media/7.bin", "//double"]

_row = st.fixed_dictionaries({
    "url": st.tuples(st.sampled_from(["http", "https"]),
                     st.sampled_from(["h1.example", "host-22.example:8080",
                                      "a.b.c"]),
                     st.sampled_from(_PATHS)).map(lambda t: "%s://%s%s" % t),
    "host": st.sampled_from(["h1.example", "host-22.example", "x"]),
    "status": st.sampled_from([200, 301, 404, 500]),
    "round": st.integers(0, 75),
    "content_type": st.sampled_from(["text/html", "application/octet-stream"]),
    "body": st.one_of(st.binary(max_size=300), st.just(b"")),
    "depth": st.integers(0, 40),
    "fetch_seq": st.integers(0, 10**12),
})


def _table(rows, body_type, drop):
    cols = {
        "url": pa.array([r["url"] for r in rows], pa.string()),
        "host": pa.array([r["host"] for r in rows], pa.string()),
        "status": pa.array([r["status"] for r in rows], pa.int32()),
        "round": pa.array([r["round"] for r in rows], pa.int32()),
        "content_type": pa.array([r["content_type"] for r in rows],
                                 pa.string()),
        "body": pa.array([r["body"] for r in rows], body_type),
        "depth": pa.array([r["depth"] for r in rows], pa.int32()),
        "fetch_seq": pa.array([r["fetch_seq"] for r in rows], pa.int64()),
    }
    for c in drop:
        del cols[c]
    return pa.table(cols)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(_row, min_size=1, max_size=24),
       body_type=st.sampled_from([pa.binary(), pa.large_binary()]),
       drop=st.sampled_from([(), ("depth",), ("fetch_seq",),
                             ("depth", "fetch_seq")]),
       cut=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       chunks=st.integers(1, 3),
       null_bodies=st.booleans())
def test_write_fused_round_matches_reference(rows, body_type, drop, cut,
                                             chunks, null_bodies):
    lo, hi = cut
    if null_bodies:   # a null body is written as an empty one
        rows = [dict(r, body=None) if i % 4 == 1 else r
                for i, r in enumerate(rows)]
    table = _table(rows, body_type, drop)
    n = len(rows)
    if chunks > 1:
        step = max(1, n // chunks)
        table = pa.concat_tables([table.slice(i, step)
                                  for i in range(0, n, step)])
    if lo + hi < n:
        table = table.slice(lo, n - lo - hi)
    date = "2026-01-02T00:00:00Z"
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        cdx_old = WriteWarcShard(old_dir, date=date)(
            fused_fetch_records(table))
        cdx_new = write_fused_round(table, new_dir, date)
        (fo,) = glob.glob(old_dir + "/*.warc.gz")
        (fn,) = glob.glob(new_dir + "/*.warc.gz")
        assert os.path.basename(fo) == os.path.basename(fn)
        with open(fo, "rb") as a, open(fn, "rb") as b:
            assert a.read() == b.read()
    assert cdx_new.schema == cdx_old.schema
    assert cdx_old.drop_columns(["shard"]).equals(
        cdx_new.drop_columns(["shard"]))
    assert set(cdx_new["shard"].to_pylist()) == {fn}


def test_write_fused_round_timing(tmp_path):
    """``timing`` collects the deflate loop's seconds and nothing else
    changes: the same shard as a call without it."""
    rows = [{"url": "http://h/doc/%d" % i, "host": "h", "status": 200,
             "round": i, "content_type": "text/html", "body": b"x" * i,
             "depth": 1, "fetch_seq": i} for i in range(30)]
    table = _table(rows, pa.large_binary(), ())
    timing = {}
    a = write_fused_round(table, str(tmp_path / "a"), "d", timing)
    b = write_fused_round(table, str(tmp_path / "b"), "d")
    assert timing["deflate"] > 0
    assert a.drop_columns(["shard"]).equals(b.drop_columns(["shard"]))
