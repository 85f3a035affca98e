"""JSONL log ingestion: the text-format landing zone → Arrow path.

Real pipelines land event logs as newline-delimited JSON (the
universal log-interchange format) long before anything is parquet —
a complete engine needs the text-ingestion leg, not just columnar
sources.  q158 exercises the full loop:

  events.parquet → NESTED .jsonl shards (vectorized string assembly,
  no per-row json.dumps) → distributed JSON read-back (one Arrow
  block-parse per shard, schema inferred from the nested objects) →
  struct flatten → grouped aggregate

value-exact against DuckDB over the ORIGINAL parquet, so any defect
in serialization, framing, parse, flatten, or the two-level distinct
fold shifts a value and breaks the hash.

Scale shape: export and ingest are embarrassingly parallel per shard;
floats cross the text format as integer cents (ppm discipline — JSON
round-trips of doubles are locale/precision hazards); the aggregate
ships (type,user) partials, never events.  Shard files are
content-hash named and tmp+renamed (idempotent rerun), matching the
WARC/ARC sinks.
"""

from __future__ import annotations

import hashlib
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import combine_buckets, sort_result

__all__ = ["export_events_jsonl", "ingest_events_jsonl"]


class _WriteJsonlShard:
    """map_batches callable: one batch → one .jsonl shard file.

    Returns a one-row manifest (path, n_rows, bytes) per shard."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"path": pa.array([], type=pa.string()),
                             "n_rows": pa.array([], type=pa.int64()),
                             "bytes": pa.array([], type=pa.int64())})
        s = pa.string()
        eid = pc.cast(b["event_id"], s)
        ts = pc.cast(pc.cast(b["ts"], pa.int64()), s)          # epoch µs
        uid = pc.cast(b["user_id"], s)
        cents = pc.cast(pa.array(
            np.rint(b["value"].to_numpy(zero_copy_only=False) * 100)
            .astype(np.int64)), s)
        lines = pc.binary_join_element_wise(
            '{"event_id":', eid, ',"ts_us":', ts,
            ',"user":{"id":', uid, '},"event":{"type":"', b["event_type"],
            '","value_cents":', cents, '},"props":', b["props"], "}", "")
        blob = ("\n".join(lines.to_pylist()) + "\n").encode("utf-8")
        name_h = hashlib.sha1(
            ("%s|%s|%d" % (eid[0], eid[-1], b.num_rows)).encode()
        ).hexdigest()[:16]
        path = os.path.join(self.out_dir, f"part-{name_h}.jsonl")
        tmp = path + ".tmp-%s" % uuid.uuid4().hex[:8]
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
        return pa.table({"path": [path], "n_rows": [b.num_rows],
                         "bytes": [len(blob)]})


def export_events_jsonl(sf_dir: str, out_dir: str, *,
                        batch_size: int = 4096) -> int:
    """Export ``events.parquet`` as nested .jsonl shards; returns the
    total row count written.  The sink owns ``out_dir`` (stale shards
    from a differently-batched run are removed first)."""
    from ..sources._util import scan_parquet

    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".jsonl") or ".tmp-" in name:
                os.remove(os.path.join(out_dir, name))
    man = scan_parquet(os.path.join(sf_dir, "events.parquet")) \
        .map_batches(_WriteJsonlShard(out_dir), batch_format="pyarrow",
                     batch_size=batch_size)
    return sum(r["n_rows"] for b in man.iter_batches(batch_format="pyarrow")
               for r in b.to_pylist())


# per-(type,user) measures that the per-type roll-up folds again
_USER_AGGS = [("sum_cents", "sum"), ("min_ts_us", "min"),
              ("max_ts_us", "max"), ("sum_k", "sum")]


def ingest_events_jsonl(jsonl_dir: str):
    """Distributed JSONL ingestion + per-type aggregate (q158).

    Flattens the nested structs and folds in two grouped exchanges:
    (type,user) partials first (exact COUNT DISTINCT users at any
    scale — the exchange carries one row per (type,user) per block,
    never events), then the per-type roll-up."""
    import ray.data as rd

    ds = rd.read_json(jsonl_dir)

    def flatten(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": pc.struct_field(b["event"], "type"),
            "user_id": pc.struct_field(b["user"], "id"),
            "sum_cents": pc.struct_field(b["event"], "value_cents"),
            "min_ts_us": b["ts_us"],
            "max_ts_us": b["ts_us"],
            "sum_k": pc.struct_field(b["props"], "k"),
        })

    # (type,user) groups first: the exchange sees one row per
    # (type,user) per block, not raw events
    per_user = combine_buckets(
        ds.map_batches(flatten, batch_format="pyarrow"),
        ["event_type", "user_id"], [("n_events", "count")] + _USER_AGGS)
    return sort_result(combine_buckets(
        per_user, "event_type",
        [("n_events", "sum"), ("n_users", "count")] + _USER_AGGS),
        ["event_type"])


def export_events_evolved(sf_dir: str, out_dir: str) -> None:
    """Write the events table as TWO parquet generations into one
    directory (the q162 schema-evolution fixture): gen-1 files hold
    even event_ids with the original 5 columns and a NARROW
    ``user_id`` (int32); gen-2 files hold odd event_ids plus the
    additive ``source`` column ('mobile' when event_id % 3 == 0,
    else 'web')."""
    import shutil

    from ..sources._util import scan_parquet

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    base = scan_parquet(os.path.join(sf_dir, "events.parquet"))

    def gen1(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(pc.bit_wise_and(b["event_id"], 1), 0))
        return pa.table({
            "event_id": b["event_id"],
            "ts": b["ts"],
            "user_id": pc.cast(b["user_id"], pa.int32()),
            "event_type": b["event_type"],
            "value": b["value"],
        })

    def gen2(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(pc.bit_wise_and(b["event_id"], 1), 1))
        three = pc.equal(
            pc.subtract(b["event_id"],
                        pc.multiply(pc.divide(b["event_id"], 3),
                                    pa.scalar(3, type=pa.int64()))), 0)
        return pa.table({
            "event_id": b["event_id"],
            "ts": b["ts"],
            "user_id": b["user_id"],
            "event_type": b["event_type"],
            "value": b["value"],
            "source": pc.if_else(three, "mobile", "web"),
        })

    base.map_batches(gen1, batch_format="pyarrow").write_parquet(out_dir)
    base.map_batches(gen2, batch_format="pyarrow").write_parquet(out_dir)


def evolved_scan(evo_dir: str):
    """q162: aggregate across parquet generations through the
    schema-evolution reader (io.read_evolved — per-batch union-by-name
    + int32→int64 widening inside the scan task).  gen-1 rows surface
    with source = 'legacy' (the null fill a real migration applies);
    result is value-exact against DuckDB over the ORIGINAL table with
    the generation rules replayed."""
    import pyarrow as pa
    import ray.data as rd  # noqa: F401  (read via io.read_evolved)

    from .. import io as wio

    schema = pa.schema([
        ("event_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("user_id", pa.int64()),
        ("event_type", pa.string()),
        ("value", pa.float64()),
        ("source", pa.string()),
    ])
    ds = wio.read_evolved(evo_dir, schema)

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "source": pc.fill_null(b["source"], "legacy"),
            "sum_cents": pc.cast(pc.round(pc.multiply(b["value"], 100.0)),
                                 pa.int64()),
        })

    out = combine_buckets(ds.map_batches(partial, batch_format="pyarrow"),
                          ["event_type", "source"],
                          [("n_events", "count"), ("sum_cents", "sum")])
    return sort_result(out, ["event_type", "source"])


_LINE_RE = (r'^\{"event_id":\d+,"ts_us":\d+,"user":\{"id":\d+\},'
            r'"event":\{"type":"[a-z]+","value_cents":-?\d+\},'
            r'"props":\{"k": ?\d+\}\}$')


def export_events_jsonl_corrupt(sf_dir: str, out_dir: str, *,
                                batch_size: int = 4096) -> int:
    """q167 fixture: the q158 export with PLANTED corruption — lines
    whose event_id % 97 == 13 lose their tail (unbalanced JSON), the
    torn-write/truncated-flush failure mode real log ingestion sees."""
    from ..sources._util import scan_parquet

    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".jsonl") or ".tmp-" in name:
                os.remove(os.path.join(out_dir, name))
    sink = _WriteJsonlShard(out_dir)

    def write_corrupt(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return sink(b)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        s = pa.string()
        ts = pc.cast(pc.cast(b["ts"], pa.int64()), s)
        uid = pc.cast(b["user_id"], s)
        cents = pc.cast(pa.array(
            np.rint(b["value"].to_numpy(zero_copy_only=False) * 100)
            .astype(np.int64)), s)
        lines = pc.binary_join_element_wise(
            '{"event_id":', pc.cast(b["event_id"], s), ',"ts_us":', ts,
            ',"user":{"id":', uid, '},"event":{"type":"', b["event_type"],
            '","value_cents":', cents, '},"props":', b["props"], "}", "")
        py = lines.to_pylist()
        bad = eid % 97 == 13
        py = [ln[:-4] if m else ln for ln, m in zip(py, bad)]
        blob = ("\n".join(py) + "\n").encode()
        name_h = hashlib.sha1(
            ("%d|%d|%d" % (eid[0], eid[-1], b.num_rows)).encode()
        ).hexdigest()[:16]
        path = os.path.join(sink.out_dir, f"part-{name_h}.jsonl")
        tmp = path + ".tmp-%s" % uuid.uuid4().hex[:8]
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
        return pa.table({"path": [path], "n_rows": [b.num_rows],
                         "bytes": [len(blob)]})

    man = scan_parquet(os.path.join(sf_dir, "events.parquet")) \
        .map_batches(write_corrupt, batch_format="pyarrow",
                     batch_size=batch_size)
    return sum(r["n_rows"] for b in man.iter_batches(batch_format="pyarrow")
               for r in b.to_pylist())


def ingest_events_jsonl_dlq(jsonl_dir: str, dlq_dir: str):
    """q167: error-tolerant ingestion with a dead-letter queue — the
    contract every production loader honors: one torn line must not
    fail a shard, and no record may silently vanish.  Lines stream
    through a vectorized RE2 schema screen; conforming lines
    batch-parse with the Arrow JSON reader (which the screen makes
    infallible), rejects are WRITTEN to the DLQ (content-hash shard
    names, tmp+rename) and surface in the report as the
    '_quarantined' row — so totals always reconcile with the source.

    Scale shape: embarrassingly parallel per text block; the DLQ write
    is a side output of the same pass (no second scan)."""
    import io as _io

    import pyarrow.json as pj
    import ray.data as rd

    os.makedirs(dlq_dir, exist_ok=True)

    def screen(b: pa.Table) -> pa.Table:
        lines = b["text"]
        ok = pc.match_substring_regex(lines, _LINE_RE)
        good = lines.filter(ok)
        bad = lines.filter(pc.invert(ok))
        out = []
        if len(bad):
            blob = ("\n".join(bad.to_pylist()) + "\n").encode()
            name = hashlib.sha1(blob).hexdigest()[:16]
            path = os.path.join(dlq_dir, f"dlq-{name}.jsonl")
            tmp = path + ".tmp-%s" % uuid.uuid4().hex[:8]
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
            out.append(pa.table({
                "event_type": pa.array(["_quarantined"]),
                "n_events": pa.array([len(bad)], type=pa.int64()),
                "sum_cents": pa.array([0], type=pa.int64()),
            }))
        if len(good):
            t = pj.read_json(_io.BytesIO(
                ("\n".join(good.to_pylist()) + "\n").encode()))
            out.append(pa.table({
                "event_type": pc.struct_field(t["event"], "type"),
                "n_events": pa.nulls(t.num_rows, pa.int64()).fill_null(1),
                "sum_cents": pc.struct_field(t["event"], "value_cents"),
            }))
        if not out:
            return pa.table({"event_type": pa.array([], type=pa.string()),
                             "n_events": pa.array([], type=pa.int64()),
                             "sum_cents": pa.array([], type=pa.int64())})
        return pa.concat_tables(out)

    out = combine_buckets(
        rd.read_text(jsonl_dir).map_batches(screen, batch_format="pyarrow"),
        "event_type", [("n_events", "sum"), ("sum_cents", "sum")])
    return sort_result(out, ["event_type"])


# ---------------------------------------------------------------------------
# CSV landing zone (q202): RFC-4180 export + distributed read-back
# ---------------------------------------------------------------------------


class _WriteCsvShard:
    """map_batches callable: one batch → one RFC-4180 .csv shard.

    The ``props`` JSON column forces the interesting part of the
    dialect — embedded commas and double quotes — so every shard
    exercises quoting (wrap in ``"``, double inner ``"``).  Numeric
    fields cross as integers (cents / epoch µs), same text-format
    float discipline as the JSONL sink."""

    _HEADER = "event_id,ts_us,user_id,event_type,value_cents,props\n"

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"path": pa.array([], type=pa.string()),
                             "n_rows": pa.array([], type=pa.int64()),
                             "bytes": pa.array([], type=pa.int64())})
        s = pa.string()
        eid = pc.cast(b["event_id"], s)
        ts = pc.cast(pc.cast(b["ts"], pa.int64()), s)
        uid = pc.cast(b["user_id"], s)
        cents = pc.cast(pa.array(
            np.rint(b["value"].to_numpy(zero_copy_only=False) * 100)
            .astype(np.int64)), s)
        quoted = pc.binary_join_element_wise(
            '"', pc.replace_substring(b["props"], '"', '""'), '"', "")
        lines = pc.binary_join_element_wise(
            eid, ts, uid, b["event_type"], cents, quoted, ",")
        blob = (self._HEADER
                + "\n".join(lines.to_pylist()) + "\n").encode("utf-8")
        name_h = hashlib.sha1(
            ("%s|%s|%d" % (eid[0], eid[-1], b.num_rows)).encode()
        ).hexdigest()[:16]
        path = os.path.join(self.out_dir, f"part-{name_h}.csv")
        tmp = path + ".tmp-%s" % uuid.uuid4().hex[:8]
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
        return pa.table({"path": [path], "n_rows": [b.num_rows],
                         "bytes": [len(blob)]})


def export_events_csv(sf_dir: str, out_dir: str, *,
                      batch_size: int = 4096) -> int:
    """Export ``events.parquet`` as RFC-4180 .csv shards (q202)."""
    from ..sources._util import scan_parquet

    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".csv") or ".tmp-" in name:
                os.remove(os.path.join(out_dir, name))
    man = scan_parquet(os.path.join(sf_dir, "events.parquet")) \
        .map_batches(_WriteCsvShard(out_dir), batch_format="pyarrow",
                     batch_size=batch_size)
    return sum(r["n_rows"] for b in man.iter_batches(batch_format="pyarrow")
               for r in b.to_pylist())


def ingest_events_csv(csv_dir: str):
    """Distributed CSV ingestion + per-type aggregate (q202).

    The aggregate's ``sum_k``/``props_bytes`` columns are computed
    from the ROUND-TRIPPED props string — a quoting or escaping
    defect in either the sink or Arrow's CSV parser shifts a value
    and breaks the oracle hash.  Same two-exchange shape as q158."""
    import ray.data as rd

    ds = rd.read_csv(csv_dir)

    def flatten(b: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(pc.extract_regex(
            b["props"], r'"k": (?P<k>\d+)'), "k"), pa.int64())
        return pa.table({
            "event_type": b["event_type"],
            "user_id": b["user_id"],
            "sum_cents": b["value_cents"],
            "min_ts_us": b["ts_us"],
            "max_ts_us": b["ts_us"],
            "sum_k": k,
            "props_bytes": pc.cast(pc.utf8_length(b["props"]), pa.int64()),
        })

    aggs = _USER_AGGS + [("props_bytes", "sum")]
    per_user = combine_buckets(
        ds.map_batches(flatten, batch_format="pyarrow"),
        ["event_type", "user_id"], [("n_events", "count")] + aggs)
    return sort_result(combine_buckets(
        per_user, "event_type",
        [("n_events", "sum"), ("n_users", "count")] + aggs), ["event_type"])


# ---------------------------------------------------------------------------
# Fixed-width landing zone (q215): mainframe-style export + read-back
# ---------------------------------------------------------------------------

# field layout (byte offsets in each 60-char line):
#   orderkey   [0:12)   zero-padded digits
#   custkey    [12:22)  zero-padded digits
#   status     [22:23)  one char
#   cents      [23:37)  zero-padded digits
#   date       [37:45)  YYYYMMDD
#   priority   [45:60)  left-justified, space-padded
_FW_LAYOUT = ((0, 12), (12, 22), (22, 23), (23, 37), (37, 45), (45, 60))


class _WriteFixedWidthShard:
    """map_batches callable: one batch → one fixed-width .dat shard
    (the COBOL/mainframe interchange format: no delimiters at all —
    correctness IS the byte arithmetic)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"path": pa.array([], type=pa.string()),
                             "n_rows": pa.array([], type=pa.int64()),
                             "bytes": pa.array([], type=pa.int64())})
        s = pa.string()
        key = pc.utf8_lpad(pc.cast(b["o_orderkey"], s), 12, "0")
        cust = pc.utf8_lpad(pc.cast(b["o_custkey"], s), 10, "0")
        cents = pc.utf8_lpad(pc.cast(pa.array(
            np.rint(b["o_totalprice"].to_numpy(zero_copy_only=False)
                    * 100).astype(np.int64)), s), 14, "0")
        date = pc.strftime(b["o_orderdate"], format="%Y%m%d")
        prio = pc.utf8_rpad(b["o_orderpriority"], 15, " ")
        lines = pc.binary_join_element_wise(
            key, cust, b["o_orderstatus"], cents, date, prio, "")
        blob = ("\n".join(lines.to_pylist()) + "\n").encode("ascii")
        name_h = hashlib.sha1(
            ("%s|%d" % (key[0], b.num_rows)).encode()).hexdigest()[:16]
        path = os.path.join(self.out_dir, f"part-{name_h}.dat")
        tmp = path + ".tmp-%s" % uuid.uuid4().hex[:8]
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
        return pa.table({"path": [path], "n_rows": [b.num_rows],
                         "bytes": [len(blob)]})


def export_orders_fixedwidth(sf_dir: str, out_dir: str, *,
                             batch_size: int = 4096) -> int:
    """Export ``orders.parquet`` as fixed-width .dat shards (q215)."""
    from ..sources._util import scan_parquet

    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.endswith(".dat") or ".tmp-" in name:
                os.remove(os.path.join(out_dir, name))
    man = scan_parquet(os.path.join(sf_dir, "orders.parquet")) \
        .map_batches(_WriteFixedWidthShard(out_dir),
                     batch_format="pyarrow", batch_size=batch_size)
    return sum(r["n_rows"] for b in man.iter_batches(batch_format="pyarrow")
               for r in b.to_pylist())


def ingest_orders_fixedwidth(fw_dir: str):
    """Distributed fixed-width ingestion + per-(status, priority)
    aggregate (q215).  ``read_text`` hands each shard's lines to a
    vectorized column slicer (``utf8_slice_codeunits`` at the pinned
    layout offsets) — one misplaced offset shifts every value and
    breaks the oracle hash."""
    import ray.data as rd

    ds = rd.read_text(fw_dir)

    def parse(b: pa.Table) -> pa.Table:
        line = b["text"]
        f = [pc.utf8_slice_codeunits(line, lo, hi)
             for lo, hi in _FW_LAYOUT]
        date = pc.cast(f[4], pa.int64())
        return pa.table({
            "status": f[2],
            "priority": pc.utf8_trim(f[5], " "),
            "sum_cents": pc.cast(f[3], pa.int64()),
            "min_date": date, "max_date": date})

    out = combine_buckets(
        ds.map_batches(parse, batch_format="pyarrow"), ["status", "priority"],
        [("n_orders", "count"), ("sum_cents", "sum"), ("min_date", "min"),
         ("max_date", "max")])
    return sort_result(out, ["status", "priority"])
