"""The read side of the WARC codec, measured in the traced crawl-archive
run over its last crawl's shards: 5,000 seeded single-record lookups
through ``pipelines.archive.cdx_replay_batch``, one record per call;
two full ``read_warc`` scans that verify every payload digest; and an
in-process replay of the codec over every shard — member split
(``core.gzipm``), record parse and digest (``core.warcrec``).
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import Run, median, percentile

LOOKUPS = 5000
SCANS = 2
LOOKUPS_PER_BATCH = 1000
SCAN_DEADLINE = 90.0


def verify_batch(b: pa.Table) -> pa.Table:
    """Per record type: records, payload digests that verify, payload bytes."""
    from warc_ray.core.warcrec import sha1_digest

    ok = [sha1_digest(p) == d for p, d in
          zip(b["payload"].to_pylist(), b["payload_digest"].to_pylist())]
    t = pa.table({"rec_type": b["rec_type"], "ok": pc.cast(pa.array(ok, type=pa.bool_()), pa.int64()),
                  "bytes": pc.binary_length(b["payload"])})
    return t.group_by("rec_type").aggregate([("ok", "count"), ("ok", "sum"), ("bytes", "sum")])


def scan(paths: list[str]) -> dict:
    from warc_ray.sources.warc_source import read_warc

    ds = read_warc(paths).map_batches(verify_batch, batch_format="pyarrow", batch_size=None)
    out: dict = {}
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        for t, n, good, nb in zip(*(b[c].to_pylist() for c in
                                    ("rec_type", "ok_count", "ok_sum", "bytes_sum"))):
            agg = out.setdefault(t, [0, 0, 0])
            agg[0] += n
            agg[1] += good
            agg[2] += nb
    return out


def lookups(r: Run, cdx: pa.Table, rows: np.ndarray) -> list[tuple[bool, float]]:
    from warc_ray.pipelines.archive import cdx_replay_batch

    res = []
    for i in rows.tolist():
        one = cdx.slice(i, 1)
        t0 = time.perf_counter()
        with r.tracer.span("archive.cdx_replay_batch"):
            got = cdx_replay_batch(one)
        res.append((bool(got["digest_ok"][0].as_py()), time.perf_counter() - t0))
    return res


def measure(r: Run, out_dir: str, paths: list[str]) -> None:
    """Lookups, then digest-verifying scans (two), over one crawl's
    output; per-layer figures only."""
    cdx = pa.concat_tables([pq.read_table(p) for p in
                            sorted(glob.glob(os.path.join(out_dir, "cdx", "*.parquet")))])
    cdx_types: dict = {}
    for t in cdx["rec_type"].to_pylist():
        cdx_types[t] = cdx_types.get(t, 0) + 1
    rng = np.random.default_rng([r.seed, 30_001])

    lat: list[float] = []
    rows = rng.integers(0, cdx.num_rows, LOOKUPS)
    for batch in np.array_split(rows, LOOKUPS // LOOKUPS_PER_BATCH):
        try:
            res = r.call("archive.lookups", lookups, r, cdx, batch, deadline=SCAN_DEADLINE)
        except Exception as exc:
            r.tally(len(batch), len(batch), f"archive.lookups: {type(exc).__name__}: {exc}")
            return
        bad = sum(1 for good, _ in res if not good)
        r.tally(len(batch), bad, f"{bad} lookups returned a record whose digest does not verify")
        lat += [dt * 1e3 for good, dt in res if good]

    scans = []
    for _ in range(SCANS):
        ok, got, wall = r.op("sources.read_warc", scan, paths, deadline=SCAN_DEADLINE)
        if ok and r.verify({
                "every payload digest verifies": all(v[0] == v[1] for v in got.values()),
                "per-type record counts equal the CDX": {k: v[0] for k, v in got.items()} == cdx_types}):
            scans.append((sum(v[0] for v in got.values()), wall))
    r.layer.update({
        "read_records_per_s": median([n / w for n, w in scans]),
        "lookup_p50_ms": median(lat),
        "lookup_p99_ms": percentile(lat, 99),
        "read.scan_s": median([w for _, w in scans]),
        "read.bytes_in": sum(os.path.getsize(p) for p in paths),
        "archive.replay_call_s": sum(lat) / 1e3 / max(1, len(lat)),
    })
    replay_codec(r, paths)


def replay_codec(r: Run, paths: list[str]) -> None:
    """Split, parse and digest every record in this process, one span
    per layer call, so each codec layer gets its own self time."""
    from warc_ray.core.gzipm import split_members
    from warc_ray.core.warcrec import parse_record_bytes, sha1_digest

    tr = r.tracer
    bad = 0
    for p in paths:
        with open(p, "rb") as f:
            data = f.read()
        with tr.span("gzipm.split_members"):
            members = split_members(data)
        with tr.span("warcrec.parse_record_bytes"):
            recs = [parse_record_bytes(d) for _, _, d in members]
        with tr.span("warcrec.sha1_digest"):
            bad += sum(sha1_digest(rec.payload_bytes()) != rec.header["warc-payload-digest"]
                       for rec in recs)
    r.verify({"in-process codec replay verifies every digest": bad == 0})
    st = tr.self_times()
    r.layer.update({"gzipm.members_s": st.get("gzipm.split_members", 0.0),
                    "warcrec.parse_s": st.get("warcrec.parse_record_bytes", 0.0),
                    "warcrec.digest_s": st.get("warcrec.sha1_digest", 0.0)})
