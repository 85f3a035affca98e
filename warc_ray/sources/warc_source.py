"""``read_warc`` — distributed WARC reader (Ray Data datasource).

The reference reads one file per process, one record at a time
(warc/warc.py:244-263,274-279).  Here each ``.warc.gz`` file is a read
task; because the write path puts **one gzip member per record**
(warc/warc.py:269-272), member boundaries are record-aligned split
points, and a file streams through ``gzipm.iter_members`` with memory
bounded by one member + one record batch.

Rows follow ``schema.WARC_RECORD_SCHEMA`` plus provenance columns
(``shard``, ``offset``, ``length``) — the browse()/CDX information
(warc/warc.py:284-313) falls out of member scanning for free.
"""

from __future__ import annotations

import io
from typing import Iterator

import pyarrow as pa
import ray.data as rd
from ray.data.datasource import FileBasedDatasource

from ..core import gzipm
from ..core.warcrec import WARCReader, parse_record_bytes
from ..schema import WARC_RECORD_SCHEMA

READ_SCHEMA = pa.schema(
    list(WARC_RECORD_SCHEMA)
    + [("shard", pa.string()), ("offset", pa.int64()), ("length", pa.int64())]
)


def _records_to_table(recs: list, path: str, offsets: list[int],
                      lengths: list[int]) -> pa.Table:
    """One Arrow table per BATCH of parsed records (building a 1-row
    table per record was a third of read-path cost)."""
    from ..stages.assemble import parse_record_rows  # local import (cycle)

    t = parse_record_rows(recs)
    n = t.num_rows
    return t.append_column("shard", pa.array([path] * n, type=pa.string())) \
        .append_column("offset", pa.array(offsets, type=pa.int64())) \
        .append_column("length", pa.array(lengths, type=pa.int64()))


def _fixed_header_keys() -> frozenset:
    from ..core.warcrec import KNOWN_HEADERS

    return frozenset({v.lower() for v in KNOWN_HEADERS.values()}
                     | {"warc-payload-digest"})


_FIXED = None


DLQ_REC_TYPE = "_quarantined"


def _members_to_table(members: list[tuple[int, int, bytes]],
                      path: str, on_error: str = "raise") -> pa.Table:
    """Gzip members → WARC rows without per-record objects.

    The fast path replicates ``read_header``/``parse_record_bytes``
    (core/warcrec.py:271-359) for the strict-well-formed case — exact
    ``WARC/1.0`` version line, ``Name: value`` header lines, ``\\r\\n\\r\\n``
    trailer right after ``Content-Length`` payload bytes — and hands any
    other member to the core parser, so errors and liberal framings
    behave identically (parity pinned by
    tests/test_split_read.py::test_warc_columnar_parse_parity).

    ``on_error="raise"`` (default) keeps the reference's strict
    ``IOError`` semantics — a malformed member fails ITS read task.
    ``on_error="dlq"`` applies the q167 dead-letter discipline to
    archives: the malformed member becomes one row with
    ``rec_type="_quarantined"``, the raw member bytes as payload and
    the parse error in ``extra_headers`` — no record silently
    vanishes, the scan completes, and totals reconcile."""
    global _FIXED
    if _FIXED is None:
        _FIXED = _fixed_header_keys()
    from ..core.warcrec import parse_record_bytes as _core_parse

    cols = {k: [] for k in ("record_id", "rec_type", "target_uri", "date",
                            "ip_address", "content_type", "content_length",
                            "payload_digest", "extra_headers", "payload")}
    offs, lens = [], []
    for off, size, d in members:
        i = d.find(b"\r\n\r\n")
        hmap = None
        if i > 0 and d[:10] == b"WARC/1.0\r\n":
            # header content spans [10, i); i == 8 is the headerless
            # record whose version \r\n overlaps the terminator
            lines = d[10:i].split(b"\r\n") if i > 10 else []
            m = {}
            for ln in lines:
                name, sep, rest = ln.partition(b":")
                if not sep or not name.replace(b"-", b"").replace(b"_", b"").isalpha():
                    m = None
                    break
                m[name.decode("ascii").lower()] = \
                    rest.lstrip(b" ").decode("ascii")
            if m is not None:
                try:
                    clen = int(m.get("content-length", 0))
                except ValueError:
                    clen = -1
                pstart = i + 4
                if (0 <= clen <= len(d) - pstart - 4
                        and d[pstart + clen:pstart + clen + 4] == b"\r\n\r\n"):
                    hmap = m
                    payload = d[pstart:pstart + clen]
        if hmap is None:
            try:
                rec = _core_parse(d)  # strict core path; exact error parity
            except IOError as exc:
                if on_error != "dlq":
                    raise
                cols["record_id"].append("")
                cols["rec_type"].append(DLQ_REC_TYPE)
                cols["target_uri"].append("")
                cols["date"].append("")
                cols["ip_address"].append("")
                cols["content_type"].append("")
                cols["content_length"].append(len(d))
                cols["payload_digest"].append("")
                cols["extra_headers"].append([("error", str(exc))])
                cols["payload"].append(d)   # raw member — nothing vanishes
                offs.append(off)
                lens.append(size)
                continue
            hmap = dict(rec.header.items())
            payload = rec.payload_bytes()
            clen = int(hmap.get("content-length", 0))
        cols["record_id"].append(hmap.get("warc-record-id", ""))
        cols["rec_type"].append(hmap.get("warc-type", ""))
        cols["target_uri"].append(hmap.get("warc-target-uri", ""))
        cols["date"].append(hmap.get("warc-date", ""))
        cols["ip_address"].append(hmap.get("warc-ip-address", ""))
        cols["content_type"].append(hmap.get("content-type", ""))
        cols["content_length"].append(clen)
        cols["payload_digest"].append(hmap.get("warc-payload-digest", ""))
        cols["extra_headers"].append(
            [(k, v) for k, v in hmap.items() if k not in _FIXED])
        cols["payload"].append(payload)
        offs.append(off)
        lens.append(size)
    n = len(offs)
    arrs = [pa.array(cols[f.name], type=f.type) for f in WARC_RECORD_SCHEMA]
    arrs += [pa.array([path] * n, type=pa.string()),
             pa.array(offs, type=pa.int64()),
             pa.array(lens, type=pa.int64())]
    return pa.Table.from_arrays(arrs, schema=READ_SCHEMA)


def _dlq_row_table(path: str, offset: int, length: int,
                   payload: bytes, error: str) -> pa.Table:
    """One quarantine row in READ_SCHEMA (truncated / undecodable
    member region — the raw bytes stay addressable via offset)."""
    return pa.Table.from_arrays(
        [pa.array([""]), pa.array([DLQ_REC_TYPE]), pa.array([""]),
         pa.array([""]), pa.array([""]), pa.array([""]),
         pa.array([length], type=pa.int64()), pa.array([""]),
         pa.array([[("error", error)]],
                  type=READ_SCHEMA.field("extra_headers").type),
         pa.array([payload], type=pa.binary()),
         pa.array([path]), pa.array([offset], type=pa.int64()),
         pa.array([length], type=pa.int64())],
        schema=READ_SCHEMA)


class WarcDatasource(FileBasedDatasource):
    _FILE_EXTENSIONS = ["warc", "warc.gz"]

    def __init__(self, paths, batch_rows: int = 512,
                 on_error: str = "raise", **kwargs):
        super().__init__(paths, **kwargs)
        self._batch_rows = batch_rows
        self._on_error = on_error

    def _open_input_source(self, filesystem, path, **open_args):
        # We scan gzip members ourselves (record-aligned split points);
        # defeat the base class's path-based auto-decompression.
        buffer_size = open_args.pop("buffer_size", None)
        if buffer_size is None:
            buffer_size = self._data_context.streaming_read_buffer_size
        return filesystem.open_input_stream(
            path, buffer_size=buffer_size, compression=None
        )

    def _read_stream(self, f, path: str) -> Iterator[pa.Table]:
        import zlib

        recs, offs, lens = [], [], []
        if path.endswith(".gz"):
            members: list[tuple[int, int, bytes]] = []
            tail_off = 0
            it = gzipm.iter_members(f)
            while True:
                try:
                    member = next(it)
                except StopIteration:
                    break
                except (IOError, OSError, EOFError, zlib.error) as exc:
                    # truncated / undecodable gzip member: strict mode
                    # fails THIS file's read task (reference IOError
                    # semantics); dlq mode quarantines the unreadable
                    # tail as one addressable row and the scan goes on
                    if self._on_error != "dlq":
                        raise
                    if members:
                        yield _members_to_table(members, path,
                                                self._on_error)
                        members = []
                    yield _dlq_row_table(
                        path, tail_off, 0, b"",
                        "truncated or undecodable gzip member: %s" % exc)
                    return
                tail_off = member[0] + member[1]
                members.append(member)
                if len(members) >= self._batch_rows:
                    yield _members_to_table(members, path, self._on_error)
                    members = []
            if members:
                yield _members_to_table(members, path, self._on_error)
            return
        else:
            # Uncompressed: offsets are raw byte offsets.
            buf = io.BytesIO(f.read())
            reader = WARCReader(buf)
            start = buf.tell()
            while True:
                rec = reader.read_record()
                if rec is None:
                    break
                payload = rec.payload.read()  # materialize before cursor moves
                rec.payload = payload
                reader.finish_reading_current_record()
                end = buf.tell()
                recs.append(rec)
                offs.append(start)
                lens.append(end - start)
                start = end
                if len(recs) >= self._batch_rows:
                    yield _records_to_table(recs, path, offs, lens)
                    recs, offs, lens = [], [], []
        if recs:
            yield _records_to_table(recs, path, offs, lens)


DEFAULT_SPLIT_SIZE = 64 << 20


def _expand_paths(paths) -> list[tuple[str, int]]:
    import os

    if isinstance(paths, str):
        paths = [paths]
    out = []
    for p in paths:
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                if name.endswith((".warc", ".warc.gz")):
                    fp = os.path.join(p, name)
                    out.append((fp, os.path.getsize(fp)))
        else:
            out.append((p, os.path.getsize(p)))
    return out


def _plan_ranges(files: list[tuple[str, int]], split_size: int) -> list[dict]:
    """One descriptor per byte range; only ``.gz`` files split (member
    boundaries are the record-aligned split points; a bare ``.warc``
    has no in-band resync marker, so it stays one task)."""
    tasks = []
    for path, size in files:
        if path.endswith(".gz") and size > split_size:
            for s in range(0, size, split_size):
                tasks.append({"path": path, "start": s,
                              "end": min(s + split_size, size)})
        else:
            tasks.append({"path": path, "start": 0, "end": size})
    return tasks


class _ReadWarcRanges:
    """map_batches callable over range descriptors → record rows.

    Each descriptor is an independent task: seek, resynchronize on the
    next validated gzip member (prefix b"WARC/"), stream members whose
    start offset falls inside the range (gzipm.members_in_range)."""

    def __init__(self, batch_rows: int = 512, on_error: str = "raise"):
        self._batch_rows = batch_rows
        self._on_error = on_error

    def __call__(self, batch: pa.Table):
        import zlib

        recs, offs, lens = [], [], []
        cur_path = None
        for path, start, end in zip(batch["path"].to_pylist(),
                                    batch["start"].to_pylist(),
                                    batch["end"].to_pylist()):
            cur_path = path
            if path.endswith(".gz"):
                members: list[tuple[int, int, bytes]] = []
                tail_off = start
                with open(path, "rb") as f:
                    it = gzipm.members_in_range(f, start, end,
                                                prefix=b"WARC/")
                    while True:
                        try:
                            member = next(it)
                        except StopIteration:
                            break
                        except (IOError, OSError, EOFError,
                                zlib.error) as exc:
                            # strict: ONE range task fails — not the
                            # scan plan; dlq: quarantine row, go on
                            if self._on_error != "dlq":
                                raise
                            if members:
                                yield _members_to_table(
                                    members, path, self._on_error)
                                members = []
                            yield _dlq_row_table(
                                path, tail_off, 0, b"",
                                "truncated or undecodable gzip member "
                                "in range [%d, %d): %s"
                                % (start, end, exc))
                            break
                        tail_off = member[0] + member[1]
                        members.append(member)
                        if len(members) >= self._batch_rows:
                            yield _members_to_table(members, path,
                                                    self._on_error)
                            members = []
                if members:
                    yield _members_to_table(members, path, self._on_error)
            else:
                with open(path, "rb") as f:
                    buf = io.BytesIO(f.read())
                reader = WARCReader(buf)
                pos = buf.tell()
                while True:
                    rec = reader.read_record()
                    if rec is None:
                        break
                    payload = rec.payload.read()
                    rec.payload = payload
                    reader.finish_reading_current_record()
                    end_pos = buf.tell()
                    recs.append(rec)
                    offs.append(pos)
                    lens.append(end_pos - pos)
                    pos = end_pos
                    if len(recs) >= self._batch_rows:
                        yield _records_to_table(recs, path, offs, lens)
                        recs, offs, lens = [], [], []
            # flush per descriptor: rows must carry THEIR file's path
            if recs:
                yield _records_to_table(recs, cur_path, offs, lens)
                recs, offs, lens = [], [], []
        # always yield (possibly empty) so the stage schema stays stable
        yield pa.Table.from_pylist([], schema=READ_SCHEMA)


def read_warc(paths, *, batch_rows: int = 512,
              split_size: int = DEFAULT_SPLIT_SIZE,
              on_error: str = "raise", **kwargs) -> "rd.Dataset":
    """Read WARC archives into a Dataset of record rows.

    ``paths`` may be a file, a directory of shards, or a list.  A
    ``.warc.gz`` larger than ``split_size`` is read by MULTIPLE
    byte-range tasks that resynchronize on gzip-member boundaries (the
    record-per-member write invariant makes every member a split
    point), so one 100 GB Common-Crawl-style shard parallelizes across
    the cluster instead of pinning one reader task.  Files below the
    threshold keep the one-task-per-file datasource path.

    ``on_error``: ``"raise"`` (default) keeps the reference's strict
    ``IOError`` semantics — one corrupt member fails exactly its own
    record-range task; ``"dlq"`` applies the q167 dead-letter
    discipline (corrupt members → ``rec_type="_quarantined"`` rows
    carrying the raw bytes and error; the scan completes)."""
    try:
        files = _expand_paths(paths)
    except OSError:
        files = []
    if files and any(p.endswith(".gz") and sz > split_size for p, sz in files):
        from ..stages.exchange import from_arrow

        ranges = _plan_ranges(files, split_size)
        desc = from_arrow(pa.table({
            "path": [r["path"] for r in ranges],
            "start": pa.array([r["start"] for r in ranges], type=pa.int64()),
            "end": pa.array([r["end"] for r in ranges], type=pa.int64()),
        }))
        # one descriptor per task: ranges are the parallelism unit
        return desc.map_batches(_ReadWarcRanges(batch_rows, on_error),
                                batch_format="pyarrow", batch_size=1)
    src = WarcDatasource(paths, batch_rows=batch_rows, on_error=on_error)
    if "override_num_blocks" not in kwargs:
        # the engine's read-block rule, capped at the file count
        from ._util import default_read_blocks

        try:
            kwargs["override_num_blocks"] = default_read_blocks(
                len(src._paths()))
        except Exception:  # pragma: no cover - API drift safety
            pass
    return rd.read_datasource(src, **kwargs)
