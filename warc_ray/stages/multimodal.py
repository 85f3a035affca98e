"""Multimodal columns: opaque binary payloads + typed metadata, with
actor-pool decode / feature-extract / frame-sample stages.

The container has no image/audio codecs (no PIL/ffmpeg), so the codec
call itself is STUBBED (clearly marked): when a real decoder import
succeeds it is used; otherwise a deterministic header-parse fake stands
in.  Everything AROUND the codec — schema, batch sizing, actor-pool
signature (`__init__` loads the "model" once), zero-copy binary
columns, output layout — is real and tested, so swapping in a real
codec is a one-function change.

Media blobs come from the synthetic corpus fetcher
(stages/fetch.py: ``media_body``) whose first 20 bytes act as the
"container header" for the fake decoder.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import bucket_exchange

# elements per gather window (see ResizeMedia.__init__): bounds the
# actor-persistent index scratch so first-touch faults stay one-time
# and tiny instead of scaling with batch byte volume
_GATHER_CHUNK = 1 << 20

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("url", pa.string()),
    ("media_type", pa.string()),      # image | video | audio
    ("payload", pa.large_binary()),
])

FEATURE_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("media_type", pa.string()),
    ("n_bytes", pa.int64()),
    ("header_sha1", pa.string()),
    ("width", pa.int32()),            # fake-decoded dimensions
    ("height", pa.int32()),
    ("n_frames", pa.int32()),         # 1 for images
    ("feature", pa.list_(pa.float32(), 16)),  # fixed-size feature vector
])

try:  # pragma: no cover - not present in this container
    from PIL import Image  # noqa: F401

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False


def _binary_views(col) -> tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray]:
    """Zero-copy numpy views over a (large_)binary column: the combined
    array, per-row start/end offsets, and the values buffer.  Assumes
    non-null payloads (the corpus fetcher never emits nulls)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.type != pa.large_binary():
        arr = arr.cast(pa.large_binary())
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.zeros(0, dtype=np.uint8))
    return arr, offs[:-1], offs[1:], data


def _gather_rows(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """All rows' bytes concatenated in row order.  Zero-copy slice when
    the rows are already contiguous (the common case after
    combine_chunks); a single fancy-index gather otherwise."""
    if len(starts) == 0:
        return data[:0]
    if np.array_equal(starts[1:], ends[:-1]):
        return data[starts[0]:ends[-1]]
    total = int(lengths.sum())
    idx = (np.repeat(starts, lengths)
           + np.arange(total, dtype=np.int64)
           - np.repeat(np.cumsum(lengths) - lengths, lengths))
    return data[idx]


def _chunk_row_ids(row_off: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row id per flat position in [lo, hi): two searchsorted calls at
    the chunk EDGES + one bounded repeat — not a per-element binary
    search (which was ~13 ms per 1M-element window)."""
    i_lo = int(np.searchsorted(row_off, lo, side="right"))
    i_hi = int(np.searchsorted(row_off, hi - 1, side="right"))
    c = np.minimum(row_off[i_lo:i_hi + 1], hi)
    counts = np.empty(i_hi - i_lo + 1, dtype=np.int64)
    counts[0] = c[0] - lo
    np.subtract(c[1:], c[:-1], out=counts[1:])
    return np.repeat(np.arange(i_lo, i_hi + 1, dtype=np.int32), counts)


def _fake_decode_batch(data: np.ndarray, starts: np.ndarray,
                       ends: np.ndarray, want_hex: bool = False):
    """Vectorized-loop form of ``_fake_decode``: sha1 over each row's
    ≤20-byte header.  The crypto is irreducibly per-row; everything
    else (numpy scalar indexing, min(), output stores) is hoisted to
    python ints / bytearrays — ~2µs/row instead of ~30µs/row."""
    n = len(starts)
    s_list = starts.tolist()
    e_list = np.minimum(ends, starts + 20).tolist()
    b0 = bytearray(n)
    b1 = bytearray(n)
    hexes = [] if want_hex else None
    sha1 = hashlib.sha1
    mv = memoryview(data)
    for i in range(n):
        d = sha1(mv[s_list[i]:e_list[i]]).digest()
        b0[i] = d[0]
        b1[i] = d[1]
        if want_hex:
            hexes.append(d.hex())
    w = 64 + np.frombuffer(bytes(b0), dtype=np.uint8).astype(np.int64) % 192
    h = 64 + np.frombuffer(bytes(b1), dtype=np.uint8).astype(np.int64) % 192
    return w, h, hexes


def _fake_decode(payload: bytes) -> tuple[int, int]:
    """STUB decoder: derives deterministic (width, height) from the
    payload header.  Replace with a real codec when available —
    raise NotImplementedError semantics are documented here, but the
    deterministic fake keeps the pipeline testable end-to-end."""
    h = hashlib.sha1(payload[:20]).digest()
    return 64 + h[0] % 192, 64 + h[1] % 192


class DecodeMediaFeatures:
    """Actor-pool map_batches stage: binary payload → features.

    __init__ is the once-per-actor setup point (real decoders/models
    load here); __call__ is vectorized over the batch.
    """

    def __init__(self, feature_dim: int = 16):
        self.feature_dim = feature_dim
        self.use_real_codec = HAVE_PIL  # False in this container
        # histograms are accumulated CHUNKED over a fixed window (same
        # rationale as ResizeMedia): a full-batch per-byte int64 key
        # array was ~135 MB/actor and its one-time first-touch faults
        # (~30µs/4K page here) dominated short queries (1.8 s first
        # batch vs 0.22 s steady)
        self._ar = np.arange(_GATHER_CHUNK, dtype=np.int64)
        self._mod_lut = (np.arange(256) % feature_dim).astype(np.int32)
        self._key = np.empty(_GATHER_CHUNK, dtype=np.int32)
        self._mod = np.empty(_GATHER_CHUNK, dtype=np.int32)

    def _feature(self, payload: bytes) -> np.ndarray:
        # histogram of byte values folded to feature_dim buckets, L2-normed
        arr = np.frombuffer(payload, dtype=np.uint8)
        hist = np.bincount(arr % self.feature_dim, minlength=self.feature_dim)
        v = hist.astype(np.float32)
        n = np.linalg.norm(v)
        return v / n if n else v

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized over the Arrow buffers: one numpy pass computes
        every per-row histogram (no per-payload ``to_pylist`` copies);
        Python touches only the 20-byte header hash per row.  Output is
        bit-identical to the documented per-row formulation (pinned by
        ``test_decode_media_features_deterministic``)."""
        payload_col, starts, ends, data = _binary_views(batch["payload"])
        n = len(payload_col)
        lengths = ends - starts
        n_bytes = lengths.astype(np.int64)
        fd = self.feature_dim
        # all rows' byte histograms via bincount over row*fd + byte%fd,
        # accumulated over fixed-size windows (chunking rationale in
        # __init__) — temporaries are window-sized and recycled
        flat = _gather_rows(data, starts, ends, lengths)
        m = flat.size
        row_off = np.cumsum(lengths)          # row end offsets in flat
        acc = np.zeros(n * fd, dtype=np.int64)
        for lo in range(0, m, _GATHER_CHUNK):
            hi = min(lo + _GATHER_CHUNK, m)
            key = self._key[:hi - lo]
            np.multiply(_chunk_row_ids(row_off, lo, hi), fd, out=key)
            mod = self._mod[:hi - lo]
            np.take(self._mod_lut, flat[lo:hi], out=mod)
            key += mod
            acc += np.bincount(key, minlength=n * fd)
        hist = acc.reshape(n, fd).astype(np.float32)
        norms = np.sqrt((hist * hist).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        feats = hist / norms
        # header sha1 (first 20 bytes) — the one remaining per-row step
        w64, h64, shas = _fake_decode_batch(data, starts, ends,
                                            want_hex=True)
        widths = w64.astype(np.int32)
        heights = h64.astype(np.int32)
        is_image = pc.equal(batch["media_type"], "image") \
            .combine_chunks().to_numpy(zero_copy_only=False)
        n_frames = np.where(is_image, 1, 1 + n_bytes // 1024).astype(np.int32)
        cols = {
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "n_bytes": pa.array(n_bytes),
            "header_sha1": pa.array(shas, type=pa.string()),
            "width": pa.array(widths),
            "height": pa.array(heights),
            "n_frames": pa.array(n_frames),
            "feature": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), type=pa.float32()), self.feature_dim),
        }
        schema = FEATURE_SCHEMA
        if "midx" in batch.column_names:   # internal sort/group key rides along
            cols["midx"] = batch["midx"]
            schema = FEATURE_SCHEMA.append(pa.field("midx", pa.int64()))
        return pa.table(cols, schema=schema)


RESIZED_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("media_type", pa.string()),
    ("src_width", pa.int32()),
    ("src_height", pa.int32()),
    ("width", pa.int32()),            # target box, aspect preserved
    ("height", pa.int32()),
    ("payload", pa.large_binary()),   # "resized" image bytes
])


class ResizeMedia:
    """Actor-pool stage: resize image payloads into a bounding box.

    Same stub-codec contract as DecodeMediaFeatures: when a real codec
    (PIL) is importable it would decode/resize/re-encode here; in this
    container the deterministic fake stands in — source dims come from
    the header hash (``_fake_decode``), target dims fit ``(box_w,
    box_h)`` preserving aspect, and the "resized" payload is a strided
    byte downsample of the source sized ``width × height × bpp`` — so
    output size scales with the target like a real resize and the whole
    Ray side (actor pool, schema, zero-copy batch plumbing, byte
    budgets) is production-shaped."""

    def __init__(self, box_w: int = 64, box_h: int = 64, bpp: int = 1,
                 emit_payload: bool = True):
        self.box_w = box_w
        self.box_h = box_h
        self.bpp = bpp
        # emit_payload=False: report shape — resized bytes are produced
        # but only their sizes leave the actor (saves shipping the blob
        # column when the consumer is a per-image report)
        self.emit_payload = emit_payload
        self.use_real_codec = HAVE_PIL  # False in this container
        # the byte gather runs CHUNKED over a small fixed window: full-
        # batch per-byte int64 index arrays were ~300 MB/actor, and with
        # only a few batches per actor the one-time first-touch faults
        # (~30µs/4K page on the target hosts) dominated the whole query
        # (2.5 s first batch vs 0.34 s steady).  A 1M-element window
        # keeps faulted scratch ~60 MB total and the allocator recycles
        # the same-size chunk temporaries.
        self._ar = np.arange(_GATHER_CHUNK, dtype=np.int64)
        self._u8 = np.empty(0, dtype=np.uint8)
        self._j = np.empty(0, dtype=np.int64)       # chunk scratch
        self._opos = self._g64 = np.empty(0, dtype=np.int64)
        self._g32 = np.empty(0, dtype=np.int32)
        self._tk = np.empty(0, dtype=np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        images = batch.filter(pc.and_(
            pc.equal(batch["media_type"], "image"),
            pc.greater(pc.binary_length(batch["payload"]), 0)))
        _, starts, ends, data = _binary_views(images["payload"])
        n = len(starts)
        sw, sh, _ = _fake_decode_batch(data, starts, ends)
        # fit into the box preserving aspect, integer-only: the binding
        # side takes the box dimension, the other floors (min 1)
        use_w = self.box_w * sh <= self.box_h * sw
        tw = np.where(use_w, self.box_w, np.maximum(1, (sw * self.box_h) // sh))
        th = np.where(use_w, np.maximum(1, (sh * self.box_w) // sw), self.box_h)
        out_len = np.minimum(tw * th * self.bpp, ends - starts).astype(np.int64)
        # strided byte downsample out[i][j] = src[i][j*src_len//out_len].
        # Split rows into IDENTITY (out_len == src_len — the payload
        # already fits the box byte budget: the mapping is j→j, a plain
        # memcpy of the row) and SHRINK rows, which get the strided
        # gather.  All chunk temporaries live in persistent scratch and
        # are written with out= — fresh multi-MB temporaries are mmap'd
        # and returned to the OS every iteration, so they re-fault
        # ~30µs/4K page on every chunk (the dominant cost before).
        row_off = np.cumsum(out_len)
        total = int(row_off[-1]) if n else 0
        if self._u8.size < total:
            self._u8 = np.empty(total, dtype=np.uint8)
        values = self._u8[:total]
        row_start = row_off - out_len
        src_len = (ends - starts).astype(np.int64)
        starts64 = starts.astype(np.int64)
        ident = out_len == src_len
        # identity rows: memcpy maximal runs of consecutive rows (input
        # rows are contiguous in `data` after the filter materializes)
        edges = np.flatnonzero(np.diff(ident.astype(np.int8)))
        bounds = np.concatenate(([0], edges + 1, [n])) if n else [0]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if not ident[a]:
                continue
            values[row_start[a]:row_off[b - 1]] = \
                data[starts64[a]:starts64[a] + (row_off[b - 1]
                                                - row_start[a])]
        # shrink rows: chunked strided gather over compacted row arrays
        sh_rows = np.flatnonzero(~ident)
        if sh_rows.size:
            s_out = out_len[sh_rows]
            s_off = np.cumsum(s_out)
            s_start = s_off - s_out
            s_src32 = src_len[sh_rows].astype(np.int32)
            s_out32 = s_out.astype(np.int32)
            s_data0 = starts64[sh_rows]
            s_vals0 = row_start[sh_rows]
            m_total = int(s_off[-1])
            if self._j.size < _GATHER_CHUNK:
                self._j = np.empty(_GATHER_CHUNK, np.int64)
                self._opos = np.empty(_GATHER_CHUNK, np.int64)
                self._g64 = np.empty(_GATHER_CHUNK, np.int64)
                self._g32 = np.empty(_GATHER_CHUNK, np.int32)
                self._tk = np.empty(_GATHER_CHUNK, np.uint8)
            for lo in range(0, m_total, _GATHER_CHUNK):
                hi = min(lo + _GATHER_CHUNK, m_total)
                w = hi - lo
                r = _chunk_row_ids(s_off, lo, hi)
                j = self._j[:w]
                g64 = self._g64[:w]
                g32 = self._g32[:w]
                out_pos = self._opos[:w]
                np.take(s_start, r, out=g64)
                np.add(self._ar[:w], lo, out=j)
                np.subtract(j, g64, out=j)            # j within row
                np.take(s_vals0, r, out=out_pos)
                np.add(out_pos, j, out=out_pos)       # output positions
                np.take(s_src32, r, out=g32)
                np.multiply(j, g32, out=j, casting="unsafe")
                np.take(s_out32, r, out=g32)
                np.floor_divide(j, g32, out=j, casting="unsafe")
                np.take(s_data0, r, out=g64)
                np.add(j, g64, out=j)                 # absolute src index
                taken = self._tk[:w]
                np.take(data, j, out=taken)
                values[out_pos] = taken
        offsets = np.concatenate(([0], row_off))
        payloads = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), n,
            [None, pa.py_buffer(offsets.astype(np.int64).tobytes()),
             pa.py_buffer(values.tobytes())])
        cols = {
            "media_id": images["media_id"],
            "media_type": images["media_type"],
            "src_width": pa.array(sw.astype(np.int32)),
            "src_height": pa.array(sh.astype(np.int32)),
            "width": pa.array(tw.astype(np.int32)),
            "height": pa.array(th.astype(np.int32)),
            "payload": payloads,
        }
        schema = RESIZED_SCHEMA
        if not self.emit_payload:
            del cols["payload"]
            cols["out_bytes"] = pa.array(out_len, type=pa.int64())
            schema = pa.schema([f for f in RESIZED_SCHEMA
                                if f.name != "payload"]
                               + [pa.field("out_bytes", pa.int64())])
        if "midx" in batch.column_names:
            cols["midx"] = images["midx"]
            schema = schema.append(pa.field("midx", pa.int64()))
        return pa.table(cols, schema=schema)


class FrameSampler:
    """Actor-pool stage: sample ≤ max_frames deterministic "frames" per
    video payload (byte-slices standing in for decoded frames)."""

    def __init__(self, max_frames: int = 4, frame_bytes: int = 64):
        self.max_frames = max_frames
        self.frame_bytes = frame_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized frame slicing: one numpy pass computes every
        frame's (offset, length); the frame bytes are assembled with a
        single gather into a large_binary array (no per-frame Python
        bytes objects).  Semantics pinned by
        ``test_frame_sampler_deterministic_slices``."""
        fb = self.frame_bytes
        videos = batch.filter(pc.and_(
            pc.equal(batch["media_type"], "video"),
            pc.greater(pc.binary_length(batch["payload"]), 0)))
        _, starts, ends, data = _binary_views(videos["payload"])
        lengths = ends - starts
        nv = len(starts)
        nfr = np.minimum(self.max_frames,
                         np.maximum(1, lengths // fb)).astype(np.int64)
        step = np.maximum(1, lengths // nfr)
        total = int(nfr.sum())
        vid_row = np.repeat(np.arange(nv, dtype=np.int64), nfr)
        j = (np.arange(total, dtype=np.int64)
             - np.repeat(np.cumsum(nfr) - nfr, nfr))
        off = starts[vid_row] + j * step[vid_row]
        flen = np.minimum(fb, ends[vid_row] - off)
        # gather every frame's bytes in one fancy-index pass
        nbytes = int(flen.sum())
        idx = (np.repeat(off, flen)
               + np.arange(nbytes, dtype=np.int64)
               - np.repeat(np.cumsum(flen) - flen, flen))
        values = np.ascontiguousarray(data[idx])
        offsets = np.concatenate(([0], np.cumsum(flen)))
        frames = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), total,
            [None, pa.py_buffer(offsets.astype(np.int64).tobytes()),
             pa.py_buffer(values.tobytes())])
        take_idx = pa.array(vid_row, type=pa.int64())
        cols = {
            "media_id": videos["media_id"].combine_chunks().take(take_idx),
            "frame_idx": pa.array(j.astype(np.int32), type=pa.int32()),
            "frame": frames,
        }
        if "midx" in batch.column_names:   # internal group key rides along
            cols["midx"] = videos["midx"].combine_chunks().take(take_idx)
        return pa.table(cols)


AUDIO_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("n_bytes", pa.int64()),
    ("n_samples", pa.int64()),
    ("sample_rate", pa.int32()),
    ("duration_ms", pa.int64()),
    ("rms_milli", pa.int64()),
    ("zero_crossings", pa.int64()),
    ("feature", pa.list_(pa.float32(), 8)),
])


class AudioFeatures:
    """Actor-pool stage: demuxed audio track → per-track features.

    Same stub-codec contract as the image/video stages: with a real
    codec (ffmpeg/soundfile) the payload would be demuxed+decoded here;
    in this container the payload bytes themselves stand in for the
    s16le PCM track (deterministic, documented).  Everything around the
    codec — actor-pool signature, zero-copy buffer math, fixed-dim
    feature layout — is real: RMS energy, zero-crossing count and the
    8-bucket amplitude histogram are computed in single numpy passes
    over ALL rows at once (bincount keyed by row id; no per-track
    Python).  Semantics pinned by the per-row reference in
    tests/test_multimodal.py."""

    # evaluation window: per-chunk temporaries stay ~2 MB so the
    # allocator reuses warm blocks (fresh multi-100MB temporaries
    # first-touch-fault ~30µs/page on this host — see resize/frame
    # stages for the same pattern)
    CHUNK_SAMPLES = 1 << 20

    def __init__(self, feature_dim: int = 8, track_types=("video", "audio")):
        self.feature_dim = fd = feature_dim
        self.track_types = list(track_types)
        self.use_real_codec = False  # no audio codec in this container
        # per-int16-value lookup tables: one gather replaces the
        # astype(int32)->int64**2->float64 chain over every sample
        v = np.arange(65536, dtype=np.int64)
        sv = np.where(v < 32768, v, v - 65536)          # signed value
        self._sq_lut = (sv * sv).astype(np.float64)     # exact (< 2^30)
        self._bkt_lut = np.minimum(
            np.abs(sv) >> 12, fd - 1).astype(np.uint16)
        self._scratch: dict = {}

    def _buf(self, key: str, size: int, dtype) -> np.ndarray:
        b = self._scratch.get(key)
        if b is None or b.size < size:
            b = np.empty(max(size, self.CHUNK_SAMPLES), dtype=dtype)
            self._scratch[key] = b
        return b[:size]

    def _chunk_samples(self, data, starts, ends, lengths, i0, i1,
                       contiguous: bool) -> np.ndarray:
        """Rows [i0,i1) → one contiguous little-endian uint16 sample
        array (each row's even-length prefix, odd tail bytes dropped).
        One bounded memcpy / boolean compaction into persistent
        scratch — never a per-byte fancy-index over the whole batch."""
        nbytes = int((lengths[i0:i1] - (lengths[i0:i1] & 1)).sum())
        out = self._buf("bytes", nbytes + (nbytes & 1), np.uint8)[:nbytes]
        if contiguous:
            base = starts[i0]
            window = data[base:ends[i1 - 1]]
            odd = np.flatnonzero(lengths[i0:i1] & 1)
            if odd.size == 0:
                np.copyto(out, window)
            else:
                mask = self._buf("mask", len(window), np.bool_)
                mask[:len(window)] = True
                mask[ends[i0 + odd] - 1 - base] = False
                np.compress(mask[:len(window)], window, out=out)
        else:   # sliced/re-chunked column: per-row copies (bounded)
            pos = 0
            for i in range(i0, i1):
                m = int(lengths[i] & ~1)
                out[pos:pos + m] = data[starts[i]:starts[i] + m]
                pos += m
        return out.view("<u2")

    def __call__(self, batch: pa.Table) -> pa.Table:
        fd = self.feature_dim
        rows = batch.filter(pc.is_in(
            batch["media_type"],
            value_set=pa.array(self.track_types)))
        _, starts, ends, data = _binary_views(rows["payload"])
        lengths = (ends - starts).astype(np.int64)
        n = len(starts)
        n_samp = lengths // 2                      # s16le samples per row
        contiguous = n > 0 and np.array_equal(starts[1:], ends[:-1])

        sumsq = np.zeros(n, dtype=np.float64)
        zc = np.zeros(n, dtype=np.int64)
        hist = np.zeros((n, fd), dtype=np.int64)

        # row-granular chunks of ≤ CHUNK_SAMPLES samples (a single
        # huge row still forms its own chunk)
        csum = np.cumsum(n_samp)
        i0 = 0
        while i0 < n:
            base_s = csum[i0 - 1] if i0 else 0
            i1 = int(np.searchsorted(
                csum, base_s + self.CHUNK_SAMPLES, side="left"))
            i1 = min(max(i1, i0 + 1), n)
            u16 = self._chunk_samples(
                data, starts, ends, lengths, i0, i1, contiguous)
            m = len(u16)
            if m == 0:
                i0 = i1
                continue
            cn = i1 - i0
            ns_c = n_samp[i0:i1]
            # per-sample row ids (int32, bounded scratch)
            rid = self._buf("rid", m, np.int32)
            nzr = np.flatnonzero(ns_c)
            ls = np.zeros(cn + 1, dtype=np.int64)
            np.cumsum(ns_c, out=ls[1:])
            rid_src = np.repeat(nzr.astype(np.int32), ns_c[nzr])
            np.copyto(rid, rid_src)
            # RMS partial: LUT gather + per-row segment sums.
            # reduceat over nonzero-row starts is exact because empty
            # rows occupy zero samples (consecutive spans stay tight).
            sq = self._buf("sq", m, np.float64)
            np.take(self._sq_lut, u16, out=sq)
            sumsq[i0 + nzr] = np.add.reduceat(sq, ls[nzr])
            # zero crossings: sign flips between in-row neighbors
            if m > 1:
                nonneg = self._buf("nn", m, np.bool_)
                np.less(u16, 32768, out=nonneg)
                flip = self._buf("flip", m - 1, np.bool_)
                np.not_equal(nonneg[1:], nonneg[:-1], out=flip)
                same = rid[1:] == rid[:-1]
                np.logical_and(flip, same, out=flip)
                at = np.flatnonzero(flip)
                zc[i0:i1] += np.bincount(rid[1:][at].astype(np.int64),
                                         minlength=cn)
            # amplitude histogram partial: LUT bucket + one bincount
            key = self._buf("key", m, np.int64)
            np.multiply(rid, fd, out=key, casting="unsafe")
            bkt = self._buf("bkt", m, np.uint16)
            np.take(self._bkt_lut, u16, out=bkt)
            key += bkt
            hist[i0:i1] += np.bincount(
                key, minlength=cn * fd).reshape(cn, fd)
            i0 = i1

        ns_safe = np.maximum(n_samp, 1)
        rms_milli = np.floor(
            1000.0 * np.sqrt(sumsq / ns_safe)).astype(np.int64)
        rms_milli[n_samp == 0] = 0
        # stub "container header": first byte selects the sample rate
        first = np.zeros(n, dtype=np.int64)
        nz = lengths > 0
        if data.size:
            first[nz] = data[starts[nz]]
        rate = (8000 << (first % 3)).astype(np.int32)   # 8/16/32 kHz
        duration_ms = n_samp * 1000 // rate
        histf = hist.astype(np.float32)
        norms = np.sqrt((histf * histf).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        feats = histf / norms
        cols = {
            "media_id": rows["media_id"],
            "n_bytes": pa.array(lengths),
            "n_samples": pa.array(n_samp),
            "sample_rate": pa.array(rate),
            "duration_ms": pa.array(duration_ms),
            "rms_milli": pa.array(rms_milli),
            "zero_crossings": pa.array(zc.astype(np.int64)),
            "feature": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), type=pa.float32()), fd),
        }
        schema = AUDIO_SCHEMA
        if "midx" in batch.column_names:
            cols["midx"] = rows["midx"]
            schema = schema.append(pa.field("midx", pa.int64()))
        return pa.table(cols, schema=schema)


def synthesize_media(batch: pa.Table, n_hosts: int) -> pa.Table:
    """Distinct media-index rows → full media table (id, url, type,
    payload).  The payload synthesis stands in for the fetch/decode
    input at test scale (deterministic splitmix64 bytes)."""
    from .. import corpus as corpus_mod
    from .assemble import media_body_array

    midx = batch["midx"].combine_chunks() \
        if isinstance(batch["midx"], pa.ChunkedArray) else batch["midx"]
    ids = pc.binary_join_element_wise(
        "media-", pc.cast(midx, pa.string()), "")
    is_video = midx.to_numpy() % 3 == 0
    types = pa.array(np.where(is_video, "video", "image"))
    urls = corpus_mod.doc_url_array(midx.to_numpy(), n_hosts, "media")
    return pa.table({
        "media_id": ids,
        "url": urls,
        "media_type": types,
        "payload": media_body_array(urls),
        "midx": midx,
    }, schema=MEDIA_SCHEMA.append(pa.field("midx", pa.int64())))


class SynthesizedStage:
    """Fuse payload synthesis with a downstream media stage (and an
    optional post-combiner) inside ONE actor call.

    Multi-KB payload columns are the dominant inter-stage traffic of
    the multimodal pipelines: synthesizing (in production: fetching /
    demuxing) them in the same actor that consumes them keeps blobs out
    of the object store entirely — only the tiny index rows enter and
    only the feature/report rows leave.  ``post`` runs on the stage
    output while still in-actor (e.g. a per-batch aggregate combiner or
    a column drop), shrinking the exchange further."""

    def __init__(self, n_hosts: int, stage_cls, stage_kwargs=None,
                 post=None):
        self.n_hosts = n_hosts
        self.stage = stage_cls(**(stage_kwargs or {}))
        self.post = post

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.stage(synthesize_media(batch, self.n_hosts))
        return self.post(out) if self.post is not None else out


def media_index_from_corpus(corpus_dir: str,
                            limit_docs: int | None = None,
                            npart: int = 64):
    """Distinct media indices of the corpus as a Dataset of bare int64
    ``midx`` rows — the input of the fused multimodal pipelines.

    The global distinct is a hash-bucket exchange over int64 media
    indices (stages/exchange.py rationale): per-block ``pc.unique``
    partials → ``part = midx % npart`` → one vectorized ``np.unique``
    per bucket.  Nothing but int64s enter the shuffle — the URL is a
    pure function of the index and payload synthesis happens fused
    into the consuming actor stage (``SynthesizedStage``), so blobs
    never move.  Bucket outputs are sorted, so downstream row order is
    deterministic (ordered by (part, midx)) without a global sort.

    The index is a deterministic derived artifact of the corpus (like
    the corpus itself, which ``ensure_corpus`` memoizes), shared by all
    four multimodal pipelines — so the full build is MATERIALIZED next
    to the corpus once (write + atomic rename) and later callers read
    the tiny parquet instead of re-extracting every link (~4.4 s at
    sf0.1, ×4 pipelines).  In production this is the "media manifest"
    table a crawl emits alongside its archive."""
    import os
    import shutil

    from .. import corpus as corpus_mod
    from ..sources._util import read_parquet, scan_parquet
    from ..stages.urls import extract_links

    import pyarrow.compute as pc

    cache = os.path.join(corpus_dir, "media_index")
    if limit_docs is None and os.path.isdir(cache):
        return scan_parquet(cache)

    def to_media_idx(batch: pa.Table) -> pa.Table:
        links = extract_links(batch, doc_col="doc_id")
        media = links.filter(pc.match_substring(links["url"], "/media/"))
        u = pc.unique(media["url"].combine_chunks())
        midx = pc.cast(pc.extract_regex(
            u, r"/media/(?P<midx>[0-9]+)$").field("midx"), pa.int64())
        part = (midx.to_numpy(zero_copy_only=False)
                % npart).astype(np.int32)
        return pa.table({"midx": midx, "part": pa.array(part)})

    def bucket_unique(g: pa.Table) -> pa.Table:
        m = np.unique(g["midx"].to_numpy(zero_copy_only=False))
        return pa.table({"midx": pa.array(m, type=pa.int64())})

    ds = read_parquet(corpus_mod.docs_path(corpus_dir))
    if limit_docs:
        ds = ds.limit(limit_docs)
    idx = ds.map_batches(to_media_idx, batch_format="pyarrow",
                         batch_size=None)  # whole block = best pre-dedup
    out = bucket_exchange(idx, bucket_unique)
    if limit_docs is not None:
        return out
    tmp = cache + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    out.write_parquet(tmp)
    try:
        os.rename(tmp, cache)
    except OSError:  # concurrent builder won the rename; use theirs
        shutil.rmtree(tmp, ignore_errors=True)
    return scan_parquet(cache)
