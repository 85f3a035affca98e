"""Arrow schemas for every table the engine exchanges between stages.

The record schema is the columnar mapping of the reference's
record-oriented model (see SURVEY.md §1.2): fixed well-known headers
become columns (reference KNOWN_HEADERS, warc/warc.py:57-67), the open
extension-header namespace becomes a map column, and the lazy FilePart
payload stream (warc/utils.py:45-96) becomes a ``large_binary`` cell.

All stages use ``map_batches(batch_format="pyarrow")`` over these
schemas; keep nested/list/binary columns in Arrow (pandas round-trips
them as object dtype).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# WARC / ARC record tables
# ---------------------------------------------------------------------------

WARC_RECORD_SCHEMA = pa.schema([
    ("record_id", pa.string()),       # WARC-Record-ID (warc/warc.py:117-119)
    ("rec_type", pa.string()),        # WARC-Type (warc/warc.py:52-55; open set)
    ("target_uri", pa.string()),      # WARC-Target-URI
    ("date", pa.string()),            # verbatim WARC-Date text (byte parity > typed ts)
    ("ip_address", pa.string()),      # WARC-IP-Address
    ("content_type", pa.string()),
    ("content_length", pa.int64()),   # warc/warc.py:106-109
    ("payload_digest", pa.string()),  # verbatim on read; "sha1:<hex>" on write
    ("extra_headers", pa.map_(pa.string(), pa.string())),  # lower-cased keys
    ("payload", pa.large_binary()),
])

ARC_RECORD_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("ip_address", pa.string()),
    ("date", pa.string()),            # YYYYmmddHHMMSS (warc/arc.py:47-53)
    ("content_type", pa.string()),
    ("result_code", pa.string()),
    ("checksum", pa.string()),
    ("location", pa.string()),
    ("offset", pa.string()),
    ("filename", pa.string()),
    ("length", pa.string()),
    ("arc_version", pa.int8()),
    ("payload", pa.large_binary()),
])

# CDX-style offset index emitted by the WARC sink (free because the sink
# knows byte offsets — counterpart of browse()/tell(), warc/warc.py:284-313)
CDX_SCHEMA = pa.schema([
    ("target_uri", pa.string()),
    ("record_id", pa.string()),
    ("rec_type", pa.string()),
    ("shard", pa.string()),           # output file path
    ("offset", pa.int64()),           # compressed offset of the gzip member
    ("length", pa.int64()),           # compressed member length
    ("payload_digest", pa.string()),
])

# ---------------------------------------------------------------------------
# Interleaved text+media corpus (BASELINE.json input_hint)
# ---------------------------------------------------------------------------

SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),            # text | link | image | video
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

DOC_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
    ("bucket", pa.int32()),           # fetch-partition bucket (doc_index % n_buckets)
])

SEED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("priority", pa.int32()),
])

ROBOTS_SCHEMA = pa.schema([
    ("host", pa.string()),
    ("disallow_prefixes", pa.list_(pa.string())),
    ("crawl_delay_ms", pa.int32()),
])

# ---------------------------------------------------------------------------
# Frontier / crawl-loop tables
# ---------------------------------------------------------------------------

FETCH_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("host", pa.string()),
    ("doc_id", pa.string()),
    ("status", pa.int32()),
    ("round", pa.int32()),
    ("fetch_seq", pa.int64()),        # deterministic order within (host, round)
    ("content_type", pa.string()),
    ("body", pa.large_binary()),
    ("spans", pa.list_(SPAN_STRUCT)), # parse result (empty for media/404)
    ("depth", pa.int32()),
])
