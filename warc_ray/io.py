"""Table I/O with a Lance-first, Parquet-fallback abstraction.

BASELINE.json mandates Lance tables of interleaved docs; this sandbox
has no ``pylance`` (pip is sealed), so the layer selects at import time:

  * pylance importable → ``ray.data.read_lance`` / ``Dataset.write_lance``
  * otherwise          → ``ray.data.read_parquet`` / ``write_parquet``

Both paths carry the identical Arrow schema (schema.DOC_SCHEMA et al.),
so pipelines are format-agnostic.  Never calls ``ray.init``.
"""

from __future__ import annotations

import ray.data as rd

from .sources._util import scan_parquet

try:  # pragma: no cover - environment-dependent
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def read_docs(path: str, **kwargs) -> "rd.Dataset":
    """Read a docs table (directory of bucket files or single file)."""
    if HAVE_LANCE and path.endswith(".lance"):
        return rd.read_lance(path, **kwargs)
    return scan_parquet(path, **kwargs)


def read_table(path: str, **kwargs) -> "rd.Dataset":
    return read_docs(path, **kwargs)


def write_table(ds: "rd.Dataset", path: str, **kwargs) -> None:
    if HAVE_LANCE and path.endswith(".lance"):
        ds.write_lance(path, **kwargs)
    else:
        ds.write_parquet(path, **kwargs)


def read_evolved(path: str, target_schema, **kwargs) -> "rd.Dataset":
    """Schema-evolution read: union-by-name over parquet files written
    across table generations (the additive-column / type-widening
    lakehouse contract).  Each batch normalizes to ``target_schema``
    INSIDE the scan task — columns a generation lacks materialize as
    nulls, narrower physical types widen via cast — so every
    downstream stage sees one stable schema regardless of which
    fragment a block came from (a driver-side concat can't fix this:
    blocks flow to consumers without passing through the driver)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def norm(b: "pa.Table") -> "pa.Table":
        cols = []
        for f in target_schema:
            if f.name in b.column_names:
                c = b[f.name]
                cols.append(c if c.type == f.type else pc.cast(c, f.type))
            else:
                cols.append(pa.nulls(b.num_rows, f.type))
        return pa.table(cols, schema=target_schema)

    return scan_parquet(path, **kwargs) \
        .map_batches(norm, batch_format="pyarrow")
