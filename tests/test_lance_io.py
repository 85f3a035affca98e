"""warc_ray.io Lance/Parquet abstraction contract (SURVEY §2 G1).

The sandbox has no pylance, so the Lance arm of these tests skips
cleanly here and runs wherever pylance exists — locking the contract
that both storage formats carry the IDENTICAL Arrow schema and
round-trip the same rows (VERDICT round-2 item 7).  The Parquet-
fallback arm always runs, so the shared schema contract itself is
exercised in every environment.
"""

import pyarrow as pa
import pytest

from warc_ray import io as wio
from warc_ray import corpus


def _sample_docs() -> pa.Table:
    """A tiny interleaved-docs table in the BASELINE.json input shape
    (doc_id, spans: list<struct<kind,text,media_ref,offset>>)."""
    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()),
                        ("offset", pa.int32())])
    return pa.table({
        "doc_id": pa.array(["d0", "d1"], type=pa.string()),
        "spans": pa.array(
            [[{"kind": "text", "text": "w1 w2", "media_ref": "",
               "offset": 0}],
             [{"kind": "image", "text": "", "media_ref": "m/1",
               "offset": 0},
              {"kind": "text", "text": "w3", "media_ref": "",
               "offset": 3}]], type=pa.list_(span_t)),
    })


def test_parquet_fallback_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    t = _sample_docs()
    path = str(tmp_path / "docs")
    wio.write_table(rd.from_arrow(t), path)
    back = wio.read_table(path)
    got = pa.concat_tables(back.iter_batches(batch_format="pyarrow"))
    assert got.schema.equals(t.schema)
    assert got.sort_by("doc_id").equals(t.sort_by("doc_id"))


@pytest.mark.skipif(not wio.HAVE_LANCE,
                    reason="pylance not installed in this environment")
def test_lance_roundtrip_schema_identity(ray_session, tmp_path):
    """Where pylance exists: a .lance path must round-trip the SAME
    rows with the SAME Arrow schema the Parquet fallback produces —
    pipelines must not be able to tell the formats apart."""
    import ray.data as rd

    t = _sample_docs()
    lance_path = str(tmp_path / "docs.lance")
    pq_path = str(tmp_path / "docs_pq")
    wio.write_table(rd.from_arrow(t), lance_path)
    wio.write_table(rd.from_arrow(t), pq_path)
    via_lance = pa.concat_tables(
        wio.read_table(lance_path).iter_batches(batch_format="pyarrow"))
    via_pq = pa.concat_tables(
        wio.read_table(pq_path).iter_batches(batch_format="pyarrow"))
    assert via_lance.schema.equals(via_pq.schema)
    assert via_lance.sort_by("doc_id").equals(via_pq.sort_by("doc_id"))


def test_corpus_generator_uses_io_layer(tmp_path):
    """The synthetic corpus generator writes through warc_ray.io, so a
    pylance environment transparently produces Lance buckets."""
    d = corpus.ensure_corpus("t1", root=str(tmp_path))
    assert corpus.docs_path(d)
