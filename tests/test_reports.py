"""Reports (G17) + metrics aggregation (G15) over a crawl fetch log,
cross-checked against a pandas recomputation of the same log."""

import pytest

from warc_ray import corpus
from warc_ray.state.frontier import FrontierConfig

CFG = FrontierConfig(num_shards=2, max_rounds=25, filter_capacity=1 << 12)


@pytest.fixture(scope="module")
def log_ds(ray_session, tmp_path_factory):
    from warc_ray.pipelines.crawl import read_fetch_log, run_crawl

    cdir = corpus.ensure_corpus("t1", root=str(tmp_path_factory.mktemp("c")))
    out = str(tmp_path_factory.mktemp("crawl"))
    run_crawl(cdir, out, config=CFG, write_warc=False)
    return read_fetch_log(out)


def test_hottest_hosts(log_ds):
    from warc_ray.pipelines.reports import hottest_hosts

    got = hottest_hosts(log_ds, k=5).to_pandas()
    df = log_ds.to_pandas()
    exp = (
        df.assign(ok=(df.status == 200).astype(int))
        .groupby("host")
        .agg(n_fetched=("ok", "size"), n_ok=("ok", "sum"),
             first_round=("round", "min"), last_round=("round", "max"))
        .reset_index()
        .sort_values(["n_fetched", "host"], ascending=[False, True])
        .head(5).reset_index(drop=True)
    )
    assert got.to_dict("records") == exp.to_dict("records")


def test_crawl_metrics(log_ds):
    from warc_ray.pipelines.reports import crawl_metrics

    got = crawl_metrics(log_ds).to_pandas().sort_values("round").reset_index(drop=True)
    df = log_ds.to_pandas()
    exp = (
        df.assign(ok=(df.status == 200).astype(int))
        .groupby("round")
        .agg(n_fetched=("ok", "size"), n_ok=("ok", "sum"),
             min_seq=("fetch_seq", "min"), max_seq=("fetch_seq", "max"),
             n_hosts=("host", "nunique"))
        .reset_index()
    )
    for col in ["round", "n_fetched", "n_ok", "min_seq", "max_seq", "n_hosts"]:
        assert got[col].tolist() == exp[col].tolist(), col
