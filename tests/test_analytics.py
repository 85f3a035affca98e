"""Law tests for the session-5 analytics operators (q81–q88) on
adversarial in-memory fixtures — the DuckDB value-parity itself is
covered by the driver harness; these pin the semantic invariants the
SQL can't (latest-wins resolution, bounded concat, containment
orientation, mixture determinism)."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


# --------------------------------------------------------------------- q81

def test_merge_upsert_latest_wins(ray_session):
    from warc_ray.pipelines.analytics import merge_upsert

    out = merge_upsert(SF).to_pandas().set_index("o_orderkey")
    base = pq.read_table(f"{SF}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice",
                                  "o_orderstatus"]).to_pandas()
    miss_upd = miss_del = miss_keep = 0
    for _, r in base.iterrows():
        k = int(r.o_orderkey)
        h = hashlib.md5(str(k).encode()).hexdigest()
        cents = int(round(r.o_totalprice * 100))
        if h[1] in "01":                      # delete wins over update
            assert k not in out.index
            miss_del += 1
        elif h[0] in "0123":                  # update applied
            assert out.loc[k, "o_orderstatus"] == "X"
            assert out.loc[k, "price_cents"] == cents + 500
            assert out.loc[k, "version"] == 2
            miss_upd += 1
        else:                                 # untouched base row
            assert out.loc[k, "o_orderstatus"] == r.o_orderstatus
            assert out.loc[k, "price_cents"] == cents
            assert out.loc[k, "version"] == 1
            miss_keep += 1
    assert min(miss_upd, miss_del, miss_keep) > 0  # all 3 branches hit
    assert len(out) == len(base) - miss_del


# --------------------------------------------------------------------- q82

def test_group_concat_bounded_and_ordered(ray_session):
    from warc_ray.pipelines.analytics import group_concat

    t = group_concat(SF, k=4).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source", "lang"]).to_pandas()
    assert t.n_docs.sum() == len(docs)
    for _, r in t.iterrows():
        ids = [int(x) for x in r.first_ids.split(",")]
        assert ids == sorted(ids) and len(ids) <= 4
        grp = sorted(docs[(docs.source == r.source)
                          & (docs.lang == r.lang)].doc_id)[:4]
        assert ids == grp


# --------------------------------------------------------------------- q83

def test_feature_corr_matches_numpy(ray_session):
    from warc_ray.pipelines.analytics import feature_corr
    from warc_ray.stages.textstats import token_counts

    t = feature_corr(SF).to_pandas().set_index("lang")
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    toks = token_counts(pa.Table.from_pandas(docs))["n_tokens"].to_numpy()
    docs["y"] = toks
    for lang, g in docs.groupby("lang"):
        got = t.loc[lang, "corr_chars_tokens"]
        want = np.corrcoef(g.n_chars, g.y)[0, 1]
        assert abs(got - want) < 1e-9
        assert -1.0 <= got <= 1.0


# --------------------------------------------------------------------- q85

def test_retention_cohort_laws(ray_session):
    from warc_ray.pipelines.analytics import retention_cohorts

    t = retention_cohorts(SF).to_pandas()
    assert (t.week_offset >= 0).all()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id"]).to_pandas()
    # offset-0 rows partition all users: every user is in exactly its
    # own cohort's week-0 cell
    assert t[t.week_offset == 0].n_users.sum() == ev.user_id.nunique()
    # retention never exceeds the cohort's size
    size = t[t.week_offset == 0].set_index("cohort_week").n_users
    for _, r in t.iterrows():
        assert r.n_users <= size[r.cohort_week]


# --------------------------------------------------------------------- q86

def test_vocab_ranked_and_coverage(ray_session):
    from warc_ray.pipelines.analytics import vocab_build

    t = vocab_build(SF, v=8).to_pandas()
    assert list(t.vocab_id) == list(range(len(t)))
    assert (np.diff(t.n) <= 0).all()          # counts non-increasing
    import re
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    cnt: dict = {}
    for txt in docs.text:
        for w in re.findall(r"[a-z0-9]+", txt.lower()):
            cnt[w] = cnt.get(w, 0) + 1
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    assert list(zip(t.token, t.n)) == want
    grand = sum(cnt.values())
    assert t.oov_ppm.iloc[0] == (grand - t.n.sum()) * 1_000_000 // grand


# --------------------------------------------------------------------- q87

def test_containment_orientation_and_values(ray_session):
    from warc_ray.pipelines.analytics import containment_pairs
    from warc_ray.stages.dedup import shingles

    t = containment_pairs(SF, threshold_ppm=500_000).to_pandas()
    assert len(t) > 0
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    texts = dict(zip(docs.doc_id, docs.text))
    for _, r in t.iterrows():
        sa = shingles(texts[r.doc_contained])
        sb = shingles(texts[r.doc_container])
        assert len(sa) <= len(sb)             # contained side is smaller
        inter = len(sa & sb)
        assert r.contain_ppm == inter * 1_000_000 // len(sa)
        assert r.contain_ppm >= 500_000


# --------------------------------------------------------------------- q88

def test_source_mixture_deterministic_and_proportional(ray_session):
    from warc_ray.pipelines.analytics import source_mixture

    a = source_mixture(SF).to_pandas()
    b = source_mixture(SF).to_pandas()
    pd.testing.assert_frame_equal(a, b)       # pure function of input
    assert (a.n_kept <= a.n_total).all()
    assert (a.target_n <= a.n_total).all()
    # md5 sampling tracks the integer target within binomial noise
    for _, r in a.iterrows():
        assert abs(r.n_kept - r.target_n) <= max(
            5, 4 * np.sqrt(max(r.target_n, 1)))


# --------------------------------------------------------------------- q89

def test_pivot_events_row_sums(ray_session):
    from warc_ray.pipelines.analytics import pivot_events

    t = pivot_events(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type"]).to_pandas()
    cols = [c for c in t.columns if c.startswith("n_")]
    assert t[cols].to_numpy().sum() == len(ev)
    for ty, n in ev.event_type.value_counts().items():
        assert t[f"n_{ty}"].sum() == n


# --------------------------------------------------------------------- q90

def test_funnel_matches_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import funnel

    t = funnel(SF).to_pandas().iloc[0]
    assert t.n_view >= t.n_click >= t.n_purchase
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    n1 = n2 = n3 = 0
    for _, g in ev.groupby("user_id"):
        g = g.sort_values("ts")
        v = g[g.event_type == "view"]
        if v.empty:
            continue
        n1 += 1
        t1 = v.ts.iloc[0]
        c = g[(g.event_type == "click") & (g.ts > t1)]
        if c.empty:
            continue
        n2 += 1
        t2 = c.ts.iloc[0]
        if not g[(g.event_type == "purchase") & (g.ts > t2)].empty:
            n3 += 1
    assert (t.n_view, t.n_click, t.n_purchase) == (n1, n2, n3)


# --------------------------------------------------------------------- q92

def test_debounce_matches_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import debounce_events

    t = debounce_events(SF).to_pandas().set_index("event_type")
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["us"] = ev.ts.astype("int64")
    for ty, g in ev.groupby("event_type"):
        kept = 0
        for _, u in g.groupby("user_id"):
            ts = u.sort_values(["us", "event_id"]).us.to_numpy()
            kept += 1 + int((np.diff(ts) >= 300_000_000).sum())
        assert t.loc[ty, "n_kept"] == kept
        assert t.loc[ty, "n_total"] == len(g)


# --------------------------------------------------------------------- q93

def test_bigram_topk_law(ray_session):
    from warc_ray.pipelines.analytics import bigram_topk

    t = bigram_topk(SF, k=2).to_pandas()
    assert (t.groupby("head")["rank"].max() <= 2).all()
    # per head, counts are non-increasing with rank
    for _, g in t.groupby("head"):
        g = g.sort_values("rank")
        assert (np.diff(g.n) <= 0).all()


# --------------------------------------------------------------------- q94

def test_cumulative_users_laws(ray_session):
    from warc_ray.pipelines.analytics import cumulative_users

    t = cumulative_users(SF).to_pandas()
    assert (t.cum_users == t.n_new.cumsum()).all()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id"]).to_pandas()
    assert t.cum_users.iloc[-1] == ev.user_id.nunique()


# --------------------------------------------------------------------- q95

def test_cooccurrence_formula(ray_session):
    import re

    from warc_ray.pipelines.analytics import cooccurrence

    t = cooccurrence(SF, v=8, topk=10).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    cnt: dict = {}
    for txt in docs.text:
        for w in re.findall(r"[a-z0-9]+", txt.lower()):
            cnt[w] = cnt.get(w, 0) + 1
    vocab = set(w for w, _ in sorted(cnt.items(),
                                     key=lambda kv: (-kv[1], kv[0]))[:8])
    sets = [set(re.findall(r"[a-z0-9]+", txt.lower())) & vocab
            for txt in docs.text]
    for _, r in t.iterrows():
        assert r.tok_a < r.tok_b
        n_ab = sum(1 for s in sets if r.tok_a in s and r.tok_b in s)
        n_a = sum(1 for s in sets if r.tok_a in s)
        n_b = sum(1 for s in sets if r.tok_b in s)
        assert r.n_ab == n_ab
        assert r.assoc_ppm == n_ab * len(sets) * 1_000_000 // (n_a * n_b)


# --------------------------------------------------------------------- q91

def test_degree_histogram_conservation(ray_session):
    from warc_ray import corpus as corpus_mod
    from warc_ray.pipelines.analytics import degree_histogram

    cdir = corpus_mod.ensure_corpus("t1")
    t = degree_histogram(corpus_mod.docs_path(cdir)).to_pandas()
    out = t[t.side == "out"]
    inn = t[t.side == "in"]
    docs = pq.read_table(corpus_mod.docs_path(cdir),
                         columns=["doc_id"])
    assert out.n.sum() == docs.num_rows          # every doc in one bucket
    # edge conservation: Σ degree·n is the same distinct-edge set on
    # both sides
    assert (out.degree * out.n).sum() == (inn.degree * inn.n).sum()
    assert (inn.degree >= 1).all()


# --------------------------------------------------------------------- q96

def test_revisit_record_roundtrip(tmp_path):
    """The q96 write side: serialized revisit records survive the
    shard writer and come back through the CORE reader with the
    refers-to / digest headers intact and a zero-length payload."""
    from warc_ray.core.warcrec import parse_record_bytes
    from warc_ray.pipelines.archive import serialize_revisit_records

    t = serialize_revisit_records(
        ["urn:doc:doc-1", "urn:doc:doc-2"],
        ["<urn:orig:1>", "<urn:orig:2>"],
        ["sha1:aaaa", "sha1:bbbb"])
    assert t.num_rows == 2
    for i in range(2):
        rec = parse_record_bytes(t["record_bytes"][i].as_py())
        assert rec.header["warc-type"] == "revisit"
        assert rec.header["warc-refers-to"] == f"<urn:orig:{i + 1}>"
        assert rec.header["warc-payload-digest"] == f"sha1:{'ab'[i] * 4}"
        payload = rec.payload if isinstance(rec.payload, bytes) \
            else rec.payload.read()
        assert payload == b""


def test_revisit_decisions_partition_law(ray_session):
    """Decisions partition the re-crawl snapshot: n_response +
    n_revisit == docs surviving the %101 drop, and responses are
    exactly the %89 mutations."""
    from warc_ray import corpus as corpus_mod
    from warc_ray.pipelines.archive import archive_corpus, \
        revisit_decisions

    cdir = corpus_mod.ensure_corpus("t1")
    out = "/tmp/warc_ray_test/revisit-arch"
    import shutil
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(out + "-cdx", ignore_errors=True)
    archive_corpus(corpus_mod.docs_path(cdir), out).write_parquet(
        out + "-cdx")
    t = revisit_decisions(out, corpus_mod.docs_path(cdir)).to_pandas() \
        .set_index("decision")
    n = corpus_mod.PROFILES["t1"].n_docs
    alive = sum(1 for i in range(n) if i % 101 != 7)
    mutated = sum(1 for i in range(n) if i % 101 != 7 and i % 89 == 5)
    assert t.loc["response", "n_records"] == mutated
    assert t.loc["revisit", "n_records"] == alive - mutated


# --------------------------------------------------------------------- q97

def test_session_trigrams_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import session_trigrams

    t = session_trigrams(SF, topk=5).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["us"] = ev.ts.astype("int64")
    cnt: dict = {}
    for _, g in ev.groupby("user_id"):
        g = g.sort_values(["us", "event_id"])
        ts = g.us.to_numpy()
        ty = g.event_type.to_numpy()
        sess = np.concatenate(([0], np.cumsum(
            (np.diff(ts) > 30 * 60_000_000).astype(int))))
        for i in range(len(ty) - 2):
            if sess[i] == sess[i + 2]:
                k = f"{ty[i]}>{ty[i + 1]}>{ty[i + 2]}"
                cnt[k] = cnt.get(k, 0) + 1
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(t.trigram, t.n)) == want


# --------------------------------------------------------------------- q98

def test_incremental_agg_ivm_identity(ray_session, tmp_path):
    """merge(agg(base), agg(delta)) == agg(all) — and the persisted
    state is genuinely reused (second run with the state dir already
    populated returns the same result)."""
    from warc_ray.pipelines.analytics import incremental_agg

    state = str(tmp_path / "state")
    a = incremental_agg(SF, state_dir=state).to_pandas()
    b = incremental_agg(SF, state_dir=state).to_pandas()  # reuses state
    pd.testing.assert_frame_equal(a, b)
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    want = orders.groupby("o_orderstatus").agg(
        n_orders=("o_orderkey", "size"),
        sum_cents=("o_totalprice",
                   lambda s: int(round(s.mul(100).round().sum())))
    ).reset_index()
    got = a.sort_values("o_orderstatus").reset_index(drop=True)
    assert (got.n_orders.to_numpy()
            == want.n_orders.to_numpy()).all()
    cents = orders.assign(
        c=(orders.o_totalprice * 100).round().astype("int64")) \
        .groupby("o_orderstatus").c.sum()
    assert (got.set_index("o_orderstatus").sum_cents == cents).all()


# --------------------------------------------------------------------- q99

def test_host_reciprocity_bruteforce(ray_session):
    from warc_ray import corpus as corpus_mod
    from warc_ray.pipelines.analytics import host_reciprocity

    cdir = corpus_mod.ensure_corpus("t1")
    nh = corpus_mod.PROFILES["t1"].n_hosts
    t = host_reciprocity(corpus_mod.docs_path(cdir), nh).to_pandas().iloc[0]
    # brute force over the corpus
    import re

    import pyarrow.parquet as _pq
    docs = _pq.read_table(corpus_mod.docs_path(cdir)).to_pylist()
    edges = set()
    for d in docs:
        i = int(d["doc_id"].rsplit("-", 1)[1])
        hs = int(corpus_mod.host_index(np.array([i]), nh)[0])
        for s in d["spans"]:
            if s["kind"] in ("link", "image", "video"):
                hd = int(re.search(r"host-(\d+)", s["media_ref"]).group(1))
                edges.add((hs, hd))
    e2 = {(a, b) for a, b in edges if a != b}
    recip = sum(1 for a, b in e2 if a < b and (b, a) in e2)
    assert t.n_edges == len(e2)
    assert t.n_self == len(edges) - len(e2)
    assert t.n_recip_pairs == recip


# --------------------------------------------------------------------- q100

def test_shipping_priority_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import shipping_priority

    t = shipping_priority(SF, k=5).to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    ck = set(cust[cust.c_mktsegment == "BUILDING"].c_custkey)
    cutoff = pd.Timestamp("1995-03-15")
    o = orders[(orders.o_custkey.isin(ck)) & (orders.o_orderdate < cutoff)]
    l = li[li.l_shipdate > cutoff].copy()
    l["rev"] = ((l.l_extendedprice * 100).round().astype("int64")
                * (100 - (l.l_discount * 100).round().astype("int64")))
    m = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
    g = m.groupby("l_orderkey").rev.sum().sort_values(
        ascending=False)
    want = sorted(g.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    got = list(zip(t.l_orderkey, (t.revenue * 10000).round().astype(int)))
    assert got == want


# --------------------------------------------------------------------- q101

def test_bucketed_dedup_matches_plain(ray_session, tmp_path):
    from warc_ray.pipelines.analytics import bucketed_dedup

    t = bucketed_dedup(SF, n_buckets=8,
                       layout_dir=str(tmp_path / "layout")).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    want = docs.groupby("text").doc_id.agg(["min", "size"]) \
        .rename(columns={"min": "keep_doc", "size": "n_copies"}) \
        .reset_index(drop=True)
    got = t.sort_values("keep_doc").reset_index(drop=True)
    want = want.sort_values("keep_doc").reset_index(drop=True)
    assert (got.keep_doc.to_numpy() == want.keep_doc.to_numpy()).all()
    assert (got.n_copies.to_numpy() == want.n_copies.to_numpy()).all()
    # second run reuses the completed layout (resumable contract)
    t2 = bucketed_dedup(SF, n_buckets=8,
                        layout_dir=str(tmp_path / "layout")).to_pandas()
    assert len(t2) == len(t)


# --------------------------------------------------------------------- q102

def test_compact_files_preserves_content(ray_session, tmp_path):
    import glob
    import hashlib as h

    from warc_ray.pipelines.analytics import _MERSENNE61, compact_files

    t = compact_files(SF, target_rows=100,
                      work_dir=str(tmp_path / "w")).to_pandas().iloc[0]
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id"]).to_pandas()
    ck = 0
    for d in docs.doc_id:
        ck = (ck + int.from_bytes(
            h.md5(str(d).encode()).digest()[:8], "big")) % _MERSENNE61
    assert t.checksum == ck
    assert t.n_rows == len(docs)
    assert t.n_files_before == 64
    # the rewritten files really exist and hold every row
    out_files = glob.glob(str(tmp_path / "w" / "out" / "*.parquet"))
    assert len(out_files) == t.n_files_after
    total = sum(pq.read_metadata(f).num_rows for f in out_files)
    assert total == len(docs)


# --------------------------------------------------------------------- q106

def test_event_mad_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import event_mad

    t = event_mad(SF).to_pandas().set_index("event_type")
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["m"] = np.floor(ev.value * 1000).astype("int64")

    def disc_median(a):
        a = np.sort(np.asarray(a))
        return int(a[(len(a) + 1) // 2 - 1])   # percentile_disc(0.5)

    for ty, g in ev.groupby("event_type"):
        med = disc_median(g.m)
        assert t.loc[ty, "median_milli"] == med
        assert t.loc[ty, "mad_milli"] == disc_median(np.abs(g.m - med))


# --------------------------------------------------------------------- q110

def test_zscore_outliers_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import zscore_outliers

    t = zscore_outliers(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["m"] = np.floor(ev.value * 1000).astype("int64")
    want = set()
    for ty, g in ev.groupby("event_type"):
        n, s, ss = len(g), int(g.m.sum()), int((g.m ** 2).sum())
        b9 = 9 * (n * ss - s * s)
        for eid, v in zip(g.event_id, g.m):
            if (n * int(v) - s) ** 2 > b9:     # exact bigint compare
                want.add(eid)
    assert set(t.event_id) == want


# --------------------------------------------------------------------- q108

def test_normalized_dedup_catches_variants(ray_session, tmp_path):
    import pyarrow as _pa
    import pyarrow.parquet as _pqw

    from warc_ray.pipelines.analytics import normalized_dedup

    docs = _pa.table({
        "doc_id": _pa.array([1, 2, 3, 4], type=_pa.int64()),
        "text": _pa.array(["Hello  World", "hello world ",
                           "HELLO\tWORLD", "different"]),
    })
    _pqw.write_table(docs, str(tmp_path / "documents.parquet"))
    t = normalized_dedup(str(tmp_path)).to_pandas() \
        .sort_values("keep_doc").reset_index(drop=True)
    assert list(t.keep_doc) == [1, 4]
    assert list(t.n_copies) == [3, 1]


# --------------------------------------------------------------------- q111

def test_streaming_windows_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import streaming_windows

    t = streaming_windows(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas() \
        .sort_values("event_id")
    us = ev.ts.astype("int64").to_numpy()
    coin = np.array([hashlib.md5(str(e).encode()).hexdigest()[0] == "0"
                     for e in ev.event_id])
    eff = us - coin * 2_700_000_000
    run = np.maximum.accumulate(eff)
    before = np.concatenate(([np.int64(-(1 << 62))], run[:-1]))
    win = eff // 3_600_000_000
    late = (win + 1) * 3_600_000_000 <= before - 600_000_000
    assert late.sum() > 0                       # non-vacuous fixture
    assert t.n_late.sum() == late.sum()
    assert t.n_on_time.sum() == (~late).sum()
    # sequential replay agrees pane by pane
    import collections
    panes = collections.Counter()
    for w, ty, lt in zip(win, ev.event_type, late):
        panes[(int(w), ty, bool(lt))] += 1
    for _, r in t.iterrows():
        w = int(np.datetime64(r.window_start).astype("datetime64[s]")
                .astype("int64")) // 3600
        assert panes[(w, r.event_type, False)] == r.n_on_time
        assert panes[(w, r.event_type, True)] == r.n_late


# --------------------------------------------------------------------- q112

def test_seed_distance_bruteforce(ray_session):
    import collections
    import re

    from warc_ray import corpus as corpus_mod
    from warc_ray.pipelines.analytics import seed_distance_histogram

    cdir = corpus_mod.ensure_corpus("t1")
    t = seed_distance_histogram(
        corpus_mod.docs_path(cdir),
        f"{cdir}/seeds.parquet").to_pandas()
    docs = pq.read_table(corpus_mod.docs_path(cdir)).to_pylist()
    adj = collections.defaultdict(set)
    nodes = set()
    for d in docs:
        i = int(d["doc_id"].rsplit("-", 1)[1])
        for s in d["spans"]:
            if s["kind"] == "link":
                m = re.search(r"/doc/(\d+)$", s["media_ref"])
                if m:
                    j = int(m.group(1))
                    adj[i].add(j)
                    adj[j].add(i)
                    nodes.update((i, j))
    seeds = set()
    for r in pq.read_table(f"{cdir}/seeds.parquet").to_pylist():
        m = re.search(r"/doc/(\d+)", r["url"].replace("%64", "d"))
        seeds.add(int(m.group(1)))
    dist = {n: -1 for n in nodes}
    frontier = [s for s in seeds if s in nodes]
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == -1:
                    dist[v] = d + 1
                    nxt.append(v)
        frontier, d = nxt, d + 1
    want = collections.Counter(dist.values())
    got = dict(zip(t.dist, t.n_docs))
    assert got == dict(want)


# --------------------------------------------------------------------- q113

def test_last_touch_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import last_touch_attribution

    t = last_touch_attribution(SF).to_pandas().set_index("channel")
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["us"] = ev.ts.astype("int64")
    want: dict = {}
    for _, g in ev.groupby("user_id"):
        g = g.sort_values(["us", "event_id"])
        last = "none"
        for _, r in g.iterrows():
            if r.event_type == "purchase":
                want[last] = want.get(last, 0) + 1
            if r.event_type in ("view", "click", "signup"):
                last = r.event_type
    assert dict(zip(t.index, t.n_purchases)) == want


# --------------------------------------------------------------------- q114

def test_ivf_recall_floor(ray_session):
    from warc_ray.pipelines.analytics import ivf_recall

    t = ivf_recall(SF).to_pandas()
    mean = t[t.query_id == -1].recall_ppm.iloc[0]
    assert mean >= 800_000                     # the approximate-path bar
    assert (t.recall_ppm <= 1_000_000).all()


# --------------------------------------------------------------------- q115

def test_integrity_audit_detects_orphans(ray_session, tmp_path):
    import pyarrow as _pa
    import pyarrow.parquet as _pqw

    from warc_ray.pipelines.analytics import integrity_audit

    # minimal star schema with planted violations
    _pqw.write_table(_pa.table({
        "n_nationkey": _pa.array([0, 1], type=_pa.int32()),
        "n_name": _pa.array(["A", "B"])}), str(tmp_path / "nation.parquet"))
    _pqw.write_table(_pa.table({
        "c_custkey": _pa.array([10, 11, 12], type=_pa.int64()),
        "c_nationkey": _pa.array([0, 1, 9], type=_pa.int32())}),  # 9 orphan
        str(tmp_path / "customer.parquet"))
    _pqw.write_table(_pa.table({
        "o_orderkey": _pa.array([100, 101], type=_pa.int64()),
        "o_custkey": _pa.array([10, 99], type=_pa.int64())}),  # 99 orphan
        str(tmp_path / "orders.parquet"))
    _pqw.write_table(_pa.table({
        "l_orderkey": _pa.array([100, 100, 555], type=_pa.int64())}),
        str(tmp_path / "lineitem.parquet"))                    # 555 orphan
    t = integrity_audit(str(tmp_path)).to_pandas().set_index("relation")
    assert t.loc["customer->nation", "n_orphans"] == 1
    assert t.loc["orders->customer", "n_orphans"] == 1
    assert t.loc["lineitem->orders", "n_orphans"] == 1
    assert t.loc["lineitem->orders", "n_childless_parents"] == 1  # 101
    assert t.loc["orders->customer", "n_childless_parents"] == 2  # 11,12


# --------------------------------------------------------------------- q118

def test_charclass_entropy_reference(ray_session):
    from warc_ray.pipelines.analytics import charclass_entropy
    import math

    t = charclass_entropy(SF).to_pandas().set_index("lang")
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["lang", "text"]).to_pandas()
    for lang, grp in docs.groupby("lang"):
        txt = "".join(grp.text)
        cl = sum(c.isalpha() for c in txt)
        cd = sum(c.isdigit() for c in txt)
        cs = txt.count(" ")
        co = len(txt) - cl - cd - cs
        n = len(txt)
        h = math.log(n) - sum(c * math.log(c) for c in
                              (cl, cd, cs, co) if c > 0) / n
        assert abs(t.loc[lang, "entropy"] - h) < 1e-12
        assert t.loc[lang, "n_chars"] == n
    assert (t.entropy >= 0).all() and (t.entropy <= math.log(4) + 1e-12).all()


# --------------------------------------------------------------------- q119

def test_median_interarrival_matches_pandas(ray_session):
    from warc_ray.pipelines.analytics import median_interarrival

    t = median_interarrival(SF).to_pandas().set_index("user_id")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_id", "ts"]).to_pandas()
    ev["ts_us"] = ev.ts.astype("int64")
    ev = ev.sort_values(["user_id", "ts_us", "event_id"])
    ref = ev.groupby("user_id").ts_us.apply(
        lambda s: s.diff().dropna().median())
    ref = ref.dropna()
    assert set(t.index) == set(ref.index)
    for u in ref.index:
        assert t.loc[u, "median_gap_us"] == ref.loc[u]


# --------------------------------------------------------------------- q122

def test_bm25_matches_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import (BM25_TERMS, BM25_TOPK,
                                              bm25_topk)
    import math

    t = bm25_topk(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    toks = docs.text.str.split(" ")
    n = len(docs)
    dls = toks.map(len)
    avgdl = float(dls.sum()) / float(n)
    scores = {}
    for term in BM25_TERMS:
        tf = toks.map(lambda ws, term=term: sum(w == term for w in ws))
        df = int((tf > 0).sum())
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for d, f, dl in zip(docs.doc_id, tf, dls):
            norm = 1.2 * (0.25 + 0.75 * (float(dl) / avgdl))
            scores[d] = scores.get(d, 0.0) + idf * (
                (2.2 * float(f)) / (float(f) + norm))
    ranked = sorted(((s, d) for d, s in scores.items() if s > 0),
                    key=lambda x: (-x[0], x[1]))[:BM25_TOPK]
    assert list(t.doc_id) == [d for _, d in ranked]
    for got, (s, _) in zip(t.score, ranked):
        assert abs(got - s) < 1e-9


# --------------------------------------------------------------------- q123

def test_event_transitions_probabilities(ray_session):
    from warc_ray.pipelines.analytics import event_transitions

    t = event_transitions(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_id", "ts",
                                "event_type"]).to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    prev = ev.groupby("user_id").event_type.shift()
    ref = pd.DataFrame({"prev_type": prev, "next_type": ev.event_type}) \
        .dropna().value_counts().rename("n").reset_index()
    m = t.merge(ref, on=["prev_type", "next_type"], suffixes=("", "_ref"))
    assert len(m) == len(t) == len(ref)
    assert (m.n == m.n_ref).all()
    # rows of the transition matrix sum to 1 exactly in count space
    g = t.groupby("prev_type")
    assert np.allclose(g.p.sum(), 1.0)


# --------------------------------------------------------------------- q124

def test_sliding_distinct_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import sliding_distinct_users

    t = sliding_distinct_users(SF).to_pandas().set_index("day")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    ev["day"] = ev.ts.astype("int64") // 86_400_000_000
    observed = sorted(ev.day.unique())
    for d in observed:
        users = ev[(ev.day >= d - 6) & (ev.day <= d)].user_id.nunique()
        iso = str(np.datetime64(int(d) * 86_400, "s"))[:10]
        assert t.loc[iso, "u7"] == users
    assert len(t) == len(observed)


# --------------------------------------------------------------------- q126

def test_above_avg_orders_reference(ray_session):
    from warc_ray.pipelines.analytics import above_avg_orders

    t = above_avg_orders(SF).to_pandas().set_index("c_mktsegment")
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_custkey", "o_totalprice"]) \
        .to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"]).to_pandas()
    orders["cents"] = (orders.o_totalprice * 100).round().astype("int64")
    st = orders.groupby("o_custkey").cents.agg(["sum", "count"])
    j = orders.join(st, on="o_custkey")
    kept = j[j.cents * j["count"] > j["sum"]]
    kept = kept.merge(cust, left_on="o_custkey", right_on="c_custkey")
    ref = kept.groupby("c_mktsegment").agg(
        n_orders=("cents", "size"), total_cents=("cents", "sum"))
    assert set(t.index) == set(ref.index)
    for seg in ref.index:
        assert t.loc[seg, "n_orders"] == ref.loc[seg, "n_orders"]
        assert t.loc[seg, "total"] == ref.loc[seg, "total_cents"] / 100.0


# --------------------------------------------------------------------- q128

def test_source_lang_lift_marginals(ray_session):
    from warc_ray.pipelines.analytics import source_lang_lift

    t = source_lang_lift(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "lang"]).to_pandas()
    assert t.n.sum() == len(docs)
    # expected = row_total * col_total / grand_total, cell by cell
    row = docs.groupby("source").size()
    col = docs.groupby("lang").size()
    for _, r in t.iterrows():
        exp = float(row[r.source]) * float(col[r.lang]) / float(len(docs))
        assert abs(r.expected - exp) < 1e-12
    assert np.allclose(t.lift * t.expected, t.n)


# --------------------------------------------------------------------- q129

def test_skyline_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import part_skyline

    t = part_skyline(SF).to_pandas()
    parts = pq.read_table(f"{SF}/part.parquet",
                          columns=["p_partkey", "p_retailprice",
                                   "p_size"]).to_pandas()
    parts["cents"] = (parts.p_retailprice * 100).round().astype("int64")
    c = parts.cents.to_numpy()
    s = parts.p_size.to_numpy().astype("int64")
    keep = []
    for i in range(len(parts)):
        dom = ((c <= c[i]) & (s >= s[i]) & ((c < c[i]) | (s > s[i])))
        if not dom.any():
            keep.append(parts.p_partkey.iloc[i])
    assert sorted(t.p_partkey) == sorted(keep)
    # every output row is undominated by every other output row
    for i in range(len(t)):
        for j in range(len(t)):
            if i == j:
                continue
            assert not (t.price.iloc[j] <= t.price.iloc[i]
                        and t.p_size.iloc[j] >= t.p_size.iloc[i]
                        and (t.price.iloc[j] < t.price.iloc[i]
                             or t.p_size.iloc[j] > t.p_size.iloc[i]))


def test_skyline_combiner_law(ray_session):
    """skyline(skyline(A) ∪ skyline(B)) == skyline(A ∪ B) on random
    splits — the property the per-block combiner relies on."""
    from warc_ray.pipelines.analytics import part_skyline  # noqa: F401
    import warc_ray.pipelines.analytics as an

    rng = np.random.RandomState(7)
    c = rng.randint(0, 50, size=400).astype(np.int64)
    s = rng.randint(0, 50, size=400).astype(np.int64)

    def sky(cc, ss):
        # reuse the module's vectorized local pass via part_skyline's
        # inner algorithm re-derived brute force here
        keep = np.ones(len(cc), dtype=bool)
        for i in range(len(cc)):
            dom = ((cc <= cc[i]) & (ss >= ss[i])
                   & ((cc < cc[i]) | (ss > ss[i])))
            keep[i] = not dom.any()
        return keep

    whole = sky(c, s)
    half = 200
    ka, kb = sky(c[:half], s[:half]), sky(c[half:], s[half:])
    cc = np.concatenate([c[:half][ka], c[half:][kb]])
    ss = np.concatenate([s[:half][ka], s[half:][kb]])
    kk = sky(cc, ss)
    got = sorted(zip(cc[kk], ss[kk]))
    want = sorted(zip(c[whole], s[whole]))
    assert got == want


# --------------------------------------------------------------------- q130

def test_regression_matches_numpy(ray_session):
    from warc_ray.pipelines.analytics import lineitem_regression

    t = lineitem_regression(SF).to_pandas().set_index("l_returnflag")
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_returnflag", "l_quantity",
                                "l_extendedprice"]).to_pandas()
    li["y"] = (li.l_extendedprice * 100).round()
    li["x"] = li.l_quantity.round()
    for flag, g in li.groupby("l_returnflag"):
        slope, icept = np.polyfit(g.x, g.y, 1)
        assert abs(t.loc[flag, "slope_cents_per_qty"] - slope) < \
            1e-6 * max(1.0, abs(slope))
        assert abs(t.loc[flag, "intercept_cents"] - icept) < \
            1e-6 * max(1.0, abs(icept))
        assert t.loc[flag, "n"] == len(g)


# --------------------------------------------------------------------- q131

def test_scd2_reference(ray_session):
    from warc_ray.pipelines.analytics import scd2_user_state

    t = scd2_user_state(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_id", "ts",
                                "event_type"]).to_pandas()
    ev["us"] = ev.ts.astype("int64")
    ev = ev.sort_values(["user_id", "us", "event_id"])
    OPEN = 2**63 - 1
    rows = []
    for u, g in ev.groupby("user_id"):
        runs = []
        for _, r in g.iterrows():
            if not runs or runs[-1]["event_type"] != r.event_type:
                runs.append({"user_id": u, "event_type": r.event_type,
                             "valid_from_us": r.us, "n_events": 0,
                             "first_event_id": r.event_id})
            runs[-1]["n_events"] += 1
        for a, b in zip(runs, runs[1:]):
            a["valid_to_us"], a["is_current"] = b["valid_from_us"], 0
        runs[-1]["valid_to_us"], runs[-1]["is_current"] = OPEN, 1
        rows.extend(runs)
    ref = pd.DataFrame(rows).sort_values(
        ["user_id", "valid_from_us"]).reset_index(drop=True)
    got = t.sort_values(["user_id", "valid_from_us"]).reset_index(drop=True)
    assert len(got) == len(ref)
    for col in ("user_id", "event_type", "valid_from_us", "valid_to_us",
                "is_current", "n_events", "first_event_id"):
        assert (got[col].to_numpy() == ref[col].to_numpy()).all(), col
    # intervals tile each user's timeline: next from == prev to
    for u, g in got.groupby("user_id"):
        g = g.sort_values("valid_from_us")
        assert (g.valid_to_us.iloc[:-1].to_numpy()
                == g.valid_from_us.iloc[1:].to_numpy()).all()
        assert g.is_current.iloc[-1] == 1 and g.valid_to_us.iloc[-1] == OPEN


# --------------------------------------------------------------------- q132

def test_embedding_covariance_matches_numpy(ray_session):
    from warc_ray.pipelines.analytics import embedding_covariance

    t = embedding_covariance(SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["embedding"]).to_pandas()
    x = np.stack([np.asarray(v, dtype=np.float64) for v in emb.embedding])
    xm = np.floor(x * 1000.0)
    cov = np.cov(xm, rowvar=False, bias=True)      # population covariance
    d = xm.shape[1]
    assert len(t) == d * (d + 1) // 2
    for _, r in t.iterrows():
        want = cov[int(r.i) - 1, int(r.j) - 1]
        assert abs(r.cov_milli2 - want) < 1e-6 * max(1.0, abs(want))
    # diagonal is a variance: non-negative
    diag = t[t.i == t.j]
    assert (diag.cov_milli2 >= 0).all() and len(diag) == d


# --------------------------------------------------------------------- q133

def test_lineitem_profile_matches_pandas(ray_session):
    from warc_ray.pipelines.analytics import lineitem_profile

    t = lineitem_profile(SF).to_pandas().set_index("col_name")
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    for c in ("l_quantity", "l_extendedprice", "l_discount"):
        assert t.loc[c, "n"] == len(li)
        assert t.loc[c, "n_null"] == li[c].isna().sum()
        assert t.loc[c, "n_distinct"] == li[c].nunique()
        assert t.loc[c, "min_num"] == li[c].min()
        assert t.loc[c, "max_num"] == li[c].max()
    for c in ("l_returnflag", "l_linestatus"):
        assert t.loc[c, "n_distinct"] == li[c].nunique()
        assert t.loc[c, "min_str"] == li[c].min()
        assert t.loc[c, "max_str"] == li[c].max()


# --------------------------------------------------------------------- q134

def test_trimmed_mean_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import trimmed_mean_value

    t = trimmed_mean_value(SF).to_pandas().set_index("event_type")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    ev["milli"] = np.floor(ev.value * 1000.0).astype("int64")
    for ty, g in ev.groupby("event_type"):
        v = np.sort(g.milli.to_numpy())
        n = len(v)
        lo = n * 5 // 100
        mid = v[lo:n - lo]
        want = mid.sum() / (1000.0 * len(mid))
        assert t.loc[ty, "n"] == n
        assert t.loc[ty, "n_kept"] == len(mid)
        assert abs(t.loc[ty, "trimmed_mean"] - want) < 1e-12
    # trimmed mean is between min and max of the kept values
    assert (t.n_kept <= t.n).all()


# --------------------------------------------------------------------- q135

def test_triangle_count_known_graph(ray_session, tmp_path):
    from warc_ray.pipelines.analytics import triangle_count

    # two triangles sharing node 2 plus a pendant edge; includes a
    # reversed duplicate, a repeated link, and a self-loop that the
    # canonicalization must drop
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5),
             (1, 0), (2, 3), (3, 3)]
    by_src: dict = {}
    for s, d in edges:
        by_src.setdefault(s, []).append(d)
    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])
    rows = {"doc_id": [], "spans": [], "bucket": []}
    for s in range(6):
        rows["doc_id"].append(f"doc-{s}")
        rows["spans"].append([
            {"kind": "link", "text": "t",
             "media_ref": f"http://h.example/doc/{d}", "offset": i}
            for i, d in enumerate(by_src.get(s, []))])
        rows["bucket"].append(0)
    t = pa.table({"doc_id": pa.array(rows["doc_id"]),
                  "spans": pa.array(rows["spans"], type=pa.list_(span_t)),
                  "bucket": pa.array(rows["bucket"], type=pa.int32())})
    import pyarrow.parquet as pqw
    d = tmp_path / "docs"
    d.mkdir()
    pqw.write_table(t, str(d / "part-0.parquet"))

    out = triangle_count(str(d)).to_pandas().iloc[0]
    assert out.n_edges == 7
    assert out.n_triangles == 2
    assert out.n_wedges == 12          # sum C(deg,2): 1+1+6+1+3+0
    assert out.clustering == 3.0 * 2 / 12


# --------------------------------------------------------------------- q136

def test_equidepth_histogram_laws(ray_session):
    from warc_ray.pipelines.analytics import equidepth_histogram

    t = equidepth_histogram(SF).to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_extendedprice"]).to_pandas()
    cents = np.sort((li.l_extendedprice * 100).round().astype("int64"))
    n, k = len(cents), len(t)
    assert t.n.sum() == n
    # NTILE size rule: first n%k buckets one bigger
    base, extra = divmod(n, k)
    assert list(t.n) == [base + (1 if b < extra else 0) for b in range(k)]
    # boundaries are the exact order statistics of the rank ranges
    r0 = 0
    for _, r in t.iterrows():
        seg = cents[r0:r0 + r.n]
        assert r.lo_cents == seg[0] and r.hi_cents == seg[-1]
        assert r.sum_cents == seg.sum()
        r0 += r.n
    # buckets are non-decreasing in value
    assert (t.lo_cents.to_numpy()[1:] >= t.hi_cents.to_numpy()[:-1] - 0).all()


# --------------------------------------------------------------------- q137

def test_time_travel_consistency(ray_session):
    from warc_ray.pipelines.analytics import merge_upsert, time_travel_orders
    import hashlib

    now = merge_upsert(SF).to_pandas().set_index("o_orderkey")
    asof = time_travel_orders(SF, version=2).to_pandas() \
        .set_index("o_orderkey")
    base = pq.read_table(f"{SF}/orders.parquet",
                         columns=["o_orderkey"]).to_pandas()
    # as-of v2 sees every key (deletes are v3), latest state ≤ v2
    assert len(asof) == len(base)
    for k in base.o_orderkey:
        h = hashlib.md5(str(int(k)).encode()).hexdigest()
        want_v = 2 if h[0] in "0123" else 1
        assert asof.loc[k, "version"] == want_v
        if h[1] in "01":
            assert k not in now.index          # deleted at head
        else:
            # un-deleted keys agree between head and as-of reads
            assert now.loc[k, "version"] == asof.loc[k, "version"]
            assert now.loc[k, "price_cents"] == asof.loc[k, "price_cents"]


# --------------------------------------------------------------------- q138

def test_join_cardinality_bounds(ray_session):
    from warc_ray.pipelines.analytics import join_cardinality

    t = join_cardinality(SF).to_pandas().iloc[0]
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_partkey"]).to_pandas()
    vc = li.l_partkey.value_counts()
    assert t.n_keys == len(vc)
    assert t.exact_join_size == int((vc.astype("int64") ** 2).sum())
    # CMS inner product never under-estimates a self-join size
    assert t.cms_estimate >= t.exact_join_size
    assert t.err_ppm >= 0
    # error bound: E[excess] <= F1^2 / W per row; min over D rows
    # stays within a loose 10x of that at this scale
    f1 = len(li)
    assert t.cms_estimate - t.exact_join_size <= 10 * f1 * f1 // 8192 + 1


# ------------------------------------------------------- partition laws

def test_scd2_partition_invariance(ray_session):
    from warc_ray.pipelines.analytics import scd2_user_state

    a = scd2_user_state(SF, npart=4).to_pandas()
    b = scd2_user_state(SF, npart=32).to_pandas()
    key = ["user_id", "valid_from_us"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_triangle_partition_invariance(ray_session, tmp_path):
    from warc_ray.pipelines.analytics import triangle_count

    rng = np.random.RandomState(11)
    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])
    rows = {"doc_id": [], "spans": [], "bucket": []}
    for s in range(40):
        dsts = rng.choice(40, size=rng.randint(0, 6), replace=False)
        rows["doc_id"].append(f"doc-{s}")
        rows["spans"].append([
            {"kind": "link", "text": "t",
             "media_ref": f"http://h.example/doc/{d}", "offset": i}
            for i, d in enumerate(dsts)])
        rows["bucket"].append(0)
    t = pa.table({"doc_id": pa.array(rows["doc_id"]),
                  "spans": pa.array(rows["spans"], type=pa.list_(span_t)),
                  "bucket": pa.array(rows["bucket"], type=pa.int32())})
    import pyarrow.parquet as pqw
    d = tmp_path / "docs"
    d.mkdir()
    pqw.write_table(t, str(d / "part-0.parquet"))

    a = triangle_count(str(d), nparts=2).to_pandas()
    b = triangle_count(str(d), nparts=16).to_pandas()
    pd.testing.assert_frame_equal(a, b)
    # web-scale fallback: dense_max_nodes=0 forces the two-exchange
    # degree JOIN instead of the dense broadcast — identical output
    c = triangle_count(str(d), nparts=16, dense_max_nodes=0).to_pandas()
    pd.testing.assert_frame_equal(a, c)


# --------------------------------------------------------------------- q139

def test_zorder_range_parity_and_pruning(ray_session):
    from warc_ray.pipelines.analytics import zorder_range_scan

    t = zorder_range_scan(SF).to_pandas().set_index("event_type")
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["day"] = ev.ts.astype("int64") // 86_400_000_000
    box = ev[(ev.day >= 19728) & (ev.day <= 19732)
             & (ev.user_id >= 3) & (ev.user_id <= 9)]
    ref = box.groupby("event_type").agg(
        n=("value", "size"),
        sum_milli=("value", lambda v: int(np.floor(v * 1000.0).sum())))
    assert len(box) > 0                       # band must be non-trivial
    assert set(t.index) == set(ref.index)
    for ty in ref.index:
        assert t.loc[ty, "n"] == ref.loc[ty, "n"]
        assert t.loc[ty, "sum_milli"] == ref.loc[ty, "sum_milli"]
    # the z-order layout prunes: row groups read < total row groups
    # (sf0.001 fits one 2048-row group, so assert at sf0.01 where the
    # layout has several)
    zorder_range_scan("/root/testdata/sf0.01")
    kept, total = zorder_range_scan.last_pruning
    assert total > 1 and kept < total


# --------------------------------------------------------------------- q140

def test_private_count_debiasing(ray_session):
    from warc_ray.pipelines.analytics import private_purchase_count
    import hashlib

    t = private_purchase_count(SF).to_pandas().iloc[0]
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "event_type"]).to_pandas()
    true_n = int((ev.event_type == "purchase").sum())
    assert t.n == len(ev) and t.true_n == true_n
    # reconstruct the reports with the same md5 coins
    obs = 0
    for eid, ty in zip(ev.event_id, ev.event_type):
        truth = ty == "purchase"
        coin = hashlib.md5(str(eid).encode()).hexdigest()[0] <= "b"
        obs += int(truth if coin else not truth)
    assert t.observed == obs
    assert t.estimate == (4 * obs - len(ev)) / 2.0
    assert t.err == t.estimate - true_n
    # debiasing is plausible: error within 5 binomial sigmas
    sigma = np.sqrt(len(ev) * 0.25 * 0.75) / 0.5
    assert abs(t.err) <= 5 * sigma


# ------------------------------------------------------- property tests

def test_interleave16_injective_and_monotone():
    from warc_ray.pipelines.analytics import _interleave16
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1),
                              st.integers(0, 2**16 - 1)),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def prop(pairs):
        a = np.array([p[0] for p in pairs], np.uint16)
        b = np.array([p[1] for p in pairs], np.uint16)
        z = _interleave16(a, b)
        # injective: distinct (a,b) -> distinct z
        assert len(set(zip(a.tolist(), b.tolist()))) == \
            len(set(z.tolist()))
        # monotone in each dim with the other fixed
        za = _interleave16(a, np.zeros_like(b))
        order = np.argsort(a, kind="stable")
        assert (np.diff(za[order].astype(np.int64))
                [np.diff(a[order].astype(np.int64)) > 0] > 0).all()

    prop()


def test_local_skyline_matches_bruteforce_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # re-derive the module's vectorized local skyline via a tiny call
    def vect(cents, size):
        import warc_ray.pipelines.analytics as an
        NEG = np.iinfo(np.int64).min
        n = len(cents)
        order = np.lexsort((-size, cents))
        c, s = cents[order], size[order]
        new_seg = np.concatenate(([True], c[1:] != c[:-1]))
        seg_id = np.cumsum(new_seg) - 1
        seg_start = np.flatnonzero(new_seg)
        runmax = np.maximum.accumulate(s)
        prev_end = seg_start[seg_id] - 1
        prev_max = np.where(prev_end >= 0, runmax[np.maximum(prev_end, 0)],
                            NEG)
        seg_max = s[seg_start][seg_id]
        keep_sorted = (s == seg_max) & (s > prev_max)
        keep = np.zeros(n, dtype=bool)
        keep[order] = keep_sorted
        return keep

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def prop(pts):
        c = np.array([p[0] for p in pts], np.int64)
        s = np.array([p[1] for p in pts], np.int64)
        got = vect(c, s)
        for i in range(len(pts)):
            dom = ((c <= c[i]) & (s >= s[i])
                   & ((c < c[i]) | (s > s[i]))).any()
            assert got[i] == (not dom)

    prop()


# --------------------------------------------------------------------- q141

def test_big_spenders_reference(ray_session):
    from warc_ray.pipelines.analytics import big_spenders

    t = big_spenders(SF).to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_custkey", "o_totalprice"]) \
        .to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    orders["cents"] = (orders.o_totalprice * 100).round().astype("int64")
    spend = orders.groupby("o_custkey").cents.sum()
    cust["total"] = cust.c_custkey.map(spend).fillna(0).astype("int64")
    keep = []
    for n_, g in cust.groupby("c_nationkey"):
        s, n = g.total.sum(), len(g)
        keep.extend(g[g.total * n > 2 * s].c_custkey)
    assert sorted(t.c_custkey) == sorted(keep)
    assert len(t) > 0


# --------------------------------------------------------------------- q142

def test_replica_repair_majority(ray_session):
    from warc_ray.pipelines.analytics import replica_repair
    import hashlib

    t = replica_repair(SF).to_pandas().iloc[0]
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey"]).to_pandas()
    bad = {r: 0 for r in range(3)}
    all_diff = 0
    for k in orders.o_orderkey:
        vals = []
        for r in range(3):
            flag = hashlib.md5(
                f"{int(k)}:{r}".encode()).hexdigest()[0] in "01"
            vals.append((r + 1) * 777 if flag else 0)  # offset only
        a, b, c = vals
        if a == b or a == c:
            rep = a
        elif b == c:
            rep = b
        else:
            rep = min(vals)
        if a != b and b != c and a != c:
            all_diff += 1
        for r in range(3):
            bad[r] += int(vals[r] != rep)
    assert t.n_keys == len(orders)
    for r in range(3):
        assert t[f"bad_r{r}"] == bad[r]
    assert t.n_all_diff == all_diff


# --------------------------------------------------------------------- q143

def test_revenue_rollup_geo_levels(ray_session):
    from warc_ray.pipelines.analytics import revenue_rollup_geo

    t = revenue_rollup_geo(SF).to_pandas()
    leaf = t[(t.r_name != "ALL") & (t.n_name != "ALL")]
    subs = t[(t.r_name != "ALL") & (t.n_name == "ALL")].set_index("r_name")
    grand = t[(t.r_name == "ALL")]
    assert len(grand) == 1
    # every region subtotal equals the sum of its leaves
    for r, g in leaf.groupby("r_name"):
        assert abs(subs.loc[r, "total"] - g.total.sum()) < 1e-6
        assert subs.loc[r, "n_orders"] == g.n_orders.sum()
    # the grand total equals the sum of region subtotals
    assert abs(grand.total.iloc[0] - subs.total.sum()) < 1e-6
    assert grand.n_orders.iloc[0] == subs.n_orders.sum()
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey"]).num_rows
    assert grand.n_orders.iloc[0] == orders


# --------------------------------------------------------------------- q144

def test_max_concurrent_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import max_concurrent_sessions

    t = max_concurrent_sessions(SF).to_pandas().set_index("day")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    ev["us"] = ev.ts.astype("int64")
    gap = 30 * 60_000_000
    ivs = []
    for _, g in ev.sort_values(["user_id", "us"]).groupby("user_id"):
        us = g.us.to_numpy()
        start = us[0]
        prev = us[0]
        for x in us[1:]:
            if x - prev > gap:
                ivs.append((start, prev))
                start = x
            prev = x
        ivs.append((start, prev))
    DAY = 86_400_000_000
    pts = []
    for s, e in ivs:
        pts.append((s, 1))
        pts.append((e + 1, -1))
        for d in range(int(s // DAY) + 1, int((e + 1) // DAY) + 1):
            pts.append((d * DAY, 0))
    # group by us then prefix
    from collections import defaultdict
    net = defaultdict(int)
    for us_, n_ in pts:
        net[us_] += n_
    run = 0
    best = {}
    for us_ in sorted(net):
        run += net[us_]
        d = int(us_ // DAY)
        best[d] = max(best.get(d, 0), run)
    for d, m in best.items():
        iso = str(np.datetime64(d * 86_400, "s"))[:10]
        assert t.loc[iso, "max_concurrent"] == m
    assert len(t) == len(best)
    assert (t.max_concurrent >= 1).any()


# --------------------------------------------------------------------- q145

def test_weighted_median_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import weighted_median_price

    t = weighted_median_price(SF).to_pandas().set_index("l_returnflag")
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_returnflag", "l_extendedprice",
                                "l_quantity"]).to_pandas()
    li["cents"] = (li.l_extendedprice * 100).round().astype("int64")
    li["w"] = li.l_quantity.round().astype("int64")
    for flag, g in li.groupby("l_returnflag"):
        g = g.sort_values("cents")
        cum = g.w.cumsum()
        total = int(g.w.sum())
        med = int(g.cents[2 * cum >= total].iloc[0])
        assert t.loc[flag, "wmedian_cents"] == med
        assert t.loc[flag, "total_qty"] == total
        # the weighted median carries at least half the weight below+at
        assert int(g[g.cents <= med].w.sum()) * 2 >= total


# --------------------------------------------------------------------- q146

def test_drift_psi_laws(ray_session):
    from warc_ray.pipelines.analytics import drift_psi
    import math

    t = drift_psi(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "value"]).to_pandas()
    assert t.n_before.sum() + t.n_after.sum() == len(ev)
    # PSI total is the fixed-order sum of the terms
    assert t.psi_total.iloc[0] == sum(t.term.tolist())
    assert (t.psi_total == t.psi_total.iloc[0]).all()
    # identical halves would give PSI 0; a same-process split stays low
    assert 0 <= t.psi_total.iloc[0] < 0.25
    # smoothing: every term finite
    assert np.isfinite(t.term).all()
    # identity check of one term
    r = t.iloc[0]
    t0, t1 = t.n_before.sum(), t.n_after.sum()
    p = (2 * r.n_before + 1) / (2 * t0 + 10)
    q = (2 * r.n_after + 1) / (2 * t1 + 10)
    assert abs(r.term - (p - q) * math.log(p / q)) < 1e-15


def test_hierarchy_rollup_matches_sequential_walk(ray_session):
    """q159 pointer doubling == a driver-side sequential parent walk
    (root, depth, subtree aggregates), and is npart-invariant."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from warc_ray.pipelines.analytics import hierarchy_rollup

    t = pq.read_table(SF + "/part.parquet",
                      columns=["p_partkey", "p_retailprice"])
    keys = t["p_partkey"].to_numpy()
    cents = np.rint(t["p_retailprice"].to_numpy() * 100).astype(np.int64)

    def parent(k: int) -> int:
        h = int.from_bytes(
            hashlib.md5(str(k).encode()).digest()[:8], "big")
        return h % k

    exp = {}
    for k, c in zip(keys, cents):
        node, depth = int(k), 0
        while node >= 16:
            node, depth = parent(node), depth + 1
        n, s, d = exp.get(node, (0, 0, 0))
        exp[node] = (n + 1, s + int(c), max(d, depth))

    for npart in (4, 16):
        got = {r["root"]: (r["n_nodes"], r["sum_cents"], r["max_depth"])
               for b in hierarchy_rollup(SF, npart=npart)
               .iter_batches(batch_format="pyarrow")
               for r in b.to_pylist()}
        assert got == exp


def test_bloom_join_prune_invariance(ray_session):
    """q160: the Bloom prefilter must not change the join result —
    prune=True and prune=False byte-match (false positives survive to
    the exact join; false negatives are impossible)."""
    import pyarrow as pa

    from warc_ray.pipelines.analytics import bloom_pruned_join

    def run(**kw):
        return pa.concat_tables(
            bloom_pruned_join(SF, **kw).iter_batches(
                batch_format="pyarrow")).to_pylist()

    assert run(prune=True) == run(prune=False)
    assert run(prune=True, npart=4) == run(prune=True, npart=16)


def test_bloom_prefilter_drops_nonmembers(ray_session):
    """The bitmap really prunes: on disjoint keyspaces the probe keeps
    (almost) nothing, and members are never dropped."""
    import numpy as np

    from warc_ray.stages.sketch import (bloom_contains, bloom_merge,
                                        bloom_partial)

    members = np.arange(0, 50_000, dtype=np.int64)
    bits = bloom_merge([bloom_partial(members[:25_000]),
                        bloom_partial(members[25_000:])])
    assert bloom_contains(bits, members).all()          # no false negatives
    probe = np.arange(1_000_000, 1_050_000, dtype=np.int64)
    fpr = bloom_contains(bits, probe).mean()
    assert fpr < 0.05                                   # 128 KiB @ 50k keys


def test_lpm_enrich_matches_bruteforce(ray_session):
    """q161 vectorized level-probe LPM == a per-user brute-force scan
    of all 64 rules (max plen, then min rule id), aggregated in pandas."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from warc_ray.pipelines.analytics import lpm_enrich

    def h64(s: str) -> int:
        return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")

    rules = [(jj, 4 + (jj % 5) * 2, h64("rule-%d" % jj) & 0xFFFFFFFF)
             for jj in range(64)]

    def region_of(u: int) -> str:
        ip = h64(str(u)) & 0xFFFFFFFF
        best = None
        for jj, plen, pb in rules:
            if ip >> (32 - plen) == pb >> (32 - plen):
                cand = (-plen, jj)
                if best is None or cand < best:
                    best = cand
        return "none" if best is None else "r%d" % best[1]

    ev = pq.read_table(SF + "/events.parquet", columns=["user_id", "value"])
    users = ev["user_id"].to_numpy()
    cents = np.rint(ev["value"].to_numpy() * 100).astype(np.int64)
    exp = {}
    seen = {}
    for u, c in zip(users, cents):
        r = seen.setdefault(int(u), region_of(int(u)))
        n_u, n_e, s = exp.get(r, (set(), 0, 0))
        n_u.add(int(u))
        exp[r] = (n_u, n_e + 1, s + int(c))
    exp = {r: (len(us), n, s) for r, (us, n, s) in exp.items()}

    got = {row["region"]: (row["n_users"], row["n_events"], row["sum_cents"])
           for b in lpm_enrich(SF).iter_batches(batch_format="pyarrow")
           for row in b.to_pylist()}
    assert got == exp
    assert len(got) > 1            # rules actually match someone at t1


def test_windowed_pairs_matches_bruteforce(ray_session):
    """q165 searchsorted pairing == the O(n²) per-user brute force,
    and npart-invariant."""
    import numpy as np
    import pyarrow.parquet as pq

    from warc_ray.pipelines.analytics import windowed_pair_join

    ev = pq.read_table(SF + "/events.parquet",
                       columns=["user_id", "ts", "event_type"])
    u = ev["user_id"].to_numpy()
    ts = ev["ts"].cast("int64").to_numpy()
    et = np.asarray(ev["event_type"].to_pylist(), dtype=object)
    exp = {}
    clicks = [(int(a), int(b)) for a, b, t in zip(u, ts, et) if t == "click"]
    purch = [(int(a), int(b)) for a, b, t in zip(u, ts, et)
             if t == "purchase"]
    for cu, cts in clicks:
        for pu, pts in purch:
            if pu == cu and cts < pts <= cts + 3_600_000_000:
                d = cts // 86_400_000_000
                n, s = exp.get(d, (0, 0))
                exp[d] = (n + 1, s + (pts - cts))
    for npart in (3, 32):
        got = {r["day"]: (r["n_pairs"], r["sum_lag_us"]) for b in
               windowed_pair_join(SF, npart=npart)
               .iter_batches(batch_format="pyarrow")
               for r in b.to_pylist()}
        assert got == exp
    assert sum(n for n, _ in exp.values()) > 0


def test_windowed_pairs_never_cross_users(ray_session, tmp_path):
    """q165 pairs only one user's events, whatever the bucket's
    timestamp span: user 0 clicks 2^43 - 10 µs after user 1 purchases,
    both in one bucket, and no pair comes back."""
    from warc_ray.pipelines.analytics import windowed_pair_join

    t0 = 1_700_000_000_000_000
    pq.write_table(pa.table({
        "user_id": pa.array([1, 0], type=pa.int64()),
        "ts": pa.array([t0, t0 + (1 << 43) - 10], type=pa.timestamp("us")),
        "event_type": ["purchase", "click"],
    }), str(tmp_path / "events.parquet"))
    got = windowed_pair_join(str(tmp_path), npart=1).to_pandas()
    assert got.empty


def test_bootstrap_weights_and_ci(ray_session):
    """q166: pinned-threshold Poisson weights have the right first two
    moments, and the replicate CI brackets the point mean at t1."""
    import numpy as np

    from warc_ray.pipelines.analytics import _POIS_T, bootstrap_ci
    from warc_ray.stages.sketch import md5_prefix64

    h = md5_prefix64(["k|%d" % i for i in range(20000)])
    w = np.zeros(len(h), dtype=np.int64)
    for t in _POIS_T:
        w += h >= np.uint64(t)
    assert abs(w.mean() - 1.0) < 0.03          # E[w] = 1
    assert abs(w.var() - 1.0) < 0.05           # Var[w] = 1
    assert abs((w == 0).mean() - np.exp(-1)) < 0.01

    row = bootstrap_ci(SF).to_pylist()[0]
    assert row["boot_lo"] < row["mean_cents"] < row["boot_hi"]
    assert row["n_events"] == 1000


# --------------------------------------------------------------------- q169

def test_streaks_matches_bruteforce(ray_session):
    """q169 composite-key run detection == a per-user Python walk of
    sorted distinct days, and npart-invariant."""
    from warc_ray.pipelines.analytics import activity_streaks

    ev = pq.read_table(SF + "/events.parquet", columns=["user_id", "ts"])
    u = ev["user_id"].to_numpy()
    d = (ev["ts"].cast("int64").to_numpy() // 86_400_000_000)
    days = {}
    for uu, dd in zip(u, d):
        days.setdefault(int(uu), set()).add(int(dd))
    exp = {}
    for dset in days.values():
        ds_sorted = sorted(dset)
        best = run = 1
        for a, b in zip(ds_sorted, ds_sorted[1:]):
            run = run + 1 if b == a + 1 else 1
            best = max(best, run)
        exp[best] = exp.get(best, 0) + 1
    for npart in (3, 32):
        got = {r["streak_len"]: r["n_users"] for b in
               activity_streaks(SF, npart=npart)
               .iter_batches(batch_format="pyarrow")
               for r in b.to_pylist()}
        assert got == exp
    assert sum(exp.values()) == len(days)


# --------------------------------------------------------------------- q171

def test_cusum_finds_planted_break(ray_session, tmp_path):
    """q171 locates a planted level shift at the exact boundary day."""
    from warc_ray.pipelines.analytics import cusum_changepoint

    rows_day, rows_ts = [], []
    for d in range(30):
        n = 10 if d < 15 else 30
        for j in range(n):
            rows_ts.append((20000 + d) * 86_400_000_000 + j * 1_000_000)
    t = pa.table({
        "ts": pa.array(rows_ts, type=pa.timestamp("us")),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = cusum_changepoint(str(tmp_path)).to_pylist()[0]
    # brute force: stat_i = |S_i*n - total*i| maximal at the last
    # pre-break day (day index 14 -> day 20014)
    assert out["day_star"] == 20014
    assert out["n_days"] == 30 and out["total_events"] == 15 * 40
    assert out["pre_mean"] == 10.0 and out["post_mean"] == 30.0


# --------------------------------------------------------------------- q175

def test_pareto_cut_matches_sorted_walk(ray_session):
    """q175 histogram-class arithmetic == the explicit sorted-users
    prefix walk, and npart-invariant."""
    from warc_ray.pipelines.analytics import pareto_cut

    ev = pq.read_table(SF + "/events.parquet", columns=["user_id"])
    u = ev["user_id"].to_numpy()
    _, counts = np.unique(u, return_counts=True)
    counts = np.sort(counts)[::-1]
    total = int(counts.sum())
    needed = -((-total * 800_000) // 1_000_000)
    cum = np.cumsum(counts)
    k = int(np.searchsorted(cum, needed) + 1)
    covered = int(cum[k - 1])
    for npart in (3, 32):
        out = pareto_cut(SF, npart=npart).to_pylist()[0]
        assert out["k_users"] == k
        assert out["covered_events"] == covered
        assert out["total_events"] == total
        assert out["n_users"] == counts.size
        assert out["coverage_ppm"] == covered * 1_000_000 // total


# --------------------------------------------------------------------- q176

def test_bom_matches_sequential_walk(ray_session):
    """q176 semiring pointer doubling == a sequential per-node walk
    multiplying edge quantities, and npart-invariant."""
    from warc_ray.pipelines.analytics import bom_explosion
    from warc_ray.stages.sketch import md5_prefix64

    parts = pq.read_table(SF + "/part.parquet",
                          columns=["p_partkey", "p_retailprice"])
    keys = parts["p_partkey"].to_numpy()
    cents = np.rint(parts["p_retailprice"].to_numpy() * 100).astype(np.int64)

    def parent(k):
        return int(md5_prefix64([str(k)])[0] % np.uint64(k))

    def qty(k):
        return 1 + int(md5_prefix64(["q|%d" % k])[0] % np.uint64(2))

    exp = {}
    for k, c in zip(keys, cents):
        node, units = int(k), 1
        while node >= 16:
            units *= qty(node)
            node = parent(node)
        n, u, e = exp.get(node, (0, 0, 0))
        exp[node] = (n + 1, u + units, e + units * int(c))
    for npart in (5, 16):
        got = {r["root"]: (r["n_components"], r["total_units"],
                           r["ext_cost_cents"]) for b in
               bom_explosion(SF, npart=npart)
               .iter_batches(batch_format="pyarrow")
               for r in b.to_pylist()}
        assert got == exp


# --------------------------------------------------------------------- q179

def test_pca_label_map_matches_numpy(ray_session):
    """q179 distributed Gram/label partials == a direct numpy PCA on
    the same quantized matrix (rows-only query; this is the gate)."""
    from warc_ray.pipelines.analytics import pca_label_map

    emb = pq.read_table(SF + "/embeddings.parquet",
                        columns=["embedding", "label"])
    x = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
    xm = np.floor(x * 1000.0)
    lab = emb["label"].to_numpy()
    mu = xm.mean(axis=0)
    c = (xm - mu).T @ (xm - mu) / len(xm)
    evals, evecs = np.linalg.eigh(c)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    pcs = []
    for k in range(2):
        v = evecs[:, k]
        pin = int(np.argmax(np.abs(v)))
        pcs.append(v if v[pin] > 0 else -v)
    out = pca_label_map(SF).to_pylist()
    assert [r["label"] for r in out] == sorted(set(int(v) for v in lab))
    for r in out:
        m = lab == r["label"]
        assert r["n"] == int(m.sum())
        mean_vec = xm[m].mean(axis=0) - mu
        assert abs(r["mean_pc1"] - float(pcs[0] @ mean_vec)) < 1e-6
        assert abs(r["mean_pc2"] - float(pcs[1] @ mean_vec)) < 1e-6
        assert abs(r["var_explained_pc1"]
                   - evals[0] / np.trace(c)) < 1e-9
    # the map separates: PC1 explains the most variance
    assert out[0]["var_explained_pc1"] >= out[0]["var_explained_pc2"]


# --------------------------------------------------------------------- q181

def test_merkle_walk_matches_flat_compare(ray_session):
    """q181 tree walk finds exactly the flat-compare leaf set and
    visits O(diff·log) nodes, and the planted divergence is there."""
    from warc_ray.pipelines.analytics import (_MERKLE_LEAVES,
                                              merkle_diff)
    from warc_ray.stages.sketch import md5_prefix64

    out = merkle_diff(SF).to_pylist()
    leaves = [r["leaf"] for r in out]
    # flat recompute of the expected differing-leaf set
    orders = pq.read_table(SF + "/orders.parquet",
                           columns=["o_orderkey", "o_totalprice"])
    k = orders["o_orderkey"].to_numpy()
    cents = np.rint(orders["o_totalprice"].to_numpy() * 100).astype(np.int64)
    mut = md5_prefix64(["mut|%d" % int(x) for x in k]) % np.uint64(97)
    exp = set()
    dig = np.zeros((2, _MERKLE_LEAVES), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for kk, cc, mm in zip(k, cents, mut):
            leaf = int(kk) % _MERKLE_LEAVES
            dig[0, leaf] += md5_prefix64(["%d|%d" % (kk, cc)])[0]
            if mm != 1:
                c2 = cc + 1 if mm == 0 else cc
                dig[1, leaf] += md5_prefix64(["%d|%d" % (kk, c2)])[0]
    exp = [i for i in range(_MERKLE_LEAVES) if dig[0, i] != dig[1, i]]
    assert leaves == exp
    assert len(exp) > 0
    # visit bound: root-to-leaf paths of differing nodes only
    import math
    depth = int(math.log2(_MERKLE_LEAVES))
    assert merkle_diff._visited <= 2 * (len(exp) + 1) * (depth + 1)
    for r in out:
        assert r["rows_b"] <= r["rows_a"]


# ------------------------------------------------------------ q198/q200/q203

def test_watermark_audit_matches_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import watermark_audit

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "event_type"]) \
        .to_pandas().sort_values("event_id")
    t = ev.ts.astype("int64").to_numpy()
    pm = np.concatenate(([np.iinfo(np.int64).min],
                         np.maximum.accumulate(t)[:-1]))
    has = np.arange(len(t)) > 0
    late = has & (pm > t)
    lag = np.where(late, pm - t, 0)
    df = pd.DataFrame({"et": ev.event_type.to_numpy(),
                       "has": has, "late": late, "lag": lag})
    want = df.groupby("et").agg(n_with_pred=("has", "sum"),
                                n_late=("late", "sum"),
                                max_lag_us=("lag", "max"),
                                sum_lag_us=("lag", "sum"))
    got = watermark_audit(SF, npart=7).to_pandas() \
        .set_index("event_type")
    for et, w in want.iterrows():
        g = got.loc[et]
        assert (g.n_with_pred, g.n_late, g.max_lag_us, g.sum_lag_us) \
            == (w.n_with_pred, w.n_late, w.max_lag_us, w.sum_lag_us)


@pytest.mark.parametrize("npart", [3, 32])
def test_monetary_unit_sample_matches_bruteforce(ray_session, npart):
    from warc_ray.pipelines.analytics import _MUS_STEP, monetary_unit_sample

    o = pq.read_table(f"{SF}/orders.parquet",
                      columns=["o_orderkey", "o_totalprice"]) \
        .to_pandas().sort_values("o_orderkey")
    c = np.rint(o.o_totalprice.to_numpy() * 100).astype(np.int64)
    cum = np.cumsum(c)
    probes = cum // _MUS_STEP - (cum - c) // _MUS_STEP
    sel = probes > 0
    assert sel.sum() > 1                         # non-vacuous fixture
    got = monetary_unit_sample(SF, npart=npart).to_pandas()
    assert got.o_orderkey.tolist() == o.o_orderkey.to_numpy()[sel].tolist()
    assert got.o_totalprice.tolist() == (c[sel] / 100.0).tolist()
    assert got.cum_cents.tolist() == cum[sel].tolist()
    assert got.n_probes.tolist() == probes[sel].tolist()


@pytest.mark.parametrize("npart", [3, 32])
def test_abc_classification_matches_bruteforce(ray_session, npart):
    from warc_ray.pipelines.analytics import abc_classification

    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_partkey", "l_extendedprice",
                                "l_discount"]).to_pandas()
    cents = np.rint(li.l_extendedprice.to_numpy() * 100).astype(np.int64)
    disc = np.rint(li.l_discount.to_numpy() * 100).astype(np.int64)
    li["r"] = cents * (100 - disc)
    pr = li.groupby("l_partkey", as_index=False).r.sum() \
        .sort_values(["r", "l_partkey"], ascending=[False, True])
    r = pr.r.to_numpy()
    total = int(r.sum())
    cum = np.cumsum(r)
    cls = np.where(cum <= (4 * total) // 5, "A",
                   np.where(cum <= (19 * total) // 20, "B", "C"))
    want = pd.DataFrame({"cls": cls, "r": r}).groupby("cls") \
        .agg(n_parts=("r", "size"), r=("r", "sum"))
    assert list(want.index) == ["A", "B", "C"]   # every class is hit
    got = abc_classification(SF, npart=npart).to_pandas().set_index("cls")
    assert list(got.index) == ["A", "B", "C"]
    for c, w in want.iterrows():
        g = got.loc[c]
        assert g.n_parts == w.n_parts
        assert g.revenue == w.r / 10_000.0
        assert g.share == w.r / float(total)


def test_ordered_scans_and_doubling_route_through_one_primitive(
        ray_session, monkeypatch):
    """q111, q198, q199 and q211 run their scan through
    ``exchange.range_scan``; q159 and q176 run their pointer doubling
    through ``analytics._forest_doubling``."""
    import collections

    from warc_ray.pipelines import analytics
    from warc_ray.stages import exchange

    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(exchange, "range_scan",
                        counting("range_scan", exchange.range_scan))
    monkeypatch.setattr(analytics, "_forest_doubling",
                        counting("doubling", analytics._forest_doubling))
    for fn, prim in [(analytics.streaming_windows, "range_scan"),
                     (analytics.watermark_audit, "range_scan"),
                     (analytics.monetary_unit_sample, "range_scan"),
                     (analytics.abc_classification, "range_scan"),
                     (analytics.hierarchy_rollup, "doubling"),
                     (analytics.bom_explosion, "doubling")]:
        calls.clear()
        fn(SF)
        assert calls == {prim: 1}, fn.__name__


# ------------------------------------------- _user_timeline (q90, q92, ...)

_DEFAULT = ("user_id", "ts", "event_id")
_BY_TYPE = ("user_id", "event_type", "ts", "event_id")


def _timeline_sf(tmp_path, n: int = 600, seed: int = 5):
    """(sf dir, events frame): ``events`` has 40 users, 3 types and
    only 4 distinct timestamps, so (user, ts) ties are everywhere;
    several row groups."""
    rng = np.random.default_rng(seed)
    ev = pa.table({
        "event_id": pa.array(rng.permutation(n), type=pa.int64()),
        "ts": pa.array(rng.integers(0, 4, n) * 1_000_000,
                       type=pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 40, n), type=pa.int64()),
        "event_type": pa.array(rng.choice(["click", "error", "view"], n)),
    })
    pq.write_table(ev, tmp_path / "events.parquet", row_group_size=97)
    df = ev.to_pandas()
    df["ts"] = df["ts"].astype("int64")
    return str(tmp_path), df


def _echo():
    """A bucket_fn that returns its rows with their position, a
    user-start flag and an id of this call (a closure, so Ray workers
    unpickle it without importing this module)."""
    def echo(g: pa.Table, starts) -> pa.Table:
        import uuid

        flag = np.zeros(g.num_rows, dtype=bool)
        if starts is not None:
            flag[starts] = True
        return g.append_column("pos", pa.array(np.arange(g.num_rows))) \
            .append_column("is_start", pa.array(flag)) \
            .append_column("call", pa.array([uuid.uuid4().hex] * g.num_rows))
    return echo


def _timeline_run(sf, monkeypatch, path, **kw) -> pd.DataFrame:
    from warc_ray.pipelines.analytics import _user_timeline
    from warc_ray.stages import exchange

    monkeypatch.setattr(exchange, "fits_one_block",
                        lambda n: path == "fold")
    out = _user_timeline(sf, ["event_id", "ts", "user_id", "event_type"],
                         _echo(), npart=3, **kw)
    assert ("Sort" in out.stats()) == (path == "exchange")
    return out.to_pandas()


@pytest.mark.parametrize("order", [_DEFAULT, _BY_TYPE, None])
@pytest.mark.parametrize("path", ["fold", "exchange"])
def test_user_timeline_colocates_and_sorts(ray_session, monkeypatch,
                                           tmp_path, order, path):
    """Each user's rows reach exactly one bucket call, every row once
    with ``ts`` as int64; with an order the rows arrive sorted by it
    and ``starts`` marks each user's first row — on the driver fold
    and on the groupby exchange."""
    sf, ev = _timeline_sf(tmp_path)
    got = _timeline_run(sf, monkeypatch, path, order=order)
    assert sorted(got.event_id) == sorted(ev.event_id)
    assert got.ts.dtype == np.int64
    assert got.merge(ev, on="event_id", suffixes=("", "_in")) \
        .eval("ts == ts_in and user_id == user_id_in").all()
    assert (got.groupby("user_id").call.nunique() == 1).all()
    assert got.call.nunique() <= 3
    if order is None:
        assert not got.is_start.any()
        return
    for _, call in got.groupby("call"):
        call = call.sort_values("pos")
        assert call.pos.tolist() == list(range(len(call)))
        keys = call[list(order)].to_records(index=False).tolist()
        assert keys == sorted(keys)
        u = call.user_id.to_numpy()
        first = np.concatenate(([True], u[1:] != u[:-1]))
        assert call.is_start.tolist() == first.tolist()


@pytest.mark.parametrize("path", ["fold", "exchange"])
def test_user_timeline_reduce_runs_before_tagging(ray_session, monkeypatch,
                                                  tmp_path, path):
    """``reduce`` sees each untagged batch and the partition follows
    its output: it drops the errors and merges user pairs (u // 2), and
    the merged users — which ``% 3`` would split had the raw ids been
    tagged — each still reach one call, sorted, with their starts."""
    sf, ev = _timeline_sf(tmp_path)

    def reduce(b: pa.Table) -> pa.Table:
        assert "part" not in b.column_names
        assert b["ts"].type == pa.int64()
        b = b.filter(pa.compute.not_equal(b["event_type"], "error"))
        return b.set_column(b.column_names.index("user_id"), "user_id",
                            pa.compute.divide(b["user_id"], 2))

    got = _timeline_run(sf, monkeypatch, path, reduce=reduce)
    want = ev[ev.event_type != "error"]
    assert sorted(got.event_id) == sorted(want.event_id)
    assert (got.groupby("user_id").call.nunique() == 1).all()
    assert sorted(got.user_id.unique()) == \
        sorted((want.user_id // 2).unique())
    for _, call in got.groupby("call"):
        call = call.sort_values("pos")
        u = call.user_id.to_numpy()
        assert (np.diff(u) >= 0).all()
        assert call.is_start.tolist() == \
            np.concatenate(([True], u[1:] != u[:-1])).tolist()


def test_user_timeline_empty_input(ray_session, tmp_path):
    """No events: the bucket function never runs and the result is an
    empty Dataset."""
    from warc_ray.pipelines.analytics import _user_timeline

    sf, ev = _timeline_sf(tmp_path)
    pq.write_table(pq.read_table(f"{sf}/events.parquet").slice(0, 0),
                   f"{sf}/events.parquet")

    def never(g, starts):
        raise AssertionError("bucket_fn called on empty input")

    for order in (_DEFAULT, None):
        out = _user_timeline(sf, ["event_id", "ts", "user_id"], never,
                             npart=4, order=order)
        assert out.count() == 0


def test_no_user_partition_outside_user_timeline():
    """``_user_timeline`` is the only analytics.py function that reads
    ``events`` and tags a ``user_id`` partition (``% npart`` or
    ``with_part(..., "user_id", ...)``)."""
    import ast
    import inspect

    from warc_ray.pipelines import analytics

    tree = ast.parse(inspect.getsource(analytics))
    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        consts = {n.value for n in nodes if isinstance(n, ast.Constant)}
        reads_events = any(
            isinstance(n, ast.Call) and getattr(n.func, "id", "") == "_pq"
            and ast.literal_eval(n.args[1]) == "events"
            for n in nodes if isinstance(n, ast.Call) and len(n.args) > 1
            and isinstance(n.args[1], ast.Constant))
        mod_npart = any(isinstance(n, ast.BinOp)
                        and isinstance(n.op, ast.Mod)
                        and getattr(n.right, "id", "") == "npart"
                        for n in nodes)
        hash_user = any(isinstance(n, ast.Call)
                        and getattr(n.func, "id", "") == "with_part"
                        and any(isinstance(a, ast.Constant)
                                and a.value == "user_id" for a in n.args)
                        for n in nodes)
        if reads_events and "user_id" in consts and (mod_npart or hash_user):
            found.append(fn.name)
    assert found == ["_user_timeline"]


# query → the order its _user_timeline call passes (None: no sort)
_TIMELINE_SITES = {
    "funnel": _DEFAULT, "debounce_events": _BY_TYPE,
    "cumulative_users": ("user_id", "day"),
    "session_trigrams": _DEFAULT, "last_touch_attribution": _DEFAULT,
    "median_interarrival": _DEFAULT, "event_transitions": _DEFAULT,
    "sliding_distinct_users": None,
    "retention_cohorts": ("user_id", "week"),
    "scd2_user_state": _DEFAULT, "windowed_pair_join": None,
    "activity_streaks": None, "pareto_cut": None,
    "time_weighted_avg": _DEFAULT, "lifecycle_audit": None,
    "ushape_attribution": _DEFAULT, "ewma_anomalies": _DEFAULT,
    "interval_union": ("user_id", "s", "e", "event_id"),
    "burst_audit": ("user_id", "ts"), "journey_paths": _DEFAULT,
    "bounce_rate": _DEFAULT, "type_run_lengths": _DEFAULT,
    "session_handoff": _DEFAULT, "survival_table": _DEFAULT,
    "error_recovery": _DEFAULT,
}


def test_user_event_queries_route_through_user_timeline(ray_session,
                                                        monkeypatch):
    """Every per-user event query runs exactly one ``_user_timeline``
    plan, with its own sort order (q92's by type, q200's by interval,
    q169's none)."""
    import inspect

    from warc_ray.pipelines import analytics

    real = analytics._user_timeline
    default = inspect.signature(real).parameters["order"].default
    orders = []

    def counting(*args, **kwargs):
        orders.append(kwargs.get("order", default))
        return real(*args, **kwargs)

    monkeypatch.setattr(analytics, "_user_timeline", counting)
    for name, order in _TIMELINE_SITES.items():
        orders.clear()
        res = getattr(analytics, name)(SF)
        if not isinstance(res, pa.Table):
            res.materialize()
        assert orders == [order], name


def test_interval_union_matches_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import interval_union

    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["s"] = ev.ts.astype("int64")
    cents = np.rint(ev.value.to_numpy() * 100).astype(np.int64)
    ev["e"] = ev.s + (60 + cents % 3540) * 1_000_000
    got = interval_union(SF, npart=5).to_pandas().set_index("user_id")
    for uid, g in ev.groupby("user_id"):
        ivs = sorted(zip(g.s, g.e))
        islands, cur_s, cur_e, covered = 0, None, None, 0
        for s, e in ivs:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                islands, cur_s, cur_e = islands + 1, s, e
            else:
                cur_e = max(cur_e, e)
        covered += cur_e - cur_s
        r = got.loc[uid]
        assert (r.n_intervals, r.n_islands, r.covered_us) == \
            (len(ivs), islands, covered)


def test_burst_audit_matches_bruteforce(ray_session):
    from warc_ray.pipelines.analytics import burst_audit

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    ev["t"] = ev.ts.astype("int64")
    peaks = {}
    for uid, g in ev.groupby("user_id"):
        t = np.sort(g.t.to_numpy())
        cnt = (np.searchsorted(t, t + 60_000_000, side="left")
               - np.searchsorted(t, t, side="left"))
        peaks[uid] = int(cnt.max())
    want = pd.Series(peaks).value_counts().sort_index()
    got = burst_audit(SF, npart=5).to_pandas() \
        .set_index("peak_60s").n_users
    assert got.to_dict() == want.to_dict()


# --------------------------------------------------------------------- q163

def test_q5_revenue_includes_first_day_of_window(ray_session, tmp_path):
    """TPC-H Q5's date window is [1995-01-01, 1996-01-01): an ASIA order
    dated exactly 1995-01-01 counts, ones a microsecond outside do not.
    q163 must equal its Q5_SQL oracle on tables built to probe both
    edges of the window."""
    import duckdb

    from warc_ray.oracle_sql.analytics import Q5_SQL
    from warc_ray.pipelines.analytics import local_supplier_revenue

    i32, i64, f64 = pa.int32(), pa.int64(), pa.float64()
    ts = pa.timestamp("us")
    tables = {
        "region": pa.table({"r_regionkey": pa.array([0, 1], i32),
                            "r_name": ["ASIA", "EUROPE"]}),
        "nation": pa.table({"n_nationkey": pa.array([0, 1, 2], i32),
                            "n_name": ["CHINA", "JAPAN", "FRANCE"],
                            "n_regionkey": pa.array([0, 0, 1], i32)}),
        "customer": pa.table({"c_custkey": pa.array([1, 2, 3], i64),
                              "c_nationkey": pa.array([0, 1, 2], i32)}),
        "supplier": pa.table({"s_suppkey": pa.array([1, 2, 3], i64),
                              "s_nationkey": pa.array([0, 1, 2], i32)}),
    }
    # (orderkey, custkey, orderdate): CHINA orders on and just before the
    # first day, JAPAN orders inside and on the exclusive end, FRANCE
    # (not ASIA) inside
    orders = [(1, 1, "1995-01-01T00:00:00"), (2, 1, "1994-12-31T23:59:59.999999"),
              (3, 2, "1995-06-30T00:00:00"), (4, 2, "1996-01-01T00:00:00"),
              (5, 3, "1995-03-01T00:00:00"), (6, 1, "1995-12-31T23:59:59")]
    tables["orders"] = pa.table({
        "o_orderkey": pa.array([o[0] for o in orders], i64),
        "o_custkey": pa.array([o[1] for o in orders], i64),
        "o_orderdate": pa.array(np.array([o[2] for o in orders],
                                         dtype="datetime64[us]"), ts)})
    # every order ships one line from its customer's nation's supplier
    # and one from a foreign supplier (dropped by the nation equality)
    okeys = [o[0] for o in orders for _ in range(2)]
    tables["lineitem"] = pa.table({
        "l_orderkey": pa.array(okeys, i64),
        "l_suppkey": pa.array([s for o in orders
                               for s in (o[1], o[1] % 3 + 1)], i64),
        "l_extendedprice": pa.array([100.0 * k + 0.25 for k in okeys], f64),
        "l_discount": pa.array([0.05, 0.02] * len(orders), f64)})
    for name, t in tables.items():
        pq.write_table(t, str(tmp_path / f"{name}.parquet"))

    got = local_supplier_revenue(str(tmp_path), npart=4).to_pandas()
    con = duckdb.connect()
    for name in tables:
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                    f"read_parquet('{tmp_path / name}.parquet')")
    want = con.execute(Q5_SQL).fetchdf()
    assert got.n_name.tolist() == want.n_name.tolist() == ["CHINA", "JAPAN"]
    # CHINA: orders 1 and 6 (the first-day order included)
    assert got.revenue.tolist() == want.revenue.tolist()
    assert want.revenue[0] == pytest.approx((100.25 + 600.25) * 0.95)


# the queries whose dimension joins go through exchange.lookup_join:
# query -> (function, oracle SQL)
LOOKUP_JOIN_QUERIES = {
    "q163": ("local_supplier_revenue", "Q5_SQL"),
    "q183": ("volume_shipping", "Q7_SQL"),
    "q184": ("national_market_share", "Q8_SQL"),
    "q185": ("returned_items", "Q10_SQL"),
    "q189": ("large_volume_customers", "Q18_SQL"),
    "q206": ("mutual_best", "MUTUAL_SQL"),
}


@pytest.mark.parametrize("path", ["broadcast", "exchange"])
@pytest.mark.parametrize("query", sorted(LOOKUP_JOIN_QUERIES))
def test_broadcast_join_queries_match_oracle(ray_session, monkeypatch,
                                             query, path):
    """Each ``lookup_join`` query equals its DuckDB oracle on both
    paths: "broadcast" keeps the size rule (sf0.001 dims fit one
    block), "exchange" patches ``fits_one_block`` to False, which also
    sends every bucket exchange down its sort-shuffle.  A spy on the
    broadcast kernel proves which path ran."""
    import duckdb

    from warc_ray.oracle_sql import analytics as oracles
    from warc_ray.pipelines import analytics
    from warc_ray.stages import exchange

    calls = []
    kernel = exchange._broadcast_join
    monkeypatch.setattr(exchange, "_broadcast_join",
                        lambda *a: calls.append(1) or kernel(*a))
    if path == "exchange":
        monkeypatch.setattr(exchange, "fits_one_block", lambda n: False)
    fn, sql = LOOKUP_JOIN_QUERIES[query]
    got = getattr(analytics, fn)(SF).to_pandas()
    assert bool(calls) == (path == "broadcast")

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    want = con.execute(getattr(oracles, sql)).fetchdf()
    assert len(want) > 0
    assert list(got.columns) == list(want.columns)
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# queries whose sf0.001 result is empty or has no matching row:
# query -> (function, oracle SQL, rows at sf0.001)
EMPTY_RESULT_QUERIES = {
    "q196": ("brand_triples", "TRIPLES_SQL", 0),
    "q205": ("collision_detector", "COLLISION_SQL", 0),
    "q251": ("bracket_revenue", "BRACKET_REVENUE_SQL", 1),
}


@pytest.mark.parametrize("query", sorted(EMPTY_RESULT_QUERIES))
def test_empty_results_match_oracle(ray_session, query):
    """At sf0.001 q196 and q205 find nothing and q251 matches no line
    item: each result still has its oracle's columns, and q251's
    ``revenue`` is NULL, as SQL's ``SUM`` over no row is."""
    import duckdb

    from warc_ray.oracle_sql import analytics as oracles
    from warc_ray.pipelines import analytics

    fn, sql, rows = EMPTY_RESULT_QUERIES[query]
    got = getattr(analytics, fn)(SF).to_pandas()
    con = duckdb.connect()
    for t in ("part", "lineitem", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    want = con.execute(getattr(oracles, sql)).fetchdf()
    assert len(got) == len(want) == rows
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    if query == "q251":
        assert got.n_lineitems[0] == 0 and pd.isna(got.revenue[0])
