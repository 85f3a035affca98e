"""Oracles of the crawl, archive and ingest queries that
``__ray_entry__`` defines.

Most read corpus artifacts beside the sf tables: the sf dir's
interleaved corpus, the single-process simulator's fetch log, and the
archive's CDX index.  Those oracles are functions of one :class:`CorpusPaths`;
``__ray_entry__.oracle_sql()`` builds the artifacts and passes it.
"""

from __future__ import annotations

from typing import NamedTuple

from ..stages.sketch import _EST_NUM, M
from . import md5h, splitmix64


class CorpusPaths(NamedTuple):
    docs_glob: str   # the corpus documents, '<corpus>/docs/*.parquet'
    corpus: str      # the corpus dir (seeds, robots)
    sim_log: str     # the simulator's fetch log of the corpus crawl
    warc_cdx: str    # the CDX parquet dir of the corpus archive
    n_hosts: int     # the corpus profile's host count


def _spans_src(p: CorpusPaths) -> str:
    return ("SELECT doc_id, UNNEST(spans) AS s FROM read_parquet('%s')"
            % p.docs_glob)


def _links_src(p: CorpusPaths) -> str:
    return ("SELECT s.media_ref AS url,"
            " CASE WHEN s.kind='link' THEN 5 ELSE 1 END AS priority,"
            " doc_id AS src_doc, s.\"offset\" AS src_offset"
            " FROM (%s) WHERE s.kind IN ('link','image','video')"
            % _spans_src(p))

def _body_lens(p: CorpusPaths) -> str:
    """CTE ``doc_len(i, body_len)``: each corpus doc's rendered-body
    length, from its spans (the span→HTML render is length-linear:
    text / <a href> / <img> / <video> templates)."""
    return f"""spans AS (
              SELECT doc_id, UNNEST(spans) AS s
              FROM read_parquet('{p.docs_glob}')
            ),
            doc_len AS (
              SELECT CAST(regexp_extract(doc_id, '(\\d+)$', 1) AS BIGINT) AS i,
                     SUM(CASE s.kind
                           WHEN 'text' THEN strlen(s.text)
                           WHEN 'link' THEN 15 + strlen(s.media_ref) + strlen(s.text)
                           WHEN 'image' THEN 12 + strlen(s.media_ref)
                           ELSE 14 + strlen(s.media_ref) END)
                     + COUNT(*) - 1 AS body_len
              FROM spans GROUP BY doc_id
            )"""


def _seed_body_lens(p: CorpusPaths) -> str:
    """``_body_lens`` plus CTE ``seed_docs(i)``: the doc index of each
    seed URL (inverting the RFC-3986 variants the seed table plants)."""
    return f"""{_body_lens(p)},
            seed_docs AS (
              SELECT CAST(regexp_extract(replace(url, '%64', 'd'),
                                         '/doc/(\\d+)', 1) AS BIGINT) AS i
              FROM read_parquet('{p.corpus}/seeds.parquet')
            )"""


# q91: degree histograms over the corpus link graph — distinct
# (src_doc, url) edges; zero-outlink docs land in out-degree 0
def degree_histogram(p: CorpusPaths) -> str:
    return f"""
            WITH links AS ({_links_src(p)}),
            e AS (SELECT DISTINCT src_doc, url FROM links),
            od AS (
              SELECT d.doc_id, COUNT(e.url) AS deg
              FROM read_parquet('{p.docs_glob}') d
              LEFT JOIN e ON e.src_doc = d.doc_id GROUP BY d.doc_id
            ),
            idg AS (SELECT url, COUNT(*) AS deg FROM e GROUP BY url),
            h AS (
              SELECT 'out' AS side, deg, COUNT(*) AS n FROM od GROUP BY deg
              UNION ALL
              SELECT 'in', deg, COUNT(*) FROM idg GROUP BY deg
            )
            SELECT side, CAST(deg AS BIGINT) AS degree,
                   CAST(n AS BIGINT) AS n
            FROM h ORDER BY side, degree"""


def extract_links(p: CorpusPaths) -> str:
    return _links_src(p) + " ORDER BY src_doc, src_offset, url"


# exact SQL twin of the HyperLogLog sketch (stages/sketch.py):
# md5-prefix-64 key hash, register = top 12 bits, rho = 53 -
# bit_length of the low 52 bits, S = sum 2^(53-rho) over all
# 4096 registers (absent ones contribute 2^53), raw estimate =
# one exact HUGEINT floor division; only the rarely-hit
# linear-counting branch calls double ln (same libm)
def hll_host_distinct(p: CorpusPaths) -> str:
    return f"""
            WITH links AS ({_links_src(p)}),
            u AS (
              SELECT DISTINCT
                     regexp_extract(url, '^https?://([^/:]+)', 1) AS host,
                     url
              FROM links
            ), h AS (
              SELECT host, {md5h('url')} AS hv FROM u
            ), rr AS (
              SELECT host, CAST(hv >> 52 AS BIGINT) AS reg,
                     CAST(hv & ((CAST(1 AS HUGEINT) << 52) - 1) AS BIGINT) AS w
              FROM h
            ), regs AS (
              SELECT host, reg,
                     MAX(CASE WHEN w = 0 THEN 53
                         ELSE 53 - length(bin(w)) END) AS rho
              FROM rr GROUP BY host, reg
            ), stats AS (
              SELECT host,
                     SUM(CAST(1 AS HUGEINT) << (53 - rho)) AS s_present,
                     COUNT(*) AS n_present
              FROM regs GROUP BY host
            ), est AS (
              SELECT host,
                     {_EST_NUM} // ((s_present
                        + ({M} - n_present) * (CAST(1 AS HUGEINT) << 53))
                        * 1000000000) AS raw,
                     {M} - n_present AS zeros
              FROM stats
            )
            SELECT host,
                   CAST(CASE WHEN raw * 2 <= 5 * {M} AND zeros > 0
                        THEN CAST(floor({M}.0 * ln({M}.0 / zeros)
                                        + 0.5) AS HUGEINT)
                        ELSE raw END AS BIGINT) AS est_distinct
            FROM est ORDER BY host"""


# q49 count-min: row-r bucket = (hex chars [8r, 8r+8) of ONE
# md5(url), read as an integer) mod 8192; probe sample =
# (chunk0 * 2^32 + chunk1) mod 97 == 0 — exactly the numpy
# md5_chunks_u32 arithmetic, so counters and min-estimates are
# value-exact
def cms_url_refs(p: CorpusPaths) -> str:
    return f"""
            WITH links AS ({_links_src(p)}),
            cnt AS (
              SELECT url, CAST(COUNT(*) AS HUGEINT) AS c
              FROM links GROUP BY url
            ), rs AS (SELECT * FROM (VALUES (0),(1),(2),(3)) t(r)),
            hb AS (
              SELECT url, r,
                     list_sum(list_transform(range(1, 9),
                       i -> CAST(strpos('0123456789abcdef',
                            substr(md5(url), CAST(8*r + i AS INTEGER), 1))
                            - 1 AS HUGEINT) << (4 * (8 - i)))) AS hv
              FROM cnt CROSS JOIN rs
            ),
            cells AS (
              SELECT hb.r, hb.hv % 8192 AS b, SUM(cnt.c) AS tot
              FROM hb JOIN cnt USING (url) GROUP BY 1, 2
            ),
            probe AS (
              SELECT h0.url FROM hb h0 JOIN hb h1
                ON h1.url = h0.url AND h1.r = 1
              WHERE h0.r = 0
                AND (h0.hv * 4294967296 + h1.hv) % 97 = 0
            ),
            est AS (
              SELECT p.url, MIN(cells.tot) AS est_refs
              FROM probe p
              JOIN hb ON hb.url = p.url
              JOIN cells ON cells.r = hb.r AND cells.b = hb.hv % 8192
              GROUP BY p.url
            )
            SELECT url, CAST(est_refs AS BIGINT) AS est_refs
            FROM est ORDER BY url"""


def seen_dedup(p: CorpusPaths) -> str:
    return ("SELECT url, MIN(src_doc) AS first_doc, COUNT(*) AS n_refs"
            " FROM (%s) GROUP BY url ORDER BY url" % _links_src(p))


# q72: exact heavy hitters — the MG candidate superset plus the
# exact confirm pass reduce to a plain HAVING threshold
def heavy_hitter_hosts(p: CorpusPaths) -> str:
    return ("WITH h AS (SELECT regexp_extract(url, '^https?://([^/:]+)', 1)"
            " AS host FROM (%s))"
            " SELECT host, COUNT(*) AS n_links FROM h GROUP BY host"
            " HAVING COUNT(*) * 64 > (SELECT COUNT(*) FROM h)"
            " ORDER BY host" % _links_src(p))


def host_link_stats(p: CorpusPaths) -> str:
    return ("SELECT regexp_extract(url, '^https?://([^/:]+)', 1) AS host,"
            " COUNT(*) AS n_links, MIN(src_doc) AS min_src,"
            " MAX(src_doc) AS max_src"
            " FROM (%s) GROUP BY 1 ORDER BY host" % _links_src(p))


# crawl-order parity (north rule): the distributed crawl's
# fetch log / reports must equal SQL over the single-process
# simulator's independently produced log (same seeds + config)
def crawl_frontier(p: CorpusPaths) -> str:
    return f"""
            SELECT url, host, doc_id, status, round, fetch_seq, depth
            FROM read_parquet('{p.sim_log}')
            ORDER BY round, host, fetch_seq, url"""


def hottest_hosts(p: CorpusPaths) -> str:
    return f"""
            SELECT host, CAST(COUNT(*) AS BIGINT) AS n_fetched,
                   CAST(SUM(CASE WHEN status = 200 THEN 1 ELSE 0 END) AS BIGINT) AS n_ok,
                   MIN(round) AS first_round, MAX(round) AS last_round
            FROM read_parquet('{p.sim_log}')
            GROUP BY host ORDER BY n_fetched DESC, host LIMIT 20"""


def crawl_metrics(p: CorpusPaths) -> str:
    return f"""
            SELECT round, CAST(COUNT(*) AS BIGINT) AS n_fetched,
                   CAST(SUM(CASE WHEN status = 200 THEN 1 ELSE 0 END) AS BIGINT) AS n_ok,
                   MIN(fetch_seq) AS min_seq, MAX(fetch_seq) AS max_seq,
                   CAST(COUNT(DISTINCT host) AS BIGINT) AS n_hosts
            FROM read_parquet('{p.sim_log}')
            GROUP BY round ORDER BY round"""


# expected-value oracle: every corpus doc must round-trip the
# archive with its span sequence intact (n_ok == n_docs ==
# corpus row count); any archive corruption breaks the hash
def verify_spans(p: CorpusPaths) -> str:
    return ("SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,"
            " CAST(COUNT(*) AS BIGINT) AS n_ok"
            " FROM read_parquet('%s')" % p.docs_glob)


# expected-value oracle: the WARC roundtrip must return exactly
# one response + one metadata record per corpus doc, every
# payload digest verified (warcinfo excluded — shard-count
# dependent, pytest-pinned)
def warc_roundtrip(p: CorpusPaths) -> str:
    return f"""
            WITH n AS (SELECT CAST(COUNT(*) AS BIGINT) AS c
                       FROM read_parquet('{p.docs_glob}'))
            SELECT t.rec_type, n.c AS n_records, n.c AS n_digest_ok
            FROM (VALUES ('metadata'), ('response')) t(rec_type), n
            ORDER BY t.rec_type"""


def span_census(p: CorpusPaths) -> str:
    return f"""
        SELECT s.kind AS kind, CAST(COUNT(*) AS BIGINT) AS n_spans,
               CAST(SUM(length(s.text)) AS BIGINT) AS text_chars,
               CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs
        FROM ({_spans_src(p)}) GROUP BY s.kind ORDER BY s.kind"""


def anchor_index(p: CorpusPaths) -> str:
    return f"""
        WITH pairs AS (
          SELECT s.media_ref AS target, s.text AS anchor,
                 CAST(COUNT(*) AS BIGINT) AS n
          FROM ({_spans_src(p)}) WHERE s.kind = 'link'
          GROUP BY 1, 2),
        tops AS (
          SELECT target, anchor,
                 row_number() OVER (PARTITION BY target
                                    ORDER BY n DESC, anchor) AS rn
          FROM pairs),
        agg AS (
          SELECT target, SUM(n) AS n_refs,
                 CAST(COUNT(*) AS BIGINT) AS n_anchors
          FROM pairs GROUP BY target)
        SELECT a.target, CAST(a.n_refs AS BIGINT) AS n_refs,
               a.n_anchors, t.anchor AS top_anchor
        FROM agg a JOIN tops t ON t.target = a.target AND t.rn = 1
        ORDER BY n_refs DESC, a.target LIMIT 50"""


# q259: robots audit — independent recomputation over the
# SIMULATOR log × the robots parquet: the distributed crawl's
# per-ruled-host fetch counts and (zero) violations must match
# q259: full REP rule matching re-implemented in plain SQL —
# a pattern is pre*suf with an optional trailing '$' anchor
# (the corpus plants at most one star; the engine matcher
# handles arbitrary patterns).  No star: prefix match, or
# exact-path when anchored.  Star: path starts with pre AND
# suf occurs after pre (unanchored) / path ends with suf
# beyond pre (anchored).
def robots_audit(p: CorpusPaths) -> str:
    return f"""
            WITH ruled AS (
              SELECT host, UNNEST(disallow_prefixes) AS pfx
              FROM read_parquet('{p.corpus}/robots.parquet')),
            rule_hosts AS (
              SELECT host, CAST(COUNT(*) AS BIGINT) AS n_rules
              FROM ruled GROUP BY host),
            rparse AS (
              SELECT host, pfx, (pfx LIKE '%$') AS anch,
                     CASE WHEN pfx LIKE '%$'
                          THEN substr(pfx, 1, length(pfx) - 1)
                          ELSE pfx END AS core
              FROM ruled),
            rr AS (
              SELECT host, anch, (strpos(core, '*') > 0) AS has_star,
                     CASE WHEN strpos(core, '*') > 0
                          THEN substr(core, 1, strpos(core, '*') - 1)
                          ELSE core END AS pre,
                     CASE WHEN strpos(core, '*') > 0
                          THEN substr(core, strpos(core, '*') + 1)
                          ELSE '' END AS suf
              FROM rparse),
            log AS (
              SELECT host, url,
                     regexp_extract(url, '^https?://[^/]+(/.*)$', 1)
                       AS path
              FROM read_parquet('{p.sim_log}')),
            f AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n_fetched
                  FROM log GROUP BY host),
            v AS (SELECT r.host, CAST(COUNT(*) AS BIGINT) AS n_violations
                  FROM rr r JOIN log l
                    ON l.host = r.host
                   AND starts_with(l.path, r.pre)
                   AND CASE
                         WHEN NOT r.has_star AND NOT r.anch THEN TRUE
                         WHEN NOT r.has_star AND r.anch
                           THEN l.path = r.pre
                         WHEN r.anch
                           THEN length(l.path)
                                  >= length(r.pre) + length(r.suf)
                            AND substr(l.path, length(l.path)
                                               - length(r.suf) + 1)
                                  = r.suf
                         ELSE r.suf = ''
                           OR strpos(substr(l.path, length(r.pre) + 1),
                                     r.suf) > 0
                       END
                  GROUP BY r.host)
            SELECT rh.host, rh.n_rules,
                   COALESCE(f.n_fetched, 0) AS n_fetched,
                   COALESCE(v.n_violations, 0) AS n_violations
            FROM rule_hosts rh
            LEFT JOIN f USING (host)
            LEFT JOIN v ON v.host = rh.host
            ORDER BY rh.host"""


# q258: WAT derivative — outlinks are the link spans' targets
# in offset order; media count = image+video spans; the digest
# is md5 of the '|'-joined ordered target list
def wat_extract(p: CorpusPaths) -> str:
    return f"""
            WITH spans AS (
              SELECT doc_id, UNNEST(spans) AS s
              FROM read_parquet('{p.docs_glob}')
            ),
            links AS (
              SELECT doc_id,
                     STRING_AGG(s.media_ref, '|'
                                ORDER BY s."offset") AS outl,
                     CAST(COUNT(*) AS BIGINT) AS n_outlinks
              FROM spans WHERE s.kind = 'link' GROUP BY doc_id
            ),
            media AS (
              SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_media
              FROM spans WHERE s.kind IN ('image', 'video')
              GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(l.n_outlinks, 0) AS n_outlinks,
                   COALESCE(m.n_media, 0) AS n_media,
                   md5(COALESCE(l.outl, '')) AS outlinks_md5
            FROM (SELECT doc_id FROM read_parquet('{p.docs_glob}')) d
            LEFT JOIN links l USING (doc_id)
            LEFT JOIN media m USING (doc_id)
            ORDER BY d.doc_id"""


# q157: WET text extraction — expected plain text per doc
# rebuilt from the corpus spans (text + anchor text in span
# order, media spans dropped), md5 compared byte-for-byte, so
# any defect in archive framing, HTTP-head split, or the RE2
# tag-strip passes hash-mismatches; all-media docs surface via
# the LEFT JOIN with md5('')
def wet_extract(p: CorpusPaths) -> str:
    return f"""
            WITH spans AS (
              SELECT doc_id, UNNEST(spans) AS s
              FROM read_parquet('{p.docs_glob}')
            ),
            txt AS (
              SELECT doc_id,
                     STRING_AGG(s.text, chr(10) ORDER BY s."offset") AS wet,
                     CAST(COUNT(*) AS BIGINT) AS n_lines
              FROM spans WHERE s.kind IN ('text', 'link')
              GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(t.n_lines, 0) AS n_lines,
                   CAST(COALESCE(strlen(t.wet), 0) AS BIGINT) AS text_len,
                   md5(COALESCE(t.wet, '')) AS text_md5
            FROM (SELECT doc_id FROM read_parquet('{p.docs_glob}')) d
            LEFT JOIN txt t USING (doc_id)
            ORDER BY d.doc_id"""

# q158/q202: per-type event totals over the original parquet
_EVENT_TOTALS = """
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_cents,
                   CAST(MIN(epoch_us(ts)) AS BIGINT) AS min_ts_us,
                   CAST(MAX(epoch_us(ts)) AS BIGINT) AS max_ts_us,
                   CAST(SUM(TRY_CAST(regexp_extract(props, '(\\d+)', 1)
                                     AS BIGINT)) AS BIGINT) AS sum_k"""
_BY_TYPE = """
            FROM events GROUP BY event_type ORDER BY event_type"""

# q158: JSONL ingestion — oracle aggregates the ORIGINAL
# parquet; the Ray side must round-trip every value through
# the text format (ints, µs timestamps, cents, nested props)
# and fold the exact distinct-user count to match
JSONL_INGEST_SQL = _EVENT_TOTALS + _BY_TYPE

# q202: CSV roundtrip — oracle over the ORIGINAL parquet; the
# props-derived columns (sum_k, props_bytes) pin quoting
# fidelity through the RFC-4180 sink + Arrow CSV parser
CSV_INGEST_SQL = _EVENT_TOTALS + """,
                   CAST(SUM(length(props)) AS BIGINT) AS props_bytes""" + _BY_TYPE

# q215: fixed-width roundtrip — oracle over the ORIGINAL
# parquet; any slicing-offset defect shifts a value
FIXEDWIDTH_INGEST_SQL = """
            SELECT o_orderstatus AS status,
                   o_orderpriority AS priority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_cents,
                   CAST(MIN(CAST(strftime(o_orderdate, '%Y%m%d')
                                 AS BIGINT)) AS BIGINT) AS min_date,
                   CAST(MAX(CAST(strftime(o_orderdate, '%Y%m%d')
                                 AS BIGINT)) AS BIGINT) AS max_date
            FROM orders GROUP BY status, priority
            ORDER BY status, priority"""

# q235: all three formats must reproduce the parquet totals
FORMAT_CONSISTENCY_SQL = """
            SELECT f.format,
                   CAST(t.n AS BIGINT) AS n_events,
                   CAST(t.c AS BIGINT) AS sum_cents,
                   TRUE AS matches_parquet
            FROM (SELECT COUNT(*) AS n,
                         SUM(CAST(round(value * 100) AS BIGINT)) AS c
                  FROM events) t,
                 (VALUES ('csv'), ('jsonl'), ('parquet')) AS f(format)
            ORDER BY f.format"""

# q162: schema-evolution read — oracle replays the generation
# split (even ids = gen-1 legacy, odd ids = gen-2 with source)
# on the original table; any defect in union-by-name, null
# materialization, or int32→int64 widening shifts a value
EVOLVED_SCAN_SQL = """
            SELECT event_type,
                   CASE WHEN event_id % 2 = 1 THEN
                     (CASE WHEN event_id % 3 = 0 THEN 'mobile'
                           ELSE 'web' END)
                   ELSE 'legacy' END AS source,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_cents
            FROM events GROUP BY event_type, source
            ORDER BY event_type, source"""

# q167: DLQ ingestion — oracle replays the torn-line rule
# (event_id % 97 == 13) on the original table; quarantined
# rows must reconcile exactly, valid rows aggregate
DLQ_INGEST_SQL = """
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_cents
            FROM events WHERE event_id % 97 <> 13
            GROUP BY event_type
            UNION ALL
            SELECT '_quarantined', CAST(COUNT(*) AS BIGINT),
                   CAST(0 AS BIGINT)
            FROM events WHERE event_id % 97 = 13
            ORDER BY event_type"""


# q99: host-graph reciprocity — src host recomputed via the
# corpus host function (i%5==0 -> hot host 0, else 1 + splitmix64(i)
# % (n_hosts-1), the exact q35 HUGEINT chain), dst host parsed
# from the link url; DISTINCT host edges, then the self-join
# reciprocity count
def host_reciprocity(p: CorpusPaths) -> str:
    return f"""
            WITH links AS ({_links_src(p)}),
            ii AS (
              SELECT DISTINCT CAST(regexp_extract(src_doc, '(\\d+)$', 1)
                                   AS BIGINT) AS i
              FROM links
            ),
            {splitmix64("ii", "i", "i")},
            hosts AS (
              SELECT i, CASE WHEN i % 5 = 0 THEN 0
                             ELSE 1 + CAST(x % ({p.n_hosts} - 1) AS BIGINT)
                        END AS h_src
              FROM s3
            ),
            edges AS (
              SELECT DISTINCT h.h_src,
                     CAST(regexp_extract(l.url, 'host-(\\d+)', 1)
                          AS BIGINT) AS h_dst
              FROM links l
              JOIN hosts h ON h.i = CAST(regexp_extract(l.src_doc,
                                         '(\\d+)$', 1) AS BIGINT)
            ),
            e2 AS (SELECT * FROM edges WHERE h_src != h_dst),
            stats AS (
              SELECT (SELECT COUNT(*) FROM e2) AS n_edges,
                     (SELECT COUNT(*) FROM edges WHERE h_src = h_dst)
                       AS n_self,
                     (SELECT COUNT(*) FROM e2 a JOIN e2 b
                        ON a.h_src = b.h_dst AND a.h_dst = b.h_src
                       WHERE a.h_src < a.h_dst) AS n_recip_pairs
            )
            SELECT CAST(n_edges AS BIGINT) AS n_edges,
                   CAST(n_self AS BIGINT) AS n_self,
                   CAST(n_recip_pairs AS BIGINT) AS n_recip_pairs,
                   CAST(CASE WHEN n_edges > 0
                        THEN 2 * n_recip_pairs * 1000000 // n_edges
                        ELSE 0 END AS BIGINT) AS reciprocity_ppm
            FROM stats"""


# q112: multi-source BFS — recursive-CTE shortest undirected
# link distance from the seed set over the doc link graph
# (priority=5 marks kind='link' rows of links_src); histogram
# over GRAPH NODES (docs with ≥1 link edge), -1 = unreachable
def seed_distance(p: CorpusPaths) -> str:
    return f"""
            WITH RECURSIVE links AS ({_links_src(p)}),
            e0 AS (
              SELECT CAST(regexp_extract(src_doc, '(\\d+)$', 1) AS BIGINT)
                       AS s,
                     CAST(regexp_extract(url, '/doc/(\\d+)$', 1) AS BIGINT)
                       AS d
              FROM links
              WHERE priority = 5 AND regexp_matches(url, '/doc/\\d+$')
            ),
            e AS (SELECT s, d FROM e0 UNION SELECT d, s FROM e0),
            nodes AS (SELECT DISTINCT s AS n FROM e),
            sd AS (
              SELECT DISTINCT CAST(regexp_extract(
                       replace(url, '%64', 'd'), '/doc/(\\d+)', 1)
                     AS BIGINT) AS n
              FROM read_parquet('{p.corpus}/seeds.parquet')
            ),
            walk(n, dist) AS (
              SELECT n, 0 FROM sd WHERE n IN (SELECT n FROM nodes)
              UNION
              SELECT e.d, walk.dist + 1
              FROM walk JOIN e ON e.s = walk.n
              WHERE walk.dist < 64
            ),
            best AS (SELECT n, MIN(dist) AS dist FROM walk GROUP BY n)
            SELECT dist, CAST(COUNT(*) AS BIGINT) AS n_docs FROM (
              SELECT COALESCE(b.dist, -1) AS dist
              FROM nodes LEFT JOIN best b ON b.n = nodes.n
            ) GROUP BY dist ORDER BY dist"""


# q135: exact triangles over the same distinct-edge CTE; a<b<c
# ordering makes each triangle one join row
def triangle_count(p: CorpusPaths) -> str:
    return f"""
            WITH links AS ({_links_src(p)}),
            p AS (
              SELECT TRY_CAST(regexp_extract(src_doc, '(\\d+)$', 1)
                       AS BIGINT) AS u,
                     TRY_CAST(regexp_extract(url, '/doc/(\\d+)$', 1)
                       AS BIGINT) AS v
              FROM links
              WHERE priority = 5 AND regexp_matches(url, '/doc/\\d+$')
            ),
            e AS (SELECT DISTINCT LEAST(u, v) AS lo, GREATEST(u, v) AS hi
                  FROM p WHERE u <> v AND u IS NOT NULL
                    AND v IS NOT NULL),
            deg AS (
              SELECT node, COUNT(*) AS d FROM (
                SELECT lo AS node FROM e UNION ALL SELECT hi FROM e
              ) GROUP BY node
            ),
            w AS (SELECT CAST(SUM(d * (d - 1) // 2) AS BIGINT) AS n
                  FROM deg),
            tri AS (
              SELECT CAST(COUNT(*) AS BIGINT) AS n
              FROM e e1
              JOIN e e2 ON e2.lo = e1.lo AND e2.hi > e1.hi
              JOIN e e3 ON e3.lo = e1.hi AND e3.hi = e2.hi
            )
            SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM e) AS n_edges,
                   w.n AS n_wedges, tri.n AS n_triangles,
                   CASE WHEN w.n > 0 THEN (3.0 * tri.n) / w.n
                   END AS clustering
            FROM w, tri"""


# q96: revisit-dedup decisions — expected values from the
# corpus body-length model (q58/q78) + the q71 re-crawl coin
# rules: i%101==7 gone, i%89==5 mutated (+1 byte); response
# bytes = bytes written (mutated), revisit bytes = bytes saved
def revisit_dedup(p: CorpusPaths) -> str:
    return f"""
            WITH {_body_lens(p)},
            b AS (SELECT i, 58 + strlen(CAST(body_len AS VARCHAR))
                            + 4 + body_len AS payload_len
                  FROM doc_len WHERE i % 101 != 7)
            SELECT * FROM (
              SELECT 'response' AS decision,
                     CAST(COUNT(*) AS BIGINT) AS n_records,
                     CAST(SUM(payload_len + 1) AS BIGINT) AS payload_bytes
              FROM b WHERE i % 89 = 5
              UNION ALL
              SELECT 'revisit', CAST(COUNT(*) AS BIGINT),
                     CAST(SUM(payload_len) AS BIGINT)
              FROM b WHERE i % 89 != 5
            ) ORDER BY decision"""


# q65: expected-value in the q53 style — the same md5 1/97
# sample straight off the persisted CDX parquet, digest_ok
# asserted TRUE; any seek / gzip-member-framing / parse /
# digest defect in the Ray replay hash-mismatches
def cdx_lookup(p: CorpusPaths) -> str:
    return f"""
            SELECT record_id, target_uri, rec_type, length,
                   CAST(1 AS BOOLEAN) AS digest_ok
            FROM read_parquet('{p.warc_cdx}/*.parquet')
            WHERE rec_type <> 'warcinfo'
              AND {md5h('record_id')} % 97 = 0
            ORDER BY record_id"""


# q78: ARC→WARC migration — expected values derive from the
# same corpus body-length model as q58 (payload bytes are the
# ARC payloads verbatim); digests_ok is asserted TRUE and the
# Ray side recomputes every sha1 on the migrated read-back
def arc_to_warc(p: CorpusPaths) -> str:
    return f"""
            WITH {_seed_body_lens(p)}
            SELECT CAST(COUNT(*) AS BIGINT) AS n_records,
                   CAST(SUM(58 + strlen(CAST(d.body_len AS VARCHAR))
                            + 4 + d.body_len) AS BIGINT) AS payload_bytes,
                   TRUE AS digests_ok
            FROM seed_docs sd JOIN doc_len d USING (i)"""


# expected-value oracle: reconstruct the ARC roundtrip's byte
# totals from first principles — seed URL → doc index (inverting
# the RFC-3986 variants the seed table plants), doc spans →
# rendered-body length (the span→HTML render is length-linear:
# text / <a href> / <img> / <video> templates), + the HTTP/1.1
# response head.  Any corruption in fetch, ARC write (v2
# filedesc quirk included), gzip member framing, or read-back
# shifts the byte sum and breaks the hash.
def arc_roundtrip(p: CorpusPaths) -> str:
    return f"""
            WITH {_seed_body_lens(p)}
            SELECT CAST(2 AS BIGINT) AS version,
                   CAST(COUNT(*) AS BIGINT) AS n_records,
                   CAST(SUM(58 + strlen(CAST(d.body_len AS VARCHAR))
                            + 4 + d.body_len) AS BIGINT) AS payload_bytes
            FROM seed_docs sd JOIN doc_len d USING (i)"""
