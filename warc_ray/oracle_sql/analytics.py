"""Oracles of the analytics operators (``pipelines/analytics.py``).

Each ``*_SQL`` constant is the DuckDB twin of one engine function; the
exactness rules are the engine module's (integer units before any sum,
md5-derived determinism for anything sampled).  Constants the engine
also uses are imported from it, so both sides are built from one value.
"""

from __future__ import annotations

from ..pipelines.analytics import (
    BPE_ROUNDS, LOGREG_ITERS, NB_LANGS, NB_TERMS, _BOOT_B, _BURST_WIN_US,
    _EWMA_DEPTH, _EWMA_W, _FD_CANDS, _JOIN_CANDS, _LIFECYCLE_RULES,
    _MERKLE_LEAVES, _MUS_STEP, _POIS_T, _PRESENCE_BASE_YEAR, _STUMP_BINS,
    _STUMP_STEP)
from . import md5h


PIVOT_EVENTS_SQL = """
    SELECT strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
           CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT)
             AS n_click,
           CAST(COUNT(*) FILTER (event_type = 'error') AS BIGINT)
             AS n_error,
           CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT)
             AS n_purchase,
           CAST(COUNT(*) FILTER (event_type = 'signup') AS BIGINT)
             AS n_signup,
           CAST(COUNT(*) FILTER (event_type = 'view') AS BIGINT)
             AS n_view
    FROM events GROUP BY 1 ORDER BY 1"""


FUNNEL_SQL = """
    WITH v AS (
      SELECT user_id, MIN(ts) AS t1 FROM events
      WHERE event_type = 'view' GROUP BY user_id
    ), c AS (
      SELECT e.user_id, MIN(e.ts) AS t2
      FROM events e JOIN v USING (user_id)
      WHERE e.event_type = 'click' AND e.ts > v.t1 GROUP BY e.user_id
    ), p AS (
      SELECT e.user_id, MIN(e.ts) AS t3
      FROM events e JOIN c USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts > c.t2 GROUP BY e.user_id
    )
    SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM v) AS n_view,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM c) AS n_click,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM p) AS n_purchase"""


DEBOUNCE_SQL = """
    WITH lagd AS (
      SELECT event_type,
             ts - LAG(ts) OVER (PARTITION BY user_id, event_type
                                ORDER BY ts, event_id) AS gap
      FROM events
    )
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_total,
           CAST(SUM(CASE WHEN gap IS NULL
                         OR gap >= INTERVAL 300 SECOND
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
    FROM lagd GROUP BY event_type ORDER BY event_type"""


BIGRAM_TOPK_SQL = """
    WITH toks AS (
      SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS t
      FROM documents
    ), bg AS (
      SELECT t[CAST(i AS BIGINT)] AS head,
             t[CAST(i + 1 AS BIGINT)] AS tail
      FROM toks, UNNEST(range(1, len(t))) AS u(i)
    ), c AS (
      SELECT head, tail, COUNT(*) AS n FROM bg GROUP BY 1, 2
    ), r AS (
      SELECT head, tail, n,
             ROW_NUMBER() OVER (PARTITION BY head
                                ORDER BY n DESC, tail) AS rank
      FROM c
    )
    SELECT head, tail, CAST(n AS BIGINT) AS n, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 3 ORDER BY head, rank"""


CUMULATIVE_USERS_SQL = """
    WITH f AS (
      SELECT user_id, MIN(CAST(ts AS DATE)) AS d FROM events
      GROUP BY user_id
    ), nn AS (
      SELECT d, COUNT(*) AS n_new FROM f GROUP BY d
    )
    SELECT strftime(d, '%Y-%m-%d') AS day,
           CAST(n_new AS BIGINT) AS n_new,
           CAST(SUM(n_new) OVER (ORDER BY d) AS BIGINT) AS cum_users
    FROM nn ORDER BY day"""


COOCCURRENCE_SQL = """
    WITH tc AS (
      SELECT t AS token, COUNT(*) AS n
      FROM (SELECT UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
            FROM documents)
      GROUP BY t
    ), vocab AS (
      SELECT token FROM tc ORDER BY n DESC, token LIMIT 16
    ), pres AS (
      SELECT DISTINCT doc_id, t AS token
      FROM (SELECT doc_id,
                   UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
            FROM documents)
      WHERE t IN (SELECT token FROM vocab)
    ), dc AS (
      SELECT token, COUNT(*) AS n FROM pres GROUP BY token
    ), pairs AS (
      SELECT p1.token AS tok_a, p2.token AS tok_b, COUNT(*) AS n_ab
      FROM pres p1 JOIN pres p2 USING (doc_id)
      WHERE p1.token < p2.token GROUP BY 1, 2
    ), tot AS (SELECT COUNT(*) AS nd FROM documents)
    SELECT tok_a, tok_b, CAST(n_ab AS BIGINT) AS n_ab,
           CAST(n_ab * nd * 1000000
                // (da.n * db.n) AS BIGINT) AS assoc_ppm
    FROM pairs
    JOIN dc da ON da.token = tok_a
    JOIN dc db ON db.token = tok_b
    CROSS JOIN tot
    ORDER BY assoc_ppm DESC, tok_a, tok_b LIMIT 20"""


SESSION_TRIGRAMS_SQL = """
    WITH e AS (
      SELECT user_id, ts, event_id, event_type,
             CASE WHEN LAG(ts) OVER w IS NULL
                       OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                  THEN 1 ELSE 0 END AS new_s
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), s AS (
      SELECT user_id, ts, event_id, event_type,
             SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) AS sid
      FROM e
    ), t AS (
      SELECT event_type || '>' || LEAD(event_type, 1) OVER w2
               || '>' || LEAD(event_type, 2) OVER w2 AS trigram,
             sid, LEAD(sid, 2) OVER w2 AS sid2
      FROM s
      WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), c AS (
      SELECT trigram, COUNT(*) AS n FROM t
      WHERE sid2 = sid AND trigram IS NOT NULL GROUP BY trigram
    )
    SELECT trigram, CAST(n AS BIGINT) AS n,
           CAST(ROW_NUMBER() OVER (ORDER BY n DESC, trigram) AS BIGINT)
             AS rank
    FROM c ORDER BY n DESC, trigram LIMIT 10"""


INCREMENTAL_AGG_SQL = """
    SELECT o_orderstatus, CAST(COUNT(*) AS BIGINT) AS n_orders,
           CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS sum_cents
    FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus"""


SHIPPING_PRIORITY_SQL = """
    SELECT l_orderkey,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue,
           o_orderdate, o_orderpriority
    FROM customer JOIN orders ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    WHERE c_mktsegment = 'BUILDING'
      AND o_orderdate < TIMESTAMP '1995-03-15'
      AND l_shipdate > TIMESTAMP '1995-03-15'
    GROUP BY l_orderkey, o_orderdate, o_orderpriority
    ORDER BY revenue DESC, l_orderkey LIMIT 10"""


BUCKETED_DEDUP_SQL = """
    SELECT MIN(doc_id) AS keep_doc, CAST(COUNT(*) AS BIGINT) AS n_copies
    FROM documents GROUP BY text ORDER BY keep_doc"""


# the oracle recomputes the checksum from the SOURCE table — equality
# proves the compacted output holds exactly the source rows
COMPACT_FILES_SQL = """
    SELECT CAST(64 AS BIGINT) AS n_files_before,
           CAST(CEIL(COUNT(*) / 4096.0) AS BIGINT) AS n_files_after,
           CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(SUM({MD5H}) % 2305843009213693951 AS BIGINT) AS checksum
    FROM documents""".format(
    MD5H=md5h('CAST(doc_id AS VARCHAR)'))


UNPIVOT_SQL = """
    WITH w AS (
      SELECT l_returnflag, l_linestatus,
             CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
               AS sum_qty,
             CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
               AS BIGINT) AS sum_cents,
             CAST(COUNT(*) AS BIGINT) AS n_rows
      FROM lineitem GROUP BY 1, 2
    )
    SELECT l_returnflag, l_linestatus, metric, value FROM (
      SELECT l_returnflag, l_linestatus, 'sum_qty' AS metric,
             sum_qty AS value FROM w
      UNION ALL
      SELECT l_returnflag, l_linestatus, 'sum_cents', sum_cents FROM w
      UNION ALL
      SELECT l_returnflag, l_linestatus, 'n_rows', n_rows FROM w
    ) ORDER BY l_returnflag, l_linestatus, metric"""


PERCENT_RANK_SQL = """
    SELECT o_orderkey, o_totalprice,
           ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey)
             AS rank,
           PERCENT_RANK() OVER (ORDER BY o_totalprice DESC, o_orderkey)
             AS pct_rank
    FROM orders"""


EVENT_MAD_SQL = """
    WITH m AS (
      SELECT event_type,
             percentile_disc(0.5) WITHIN GROUP (
               ORDER BY CAST(FLOOR(value * 1000) AS BIGINT))
               AS median_milli
      FROM events GROUP BY event_type
    )
    SELECT e.event_type, m.median_milli,
           percentile_disc(0.5) WITHIN GROUP (
             ORDER BY ABS(CAST(FLOOR(e.value * 1000) AS BIGINT)
                          - m.median_milli)) AS mad_milli
    FROM events e JOIN m USING (event_type)
    GROUP BY e.event_type, m.median_milli ORDER BY e.event_type"""


WEIGHTED_AVG_SQL = """
    WITH f AS (
      SELECT lang, CAST(n_chars AS BIGINT) AS x,
             CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+'))
                  AS BIGINT) AS w
      FROM documents
    )
    SELECT lang, CAST(SUM(w) AS BIGINT) AS sum_weight,
           CAST(SUM(x * w) AS DOUBLE) / CAST(SUM(w) AS DOUBLE)
             AS wavg_chars
    FROM f GROUP BY lang ORDER BY lang"""


NORMALIZED_DEDUP_SQL = r"""
    SELECT MIN(doc_id) AS keep_doc, CAST(COUNT(*) AS BIGINT) AS n_copies
    FROM (SELECT doc_id,
                 trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS nt
          FROM documents)
    GROUP BY nt ORDER BY keep_doc"""


TABLE_FINGERPRINTS_SQL = """
    SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(SUM({MD5H}) % 2305843009213693951 AS BIGINT) AS checksum
    FROM documents GROUP BY source ORDER BY source""".format(
    MD5H=md5h("concat(CAST(doc_id AS VARCHAR), ':', text)"))


ZSCORE_SQL = """
    WITH f AS (
      SELECT event_id, event_type, value,
             CAST(FLOOR(value * 1000) AS HUGEINT) AS v
      FROM events
    ), m AS (
      SELECT event_type, COUNT(*) AS n, SUM(v) AS s, SUM(v * v) AS ss
      FROM f GROUP BY event_type
    )
    SELECT event_id, f.event_type, value
    FROM f JOIN m USING (event_type)
    WHERE (n * v - s) * (n * v - s) > 9 * (n * ss - s * s)
    ORDER BY event_id"""


STREAMING_WINDOWS_SQL = """
    WITH e AS (
      SELECT event_id, event_type,
             CAST(epoch_us(ts) AS BIGINT)
               - CASE WHEN substr(md5(CAST(event_id AS VARCHAR)), 1, 1)
                           = '0'
                      THEN 2700000000 ELSE 0 END AS us
      FROM events
    ), a AS (
      SELECT event_type, us,
             MAX(us) OVER (ORDER BY event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS before_max
      FROM e
    ), f AS (
      SELECT event_type, us // 3600000000 AS win,
             CASE WHEN before_max IS NOT NULL
                       AND (us // 3600000000 + 1) * 3600000000
                           <= before_max - 600000000
                  THEN 1 ELSE 0 END AS late
      FROM a
    )
    SELECT strftime(to_timestamp(win * 3600), '%Y-%m-%dT%H:%M:%S')
             AS window_start,
           event_type,
           CAST(SUM(1 - late) AS BIGINT) AS n_on_time,
           CAST(SUM(late) AS BIGINT) AS n_late
    FROM f GROUP BY win, event_type ORDER BY window_start, event_type"""


LAST_TOUCH_SQL = """
    WITH s AS (
      SELECT user_id, ts, event_id, event_type,
             CASE WHEN event_type IN ('view', 'click', 'signup')
                  THEN event_type END AS ch
      FROM events
    ), a AS (
      SELECT event_type,
             LAST_VALUE(ch IGNORE NULLS) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS attr
      FROM s
    )
    SELECT COALESCE(attr, 'none') AS channel,
           CAST(COUNT(*) AS BIGINT) AS n_purchases
    FROM a WHERE event_type = 'purchase'
    GROUP BY 1 ORDER BY 1"""


INTEGRITY_AUDIT_SQL = """
    SELECT 'customer->nation' AS relation,
           CAST((SELECT COUNT(DISTINCT c_nationkey) FROM customer
                 WHERE c_nationkey NOT IN (SELECT n_nationkey FROM nation))
                AS BIGINT) AS n_orphans,
           CAST((SELECT COUNT(*) FROM nation
                 WHERE n_nationkey NOT IN
                   (SELECT c_nationkey FROM customer)) AS BIGINT)
             AS n_childless_parents
    UNION ALL
    SELECT 'lineitem->orders',
           CAST((SELECT COUNT(DISTINCT l_orderkey) FROM lineitem
                 WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders))
                AS BIGINT),
           CAST((SELECT COUNT(*) FROM orders
                 WHERE o_orderkey NOT IN
                   (SELECT l_orderkey FROM lineitem)) AS BIGINT)
    UNION ALL
    SELECT 'orders->customer',
           CAST((SELECT COUNT(DISTINCT o_custkey) FROM orders
                 WHERE o_custkey NOT IN (SELECT c_custkey FROM customer))
                AS BIGINT),
           CAST((SELECT COUNT(*) FROM customer
                 WHERE c_custkey NOT IN (SELECT o_custkey FROM orders))
                AS BIGINT)
    ORDER BY relation"""


CHARCLASS_ENTROPY_SQL = """
    WITH per AS (
      SELECT lang,
             CAST(SUM(length(regexp_replace(text, '[^A-Za-z]', '', 'g')))
                  AS BIGINT) AS cl,
             CAST(SUM(length(regexp_replace(text, '[^0-9]', '', 'g')))
                  AS BIGINT) AS cd,
             CAST(SUM(length(text) - length(replace(text, ' ', '')))
                  AS BIGINT) AS cs,
             CAST(SUM(length(text)) AS BIGINT) AS n
      FROM documents GROUP BY lang
    ), wide AS (
      SELECT lang, cl, cd, cs, n, n - cl - cd - cs AS co FROM per
    )
    SELECT lang, n AS n_chars,
           CAST(ln(n) -
                ((CASE WHEN cl > 0 THEN cl * ln(cl) ELSE 0.0 END
                  + CASE WHEN cd > 0 THEN cd * ln(cd) ELSE 0.0 END
                  + CASE WHEN cs > 0 THEN cs * ln(cs) ELSE 0.0 END
                  + CASE WHEN co > 0 THEN co * ln(co) ELSE 0.0 END) / n)
                AS DOUBLE) AS entropy
    FROM wide ORDER BY lang"""


MEDIAN_INTERARRIVAL_SQL = """
    WITH g AS (
      SELECT user_id,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS gap
      FROM events
    )
    SELECT user_id, CAST(COUNT(gap) AS BIGINT) AS n_gaps,
           CAST(median(gap) AS DOUBLE) AS median_gap_us
    FROM g WHERE gap IS NOT NULL
    GROUP BY user_id ORDER BY user_id"""


AUDIENCE_OVERLAP_SQL = """
    WITH e AS (SELECT DISTINCT user_id AS k FROM events),
         o AS (SELECT DISTINCT o_custkey AS k FROM orders)
    SELECT segment, CAST(n AS BIGINT) AS n FROM (
      SELECT 'both' AS segment,
             (SELECT COUNT(*) FROM e WHERE k IN (SELECT k FROM o)) AS n
      UNION ALL
      SELECT 'events_only',
             (SELECT COUNT(*) FROM e WHERE k NOT IN (SELECT k FROM o))
      UNION ALL
      SELECT 'orders_only',
             (SELECT COUNT(*) FROM o WHERE k NOT IN (SELECT k FROM e))
    ) ORDER BY segment"""


TOP_USER_PER_TYPE_SQL = """
    WITH c AS (
      SELECT event_type, user_id, COUNT(*) AS n
      FROM events GROUP BY 1, 2
    ), r AS (
      SELECT event_type, user_id, n,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY n DESC, user_id) AS rn
      FROM c
    )
    SELECT event_type, user_id AS top_user, CAST(n AS BIGINT) AS n
    FROM r WHERE rn = 1 ORDER BY event_type"""


BM25_SQL = """
    WITH t AS (
      SELECT doc_id, len(string_split(text, ' ')) AS dl,
             len(list_filter(string_split(text, ' '),
                             x -> x = 'hash')) AS tf0,
             len(list_filter(string_split(text, ' '),
                             x -> x = 'merge')) AS tf1,
             len(list_filter(string_split(text, ' '),
                             x -> x = 'vector')) AS tf2
      FROM documents
    ), g AS (
      SELECT COUNT(*) AS n, CAST(SUM(dl) AS BIGINT) AS sdl,
             CAST(SUM(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS df0,
             CAST(SUM(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS df1,
             CAST(SUM(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS df2
      FROM t
    )
    SELECT doc_id,
           ln(1.0 + (n - df0 + 0.5) / (df0 + 0.5))
             * ((2.2 * tf0) / (tf0 + 1.2 * (0.25 + 0.75 *
                 (dl / (CAST(sdl AS DOUBLE) / CAST(n AS DOUBLE))))))
           + ln(1.0 + (n - df1 + 0.5) / (df1 + 0.5))
             * ((2.2 * tf1) / (tf1 + 1.2 * (0.25 + 0.75 *
                 (dl / (CAST(sdl AS DOUBLE) / CAST(n AS DOUBLE))))))
           + ln(1.0 + (n - df2 + 0.5) / (df2 + 0.5))
             * ((2.2 * tf2) / (tf2 + 1.2 * (0.25 + 0.75 *
                 (dl / (CAST(sdl AS DOUBLE) / CAST(n AS DOUBLE))))))
           AS score
    FROM t, g
    WHERE score > 0
    ORDER BY score DESC, doc_id LIMIT 20"""


EVENT_TRANSITIONS_SQL = """
    WITH s AS (
      SELECT user_id, event_type,
             lag(event_type) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS prev
      FROM events
    ), c AS (
      SELECT prev AS prev_type, event_type AS next_type,
             COUNT(*) AS n
      FROM s WHERE prev IS NOT NULL GROUP BY 1, 2
    )
    SELECT prev_type, next_type, CAST(n AS BIGINT) AS n,
           CAST(n AS DOUBLE) /
             CAST(SUM(n) OVER (PARTITION BY prev_type) AS DOUBLE) AS p
    FROM c ORDER BY prev_type, next_type"""


SLIDING_DISTINCT_SQL = """
    WITH du AS (
      SELECT DISTINCT CAST(ts AS DATE) AS d, user_id FROM events
    ), days AS (SELECT DISTINCT d FROM du)
    SELECT strftime(days.d, '%Y-%m-%d') AS day,
           CAST(COUNT(DISTINCT du.user_id) AS BIGINT) AS u7
    FROM days JOIN du
      ON du.d BETWEEN days.d - 6 AND days.d
    GROUP BY days.d ORDER BY 1"""


PRUNED_JOIN_SQL = """
    SELECT o_orderpriority,
           CAST(COUNT(*) AS BIGINT) AS n_items,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY 1 ORDER BY 1"""


ABOVE_AVG_SQL = """
    WITH st AS (
      SELECT o_custkey,
             CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                  AS BIGINT) AS s,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM orders GROUP BY 1
    ), kept AS (
      SELECT o.o_custkey,
             CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents
      FROM orders o JOIN st ON o.o_custkey = st.o_custkey
      WHERE CAST(round(o.o_totalprice * 100) AS BIGINT) * st.n > st.s
    )
    SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_orders,
           CAST(SUM(cents) AS DOUBLE) / 100.0 AS total
    FROM kept JOIN customer ON o_custkey = c_custkey
    GROUP BY 1 ORDER BY 1"""


DISCOUNT_REVENUE_SQL = """
    SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * CAST(round(l_discount * 100) AS BIGINT))
                AS DOUBLE) / 10000.0 AS revenue_effect
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
      AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
      AND CAST(round(l_quantity) AS BIGINT) < 24"""


SOURCE_LANG_LIFT_SQL = """
    WITH c AS (
      SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n
      FROM documents GROUP BY 1, 2
    ), rt AS (SELECT source, CAST(SUM(n) AS BIGINT) AS r FROM c
              GROUP BY 1),
       ct AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS col FROM c
              GROUP BY 1),
       g AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM c)
    SELECT c.source, c.lang, c.n,
           CAST(rt.r AS DOUBLE) * CAST(ct.col AS DOUBLE)
             / CAST(g.total AS DOUBLE) AS expected,
           CAST(c.n AS DOUBLE) /
             (CAST(rt.r AS DOUBLE) * CAST(ct.col AS DOUBLE)
              / CAST(g.total AS DOUBLE)) AS lift
    FROM c JOIN rt USING (source) JOIN ct USING (lang)
         CROSS JOIN g
    ORDER BY c.source, c.lang"""


POINT_LOOKUP_SQL = """
    SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
           md5(text) AS text_md5
    FROM documents
    WHERE {MD5H} % 23 = 0
    ORDER BY doc_id""".format(
    MD5H=md5h('CAST(doc_id AS VARCHAR)'))


DENSE_GRID_SQL = """
    WITH bounds AS (
      SELECT MIN(CAST(ts AS DATE)) AS lo, MAX(CAST(ts AS DATE)) AS hi
      FROM events
    ), days AS (
      SELECT CAST(UNNEST(generate_series(lo, hi,
                                         INTERVAL 1 DAY)) AS DATE) AS d
      FROM bounds
    ), types AS (SELECT DISTINCT event_type FROM events),
    obs AS (
      SELECT CAST(ts AS DATE) AS d, event_type, COUNT(*) AS n
      FROM events GROUP BY 1, 2
    )
    SELECT strftime(days.d, '%Y-%m-%d') AS day, types.event_type,
           CAST(COALESCE(obs.n, 0) AS BIGINT) AS n
    FROM days CROSS JOIN types
    LEFT JOIN obs ON obs.d = days.d AND obs.event_type = types.event_type
    ORDER BY 1, 2"""


SKEWED_USER_JOIN_SQL = """
    WITH f AS (
      SELECT CASE WHEN substr(md5(CAST(event_id AS VARCHAR)), 1, 1)
                       IN ('0','1','2','3','4')
                  THEN 0 ELSE user_id END AS c_custkey,
             CAST(FLOOR(value * 1000) AS BIGINT) AS milli
      FROM events
    ), d AS (
      SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey
      FROM customer
      UNION ALL SELECT 0, -1
    )
    SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(milli) AS BIGINT) AS sum_milli
    FROM f JOIN d USING (c_custkey)
    GROUP BY c_nationkey ORDER BY c_nationkey"""


VOCAB_BUILD_SQL = """
    WITH tc AS (
      SELECT t AS token, COUNT(*) AS n
      FROM (SELECT UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
            FROM documents)
      GROUP BY t
    ), ranked AS (
      SELECT token, n,
             ROW_NUMBER() OVER (ORDER BY n DESC, token) - 1 AS vocab_id
      FROM tc
    ), tot AS (SELECT SUM(n) AS s FROM tc),
       inv AS (SELECT SUM(n) AS s FROM ranked WHERE vocab_id < 16)
    SELECT token, CAST(vocab_id AS BIGINT) AS vocab_id,
           CAST(n AS BIGINT) AS n,
           CAST((tot.s - inv.s) * 1000000 // tot.s AS BIGINT) AS oov_ppm
    FROM ranked, tot, inv
    WHERE vocab_id < 16 ORDER BY vocab_id"""


CONTAINMENT_SQL = """
    WITH toks AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
      FROM documents
    ), sh AS (
      SELECT DISTINCT doc_id, UNNEST(
        CASE WHEN len(t) = 0 THEN CAST([] AS VARCHAR[])
             WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
             ELSE list_transform(range(1, len(t) - 1),
                    i -> array_to_string(list_slice(t, i, i + 2), ' '))
        END) AS s
      FROM toks
    ), sizes AS (
      SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id
    ), inter AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
      FROM sh a JOIN sh b USING (s)
      WHERE a.doc_id < b.doc_id
      GROUP BY 1, 2
    )
    SELECT CASE WHEN sa.n <= sb.n THEN doc_a ELSE doc_b END
             AS doc_contained,
           CASE WHEN sa.n <= sb.n THEN doc_b ELSE doc_a END
             AS doc_container,
           (i * 1000000) // LEAST(sa.n, sb.n) AS contain_ppm
    FROM inter
    JOIN sizes sa ON sa.doc_id = doc_a
    JOIN sizes sb ON sb.doc_id = doc_b
    WHERE i * 1000000 >= 600000 * LEAST(sa.n, sb.n)"""


_MD5H64 = md5h('CAST(doc_id AS VARCHAR)')
SOURCE_MIXTURE_SQL = f"""
    WITH cnt AS (
      SELECT source, CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(1 + CAST(substr(source, 4) AS BIGINT) % 4 AS HUGEINT) AS w
      FROM documents GROUP BY source
    ), wsum AS (SELECT SUM(w) AS ws FROM cnt),
    kmax AS (SELECT MIN(n * ws // w) AS k FROM cnt, wsum),
    thr AS (
      SELECT source, n, (k * w // ws) AS target_n,
             ((CAST(1 AS HUGEINT) << 64) * (k * w // ws)) // n AS threshold
      FROM cnt, wsum, kmax
    )
    SELECT d.source, CAST(t.n AS BIGINT) AS n_total,
           CAST(t.target_n AS BIGINT) AS target_n,
           CAST(SUM(CASE WHEN {_MD5H64} < t.threshold
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
    FROM documents d JOIN thr t USING (source)
    GROUP BY d.source, t.n, t.target_n
    ORDER BY d.source"""


GROUP_CONCAT_SQL = """
    WITH ranked AS (
      SELECT source, lang, doc_id,
             ROW_NUMBER() OVER (PARTITION BY source, lang
                                ORDER BY doc_id) AS rn
      FROM documents
    )
    SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
           string_agg(CASE WHEN rn <= 16
                           THEN CAST(doc_id AS VARCHAR) END,
                      ',' ORDER BY doc_id) AS first_ids
    FROM ranked GROUP BY source, lang ORDER BY source, lang"""


FEATURE_CORR_SQL = """
    WITH f AS (
      SELECT lang, CAST(n_chars AS HUGEINT) AS x,
             CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+'))
                  AS HUGEINT) AS y
      FROM documents
    ), s AS (
      SELECT lang, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x*y) AS sxy, SUM(x*x) AS sxx, SUM(y*y) AS syy
      FROM f GROUP BY lang
    )
    SELECT lang, CAST(n AS BIGINT) AS n_docs,
           CAST(sx AS BIGINT) AS sum_chars,
           CAST(sy AS BIGINT) AS sum_tokens,
           CASE WHEN n*sxx - sx*sx > 0 AND n*syy - sy*sy > 0 THEN
             CAST(n*sxy - sx*sy AS DOUBLE)
             / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                    * CAST(n*syy - sy*sy AS DOUBLE))
           END AS corr_chars_tokens
    FROM s ORDER BY lang"""


JSON_PROPS_SQL = """
    WITH e AS (
      SELECT event_type,
             CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
      FROM events
    )
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(k) AS BIGINT) AS sum_k,
           MIN(k) AS min_k, MAX(k) AS max_k,
           CAST(COUNT(DISTINCT k) AS BIGINT) AS n_distinct_k
    FROM e GROUP BY event_type ORDER BY event_type"""


RETENTION_SQL = """
    WITH f AS (
      SELECT user_id, date_trunc('week', MIN(ts)) AS cw
      FROM events GROUP BY user_id
    ), a AS (
      SELECT DISTINCT e.user_id, f.cw,
             (epoch(date_trunc('week', e.ts)) - epoch(CAST(cw AS TIMESTAMP)))
             // (7 * 86400) AS wk
      FROM events e JOIN f USING (user_id)
    )
    SELECT strftime(cw, '%Y-%m-%d') AS cohort_week,
           CAST(wk AS BIGINT) AS week_offset,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM a GROUP BY cw, wk ORDER BY 1, 2"""


# q81/q137: the latest surviving version of each order in the CDC
# changelog (v1 insert everything, v2 update and v3 delete md5-chosen
# orders), as of every version or ``asof`` a filter on them
_CHANGELOG_LATEST = """
    WITH base AS (
      SELECT o_orderkey,
             CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
             o_orderstatus,
             md5(CAST(o_orderkey AS VARCHAR)) AS h
      FROM orders
    ), changelog AS (
      SELECT o_orderkey, CAST(1 AS BIGINT) AS version, 'I' AS op,
             price_cents, o_orderstatus FROM base
      UNION ALL
      SELECT o_orderkey, 2, 'U', price_cents + 500, 'X'
      FROM base WHERE substr(h, 1, 1) IN ('0','1','2','3')
      UNION ALL
      SELECT o_orderkey, 3, 'D', 0, ''
      FROM base WHERE substr(h, 2, 1) IN ('0','1')
    ), ranked AS (
      SELECT *, ROW_NUMBER() OVER (PARTITION BY o_orderkey
                                   ORDER BY version DESC) AS rn
      FROM changelog{asof}
    )
    SELECT o_orderkey, o_orderstatus, price_cents, version
    FROM ranked WHERE rn = 1 AND op <> 'D'
    ORDER BY o_orderkey"""
MERGE_UPSERT_SQL = _CHANGELOG_LATEST.format(asof="")


PART_SKYLINE_SQL = """
    WITH p AS (
      SELECT p_partkey,
             CAST(round(p_retailprice * 100) AS BIGINT) AS cents,
             CAST(p_size AS BIGINT) AS p_size
      FROM part
    )
    SELECT p_partkey, CAST(cents AS DOUBLE) / 100.0 AS price, p_size
    FROM p a
    WHERE NOT EXISTS (
      SELECT 1 FROM p b
      WHERE b.cents <= a.cents AND b.p_size >= a.p_size
        AND (b.cents < a.cents OR b.p_size > a.p_size))
    ORDER BY p_partkey"""


LINEITEM_REGRESSION_SQL = """
    WITH f AS (
      SELECT l_returnflag,
             CAST(round(l_quantity) AS HUGEINT) AS x,
             CAST(round(l_extendedprice * 100) AS HUGEINT) AS y
      FROM lineitem
    ), s AS (
      SELECT l_returnflag, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x*y) AS sxy, SUM(x*x) AS sxx
      FROM f GROUP BY 1
    )
    SELECT l_returnflag, CAST(n AS BIGINT) AS n,
           CASE WHEN n*sxx - sx*sx <> 0 THEN
             CAST(n*sxy - sx*sy AS DOUBLE)
               / CAST(n*sxx - sx*sx AS DOUBLE)
           END AS slope_cents_per_qty,
           CASE WHEN n*sxx - sx*sx <> 0 THEN
             CAST(sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx AS DOUBLE)
               / CAST(n*(n*sxx - sx*sx) AS DOUBLE)
           END AS intercept_cents
    FROM s ORDER BY l_returnflag"""


SCD2_USER_STATE_SQL = """
    WITH s AS (
      SELECT user_id, event_id, event_type,
             epoch_us(ts) AS us,
             lag(event_type) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS prev_type
      FROM events
    ), runs AS (
      SELECT user_id, event_id, event_type, us,
             CASE WHEN prev_type IS NULL OR prev_type <> event_type
                  THEN 1 ELSE 0 END AS is_start
      FROM s
    ), grp AS (
      SELECT *, SUM(is_start) OVER (PARTITION BY user_id
                                    ORDER BY us, event_id) AS run_id
      FROM runs
    ), iv AS (
      SELECT user_id, run_id,
             MIN(event_type) AS event_type,
             MIN(us) AS valid_from_us,
             CAST(COUNT(*) AS BIGINT) AS n_events,
             MAX(CASE WHEN is_start = 1 THEN event_id END)
               AS first_event_id
      FROM grp GROUP BY user_id, run_id
    )
    SELECT user_id, event_type, valid_from_us,
           COALESCE(lead(valid_from_us) OVER (PARTITION BY user_id
                                              ORDER BY run_id),
                    9223372036854775807) AS valid_to_us,
           CASE WHEN lead(valid_from_us) OVER (PARTITION BY user_id
                                               ORDER BY run_id) IS NULL
                THEN CAST(1 AS BIGINT) ELSE CAST(0 AS BIGINT)
           END AS is_current,
           n_events, first_event_id
    FROM iv ORDER BY user_id, valid_from_us"""


EMBEDDING_COVARIANCE_SQL = """
    WITH v AS (
      SELECT vec_id,
             CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000)
                  AS HUGEINT) AS xm,
             generate_subscripts(embedding, 1) AS i
      FROM embeddings
    ), n_t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM embeddings),
    pairs AS (
      SELECT a.i AS i, b.i AS j,
             SUM(a.xm * b.xm) AS sxy
      FROM v a JOIN v b ON a.vec_id = b.vec_id AND a.i <= b.i
      GROUP BY 1, 2
    ), marg AS (
      SELECT i, SUM(xm) AS sx FROM v GROUP BY 1
    )
    SELECT CAST(p.i AS BIGINT) AS i, CAST(p.j AS BIGINT) AS j,
           CAST(n.n * p.sxy - mi.sx * mj.sx AS DOUBLE)
             / CAST(n.n * n.n AS DOUBLE) AS cov_milli2
    FROM pairs p, n_t n
    JOIN marg mi ON mi.i = p.i
    JOIN marg mj ON mj.i = p.j
    ORDER BY i, j"""


LINEITEM_PROFILE_SQL = """
    SELECT * REPLACE (CAST(n_null AS BIGINT) AS n_null) FROM (
      SELECT 'l_discount' AS col_name, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN l_discount IS NULL THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_null,
             CAST(COUNT(DISTINCT l_discount) AS BIGINT) AS n_distinct,
             CAST(MIN(l_discount) AS DOUBLE) AS min_num,
             CAST(MAX(l_discount) AS DOUBLE) AS max_num,
             CAST(NULL AS VARCHAR) AS min_str,
             CAST(NULL AS VARCHAR) AS max_str
      FROM lineitem
      UNION ALL
      SELECT 'l_extendedprice', COUNT(*),
             SUM(CASE WHEN l_extendedprice IS NULL THEN 1 ELSE 0 END),
             COUNT(DISTINCT l_extendedprice),
             CAST(MIN(l_extendedprice) AS DOUBLE),
             CAST(MAX(l_extendedprice) AS DOUBLE), NULL, NULL
      FROM lineitem
      UNION ALL
      SELECT 'l_linestatus', COUNT(*),
             SUM(CASE WHEN l_linestatus IS NULL THEN 1 ELSE 0 END),
             COUNT(DISTINCT l_linestatus), NULL, NULL,
             MIN(l_linestatus), MAX(l_linestatus)
      FROM lineitem
      UNION ALL
      SELECT 'l_quantity', COUNT(*),
             SUM(CASE WHEN l_quantity IS NULL THEN 1 ELSE 0 END),
             COUNT(DISTINCT l_quantity),
             CAST(MIN(l_quantity) AS DOUBLE),
             CAST(MAX(l_quantity) AS DOUBLE), NULL, NULL
      FROM lineitem
      UNION ALL
      SELECT 'l_returnflag', COUNT(*),
             SUM(CASE WHEN l_returnflag IS NULL THEN 1 ELSE 0 END),
             COUNT(DISTINCT l_returnflag), NULL, NULL,
             MIN(l_returnflag), MAX(l_returnflag)
      FROM lineitem
    ) ORDER BY col_name"""


TRIMMED_MEAN_SQL = """
    WITH m AS (
      SELECT event_type,
             CAST(floor(value * 1000) AS BIGINT) AS milli
      FROM events
    ), r AS (
      SELECT event_type, milli,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY milli) AS rn,
             COUNT(*) OVER (PARTITION BY event_type) AS n
      FROM m
    )
    SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
           CAST(MAX(n) - 2 * (MAX(n) * 5 // 100) AS BIGINT) AS n_kept,
           CAST(SUM(CASE WHEN rn > n * 5 // 100
                          AND rn <= n - n * 5 // 100
                         THEN milli ELSE 0 END) AS DOUBLE)
             / (1000.0 * (MAX(n) - 2 * (MAX(n) * 5 // 100)))
             AS trimmed_mean
    FROM r GROUP BY event_type ORDER BY event_type"""


EQUIDEPTH_SQL = """
    WITH m AS (
      SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
      FROM lineitem
    ), r AS (
      SELECT cents, ntile(8) OVER (ORDER BY cents) AS bucket FROM m
    )
    SELECT CAST(bucket AS BIGINT) AS bucket,
           CAST(COUNT(*) AS BIGINT) AS n,
           MIN(cents) AS lo_cents, MAX(cents) AS hi_cents,
           CAST(SUM(cents) AS BIGINT) AS sum_cents
    FROM r GROUP BY bucket ORDER BY bucket"""


TIME_TRAVEL_SQL = _CHANGELOG_LATEST.format(asof=" WHERE version <= 2")


JOIN_CARDINALITY_SQL = """
    WITH k AS (
      SELECT CAST(l_partkey AS VARCHAR) AS key,
             CAST(COUNT(*) AS HUGEINT) AS c
      FROM lineitem GROUP BY 1
    ), rs AS (SELECT * FROM (VALUES (0),(1),(2),(3)) t(r)),
    hb AS (
      SELECT key, r,
             list_sum(list_transform(range(1, 9),
               i -> CAST(strpos('0123456789abcdef',
                    substr(md5(key), CAST(8*r + i AS INTEGER), 1))
                    - 1 AS HUGEINT) << (4 * (8 - i)))) AS hv
      FROM k CROSS JOIN rs
    ),
    cells AS (
      SELECT hb.r, hb.hv % 8192 AS b, SUM(k.c) AS tot
      FROM hb JOIN k USING (key) GROUP BY 1, 2
    ),
    f2 AS (SELECT r, SUM(tot * tot) AS s FROM cells GROUP BY r),
    ex AS (SELECT SUM(c * c) AS x, CAST(COUNT(*) AS BIGINT) AS nk FROM k)
    SELECT ex.nk AS n_keys,
           CAST(ex.x AS BIGINT) AS exact_join_size,
           CAST((SELECT MIN(s) FROM f2) AS BIGINT) AS cms_estimate,
           CAST(((SELECT MIN(s) FROM f2) - ex.x) * 1000000 // ex.x
                AS BIGINT) AS err_ppm
    FROM ex"""


ZORDER_RANGE_SQL = """
    SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(floor(value * 1000) AS BIGINT)) AS BIGINT)
             AS sum_milli
    FROM events
    WHERE epoch_us(ts) // 86400000000 BETWEEN 19728 AND 19732
      AND user_id BETWEEN 3 AND 9
    GROUP BY event_type ORDER BY event_type"""


PRIVATE_COUNT_SQL = """
    WITH r AS (
      SELECT CASE WHEN substr(md5(CAST(event_id AS VARCHAR)), 1, 1)
                       <= 'b'
                  THEN CASE WHEN event_type = 'purchase' THEN 1 ELSE 0
                       END
                  ELSE CASE WHEN event_type = 'purchase' THEN 0 ELSE 1
                       END
             END AS report,
             CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS t
      FROM events
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(report) AS BIGINT) AS observed,
           CAST(4 * SUM(report) - COUNT(*) AS DOUBLE) / 2.0 AS estimate,
           CAST(SUM(t) AS BIGINT) AS true_n,
           CAST(4 * SUM(report) - COUNT(*) AS DOUBLE) / 2.0
             - CAST(SUM(t) AS DOUBLE) AS err
    FROM r"""


BIG_SPENDERS_SQL = """
    WITH t AS (
      SELECT c.c_custkey, c.c_name, c.c_nationkey,
             COALESCE(SUM(CAST(round(o.o_totalprice * 100) AS BIGINT)),
                      0) AS cents
      FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
      GROUP BY 1, 2, 3
    ), nat AS (
      SELECT c_nationkey, SUM(cents) AS s,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM t GROUP BY 1
    )
    SELECT t.c_custkey, t.c_name, CAST(t.c_nationkey AS BIGINT)
             AS c_nationkey,
           CAST(t.cents AS DOUBLE) / 100.0 AS total
    FROM t JOIN nat USING (c_nationkey)
    WHERE t.cents * nat.n > 2 * nat.s
    ORDER BY t.c_custkey"""


REPLICA_REPAIR_SQL = """
    WITH base AS (
      SELECT o_orderkey AS k,
             CAST(round(o_totalprice * 100) AS BIGINT) AS cents
      FROM orders
    ), j AS (
      SELECT k,
             cents + CASE WHEN substr(md5(CAST(k AS VARCHAR) || ':0'),
                                      1, 1) IN ('0','1')
                          THEN 777 ELSE 0 END AS a,
             cents + CASE WHEN substr(md5(CAST(k AS VARCHAR) || ':1'),
                                      1, 1) IN ('0','1')
                          THEN 1554 ELSE 0 END AS b,
             cents + CASE WHEN substr(md5(CAST(k AS VARCHAR) || ':2'),
                                      1, 1) IN ('0','1')
                          THEN 2331 ELSE 0 END AS c
      FROM base
    ), rep AS (
      SELECT k, a, b, c,
             CASE WHEN a = b OR a = c THEN a
                  WHEN b = c THEN b
                  ELSE LEAST(a, b, c) END AS r
      FROM j
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_keys,
           CAST(SUM(CASE WHEN a <> r THEN 1 ELSE 0 END) AS BIGINT)
             AS bad_r0,
           CAST(SUM(CASE WHEN b <> r THEN 1 ELSE 0 END) AS BIGINT)
             AS bad_r1,
           CAST(SUM(CASE WHEN c <> r THEN 1 ELSE 0 END) AS BIGINT)
             AS bad_r2,
           CAST(SUM(CASE WHEN a <> b AND b <> c AND a <> c
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_all_diff
    FROM rep"""


REVENUE_ROLLUP_GEO_SQL = """
    WITH leaf AS (
      SELECT r.r_name, n.n_name,
             CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents
      FROM orders o
      JOIN customer c ON c.c_custkey = o.o_custkey
      JOIN nation n ON n.n_nationkey = c.c_nationkey
      JOIN region r ON r.r_regionkey = n.n_regionkey
    )
    SELECT COALESCE(r_name, 'ALL') AS r_name,
           COALESCE(n_name, 'ALL') AS n_name,
           CAST(SUM(cents) AS DOUBLE) / 100.0 AS total,
           CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM leaf GROUP BY ROLLUP (r_name, n_name)
    ORDER BY r_name, n_name"""


MAX_CONCURRENT_SQL = """
    WITH e AS (
      SELECT user_id, ts,
             CASE WHEN LAG(ts) OVER w IS NULL
                       OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                  THEN 1 ELSE 0 END AS new_s
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    ), s AS (
      SELECT user_id,
             CAST(SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id,
             ts FROM e
    ), iv AS (
      SELECT epoch_us(MIN(ts)) AS s_us, epoch_us(MAX(ts)) AS e_us
      FROM s GROUP BY user_id, session_id
    ), pts AS (
      SELECT s_us AS us, 1 AS net FROM iv
      UNION ALL SELECT e_us + 1, -1 FROM iv
      UNION ALL
      SELECT unnest(generate_series(s_us // 86400000000 + 1,
                                    (e_us + 1) // 86400000000))
               * 86400000000, 0
      FROM iv
      WHERE (e_us + 1) // 86400000000 > s_us // 86400000000
    ), g AS (
      SELECT us, SUM(net) AS net FROM pts GROUP BY us
    ), r AS (
      SELECT us, SUM(net) OVER (ORDER BY us
                  ROWS UNBOUNDED PRECEDING) AS run
      FROM g
    )
    SELECT strftime(CAST(to_timestamp((us // 86400000000) * 86400)
                         AS TIMESTAMP), '%Y-%m-%d') AS day,
           CAST(MAX(run) AS BIGINT) AS max_concurrent
    FROM r GROUP BY us // 86400000000 ORDER BY day"""


WEIGHTED_MEDIAN_SQL = """
    WITH m AS (
      SELECT l_returnflag AS flag,
             CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
             CAST(round(l_quantity) AS BIGINT) AS w
      FROM lineitem
    ), h AS (
      SELECT flag, cents, SUM(w) AS w FROM m GROUP BY 1, 2
    ), c AS (
      SELECT flag, cents,
             SUM(w) OVER (PARTITION BY flag ORDER BY cents
                          ROWS UNBOUNDED PRECEDING) AS cum,
             SUM(w) OVER (PARTITION BY flag) AS total
      FROM h
    )
    SELECT flag AS l_returnflag,
           CAST(MAX(total) AS BIGINT) AS total_qty,
           CAST(MIN(CASE WHEN 2 * cum >= total THEN cents END)
                AS BIGINT) AS wmedian_cents
    FROM c GROUP BY flag ORDER BY flag"""


DRIFT_PSI_SQL = """
    WITH m AS (
      SELECT CAST(floor(value * 1000) AS BIGINT) AS milli,
             CASE WHEN epoch_us(ts) // 86400000000 >= 19738
                  THEN 1 ELSE 0 END AS half
      FROM events
    ), ext AS (
      SELECT MIN(milli) AS lo,
             (MAX(milli) - MIN(milli)) // 10 + 1 AS width
      FROM m
    ), binned AS (
      SELECT half,
             LEAST((milli - ext.lo) // ext.width, 9) AS bin
      FROM m, ext
    ), c AS (
      SELECT bin,
             SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS n0,
             SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS n1
      FROM binned GROUP BY bin
    ), tot AS (
      SELECT SUM(n0) AS t0, SUM(n1) AS t1 FROM c
    ), grid AS (
      SELECT g.bin, COALESCE(c.n0, 0) AS n0, COALESCE(c.n1, 0) AS n1
      FROM (SELECT unnest(generate_series(0, 9)) AS bin) g
      LEFT JOIN c ON c.bin = g.bin
    ), terms AS (
      SELECT grid.bin,
             CAST(grid.n0 AS BIGINT) AS n_before,
             CAST(grid.n1 AS BIGINT) AS n_after,
             ((2.0 * grid.n0 + 1) / (2.0 * tot.t0 + 10)
              - (2.0 * grid.n1 + 1) / (2.0 * tot.t1 + 10))
             * ln(((2.0 * grid.n0 + 1) / (2.0 * tot.t0 + 10))
                  / ((2.0 * grid.n1 + 1) / (2.0 * tot.t1 + 10)))
               AS term
      FROM grid, tot
    )
    SELECT CAST(t.bin AS BIGINT) AS bin,
           CAST(ext.lo + t.bin * ext.width AS BIGINT) AS lo_milli,
           CAST(ext.lo + (t.bin + 1) * ext.width - 1 AS BIGINT)
             AS hi_milli,
           t.n_before, t.n_after, t.term,
           (SELECT list_sum(list(term ORDER BY bin)) FROM terms)
             AS psi_total
    FROM terms t, ext ORDER BY bin"""


AB_EXPERIMENT_SQL = """
    WITH u AS (
      SELECT user_id,
             MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
               AS conv,
             CASE WHEN substr(md5(CAST(user_id AS VARCHAR)), 1, 1) < '8'
                  THEN 1 ELSE 0 END AS arm
      FROM events GROUP BY user_id
    ), s AS (
      SELECT CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_c,
             CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_t,
             CAST(SUM(CASE WHEN arm = 0 THEN conv ELSE 0 END)
                  AS BIGINT) AS x_c,
             CAST(SUM(CASE WHEN arm = 1 THEN conv ELSE 0 END)
                  AS BIGINT) AS x_t
      FROM u
    )
    SELECT n_c AS n_control, n_t AS n_treatment,
           x_c AS conv_control, x_t AS conv_treatment,
           CAST(x_c AS DOUBLE) / CAST(n_c AS DOUBLE) AS rate_control,
           CAST(x_t AS DOUBLE) / CAST(n_t AS DOUBLE) AS rate_treatment,
           CAST(x_t AS DOUBLE) / CAST(n_t AS DOUBLE)
             - CAST(x_c AS DOUBLE) / CAST(n_c AS DOUBLE) AS lift,
           (CAST(x_t AS DOUBLE) / CAST(n_t AS DOUBLE)
            - CAST(x_c AS DOUBLE) / CAST(n_c AS DOUBLE))
           / sqrt((CAST(x_c + x_t AS DOUBLE) / CAST(n_c + n_t AS DOUBLE))
                  * (1.0 - CAST(x_c + x_t AS DOUBLE)
                           / CAST(n_c + n_t AS DOUBLE))
                  * (1.0 / n_c + 1.0 / n_t)) AS z_stat
    FROM s"""


BASKET_PAIRS_SQL = """
    WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                FROM lineitem),
    pr AS (
      SELECT a.p AS p1, b.p AS p2, COUNT(*) AS n_pair
      FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
      GROUP BY 1, 2
    ),
    ps AS (SELECT p, COUNT(*) AS n FROM op GROUP BY p),
    tot AS (SELECT COUNT(DISTINCT o) AS n_orders FROM op)
    SELECT pr.p1, pr.p2, CAST(pr.n_pair AS BIGINT) AS n_pair,
           CAST(sa.n AS BIGINT) AS n_a, CAST(sb.n AS BIGINT) AS n_b,
           CAST(pr.n_pair * tot.n_orders * 1000000
                // (sa.n * sb.n) AS BIGINT) AS lift_ppm
    FROM pr JOIN ps sa ON sa.p = pr.p1 JOIN ps sb ON sb.p = pr.p2, tot
    ORDER BY n_pair DESC, p1, p2 LIMIT 50"""


_HEX8 = ("list_sum(list_transform(range(1, 9), "
         "i -> CAST(strpos('0123456789abcdef', "
         "substr({h}, CAST(i{off} AS INTEGER), 1)) - 1 AS BIGINT) "
         "<< (4 * (8 - i))))")


SPATIAL_JOIN_SQL = f"""
    WITH pts AS (
      SELECT c_custkey AS id,
             {_HEX8.format(h="md5(CAST(c_custkey AS VARCHAR))", off="")}
               % 1000000 AS x,
             {_HEX8.format(h="md5(CAST(c_custkey AS VARCHAR))", off=" + 8")}
               % 1000000 AS y
      FROM customer
    ), r AS (SELECT 10000000 // COUNT(*) AS R FROM customer)
    SELECT a.id AS c1, b.id AS c2,
           CAST((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
                AS BIGINT) AS dist2
    FROM pts a, pts b, r
    WHERE a.id < b.id
      AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
            <= r.R * r.R
    ORDER BY c1, c2"""


CUSTDIST_SQL = """
    SELECT CAST(c_count AS BIGINT) AS c_count,
           CAST(COUNT(*) AS BIGINT) AS custdist
    FROM (SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
          FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
          GROUP BY 1)
    GROUP BY c_count ORDER BY custdist DESC, c_count DESC"""


def _nb_sql() -> str:
    """The SQL twin, generated so both engines share one literal
    score expression per class (left-associated, identical order)."""
    nt = len(NB_TERMS)
    tf_defs = ",\n             ".join(
        f"len(list_filter(string_split(text, ' '), x -> x = '{t}')) "
        f"AS tf{j}" for j, t in enumerate(NB_TERMS))
    agg = ",\n             ".join(
        [f"CAST(SUM(tf{j}) AS BIGINT) AS c{j}" for j in range(nt)]
        + ["CAST(COUNT(*) AS BIGINT) AS nd"])
    piv = ",\n             ".join(
        f"MAX(CASE WHEN lang = '{lg}' THEN {c} END) AS {c}_{lg}"
        for lg in NB_LANGS
        for c in [f"c{j}" for j in range(nt)] + ["nd"])
    tot = {lg: "(" + " + ".join(f"g.c{j}_{lg}" for j in range(nt)) + ")"
           for lg in NB_LANGS}

    def score(lg: str) -> str:
        e = (f"ln(CAST(g.nd_{lg} AS DOUBLE) / CAST(g.n_all AS DOUBLE))")
        for j in range(nt):
            e += (f"\n             + t.tf{j} * ln((g.c{j}_{lg} + 1.0)"
                  f" / ({tot[lg]} + {float(nt):.1f}))")
        return e

    scores = ",\n           ".join(f"{score(lg)} AS s_{lg}"
                                   for lg in NB_LANGS)
    pred = "CASE "
    for lg in NB_LANGS:
        others = [o for o in NB_LANGS if o != lg]
        cond = " AND ".join(f"s_{lg} >= s_{o}" for o in others)
        pred += f"WHEN {cond} THEN '{lg}' "
    pred += "END"
    return f"""
    WITH t AS (
      SELECT doc_id, lang,
             {tf_defs}
      FROM documents
    ), cl AS (
      SELECT lang,
             {agg}
      FROM t GROUP BY lang
    ), g AS (
      SELECT {piv},
             CAST(SUM(nd) AS BIGINT) AS n_all
      FROM cl
    ), sc AS (
      SELECT t.lang,
           {scores}
      FROM t, g
    )
    SELECT lang, {pred} AS pred, CAST(COUNT(*) AS BIGINT) AS n
    FROM sc GROUP BY 1, 2 ORDER BY lang, pred"""


NAIVE_BAYES_SQL = _nb_sql()


def _rle_sql() -> str:
    def one(col: str, expr: str) -> str:
        return f"""
      SELECT '{col}' AS col,
             CAST((SELECT COUNT(*) FROM lineitem) AS BIGINT) AS n_rows,
             CAST(COUNT(*) AS BIGINT) AS n_runs,
             CAST(MAX(len) AS BIGINT) AS max_run,
             CAST(COUNT(*) * 1000000
                  // (SELECT COUNT(*) FROM lineitem) AS BIGINT)
               AS runs_ppm
      FROM (
        SELECT r, COUNT(*) AS len FROM (
          SELECT SUM(chg) OVER (ORDER BY k, ln
                                ROWS UNBOUNDED PRECEDING) AS r
          FROM (
            SELECT l_orderkey AS k, l_linenumber AS ln,
                   CASE WHEN LAG({expr}) OVER (ORDER BY l_orderkey,
                                               l_linenumber)
                        IS DISTINCT FROM {expr} THEN 1 ELSE 0 END AS chg
            FROM lineitem)
        ) GROUP BY r)"""
    parts = [one("l_linestatus", "l_linestatus"),
             one("l_partkey", "l_partkey"),
             one("l_returnflag", "l_returnflag"),
             one("l_shipdate", "epoch_us(l_shipdate)")]
    return " UNION ALL ".join(parts) + " ORDER BY col"


RLE_ADVISOR_SQL = _rle_sql()


def _logreg_sql() -> str:
    f = ("SELECT CASE WHEN l_returnflag = 'R' THEN 1.0 ELSE 0.0 END "
         "AS y, l_quantity / 50.0 AS x1, l_discount * 10.0 AS x2 "
         "FROM lineitem")
    ctes = [f"f AS ({f})",
            "cnt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM f)",
            "w0 AS (SELECT 0.0 AS a, 0.0 AS b, 0.0 AS c)"]
    for i in range(LOGREG_ITERS):
        sig = (f"1.0 / (1.0 + exp(-(w.a + w.b * f.x1 + w.c * f.x2)))")
        ctes.append(
            f"g{i} AS (SELECT "
            f"CAST(SUM(CAST(FLOOR(({sig} - f.y) * 1000000000.0) "
            f"AS BIGINT)) AS BIGINT) AS g0, "
            f"CAST(SUM(CAST(FLOOR((({sig} - f.y) * f.x1) "
            f"* 1000000000.0) AS BIGINT)) AS BIGINT) AS g1, "
            f"CAST(SUM(CAST(FLOOR((({sig} - f.y) * f.x2) "
            f"* 1000000000.0) AS BIGINT)) AS BIGINT) AS g2, "
            f"CAST(SUM(CASE WHEN ({sig} >= 0.5) = (f.y = 1.0) "
            f"THEN 1 ELSE 0 END) AS BIGINT) AS ok "
            f"FROM f, w{i} w)")
        ctes.append(
            f"w{i+1} AS (SELECT "
            f"w.a - ((CAST(g.g0 AS DOUBLE) / 1000000000.0) / cnt.nd) "
            f"AS a, "
            f"w.b - ((CAST(g.g1 AS DOUBLE) / 1000000000.0) / cnt.nd) "
            f"AS b, "
            f"w.c - ((CAST(g.g2 AS DOUBLE) / 1000000000.0) / cnt.nd) "
            f"AS c FROM w{i} w, g{i} g, cnt)")
    k = LOGREG_ITERS
    return (f"WITH {', '.join(ctes)} "
            f"SELECT w.a AS w_bias, w.b AS w_qty, w.c AS w_disc, "
            f"cnt.n AS n_rows, g{k-1}.ok AS n_correct "
            f"FROM w{k} w, g{k-1}, cnt")


LOGREG_SQL = _logreg_sql()


def _bpe_sql() -> str:
    ctes = ["d0 AS (SELECT ' ' || text || ' ' AS cur FROM documents)"]
    sel = []
    for r in range(BPE_ROUNDS):
        ctes.append(f"""p{r} AS (
          SELECT pair, CAST(COUNT(*) AS BIGINT) AS n FROM (
            SELECT tk[CAST(i AS BIGINT)] || ' '
                   || tk[CAST(i AS BIGINT) + 1] AS pair
            FROM (SELECT string_split(trim(cur, ' '), ' ') AS tk
                  FROM d{r}),
                 UNNEST(range(1, len(tk))) AS u(i))
          GROUP BY pair ORDER BY n DESC, pair LIMIT 1)""")
        ctes.append(
            f"d{r+1} AS (SELECT replace(replace(d.cur, "
            f"' ' || p.pair || ' ', "
            f"' ' || replace(p.pair, ' ', '_') || ' '), "
            f"' ' || p.pair || ' ', "
            f"' ' || replace(p.pair, ' ', '_') || ' ') AS cur "
            f"FROM d{r} d, p{r} p)")
        sel.append(f"SELECT {r} AS round, pair, n FROM p{r}")
    return ("WITH " + ", ".join(ctes) + " "
            + " UNION ALL ".join(sel) + " ORDER BY round")


BPE_MERGES_SQL = _bpe_sql()


BENFORD_SQL = """
    WITH c AS (
      SELECT CAST(substr(CAST(CAST(round(o_totalprice * 100.0, 0)
                                   AS BIGINT) AS VARCHAR), 1, 1)
                  AS BIGINT) AS digit
      FROM orders
    ), o AS (
      SELECT digit, CAST(COUNT(*) AS BIGINT) AS n_obs
      FROM c GROUP BY digit
    ), t AS (SELECT CAST(SUM(n_obs) AS BIGINT) AS n FROM o)
    SELECT d.digit, COALESCE(o.n_obs, 0) AS n_obs,
           CAST(t.n AS DOUBLE) * log10(1.0 + 1.0 / CAST(d.digit
                                                        AS DOUBLE))
             AS expected,
           ((CAST(COALESCE(o.n_obs, 0) AS DOUBLE)
             - CAST(t.n AS DOUBLE) * log10(1.0 + 1.0
                                           / CAST(d.digit AS DOUBLE)))
            * (CAST(COALESCE(o.n_obs, 0) AS DOUBLE)
               - CAST(t.n AS DOUBLE) * log10(1.0 + 1.0
                                             / CAST(d.digit
                                                    AS DOUBLE))))
           / (CAST(t.n AS DOUBLE) * log10(1.0 + 1.0
                                          / CAST(d.digit AS DOUBLE)))
             AS chi2_term
    FROM (SELECT UNNEST(range(1, 10)) AS digit) d
    LEFT JOIN o ON o.digit = d.digit, t
    ORDER BY d.digit"""


GDPR_CASCADE_SQL = """
    WITH dc AS (
      SELECT c_custkey FROM customer
      WHERE substr(md5(CAST(c_custkey AS VARCHAR)), 1, 1) = '0'
    ), do_ AS (
      SELECT o_orderkey FROM orders
      WHERE o_custkey IN (SELECT c_custkey FROM dc)
    )
    SELECT 'customer' AS tbl,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM customer) AS n_total,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM dc) AS n_purged,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM customer)
             - (SELECT CAST(COUNT(*) AS BIGINT) FROM dc) AS n_retained
    UNION ALL
    SELECT 'lineitem',
           (SELECT CAST(COUNT(*) AS BIGINT) FROM lineitem),
           (SELECT CAST(COUNT(*) AS BIGINT) FROM lineitem
             WHERE l_orderkey IN (SELECT o_orderkey FROM do_)),
           (SELECT CAST(COUNT(*) AS BIGINT) FROM lineitem)
             - (SELECT CAST(COUNT(*) AS BIGINT) FROM lineitem
                 WHERE l_orderkey IN (SELECT o_orderkey FROM do_))
    UNION ALL
    SELECT 'orders',
           (SELECT CAST(COUNT(*) AS BIGINT) FROM orders),
           (SELECT CAST(COUNT(*) AS BIGINT) FROM do_),
           (SELECT CAST(COUNT(*) AS BIGINT) FROM orders)
             - (SELECT CAST(COUNT(*) AS BIGINT) FROM do_)
    ORDER BY tbl"""


_MD5H_NODE = md5h('CAST(node AS VARCHAR)')
HIERARCHY_SQL = f"""
    WITH RECURSIVE w AS (
      SELECT p_partkey AS key, p_partkey AS node, 0 AS depth
      FROM part
      UNION ALL
      SELECT key, CAST({_MD5H_NODE} % node AS BIGINT), depth + 1
      FROM w WHERE node >= 16
    ),
    term AS (SELECT key, node AS root, depth FROM w WHERE node < 16)
    SELECT t.root,
           CAST(COUNT(*) AS BIGINT) AS n_nodes,
           CAST(SUM(CAST(round(p.p_retailprice * 100) AS BIGINT))
                AS BIGINT) AS sum_cents,
           CAST(MAX(t.depth) AS BIGINT) AS max_depth
    FROM term t JOIN part p ON t.key = p.p_partkey
    GROUP BY t.root ORDER BY t.root"""


BLOOM_JOIN_SQL = """
    SELECT strftime(o_orderdate, '%Y-%m') AS month,
           CAST(COUNT(*) AS BIGINT) AS n_items,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE o_orderpriority = '1-URGENT'
    GROUP BY month ORDER BY month"""


_MD5H_USER = md5h('CAST(user_id AS VARCHAR)')
_MD5H_RULE = md5h("'rule-' || CAST(j AS VARCHAR)")
LPM_ENRICH_SQL = f"""
    WITH rules AS (
      SELECT CAST(j AS BIGINT) AS j,
             CAST(4 + (j % 5) * 2 AS BIGINT) AS plen,
             CAST(({_MD5H_RULE}) % 4294967296 AS BIGINT) AS pbits
      FROM range(64) t(j)
    ),
    users AS (
      SELECT DISTINCT user_id,
             CAST(({_MD5H_USER}) % 4294967296 AS BIGINT) AS ip
      FROM events
    ),
    matched AS (
      SELECT u.user_id, r.j, r.plen,
             ROW_NUMBER() OVER (PARTITION BY u.user_id
                                ORDER BY r.plen DESC, r.j) AS rk
      FROM users u JOIN rules r
        ON (u.ip // CAST(POWER(2, 32 - r.plen) AS BIGINT))
         = (r.pbits // CAST(POWER(2, 32 - r.plen) AS BIGINT))
    ),
    reg AS (
      SELECT u.user_id,
             COALESCE('r' || CAST(m.j AS VARCHAR), 'none') AS region
      FROM users u LEFT JOIN (SELECT * FROM matched WHERE rk = 1) m
        USING (user_id)
    )
    SELECT reg.region,
           CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS n_users,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CAST(round(e.value * 100) AS BIGINT)) AS BIGINT)
               AS sum_cents
    FROM events e JOIN reg ON e.user_id = reg.user_id
    GROUP BY reg.region ORDER BY reg.region"""


Q5_SQL = """
    SELECT n_name,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue
    FROM customer, orders, lineitem, supplier, nation, region
    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      AND r_name = 'ASIA'
      AND o_orderdate >= TIMESTAMP '1995-01-01'
      AND o_orderdate < TIMESTAMP '1996-01-01'
    GROUP BY n_name ORDER BY revenue DESC"""


PIT_SNAPSHOT_SQL = """
    WITH s AS (
      SELECT user_id, event_id, event_type, epoch_us(ts) AS us,
             lag(event_type) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS prev_type
      FROM events
    ), runs AS (
      SELECT user_id, event_type, us,
             CASE WHEN prev_type IS NULL OR prev_type <> event_type
                  THEN 1 ELSE 0 END AS is_start,
             event_id
      FROM s
    ), grp AS (
      SELECT *, SUM(is_start) OVER (PARTITION BY user_id
                                    ORDER BY us, event_id) AS run_id
      FROM runs
    ), iv AS (
      SELECT user_id, run_id, MIN(event_type) AS event_type,
             MIN(us) AS valid_from_us
      FROM grp GROUP BY user_id, run_id
    ), hist AS (
      SELECT user_id, event_type, valid_from_us,
             COALESCE(lead(valid_from_us) OVER (PARTITION BY user_id
                                                ORDER BY run_id),
                      9223372036854775807) AS valid_to_us
      FROM iv
    ), days AS (
      SELECT (19723 + d) AS day,
             (19723 + d) * 86400000000 AS t_us
      FROM range(31) g(d)
    )
    SELECT CAST(d.day AS BIGINT) AS day, h.event_type AS state,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM days d JOIN hist h
      ON h.valid_from_us <= d.t_us AND d.t_us < h.valid_to_us
    GROUP BY d.day, h.event_type ORDER BY day, state"""


WINDOWED_PAIR_SQL = """
    WITH c AS (SELECT user_id, epoch_us(ts) AS us FROM events
               WHERE event_type = 'click'),
         p AS (SELECT user_id, epoch_us(ts) AS us FROM events
               WHERE event_type = 'purchase')
    SELECT CAST(c.us // 86400000000 AS BIGINT) AS day,
           CAST(COUNT(*) AS BIGINT) AS n_pairs,
           CAST(SUM(p.us - c.us) AS BIGINT) AS sum_lag_us
    FROM c JOIN p ON p.user_id = c.user_id
      AND p.us > c.us AND p.us <= c.us + 3600000000
    GROUP BY day ORDER BY day"""


_MD5H_BOOT = md5h("CAST(event_id AS VARCHAR) || '|' || CAST(r AS VARCHAR)")
BOOTSTRAP_SQL = f"""
    WITH w AS (
      SELECT r, CAST(round(value * 100) AS BIGINT) AS cents,
             {' + '.join('(CASE WHEN (%s) >= CAST(%d AS HUGEINT) '
                         'THEN 1 ELSE 0 END)' % (_MD5H_BOOT, t)
                         for t in _POIS_T)} AS wgt
      FROM events CROSS JOIN range({_BOOT_B}) g(r)
    ),
    reps AS (
      SELECT r, CAST(SUM(wgt * cents) AS DOUBLE) / SUM(wgt) AS m
      FROM w GROUP BY r
    ),
    ord AS (SELECT m, ROW_NUMBER() OVER (ORDER BY m) AS rk FROM reps)
    SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM events) AS n_events,
           (SELECT CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
              FROM events)
             / (SELECT COUNT(*) FROM events) AS mean_cents,
           (SELECT m FROM ord WHERE rk = 2) AS boot_lo,
           (SELECT m FROM ord WHERE rk = {_BOOT_B - 1}) AS boot_hi"""


JOIN_ADVISOR_SQL = "\nUNION ALL\n".join("""
    SELECT '{name}' AS join_path, s.fact_rows, d.dim_rows, s.n_keys,
           s.max_freq,
           CASE WHEN d.dim_rows * 8 <= s.fact_rows THEN 'broadcast'
                WHEN s.max_freq * s.n_keys >= s.fact_rows * 16
                  THEN 'skew_salted'
                ELSE 'hash_exchange' END AS strategy
    FROM (SELECT CAST(SUM(n) AS BIGINT) AS fact_rows,
                 CAST(COUNT(*) AS BIGINT) AS n_keys,
                 CAST(MAX(n) AS BIGINT) AS max_freq
          FROM (SELECT {key}, COUNT(*) AS n FROM {fact}
                GROUP BY {key})) s,
         (SELECT CAST(COUNT(*) AS BIGINT) AS dim_rows FROM {dim}) d
""".format(name=name, fact=fact, key=key, dim=dim)
    for name, fact, key, dim in _JOIN_CANDS) + "\nORDER BY join_path"


STREAKS_SQL = """
    WITH d AS (SELECT DISTINCT user_id,
                      CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
               FROM events),
         r AS (SELECT user_id, day,
                      day - ROW_NUMBER() OVER (PARTITION BY user_id
                                               ORDER BY day) AS grp
               FROM d),
         runs AS (SELECT user_id, COUNT(*) AS len
                  FROM r GROUP BY user_id, grp),
         mx AS (SELECT user_id, MAX(len) AS streak
                FROM runs GROUP BY user_id)
    SELECT CAST(streak AS BIGINT) AS streak_len,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM mx GROUP BY streak_len ORDER BY streak_len"""


FD_DISCOVERY_SQL = "\nUNION ALL\n".join("""
    SELECT '{tbl}.{lhs}->{rhs}' AS fd,
           CAST(COUNT(*) AS BIGINT) AS n_lhs,
           CAST(SUM(c) AS BIGINT) AS n_pairs,
           CAST(SUM(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_violating_lhs,
           CASE WHEN SUM(CASE WHEN c > 1 THEN 1 ELSE 0 END) = 0
                THEN 'yes' ELSE 'no' END AS holds
    FROM (SELECT {lhs}, COUNT(*) AS c
          FROM (SELECT DISTINCT {lhs}, {rhs} FROM {tbl})
          GROUP BY {lhs})
""".format(tbl=tbl, lhs=lhs, rhs=rhs)
    for tbl, lhs, rhs in _FD_CANDS) + "\nORDER BY fd"


CUSUM_SQL = """
    WITH c AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                      CAST(COUNT(*) AS BIGINT) AS n
               FROM events GROUP BY day),
         s AS (SELECT day, n,
                      SUM(n) OVER (ORDER BY day) AS S,
                      ROW_NUMBER() OVER (ORDER BY day) AS i,
                      COUNT(*) OVER () AS nd,
                      SUM(n) OVER () AS total
               FROM c)
    SELECT day AS day_star,
           CAST(ABS(S * nd - total * i) AS BIGINT) AS cusum_abs,
           CAST(nd AS BIGINT) AS n_days,
           CAST(total AS BIGINT) AS total_events,
           CAST(S AS DOUBLE) / CAST(i AS DOUBLE) AS pre_mean,
           CASE WHEN i < nd THEN CAST(total - S AS DOUBLE)
                                 / CAST(nd - i AS DOUBLE)
                ELSE NULL END AS post_mean
    FROM s
    ORDER BY ABS(S * nd - total * i) DESC, day ASC
    LIMIT 1"""


MOVERS_SQL = """
    WITH r AS (
      SELECT l_partkey AS p_partkey,
             CAST(SUM(CASE WHEN epoch_us(l_shipdate) < 899251200000000
               THEN CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
               ELSE 0 END) AS BIGINT) AS rev_a,
             CAST(SUM(CASE WHEN epoch_us(l_shipdate) >= 899251200000000
               THEN CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
               ELSE 0 END) AS BIGINT) AS rev_b
      FROM lineitem GROUP BY l_partkey)
    SELECT p_partkey, rev_a, rev_b, rev_b - rev_a AS delta,
           CASE WHEN rev_a > 0
                THEN CAST(rev_b AS DOUBLE) / CAST(rev_a AS DOUBLE)
                ELSE NULL END AS ratio
    FROM r ORDER BY delta DESC, p_partkey ASC LIMIT 20"""


LATE_ORDERS_SQL = """
    WITH m AS (SELECT l_orderkey,
                      MAX(epoch_us(l_shipdate)) AS max_ship
               FROM lineitem GROUP BY l_orderkey)
    SELECT o_orderpriority,
           CAST(COUNT(*) AS BIGINT) AS n_orders,
           CAST(SUM(CASE WHEN m.max_ship IS NOT NULL
                          AND m.max_ship > epoch_us(o_orderdate)
                              + 5184000000000
                    THEN 1 ELSE 0 END) AS BIGINT) AS n_late
    FROM orders o LEFT JOIN m ON m.l_orderkey = o.o_orderkey
    GROUP BY o_orderpriority ORDER BY o_orderpriority"""


RECONCILE_SQL = """
    WITH r AS (SELECT l_orderkey,
                      CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(ROUND(l_discount*100) AS BIGINT))
                        * (100 + CAST(ROUND(l_tax*100) AS BIGINT)))
                        AS BIGINT) AS rec
               FROM lineitem GROUP BY l_orderkey),
         j AS (SELECT CAST(ROUND(o.o_totalprice*100) AS BIGINT) * 10000
                        AS tp, r.rec
               FROM orders o LEFT JOIN r ON r.l_orderkey = o.o_orderkey),
         c AS (SELECT CASE WHEN rec IS NULL THEN 'no_lineitems'
                           WHEN rec = tp THEN 'exact'
                           WHEN ABS(rec - tp) * 100 <= tp
                             THEN 'within_1pct'
                           ELSE 'mismatch' END AS bucket,
                      CASE WHEN rec IS NULL THEN tp
                           ELSE ABS(rec - tp) END AS diff
               FROM j)
    SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_orders,
           CAST(SUM(diff) AS BIGINT) AS sum_abs_diff
    FROM c GROUP BY bucket ORDER BY bucket"""


PARETO_SQL = """
    WITH uc AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c
                FROM events GROUP BY user_id),
         h AS (SELECT c, CAST(COUNT(*) AS BIGINT) AS m
               FROM uc GROUP BY c),
         t AS (SELECT CAST(SUM(c * m) AS BIGINT) AS total,
                      CAST(SUM(m) AS BIGINT) AS nu FROM h),
         w AS (SELECT c, m,
                      CAST(SUM(c * m) OVER (ORDER BY c DESC)
                           AS BIGINT) AS cum,
                      CAST(SUM(m) OVER (ORDER BY c DESC)
                           AS BIGINT) AS cumu
               FROM h),
         s AS (SELECT w.*, t.total, t.nu,
                      (t.total * 800000 + 999999) // 1000000 AS needed
               FROM w, t),
         f AS (SELECT * FROM s WHERE cum >= needed
               ORDER BY c DESC LIMIT 1)
    SELECT CAST(cumu - m + (needed - (cum - c * m) + c - 1) // c
                AS BIGINT) AS k_users,
           CAST(cum - c * m + ((needed - (cum - c * m) + c - 1) // c)
                * c AS BIGINT) AS covered_events,
           total AS total_events,
           nu AS n_users,
           CAST((cum - c * m + ((needed - (cum - c*m) + c - 1) // c)
                 * c) * 1000000 // total AS BIGINT) AS coverage_ppm
    FROM f"""


_MD5H_QTY = md5h("'q|' || CAST(node AS VARCHAR)")
BOM_SQL = f"""
    WITH RECURSIVE w AS (
      SELECT p_partkey AS key, p_partkey AS node,
             CAST(1 AS BIGINT) AS units
      FROM part
      UNION ALL
      SELECT key, CAST({_MD5H_NODE} % node AS BIGINT),
             CAST(units * (1 + {_MD5H_QTY} % 2) AS BIGINT)
      FROM w WHERE node >= 16
    ),
    term AS (SELECT key, node AS root, units FROM w WHERE node < 16)
    SELECT t.root,
           CAST(COUNT(*) AS BIGINT) AS n_components,
           CAST(SUM(t.units) AS BIGINT) AS total_units,
           CAST(SUM(t.units * CAST(round(p.p_retailprice * 100)
                                   AS BIGINT)) AS BIGINT)
             AS ext_cost_cents
    FROM term t JOIN part p ON t.key = p.p_partkey
    GROUP BY t.root ORDER BY t.root"""


APPORTION_SQL = """
    WITH c AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS cnt
               FROM documents GROUP BY lang),
         t AS (SELECT CAST(SUM(cnt) AS BIGINT) AS total FROM c),
         q AS (SELECT lang, cnt, (200 * cnt) // t.total AS base,
                      (200 * cnt) % t.total AS rem
               FROM c, t),
         r AS (SELECT q.*, ROW_NUMBER() OVER
                      (ORDER BY rem DESC, lang ASC) AS rk
               FROM q),
         lo AS (SELECT 200 - SUM(base) AS extra FROM q),
         fq AS (SELECT lang,
                       base + CASE WHEN rk <= (SELECT extra FROM lo)
                                   THEN 1 ELSE 0 END AS quota
                FROM r),
         ranked AS (SELECT d.lang, d.doc_id,
                           ROW_NUMBER() OVER (PARTITION BY d.lang
                             ORDER BY md5(CAST(d.doc_id AS VARCHAR)),
                                      d.doc_id) AS rn
                    FROM documents d)
    SELECT ranked.lang, ranked.doc_id
    FROM ranked JOIN fq ON fq.lang = ranked.lang
    WHERE rn <= fq.quota
    ORDER BY ranked.lang, ranked.doc_id"""


MI_SQL = """
    WITH c AS (SELECT event_type,
                      CAST(((epoch_us(ts) // 86400000000) + 4) % 7
                           AS BIGINT) AS dow,
                      CAST(COUNT(*) AS BIGINT) AS n_xy
               FROM events GROUP BY event_type, dow),
         m AS (SELECT c.*,
                      CAST(SUM(n_xy) OVER (PARTITION BY event_type)
                           AS BIGINT) AS n_x,
                      CAST(SUM(n_xy) OVER (PARTITION BY dow)
                           AS BIGINT) AS n_y,
                      CAST(SUM(n_xy) OVER () AS BIGINT) AS total
               FROM c)
    SELECT event_type, dow, n_xy, n_x, n_y,
           (CAST(n_xy AS DOUBLE) / CAST(total AS DOUBLE))
             * LN(CAST(n_xy * total AS DOUBLE)
                  / CAST(n_x * n_y AS DOUBLE)) AS mi_term
    FROM m ORDER BY event_type, dow"""


TWA_SQL = """
    WITH s AS (
      SELECT event_type,
             CAST(ROUND(value * 100) AS BIGINT) AS cents,
             (LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id)
              - epoch_us(ts)) // 1000000 AS dur_s
      FROM events
    )
    SELECT event_type,
           CAST(COUNT(*) AS BIGINT) AS n_intervals,
           CAST(SUM(dur_s) AS BIGINT) AS total_dur_s,
           CAST(SUM(cents * dur_s) AS BIGINT) AS sum_cents_dur,
           CAST(SUM(cents * dur_s) AS DOUBLE)
             / CAST(SUM(dur_s) AS DOUBLE) AS twa_cents
    FROM s WHERE dur_s IS NOT NULL
    GROUP BY event_type ORDER BY event_type"""


_MD5H_MUT = md5h("'mut|' || CAST(o_orderkey AS VARCHAR)")
_MD5H_ROW = md5h("CAST(o_orderkey AS VARCHAR) || '|' || "
                 "CAST(cents AS VARCHAR)")
MERKLE_SQL = f"""
    WITH a AS (SELECT o_orderkey,
                      CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents
               FROM orders),
         b AS (SELECT o_orderkey,
                      CASE WHEN {_MD5H_MUT} % 97 = 0 THEN cents + 1
                           ELSE cents END AS cents
               FROM a WHERE {_MD5H_MUT} % 97 <> 1),
         da AS (SELECT o_orderkey % {_MERKLE_LEAVES} AS leaf,
                       CAST(SUM({_MD5H_ROW})
                            % 18446744073709551616 AS HUGEINT) AS dig,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM a GROUP BY leaf),
         db AS (SELECT o_orderkey % {_MERKLE_LEAVES} AS leaf,
                       CAST(SUM({_MD5H_ROW})
                            % 18446744073709551616 AS HUGEINT) AS dig,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM b GROUP BY leaf)
    SELECT da.leaf AS leaf,
           CAST(da.dig % 9223372036854775808 AS BIGINT) AS digest_a,
           CAST(COALESCE(db.dig, 0) % 9223372036854775808 AS BIGINT)
             AS digest_b,
           da.n AS rows_a,
           CAST(COALESCE(db.n, 0) AS BIGINT) AS rows_b
    FROM da LEFT JOIN db ON da.leaf = db.leaf
    WHERE da.dig <> COALESCE(db.dig, 0)
    ORDER BY leaf"""


LIFECYCLE_SQL = "\nUNION ALL\n".join("""
    SELECT '{a}<{b}' AS rule,
           CAST(COUNT(*) AS BIGINT) AS n_both,
           CAST(SUM(CASE WHEN t_b < t_a THEN 1 ELSE 0 END) AS BIGINT)
             AS n_violations
    FROM (SELECT user_id,
                 MIN(CASE WHEN event_type = '{a}'
                          THEN epoch_us(ts) END) AS t_a,
                 MIN(CASE WHEN event_type = '{b}'
                          THEN epoch_us(ts) END) AS t_b
          FROM events GROUP BY user_id)
    WHERE t_a IS NOT NULL AND t_b IS NOT NULL
""".format(a=a, b=b) for a, b in _LIFECYCLE_RULES) + "\nORDER BY rule"


Q7_SQL = """
    SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
           CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue
    FROM supplier, lineitem, orders, customer, nation n1, nation n2
    WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
      AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
      AND c_nationkey = n2.n_nationkey
      AND ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_9')
           OR (n1.n_name = 'NATION_9' AND n2.n_name = 'NATION_3'))
      AND l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1998-01-01'
    GROUP BY supp_nation, cust_nation, l_year
    ORDER BY supp_nation, cust_nation, l_year"""


Q8_SQL = """
    SELECT o_year,
           CAST(SUM(CASE WHEN supp_nation = 'NATION_2'
                         THEN volume ELSE 0 END) AS DOUBLE)
             / CAST(SUM(volume) AS DOUBLE) AS mkt_share
    FROM (SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
                 CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))
                   AS volume,
                 n2.n_name AS supp_nation
          FROM part, supplier, lineitem, orders, customer,
               nation n1, nation n2, region
          WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
            AND l_orderkey = o_orderkey AND o_custkey = c_custkey
            AND c_nationkey = n1.n_nationkey
            AND n1.n_regionkey = r_regionkey AND r_name = 'ASIA'
            AND s_nationkey = n2.n_nationkey
            AND o_orderdate >= TIMESTAMP '1996-01-01'
            AND o_orderdate < TIMESTAMP '1998-01-01'
            AND p_type = 'PROMO') t
    GROUP BY o_year ORDER BY o_year"""


Q10_SQL = """
    SELECT c_custkey, c_name,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue,
           c_acctbal, n_name
    FROM customer, orders, lineitem, nation
    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      AND o_orderdate >= TIMESTAMP '1996-07-01'
      AND o_orderdate < TIMESTAMP '1996-10-01'
      AND l_returnflag = 'R' AND c_nationkey = n_nationkey
    GROUP BY c_custkey, c_name, c_acctbal, n_name
    ORDER BY revenue DESC, c_custkey LIMIT 20"""


Q14_SQL = """
    SELECT CAST(EXTRACT(month FROM l_shipdate) AS BIGINT) AS month,
           100.0 * (CAST(SUM(CASE WHEN p_type = 'PROMO' THEN
                        CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT))
                        ELSE 0 END) AS DOUBLE)
           / CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                  AS DOUBLE)) AS promo_pct
    FROM lineitem, part
    WHERE l_partkey = p_partkey
      AND l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
    GROUP BY month ORDER BY month"""


Q15_SQL = """
    WITH revenue AS (
      SELECT l_suppkey AS s_suppkey,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS total
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '1996-09-01'
        AND l_shipdate < TIMESTAMP '1996-12-01'
      GROUP BY l_suppkey)
    SELECT s.s_suppkey, s.s_name,
           CAST(r.total AS DOUBLE) / 10000.0 AS total_revenue
    FROM supplier s, revenue r
    WHERE s.s_suppkey = r.s_suppkey
      AND r.total = (SELECT MAX(total) FROM revenue)
    ORDER BY s.s_suppkey"""


Q17_SQL = f"""
    WITH t AS (
      SELECT l_partkey,
             CAST(round(l_quantity * 100) AS BIGINT) AS qc,
             CAST(round(l_extendedprice * 100) AS BIGINT) AS pcents
      FROM lineitem, part
      WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'),
    s AS (SELECT l_partkey, SUM(qc) AS sq,
                 CAST(COUNT(*) AS BIGINT) AS n
          FROM t GROUP BY l_partkey)
    SELECT CAST(SUM(t.pcents) AS DOUBLE) / 100.0 / 7.0 AS avg_yearly,
           CAST(COUNT(*) AS BIGINT) AS n_rows
    FROM t, s
    WHERE t.l_partkey = s.l_partkey AND 5 * t.qc * s.n < s.sq"""


Q18_SQL = """
    SELECT c_name, c_custkey, o_orderkey,
           strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
           CAST(CAST(round(o_totalprice * 100) AS BIGINT) AS DOUBLE)
             / 100.0 AS o_totalprice,
           CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS DOUBLE)
             / 100.0 AS sum_qty
    FROM customer, orders, lineitem
    WHERE o_orderkey IN (
            SELECT l_orderkey FROM lineitem GROUP BY l_orderkey
            HAVING SUM(CAST(round(l_quantity * 100) AS BIGINT)) > 25000)
      AND c_custkey = o_custkey AND o_orderkey = l_orderkey
    GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
    ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC, o_orderkey
    LIMIT 100"""


Q9_SQL = """
    SELECT n_name AS nation,
           CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
           CAST(SUM(10 * CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT))
                    - 6 * CAST(round(l_quantity * 100) AS BIGINT)
                        * CAST(round(p_retailprice * 100) AS BIGINT))
                AS DOUBLE) / 100000.0 AS profit
    FROM part, supplier, lineitem, orders, nation
    WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
      AND l_orderkey = o_orderkey AND s_nationkey = n_nationkey
      AND p_type = 'LARGE'
    GROUP BY n_name, o_year ORDER BY nation, o_year"""


GINI_SQL = """
    WITH s AS (
      SELECT o_custkey,
             SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
      FROM orders GROUP BY o_custkey),
    r AS (
      SELECT cents,
             row_number() OVER (ORDER BY cents, o_custkey) AS rnk,
             COUNT(*) OVER () AS n, SUM(cents) OVER () AS tot
      FROM s)
    SELECT CAST(MAX(n) AS BIGINT) AS n_customers,
           CAST(MAX(tot) AS BIGINT) AS total_cents,
           CAST(SUM((2 * rnk - n - 1) * cents) AS DOUBLE)
             / (CAST(MAX(n) AS DOUBLE) * CAST(MAX(tot) AS DOUBLE))
             AS gini
    FROM r"""


STOCKOUT_SQL = """
    WITH c AS (
      SELECT l_partkey, l_shipdate, l_orderkey, l_linenumber,
             SUM(CAST(round(l_quantity * 100) AS BIGINT))
               OVER (PARTITION BY l_partkey
                     ORDER BY l_shipdate, l_orderkey, l_linenumber
                     ROWS UNBOUNDED PRECEDING) AS cum
      FROM lineitem),
    f AS (
      SELECT l_partkey, l_shipdate, cum,
             row_number() OVER (PARTITION BY l_partkey
                                ORDER BY l_shipdate, l_orderkey,
                                         l_linenumber) AS rn
      FROM c WHERE cum >= 50000)
    SELECT l_partkey,
           strftime(l_shipdate, '%Y-%m-%d') AS cross_date,
           CAST(cum AS BIGINT) AS cum_qc
    FROM f WHERE rn = 1 ORDER BY l_partkey"""


USHAPE_SQL = """
    WITH conv AS (
      SELECT user_id, ts AS cts, event_id AS ceid,
             CAST(round(value * 100) AS BIGINT) AS cents
      FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) AS rn
            FROM events WHERE event_type = 'purchase')
      WHERE rn = 1),
    touches AS (
      SELECT e.ts, c.cents,
             row_number() OVER (PARTITION BY e.user_id
                                ORDER BY e.ts, e.event_id) AS pos,
             COUNT(*) OVER (PARTITION BY e.user_id) AS k
      FROM events e JOIN conv c ON e.user_id = c.user_id
      WHERE e.event_type = 'click'
        AND (e.ts < c.cts OR (e.ts = c.cts AND e.event_id < c.ceid))),
    credited AS (
      SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
             cents * (CASE WHEN k = 1 THEN 1000000
                           WHEN k = 2 THEN 500000
                           WHEN pos = 1 OR pos = k THEN 400000
                           ELSE 200000 // (k - 2) END
                      + CASE WHEN k >= 3 AND pos = 2
                             THEN 200000 % (k - 2) ELSE 0 END)
               AS credit_u
      FROM touches)
    SELECT hour, CAST(COUNT(*) AS BIGINT) AS n_touches,
           CAST(SUM(credit_u) AS DOUBLE) / 100000000.0
             AS credited_dollars
    FROM credited GROUP BY hour ORDER BY hour"""


_EWMA_LAGS = " + ".join(
    f"{1 << (_EWMA_DEPTH - k)} * LAG(v, {k}) OVER w"
    for k in range(1, _EWMA_DEPTH + 1))


EWMA_SQL = f"""
    WITH b AS (
      SELECT user_id, ts, event_id, event_type,
             CAST(round(value * 100) AS BIGINT) AS v
      FROM events),
    s AS (
      SELECT event_type, v,
             row_number() OVER w AS rn,
             {_EWMA_LAGS} AS d
      FROM b
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT event_type,
           CAST(COUNT(*) AS BIGINT) AS n_scored,
           CAST(SUM(CASE WHEN v * {_EWMA_W} > 2 * d
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_flagged
    FROM s WHERE rn > {_EWMA_DEPTH}
    GROUP BY event_type ORDER BY event_type"""


SPLIT_SCAN_SQL = f"""
    WITH h AS (
      SELECT LEAST(CAST(round(value * 100) AS BIGINT) // {_STUMP_STEP},
                   {_STUMP_BINS - 1}) AS bucket,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END) AS BIGINT) AS pos
      FROM events GROUP BY bucket),
    c AS (
      SELECT bucket AS split_bucket,
             SUM(n) OVER w AS n_left, SUM(pos) OVER w AS pos_left,
             SUM(n) OVER () - SUM(n) OVER w AS n_right,
             SUM(pos) OVER () - SUM(pos) OVER w AS pos_right
      FROM h WINDOW w AS (ORDER BY bucket ROWS UNBOUNDED PRECEDING))
    SELECT CAST(split_bucket AS BIGINT) AS split_bucket,
           CAST(n_left AS BIGINT) AS n_left,
           CAST(pos_left AS BIGINT) AS pos_left,
           CAST(n_right AS BIGINT) AS n_right,
           CAST(pos_right AS BIGINT) AS pos_right,
           (CAST(n_left AS DOUBLE)
            - CAST(pos_left * pos_left
                   + (n_left - pos_left) * (n_left - pos_left) AS DOUBLE)
              / CAST(n_left AS DOUBLE))
           + (CAST(n_right AS DOUBLE)
              - CAST(pos_right * pos_right
                     + (n_right - pos_right) * (n_right - pos_right)
                     AS DOUBLE)
                / CAST(n_right AS DOUBLE)) AS weighted_gini
    FROM c WHERE n_right > 0 ORDER BY split_bucket"""


TRIPLES_SQL = """
    WITH ob AS (
      SELECT DISTINCT l_orderkey AS o, p_brand AS b
      FROM lineitem JOIN part ON l_partkey = p_partkey)
    SELECT a.b AS b1, c.b AS b2, d.b AS b3,
           CAST(COUNT(*) AS BIGINT) AS support
    FROM ob a, ob c, ob d
    WHERE a.o = c.o AND c.o = d.o AND a.b < c.b AND c.b < d.b
    GROUP BY a.b, c.b, d.b HAVING COUNT(*) >= 40
    ORDER BY b1, b2, b3"""


SIMPSON_SQL = """
    WITH c AS (
      SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n
      FROM documents GROUP BY source, lang)
    SELECT source,
           CAST(COUNT(*) AS BIGINT) AS n_langs,
           CAST(SUM(n) AS BIGINT) AS n_docs,
           1.0 - CAST(SUM(n * (n - 1)) AS DOUBLE)
                 / (CAST(SUM(n) AS DOUBLE)
                    * CAST(SUM(n) - 1 AS DOUBLE)) AS simpson
    FROM c GROUP BY source ORDER BY source"""


WATERMARK_SQL = """
    WITH s AS (
      SELECT event_type, epoch_us(ts) AS t,
             MAX(epoch_us(ts)) OVER (ORDER BY event_id
                                     ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING) AS pm
      FROM events)
    SELECT event_type,
           CAST(COUNT(pm) AS BIGINT) AS n_with_pred,
           CAST(SUM(CASE WHEN pm > t THEN 1 ELSE 0 END) AS BIGINT)
             AS n_late,
           CAST(COALESCE(MAX(CASE WHEN pm > t THEN pm - t END), 0)
                AS BIGINT) AS max_lag_us,
           CAST(COALESCE(SUM(CASE WHEN pm > t THEN pm - t END), 0)
                AS BIGINT) AS sum_lag_us
    FROM s GROUP BY event_type ORDER BY event_type"""


MUS_SQL = f"""
    WITH c AS (
      SELECT o_orderkey,
             CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
             SUM(CAST(round(o_totalprice * 100) AS BIGINT))
               OVER (ORDER BY o_orderkey ROWS UNBOUNDED PRECEDING)
               AS cum
      FROM orders)
    SELECT o_orderkey,
           CAST(cents AS DOUBLE) / 100.0 AS o_totalprice,
           CAST(cum AS BIGINT) AS cum_cents,
           CAST(cum // {_MUS_STEP} - (cum - cents) // {_MUS_STEP}
                AS BIGINT) AS n_probes
    FROM c
    WHERE cum // {_MUS_STEP} > (cum - cents) // {_MUS_STEP}
    ORDER BY o_orderkey"""


INTERVAL_UNION_SQL = """
    WITH iv AS (
      SELECT user_id, event_id, epoch_us(ts) AS s,
             epoch_us(ts) + (60 + (CAST(round(value * 100) AS BIGINT)
                                   % 3540)) * 1000000 AS e
      FROM events),
    m AS (
      SELECT user_id, event_id, s, e,
             MAX(e) OVER (PARTITION BY user_id ORDER BY s, e, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS pm
      FROM iv),
    f AS (
      SELECT user_id, s, e,
             SUM(CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY s, e, event_id
                     ROWS UNBOUNDED PRECEDING) AS island
      FROM m),
    isl AS (
      SELECT user_id, island, MIN(s) AS lo, MAX(e) AS hi,
             CAST(COUNT(*) AS BIGINT) AS n_iv
      FROM f GROUP BY user_id, island)
    SELECT user_id,
           CAST(SUM(n_iv) AS BIGINT) AS n_intervals,
           CAST(COUNT(*) AS BIGINT) AS n_islands,
           CAST(SUM(hi - lo) AS BIGINT) AS covered_us
    FROM isl GROUP BY user_id ORDER BY user_id"""


ASSORT_SQL = """
    WITH od AS (SELECT l_orderkey AS o, CAST(COUNT(*) AS BIGINT) AS dx
                FROM lineitem GROUP BY l_orderkey),
    pd AS (SELECT l_partkey AS p, CAST(COUNT(*) AS BIGINT) AS dy
           FROM lineitem GROUP BY l_partkey),
    e AS (SELECT dx, dy
          FROM lineitem JOIN od ON l_orderkey = od.o
                        JOIN pd ON l_partkey = pd.p),
    s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                 SUM(dx) AS sx, SUM(dy) AS sy, SUM(dx * dy) AS sxy,
                 SUM(dx * dx) AS sxx, SUM(dy * dy) AS syy
          FROM e)
    SELECT n AS n_edges, CAST(sxy AS BIGINT) AS sum_xy,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                    * CAST(n * syy - sy * sy AS DOUBLE))
             AS assortativity
    FROM s"""


BURST_SQL = f"""
    WITH c AS (
      SELECT user_id,
             COUNT(*) OVER (PARTITION BY user_id ORDER BY epoch_us(ts)
                            RANGE BETWEEN CURRENT ROW
                            AND {_BURST_WIN_US - 1} FOLLOWING) AS cnt
      FROM events),
    p AS (SELECT user_id, MAX(cnt) AS peak_60s FROM c GROUP BY user_id)
    SELECT CAST(peak_60s AS BIGINT) AS peak_60s,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM p GROUP BY peak_60s ORDER BY peak_60s"""


JOURNEY_SQL = """
    WITH o AS (
      SELECT user_id, event_type,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS rn
      FROM events),
    p AS (
      SELECT user_id,
             string_agg(event_type, '>' ORDER BY rn) AS path
      FROM o WHERE rn <= 5 GROUP BY user_id)
    SELECT path, CAST(COUNT(*) AS BIGINT) AS n_users
    FROM p GROUP BY path
    ORDER BY n_users DESC, path LIMIT 20"""


COLLISION_SQL = """
    WITH d AS (
      SELECT DISTINCT CAST(round(value * 100) AS BIGINT) // 100
               AS dollars,
             epoch_us(ts) // 60000000 AS minute, user_id
      FROM events),
    k AS (
      SELECT dollars, minute,
             CAST(COUNT(*) AS BIGINT) AS m
      FROM d GROUP BY dollars, minute),
    p AS (SELECT m * (m - 1) // 2 AS pairs FROM k WHERE m >= 2)
    SELECT CAST(pairs AS BIGINT) AS pairs_per_key,
           CAST(COUNT(*) AS BIGINT) AS n_keys
    FROM p GROUP BY pairs ORDER BY pairs_per_key"""


MUTUAL_SQL = """
    WITH cp AS (
      SELECT o_custkey AS c, l_partkey AS p,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS r
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey
      GROUP BY c, p),
    bc AS (SELECT c, p, r FROM (
             SELECT *, row_number() OVER (PARTITION BY c
                                          ORDER BY r DESC, p) AS rn
             FROM cp) WHERE rn = 1),
    bp AS (SELECT c, p, r FROM (
             SELECT *, row_number() OVER (PARTITION BY p
                                          ORDER BY r DESC, c) AS rn
             FROM cp) WHERE rn = 1)
    SELECT bc.c AS c_custkey, bc.p AS p_partkey,
           CAST(bc.r AS DOUBLE) / 10000.0 AS revenue
    FROM bc JOIN bp ON bc.c = bp.c AND bc.p = bp.p
    ORDER BY c_custkey"""


KANON_SQL = """
    WITH cls AS (
      SELECT c_nationkey,
             c_mktsegment,
             CAST(round(c_acctbal * 100) AS BIGINT) // 100000 AS bal_bin,
             CAST(COUNT(*) AS BIGINT) AS k
      FROM customer GROUP BY c_nationkey, c_mktsegment, bal_bin)
    SELECT k AS class_size,
           CAST(COUNT(*) AS BIGINT) AS n_classes,
           CAST(SUM(k) AS BIGINT) AS n_customers,
           k < 5 AS risky
    FROM cls GROUP BY k ORDER BY class_size"""


QUANT_RETRIEVAL_SQL = """
    WITH q AS (
      SELECT i, CAST(floor(CAST(x AS DOUBLE) * 127) AS BIGINT) AS qx
      FROM (SELECT unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings WHERE vec_id = 0)),
    v AS (
      SELECT vec_id, i,
             CAST(floor(CAST(x AS DOUBLE) * 127) AS BIGINT) AS qx
      FROM (SELECT vec_id, unnest(embedding) AS x,
                   generate_subscripts(embedding, 1) AS i
            FROM embeddings))
    SELECT v.vec_id, CAST(SUM(v.qx * q.qx) AS BIGINT) AS dot
    FROM v JOIN q USING (i)
    GROUP BY v.vec_id ORDER BY dot DESC, vec_id LIMIT 10"""


CHEAPEST_SQL = """
    WITH t AS (
      SELECT l_partkey, l_suppkey, l_orderkey,
             CAST(round(l_extendedprice * 100) AS BIGINT) * 100.0
               / CAST(round(l_quantity * 100) AS BIGINT) AS unit_price
      FROM lineitem),
    r AS (
      SELECT *, row_number() OVER (PARTITION BY l_partkey
                                   ORDER BY unit_price, l_suppkey,
                                            l_orderkey) AS rn
      FROM t)
    SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey, unit_price
    FROM r WHERE rn = 1 ORDER BY p_partkey"""


CADENCE_SQL = """
    WITH g AS (
      SELECT o_custkey AS c,
             (epoch_us(o_orderdate) // 86400000000)
             - lag(epoch_us(o_orderdate) // 86400000000)
               OVER (PARTITION BY o_custkey
                     ORDER BY epoch_us(o_orderdate) // 86400000000,
                              o_orderkey) AS gap
      FROM orders),
    m AS (
      SELECT c, CAST(COUNT(gap) AS BIGINT) AS n,
             CAST(SUM(gap) AS BIGINT) AS sg,
             CAST(SUM(gap * gap) AS BIGINT) AS sgg
      FROM g WHERE gap IS NOT NULL GROUP BY c)
    SELECT c AS c_custkey, n AS n_gaps, sg AS sum_gap_days,
           sqrt(CAST(n * sgg - sg * sg AS DOUBLE) / CAST(n AS DOUBLE))
             / CAST(sg AS DOUBLE) * n AS cv
    FROM m WHERE n >= 4 AND sg > 0 ORDER BY c_custkey"""


ABC_SQL = """
    WITH pr AS (
      SELECT l_partkey AS p,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS r
      FROM lineitem GROUP BY p),
    c AS (
      SELECT p, r,
             SUM(r) OVER (ORDER BY r DESC, p
                          ROWS UNBOUNDED PRECEDING) AS cum,
             SUM(r) OVER () AS t
      FROM pr)
    SELECT CASE WHEN cum * 5 <= 4 * t THEN 'A'
                WHEN cum * 20 <= 19 * t THEN 'B'
                ELSE 'C' END AS cls,
           CAST(COUNT(*) AS BIGINT) AS n_parts,
           CAST(SUM(r) AS DOUBLE) / 10000.0 AS revenue,
           CAST(SUM(r) AS DOUBLE) / CAST(MAX(t) AS DOUBLE) AS share
    FROM c GROUP BY cls ORDER BY cls"""


BOUNCE_SQL = """
    WITH f AS (
      SELECT event_type, ts, event_id, user_id,
             CASE WHEN epoch_us(ts)
                       - lag(epoch_us(ts))
                         OVER (PARTITION BY user_id
                               ORDER BY ts, event_id)
                       > 1800000000
                  OR lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id)
                     IS NULL
                  THEN 1 ELSE 0 END AS flag
      FROM events),
    s AS (
      SELECT event_type, flag, user_id,
             SUM(flag) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess
      FROM f),
    g AS (
      SELECT user_id, sess,
             MIN(CASE WHEN flag = 1 THEN event_type END) AS entry_type,
             CAST(COUNT(*) AS BIGINT) AS slen
      FROM s GROUP BY user_id, sess)
    SELECT entry_type,
           CAST(COUNT(*) AS BIGINT) AS sessions,
           CAST(SUM(CASE WHEN slen = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS bounces,
           CAST(SUM(slen) AS BIGINT) AS events,
           CAST(SUM(CASE WHEN slen = 1 THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE) AS bounce_rate
    FROM g GROUP BY entry_type ORDER BY entry_type"""


LINENUM_SQL = """
    WITH s AS (
      SELECT l_orderkey,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(COUNT(DISTINCT l_linenumber) AS BIGINT) AS nd,
             MIN(l_linenumber) AS mn, MAX(l_linenumber) AS mx
      FROM lineitem GROUP BY l_orderkey)
    SELECT CASE WHEN nd < n THEN 'duplicated'
                WHEN mn = 1 AND mx = n THEN 'ok'
                ELSE 'gapped' END AS status,
           CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM s GROUP BY status ORDER BY status"""


PRESENCE_SQL = f"""
    WITH d AS (
      SELECT DISTINCT o_custkey AS c,
             CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS y
      FROM orders),
    m AS (
      SELECT c, CAST(SUM(1 << (y - {_PRESENCE_BASE_YEAR})) AS BIGINT)
                  AS presence_mask
      FROM d GROUP BY c)
    SELECT presence_mask,
           CAST(bit_count(CAST(presence_mask AS BIGINT)) AS BIGINT)
             AS n_years,
           CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM m GROUP BY presence_mask ORDER BY presence_mask"""


CHURN_SQL = """
    WITH last AS (
      SELECT o_custkey,
             MAX(epoch_us(o_orderdate) // 86400000000) AS last_day
      FROM orders GROUP BY o_custkey),
    g AS (SELECT MAX(last_day) AS gl FROM last)
    SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
           CAST(COUNT(*) AS BIGINT) AS n_customers,
           CAST(SUM(CASE WHEN last_day < gl - 365 THEN 1 ELSE 0 END)
                AS BIGINT) AS n_churned,
           CAST(SUM(CASE WHEN last_day < gl - 365 THEN 1 ELSE 0 END)
                AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS churn_rate
    FROM last JOIN customer ON o_custkey = c_custkey, g
    GROUP BY c_nationkey ORDER BY c_nationkey"""


RADIX_PCTL_SQL = """
    WITH v AS (
      SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS x
      FROM orders),
    r AS (
      SELECT x, row_number() OVER (ORDER BY x) AS rn,
             COUNT(*) OVER () AS n
      FROM v)
    SELECT 'p50' AS stat, x AS cents FROM r WHERE rn = (n + 1) // 2
    UNION ALL
    SELECT 'p90', x FROM r WHERE rn = (9 * n + 9) // 10
    UNION ALL
    SELECT 'p99', x FROM r WHERE rn = (99 * n + 99) // 100
    ORDER BY stat"""


SEASONALITY_SQL = """
    WITH d AS (
      SELECT (epoch_us(o_orderdate) // 86400000000 + 3) % 7 AS dow,
             epoch_us(o_orderdate) // 86400000000 AS day,
             SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
      FROM orders GROUP BY dow, day),
    g AS (SELECT CAST(SUM(cents) AS BIGINT) AS tc,
                 CAST(COUNT(*) AS BIGINT) AS td FROM d)
    SELECT CAST(dow AS BIGINT) AS dow,
           CAST(COUNT(*) AS BIGINT) AS n_days,
           CAST(SUM(cents) AS BIGINT) AS sum_cents,
           (CAST(SUM(cents) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE))
             / (CAST(tc AS DOUBLE) / CAST(td AS DOUBLE)) AS seasonality
    FROM d, g GROUP BY dow, tc, td ORDER BY dow"""


MIX_SHIFT_SQL = """
    WITH c AS (
      SELECT o_orderpriority AS priority,
             CAST(SUM(CASE WHEN o_orderdate >= TIMESTAMP '1996-01-01'
                            AND o_orderdate < TIMESTAMP '1997-01-01'
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
             CAST(SUM(CASE WHEN o_orderdate >= TIMESTAMP '1997-01-01'
                            AND o_orderdate < TIMESTAMP '1998-01-01'
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_b
      FROM orders GROUP BY priority)
    SELECT priority, n_a, n_b,
           CAST(n_a * 1000000 // GREATEST(SUM(n_a) OVER (), 1)
                AS BIGINT) AS share_a_ppm,
           CAST(n_b * 1000000 // GREATEST(SUM(n_b) OVER (), 1)
                AS BIGINT) AS share_b_ppm,
           CAST(n_b * 1000000 // GREATEST(SUM(n_b) OVER (), 1)
                - n_a * 1000000 // GREATEST(SUM(n_a) OVER (), 1)
                AS BIGINT) AS delta_ppm
    FROM c ORDER BY priority"""


BASKET_WIDTH_SQL = """
    WITH w AS (
      SELECT l_orderkey,
             CAST(COUNT(DISTINCT l_partkey) AS BIGINT) AS width
      FROM lineitem GROUP BY l_orderkey),
    h AS (SELECT width, CAST(COUNT(*) AS BIGINT) AS n_orders
          FROM w GROUP BY width)
    SELECT width, n_orders,
           CAST(n_orders AS DOUBLE)
             / CAST(SUM(n_orders) OVER () AS DOUBLE) AS share
    FROM h ORDER BY width"""


SUPPLIER_BALANCE_SQL = """
    WITH c AS (
      SELECT l_suppkey, CAST(COUNT(*) AS BIGINT) AS c
      FROM lineitem GROUP BY l_suppkey),
    m AS (
      SELECT CAST(s_nationkey AS BIGINT) AS nat,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(c) AS BIGINT) AS sc,
             CAST(SUM(c * c) AS BIGINT) AS scc
      FROM c JOIN supplier ON l_suppkey = s_suppkey
      GROUP BY nat)
    SELECT nat AS n_nationkey, n AS n_suppliers, sc AS n_lineitems,
           sqrt(CAST(n * scc - sc * sc AS DOUBLE) / CAST(n AS DOUBLE))
             / CAST(sc AS DOUBLE) * n AS load_cv
    FROM m ORDER BY n_nationkey"""


BRAND_CR3_SQL = """
    WITH bp AS (
      SELECT p_brand,
             l_partkey,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS rev
      FROM lineitem JOIN part ON l_partkey = p_partkey
      GROUP BY p_brand, l_partkey),
    r AS (
      SELECT p_brand, rev,
             row_number() OVER (PARTITION BY p_brand
                                ORDER BY rev DESC, l_partkey) AS rn
      FROM bp)
    SELECT p_brand,
           CAST(COUNT(*) AS BIGINT) AS n_parts,
           CAST(SUM(CASE WHEN rn <= 3 THEN rev ELSE 0 END) AS DOUBLE)
             / CAST(SUM(rev) AS DOUBLE) AS cr3
    FROM r GROUP BY p_brand ORDER BY p_brand"""


FIRST_SHIP_SQL = """
    WITH li AS (
      SELECT l_orderkey AS o, l_shipdate AS d,
             CAST(round(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev
      FROM lineitem),
    s AS (
      SELECT o, SUM(rev) AS total,
             SUM(CASE WHEN d = md THEN rev ELSE 0 END) AS first_rev,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM (SELECT *, MIN(d) OVER (PARTITION BY o) AS md FROM li)
      GROUP BY o)
    SELECT CAST(LEAST(first_rev * 10 // GREATEST(total, 1), 9)
                AS BIGINT) AS band,
           CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM s WHERE n > 1 GROUP BY band ORDER BY band"""


RUN_LENGTH_SQL = """
    WITH s AS (
      SELECT user_id, event_type, ts, event_id,
             CASE WHEN lag(event_type) OVER w IS DISTINCT FROM
                       event_type THEN 1 ELSE 0 END AS cut
      FROM events WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts, event_id)),
    i AS (
      SELECT user_id, event_type,
             SUM(cut) OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING) AS run_id
      FROM s),
    r AS (
      SELECT event_type, CAST(COUNT(*) AS BIGINT) AS run_len
      FROM i GROUP BY user_id, run_id, event_type)
    SELECT event_type, run_len,
           CAST(COUNT(*) AS BIGINT) AS n_runs
    FROM r GROUP BY event_type, run_len
    ORDER BY event_type, run_len"""


KS_SQL = """
    WITH h AS (
      SELECT CAST(round(value * 100) AS BIGINT) AS cents,
             CAST(SUM(CASE WHEN event_type = 'click'
                           THEN 1 ELSE 0 END) AS BIGINT) AS c1,
             CAST(SUM(CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END) AS BIGINT) AS c2
      FROM events WHERE event_type IN ('click', 'purchase')
      GROUP BY cents),
    c AS (
      SELECT SUM(c1) OVER (ORDER BY cents
                           ROWS UNBOUNDED PRECEDING) AS f1,
             SUM(c2) OVER (ORDER BY cents
                           ROWS UNBOUNDED PRECEDING) AS f2,
             SUM(c1) OVER () AS n1, SUM(c2) OVER () AS n2
      FROM h)
    SELECT CAST(MAX(n1) AS BIGINT) AS n_a,
           CAST(MAX(n2) AS BIGINT) AS n_b,
           CAST(MAX(ABS(f1 * n2 - f2 * n1)) AS BIGINT) AS ks_num,
           CAST(MAX(ABS(f1 * n2 - f2 * n1)) AS DOUBLE)
             / (CAST(MAX(n1) AS DOUBLE) * CAST(MAX(n2) AS DOUBLE))
             AS ks
    FROM c"""


SLA_SQL = """
    WITH l AS (
      SELECT o_orderpriority AS priority,
             (epoch_us(l_shipdate) - epoch_us(o_orderdate))
               // 86400000000 AS lag
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
    r AS (
      SELECT priority, lag,
             row_number() OVER (PARTITION BY priority
                                ORDER BY lag) AS rn,
             COUNT(*) OVER (PARTITION BY priority) AS n
      FROM l)
    SELECT priority,
           CAST(MAX(n) AS BIGINT) AS n_lines,
           CAST(MAX(CASE WHEN rn = (n + 1) // 2 THEN lag END)
                AS BIGINT) AS median_lag_days,
           CAST(MAX(CASE WHEN rn = (19 * n + 19) // 20 THEN lag END)
                AS BIGINT) AS p95_lag_days,
           CAST(SUM(CASE WHEN lag <= 60 THEN 1 ELSE 0 END)
                * 1000000 // MAX(n) AS BIGINT) AS within_sla_ppm
    FROM r GROUP BY priority ORDER BY priority"""


MWU_SQL = """
    WITH h AS (
      SELECT CAST(round(value * 100) AS BIGINT) AS cents,
             CAST(SUM(CASE WHEN event_type = 'view'
                           THEN 1 ELSE 0 END) AS BIGINT) AS c1,
             CAST(SUM(CASE WHEN event_type = 'error'
                           THEN 1 ELSE 0 END) AS BIGINT) AS c2
      FROM events WHERE event_type IN ('view', 'error')
      GROUP BY cents),
    c AS (
      SELECT c1, c2,
             SUM(c2) OVER (ORDER BY cents ROWS BETWEEN UNBOUNDED
                           PRECEDING AND 1 PRECEDING) AS f2b,
             SUM(c1) OVER () AS n1, SUM(c2) OVER () AS n2
      FROM h)
    SELECT CAST(MAX(n1) AS BIGINT) AS n_a,
           CAST(MAX(n2) AS BIGINT) AS n_b,
           CAST(SUM(c1 * (2 * COALESCE(f2b, 0) + c2)) AS BIGINT) AS u2,
           CAST(SUM(c1 * (2 * COALESCE(f2b, 0) + c2)) AS DOUBLE)
             / (2.0 * CAST(MAX(n1) AS DOUBLE)
                * CAST(MAX(n2) AS DOUBLE)) AS p_a_gt_b
    FROM c"""


ROUND_BIAS_SQL = """
    SELECT event_type,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CASE WHEN CAST(round(value * 100) AS BIGINT)
                              % 100 = 0 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_whole_dollar,
           CAST(SUM(CASE WHEN CAST(round(value * 100) AS BIGINT)
                              % 100 = 50 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_half_dollar,
           CAST(SUM(CASE WHEN CAST(round(value * 100) AS BIGINT)
                              % 100 = 0 THEN 1 ELSE 0 END)
                * 1000000 // GREATEST(COUNT(*), 1) AS BIGINT)
             AS whole_ppm,
           CAST(SUM(CASE WHEN CAST(round(value * 100) AS BIGINT)
                              % 100 = 50 THEN 1 ELSE 0 END)
                * 1000000 // GREATEST(COUNT(*), 1) AS BIGINT)
             AS half_ppm
    FROM events GROUP BY event_type ORDER BY event_type"""


SUPPLIER_FANOUT_SQL = """
    WITH ps AS (
      SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem),
    f AS (
      SELECT p, CAST(COUNT(*) AS BIGINT) AS fanout
      FROM ps GROUP BY p)
    SELECT fanout, CAST(COUNT(*) AS BIGINT) AS n_parts
    FROM f GROUP BY fanout ORDER BY fanout"""


TRAJECTORY_SQL = """
    WITH r AS (
      SELECT o_custkey AS c,
             row_number() OVER (PARTITION BY o_custkey
                                ORDER BY o_orderdate, o_orderkey) AS x,
             CAST(round(o_totalprice * 100) AS BIGINT) AS y
      FROM orders),
    m AS (
      SELECT c, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(x) AS sx, SUM(y) AS sy, SUM(x * y) AS sxy
      FROM r GROUP BY c HAVING COUNT(*) >= 3)
    SELECT CASE WHEN n * sxy - sx * sy > 0 THEN 'rising'
                WHEN n * sxy - sx * sy < 0 THEN 'falling'
                ELSE 'flat' END AS trend,
           CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM m GROUP BY trend ORDER BY trend"""


KENDALL_SQL = """
    WITH g AS (
      SELECT CAST(p_size AS BIGINT) AS size,
             CAST(round(p_retailprice * 100) AS BIGINT) // 1000
               AS band,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM part GROUP BY size, band),
    c AS (
      SELECT SUM(a.n * b.n) AS cp
      FROM g a JOIN g b ON b.size > a.size AND b.band > a.band),
    d AS (
      SELECT SUM(a.n * b.n) AS dp
      FROM g a JOIN g b ON b.size > a.size AND b.band < a.band),
    t AS (SELECT SUM(n) AS n FROM g)
    SELECT CAST(t.n AS BIGINT) AS n_parts,
           CAST(c.cp AS BIGINT) AS concordant,
           CAST(d.dp AS BIGINT) AS discordant,
           CAST(c.cp - d.dp AS DOUBLE)
             / (CAST(t.n AS DOUBLE) * CAST(t.n - 1 AS DOUBLE) / 2.0)
             AS tau_a
    FROM c, d, t"""


STICKINESS_SQL = """
    WITH du AS (
      SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id
      FROM events),
    d AS (
      SELECT day // 7 AS week, CAST(COUNT(*) AS BIGINT)
               AS day_user_rows
      FROM du GROUP BY week),
    w AS (
      SELECT week, CAST(COUNT(*) AS BIGINT) AS wau
      FROM (SELECT DISTINCT day // 7 AS week, user_id FROM du)
      GROUP BY week)
    SELECT d.week, day_user_rows, wau,
           (CAST(day_user_rows AS DOUBLE) / 7.0)
             / CAST(wau AS DOUBLE) AS stickiness
    FROM d JOIN w ON d.week = w.week ORDER BY d.week"""


WHALE_SQL = """
    WITH s AS (
      SELECT o_custkey,
             CAST(COUNT(*) AS BIGINT) AS n_orders,
             MAX(CAST(round(o_totalprice * 100) AS BIGINT)) AS mx,
             SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS tot
      FROM orders GROUP BY o_custkey HAVING COUNT(*) >= 2)
    SELECT n_orders,
           CAST(COUNT(*) AS BIGINT) AS n_customers,
           CAST(SUM(CASE WHEN 2 * mx >= tot THEN 1 ELSE 0 END)
                AS BIGINT) AS n_dominated
    FROM s GROUP BY n_orders ORDER BY n_orders"""


HAPAX_SQL = """
    WITH tc AS (
      SELECT lang, t AS token, CAST(COUNT(*) AS BIGINT) AS n
      FROM (SELECT lang,
                   UNNEST(regexp_extract_all(lower(text),
                                             '[a-z0-9]+')) AS t
            FROM documents)
      GROUP BY lang, t)
    SELECT lang,
           CAST(COUNT(*) AS BIGINT) AS n_distinct,
           CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_hapax,
           CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1000000
                // GREATEST(COUNT(*), 1) AS BIGINT) AS hapax_ppm
    FROM tc GROUP BY lang ORDER BY lang"""


VOLATILITY_SQL = """
    WITH nm AS (
      SELECT CAST(c_nationkey AS BIGINT) AS nat,
             (epoch_us(o_orderdate) // 86400000000) // 31 AS month,
             SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
      FROM orders JOIN customer ON o_custkey = c_custkey
      GROUP BY nat, month),
    d AS (
      SELECT nat,
             CASE WHEN month - lag(month) OVER w = 1
                  THEN abs(cents - lag(cents) OVER w) * 1000000
                       // GREATEST(lag(cents) OVER w, 1) END AS term
      FROM nm WINDOW w AS (PARTITION BY nat ORDER BY month))
    SELECT nat AS n_nationkey,
           CAST(COUNT(term) AS BIGINT) AS n_month_pairs,
           CAST(SUM(term) // COUNT(term) AS BIGINT)
             AS mean_abs_mom_ppm
    FROM d WHERE term IS NOT NULL
    GROUP BY nat ORDER BY n_nationkey"""


HANDOFF_SQL = """
    WITH f AS (
      SELECT user_id, event_type, ts, event_id,
             CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
                  OR epoch_us(ts) - lag(epoch_us(ts)) OVER w
                     > 1800000000
                  THEN 1 ELSE 0 END AS flag
      FROM events WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts, event_id)),
    s AS (
      SELECT user_id, event_type, ts, event_id,
             SUM(flag) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess
      FROM f),
    g AS (
      SELECT user_id, sess,
             first_value(event_type) OVER ws AS entry_type,
             last_value(event_type) OVER ws AS exit_type,
             COUNT(*) OVER (PARTITION BY user_id, sess) AS slen,
             row_number() OVER ws AS rn
      FROM s
      WINDOW ws AS (PARTITION BY user_id, sess ORDER BY ts, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING
                    AND UNBOUNDED FOLLOWING))
    SELECT entry_type, exit_type,
           CAST(COUNT(*) AS BIGINT) AS n_sessions
    FROM g WHERE rn = 1 AND slen > 1
    GROUP BY entry_type, exit_type
    ORDER BY entry_type, exit_type"""


REORDER_SQL = """
    WITH cpm AS (
      SELECT DISTINCT o_custkey AS c, l_partkey AS p,
             (epoch_us(o_orderdate) // 86400000000) // 31 AS m
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
    cp AS (
      SELECT c, p, CAST(COUNT(*) AS BIGINT) AS months
      FROM cpm GROUP BY c, p),
    pp AS (
      SELECT p, CAST(COUNT(*) AS BIGINT) AS buyers,
             CAST(SUM(CASE WHEN months >= 2 THEN 1 ELSE 0 END)
                  AS BIGINT) AS reorderers
      FROM cp GROUP BY p HAVING COUNT(*) >= 10)
    SELECT p AS p_partkey, buyers, reorderers,
           CAST(reorderers * 1000000 // buyers AS BIGINT)
             AS reorder_ppm
    FROM pp ORDER BY reorder_ppm DESC, p_partkey LIMIT 20"""


HHI_SQL = """
    WITH sr AS (
      SELECT l_suppkey AS s,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS rev
      FROM lineitem GROUP BY s),
    n AS (
      SELECT CAST(s_nationkey AS BIGINT) AS nat, rev,
             SUM(rev) OVER (PARTITION BY s_nationkey) AS tot
      FROM sr JOIN supplier ON s = s_suppkey)
    SELECT nat AS n_nationkey,
           CAST(COUNT(*) AS BIGINT) AS n_suppliers,
           CAST(SUM((rev * 1000000 // GREATEST(tot, 1))
                    * (rev * 1000000 // GREATEST(tot, 1)))
                // 1000000 AS BIGINT) AS hhi_ppm
    FROM n GROUP BY nat ORDER BY n_nationkey"""


LTV_TRANSITION_SQL = """
    WITH cy AS (
      SELECT o_custkey AS c,
             CASE WHEN o_orderdate < TIMESTAMP '1997-01-01'
                  THEN 1 ELSE 0 END AS is_a,
             SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
      FROM orders
      WHERE o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate < TIMESTAMP '1998-01-01'
      GROUP BY c, is_a),
    ra AS (SELECT cents, row_number() OVER (ORDER BY cents) AS rn,
                  COUNT(*) OVER () AS n
           FROM cy WHERE is_a = 1),
    rb AS (SELECT cents, row_number() OVER (ORDER BY cents) AS rn,
                  COUNT(*) OVER () AS n
           FROM cy WHERE is_a = 0),
    ca AS (SELECT MAX(CASE WHEN rn = (n + 3) // 4 THEN cents END) c1,
                  MAX(CASE WHEN rn = (n + 1) // 2 THEN cents END) c2,
                  MAX(CASE WHEN rn = (3 * n + 3) // 4 THEN cents END) c3
           FROM ra),
    cb AS (SELECT MAX(CASE WHEN rn = (n + 3) // 4 THEN cents END) c1,
                  MAX(CASE WHEN rn = (n + 1) // 2 THEN cents END) c2,
                  MAX(CASE WHEN rn = (3 * n + 3) // 4 THEN cents END) c3
           FROM rb),
    q AS (
      SELECT c,
             MAX(CASE WHEN is_a = 1 THEN
                 1 + CASE WHEN cents > ca.c1 THEN 1 ELSE 0 END
                   + CASE WHEN cents > ca.c2 THEN 1 ELSE 0 END
                   + CASE WHEN cents > ca.c3 THEN 1 ELSE 0 END
                 ELSE 0 END) AS from_q,
             MAX(CASE WHEN is_a = 0 THEN
                 1 + CASE WHEN cents > cb.c1 THEN 1 ELSE 0 END
                   + CASE WHEN cents > cb.c2 THEN 1 ELSE 0 END
                   + CASE WHEN cents > cb.c3 THEN 1 ELSE 0 END
                 ELSE 0 END) AS to_q
      FROM cy, ca, cb GROUP BY c)
    SELECT from_q, to_q, CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM q GROUP BY from_q, to_q ORDER BY from_q, to_q"""


SURVIVAL_SQL = """
    WITH pv AS (
      SELECT user_id,
             MIN(CASE WHEN event_type = 'signup'
                      THEN epoch_us(ts) END) AS s_t,
             MAX(epoch_us(ts)) AS last_t
      FROM events GROUP BY user_id),
    conv AS (
      SELECT p.user_id, p.s_t, p.last_t,
             MIN(CASE WHEN e.event_type = 'purchase'
                       AND epoch_us(e.ts) >= p.s_t
                      THEN epoch_us(e.ts) END) AS p_t
      FROM pv p JOIN events e ON p.user_id = e.user_id
      WHERE p.s_t IS NOT NULL
      GROUP BY p.user_id, p.s_t, p.last_t),
    rows_ AS (
      SELECT CASE WHEN p_t IS NOT NULL
                  THEN (p_t - s_t) // 3600000000
                  ELSE (last_t - s_t) // 3600000000 END AS hour,
             CASE WHEN p_t IS NOT NULL THEN 1 ELSE 0 END AS d,
             CASE WHEN p_t IS NULL THEN 1 ELSE 0 END AS c
      FROM conv),
    h AS (
      SELECT hour, CAST(SUM(d) AS BIGINT) AS n_convert,
             CAST(SUM(c) AS BIGINT) AS n_censored
      FROM rows_ GROUP BY hour)
    SELECT hour, n_convert, n_censored,
           CAST(SUM(n_convert + n_censored) OVER ()
                - COALESCE(SUM(n_convert + n_censored)
                           OVER (ORDER BY hour ROWS BETWEEN UNBOUNDED
                                 PRECEDING AND 1 PRECEDING), 0)
                AS BIGINT) AS at_risk
    FROM h ORDER BY hour"""


DISCOUNT_RESPONSE_SQL = """
    WITH m AS (
      SELECT p_brand,
             CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(round(l_discount * 100) AS BIGINT)) AS sx,
             SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS sy,
             SUM(CAST(round(l_discount * 100) AS BIGINT)
                 * CAST(round(l_quantity * 100) AS BIGINT)) AS sxy,
             SUM(CAST(round(l_discount * 100) AS BIGINT)
                 * CAST(round(l_discount * 100) AS BIGINT)) AS sxx
      FROM lineitem JOIN part ON l_partkey = p_partkey
      GROUP BY p_brand)
    SELECT p_brand, n AS n_lines,
           CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
           CAST(n * sxx - sx * sx AS BIGINT) AS slope_den,
           CAST((n * sxy - sx * sy) * 1000000
                // GREATEST(n * sxx - sx * sx, 1) AS BIGINT)
             AS slope_ppm
    FROM m ORDER BY p_brand"""


CALENDAR_SQL = """
    WITH d AS (
      SELECT DISTINCT epoch_us(o_orderdate) // 86400000000 AS day
      FROM orders),
    g AS (
      SELECT day, day - lag(day) OVER (ORDER BY day) - 1 AS gap
      FROM d)
    SELECT strftime(to_timestamp(MIN(day) * 86400), '%Y-%m-%d')
             AS first_day,
           strftime(to_timestamp(MAX(day) * 86400), '%Y-%m-%d')
             AS last_day,
           CAST(MAX(day) - MIN(day) + 1 AS BIGINT) AS span_days,
           CAST(COUNT(*) AS BIGINT) AS days_present,
           CAST(MAX(day) - MIN(day) + 1 - COUNT(*) AS BIGINT)
             AS gap_days,
           CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS longest_gap
    FROM g"""


COACTIVITY_SQL = """
    WITH m AS (
      SELECT epoch_us(ts) // 60000000 AS minute,
             CAST(SUM(CASE WHEN event_type = 'click'
                           THEN 1 ELSE 0 END) AS BIGINT) AS ca,
             CAST(SUM(CASE WHEN event_type = 'view'
                           THEN 1 ELSE 0 END) AS BIGINT) AS cb
      FROM events WHERE event_type IN ('click', 'view')
      GROUP BY minute),
    s AS (
      SELECT MAX(minute) - MIN(minute) + 1 AS n,
             SUM(ca) AS sx, SUM(cb) AS sy, SUM(ca * cb) AS sxy,
             SUM(ca * ca) AS sxx, SUM(cb * cb) AS syy
      FROM m)
    SELECT CAST(n AS BIGINT) AS n_minutes,
           CAST(sxy AS BIGINT) AS sum_xy,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                    * CAST(n * syy - sy * sy AS DOUBLE)) AS pearson
    FROM s"""


TAX_SQL = """
    WITH m AS (
      SELECT p_brand,
             CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
               AS cents,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * CAST(round(l_tax * 100) AS BIGINT)) AS wtax,
             SUM(CAST(round(l_tax * 100) AS BIGINT)) AS tax
      FROM lineitem JOIN part ON l_partkey = p_partkey
      GROUP BY p_brand)
    SELECT p_brand, n AS n_lines,
           CAST(wtax * 10000 // GREATEST(cents, 1) AS BIGINT)
             AS weighted_tax_ppm,
           CAST(tax * 10000 // GREATEST(n, 1) AS BIGINT)
             AS naive_tax_ppm
    FROM m ORDER BY p_brand"""


LADDER_SQL = """
    WITH pc_ AS (
      SELECT l_partkey AS p,
             CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM lineitem GROUP BY p, cents),
    r AS (
      SELECT p, n,
             SUM(n) OVER (PARTITION BY p) AS total,
             row_number() OVER (PARTITION BY p
                                ORDER BY n DESC, cents) AS rn
      FROM pc_)
    SELECT CAST(LEAST(n * 10 // total, 9) AS BIGINT) AS band,
           CAST(COUNT(*) AS BIGINT) AS n_parts
    FROM r WHERE rn = 1 GROUP BY band ORDER BY band"""


RECOVERY_SQL = """
    WITH s AS (
      SELECT event_type,
             lead(event_type) OVER w AS next_type,
             (lead(epoch_us(ts)) OVER w - epoch_us(ts)) // 1000000
               AS lag_s
      FROM events WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts, event_id)),
    e AS (
      SELECT COALESCE(next_type, 'abandoned') AS next_type,
             COALESCE(lag_s, 0) AS lag_s
      FROM s WHERE event_type = 'error')
    SELECT next_type,
           CAST(COUNT(*) AS BIGINT) AS n_errors,
           CAST(SUM(lag_s) // GREATEST(COUNT(*), 1) AS BIGINT)
             AS mean_recovery_s
    FROM e GROUP BY next_type ORDER BY next_type"""


REGION_MATRIX_SQL = """
    WITH cells AS (
      SELECT rc.r_name AS cust_region, rs.r_name AS supp_region,
             SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS rev
      FROM lineitem
      JOIN orders ON l_orderkey = o_orderkey
      JOIN customer ON o_custkey = c_custkey
      JOIN nation nc ON c_nationkey = nc.n_nationkey
      JOIN region rc ON nc.n_regionkey = rc.r_regionkey
      JOIN supplier ON l_suppkey = s_suppkey
      JOIN nation ns ON s_nationkey = ns.n_nationkey
      JOIN region rs ON ns.n_regionkey = rs.r_regionkey
      GROUP BY cust_region, supp_region)
    SELECT cust_region, supp_region,
           CAST(rev AS DOUBLE) / 10000.0 AS revenue,
           CAST(rev * 1000000 // (SELECT SUM(rev) FROM cells)
                AS BIGINT) AS share_ppm
    FROM cells ORDER BY cust_region, supp_region"""


VOLUME_DISCOUNT_SQL = """
    WITH t AS (
      SELECT CAST(SUM(CASE WHEN q >= 40 AND disc >= 8
                           THEN 1 ELSE 0 END) AS BIGINT) AS a,
             CAST(SUM(CASE WHEN q >= 40 AND disc < 8
                           THEN 1 ELSE 0 END) AS BIGINT) AS b,
             CAST(SUM(CASE WHEN q < 40 AND disc >= 8
                           THEN 1 ELSE 0 END) AS BIGINT) AS c,
             CAST(SUM(CASE WHEN q < 40 AND disc < 8
                           THEN 1 ELSE 0 END) AS BIGINT) AS d
      FROM (SELECT CAST(round(l_quantity) AS BIGINT) AS q,
                   CAST(round(l_discount * 100) AS BIGINT) AS disc
            FROM lineitem))
    SELECT a AS big_deep, b AS big_shallow, c AS small_deep,
           d AS small_shallow,
           CAST(a * d * 1000000 // GREATEST(b * c, 1) AS BIGINT)
             AS odds_ratio_ppm
    FROM t"""


RETURNCLASS_PRIORITY_SQL = """
    SELECT l_returnflag,
           CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                    THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(SUM(CASE WHEN o_orderpriority NOT IN
                              ('1-URGENT', '2-HIGH')
                    THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= DATE '1995-01-01'
      AND l_shipdate < DATE '1996-01-01'
    GROUP BY l_returnflag ORDER BY l_returnflag"""


BRACKET_REVENUE_SQL = """
    SELECT CAST(COUNT(*) AS BIGINT) AS n_lineitems,
           CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                    * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                AS DOUBLE) / 10000.0 AS revenue
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
           AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 11)
       OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
           AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 20)
       OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
           AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 30)"""


SOLE_LATEST_SQL = """
    WITH per AS (
      SELECT l_orderkey AS okey, l_suppkey AS supp,
             MAX(epoch_us(l_shipdate)) AS ship
      FROM lineitem GROUP BY 1, 2),
    marked AS (
      SELECT okey, supp, ship,
             MAX(ship) OVER (PARTITION BY okey) AS omax,
             COUNT(*) OVER (PARTITION BY okey) AS n_supp
      FROM per),
    winners AS (
      SELECT okey, supp FROM marked
      WHERE ship = omax AND n_supp >= 2
        AND 1 = (SELECT COUNT(*) FROM marked m2
                 WHERE m2.okey = marked.okey AND m2.ship = m2.omax))
    SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
    FROM winners JOIN supplier ON supp = s_suppkey
    GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 10"""


RICH_IDLE_SQL = """
    WITH stats AS (
      SELECT SUM(CASE WHEN c > 0 THEN c ELSE 0 END) AS tot,
             SUM(CASE WHEN c > 0 THEN 1 ELSE 0 END) AS n_pos
      FROM (SELECT CAST(round(c_acctbal * 100) AS BIGINT) AS c
            FROM customer)),
    rich AS (
      SELECT c_custkey, c_nationkey,
             CAST(round(c_acctbal * 100) AS BIGINT) AS cents
      FROM customer, stats
      WHERE CAST(round(c_acctbal * 100) AS BIGINT) * n_pos > tot),
    idle AS (
      SELECT * FROM rich
      WHERE NOT EXISTS (SELECT 1 FROM orders
                        WHERE o_custkey = rich.c_custkey
                          AND o_orderdate >= DATE '1998-01-01'))
    SELECT n_name, CAST(COUNT(*) AS BIGINT) AS numcust,
           CAST(SUM(cents) AS DOUBLE) / 100.0 AS totacctbal
    FROM idle JOIN nation ON c_nationkey = n_nationkey
    GROUP BY n_name ORDER BY n_name"""


VOLUME_DRAWDOWN_SQL = """
    WITH daily AS (
      SELECT o_orderpriority AS prio,
             CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM orders GROUP BY 1, 2),
    bounds AS (
      SELECT prio, MIN(day) AS lo, MAX(day) AS hi FROM daily
      GROUP BY prio),
    alldays AS (
      SELECT UNNEST(range((SELECT MIN(lo) FROM bounds),
                          (SELECT MAX(hi) FROM bounds) + 1)) AS day),
    grid AS (
      SELECT b.prio, a.day, COALESCE(d.n, 0) AS n
      FROM bounds b JOIN alldays a ON a.day BETWEEN b.lo AND b.hi
      LEFT JOIN daily d ON d.prio = b.prio AND d.day = a.day),
    dd AS (
      SELECT prio,
             MAX(n) OVER (PARTITION BY prio ORDER BY day
                          ROWS UNBOUNDED PRECEDING) - n AS drop_
      FROM grid)
    SELECT g2.prio AS o_orderpriority,
           (SELECT CAST(MAX(drop_) AS BIGINT) FROM dd
            WHERE dd.prio = g2.prio) AS max_drawdown,
           CAST(COUNT(*) AS BIGINT) AS n_days
    FROM grid g2 GROUP BY g2.prio ORDER BY g2.prio"""
