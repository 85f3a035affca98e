"""Oracles of the relational operators (``pipelines/relational.py``):
TPC-H shaped joins and aggregates, event windows and joins, samples,
and the integer PageRank."""

# q01/q66/q69's integer measures (TPC-H Q1 shape)
_LINEITEM_MEASURES = """CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS sum_rev_c2,
                   COUNT(*) AS n_rows
            FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-09-01'"""
# q66/q69: NULL subtotal keys coalesced to 'ALL' so the ordering is
# engine-independent
_SUBTOTALS = f"""
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   {_LINEITEM_MEASURES}"""

AGG_LINEITEM_SQL = f"""
            SELECT l_returnflag, l_linestatus,
                   {_LINEITEM_MEASURES}
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus"""

# q68: the general shuffle-join path (q02 covers the same
# tables via broadcast dims)
SEGMENT_ORDER_STATS_SQL = """
            SELECT c.c_mktsegment,
                   CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT)
                     AS revenue_cents,
                   COUNT(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment"""

# q67: trailing 3-row window per user, (ts, event_id) order;
# milli values + DuckDB // (truncating) division.  The outer
# CAST matters: SUM(BIGINT) OVER w is HUGEINT in DuckDB, and a
# decimal128 ma_milli hash-mismatches the engine's int64 under
# dtype-sensitive canonicalization even when values are equal
# (the round-4 driver red row).
MOVING_AVERAGE_SQL = """
            SELECT user_id, event_id,
                   CAST(FLOOR(value*1000) AS BIGINT) AS value_milli,
                   CAST(SUM(CAST(FLOOR(value*1000) AS BIGINT)) OVER w
                     // COUNT(*) OVER w AS BIGINT) AS ma_milli
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
            ORDER BY user_id, event_id"""

# q69: CUBE — all four grouping sets derived from the finest
# level's partials, same integer measures as q66
CUBE_LINEITEM_SQL = _SUBTOTALS + """
            GROUP BY CUBE(l_returnflag, l_linestatus)
            ORDER BY 1, 2"""

# q70: distributed global sort — rank must bit-match
# ROW_NUMBER over the same total order (ties broken by key)
GLOBAL_SORT_ORDERS_SQL = """
            SELECT o_orderkey, o_totalprice,
                   ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey)
                     AS rank
            FROM orders"""

# q77: exact per-type p99 threshold (percentile_disc semantics,
# integer milli) then a strict-above filter
OUTLIER_EVENTS_SQL = """
            WITH q AS (
              SELECT event_type,
                     percentile_disc(0.99) WITHIN GROUP (
                       ORDER BY CAST(FLOOR(value*1000) AS BIGINT)) AS p99
              FROM events GROUP BY event_type)
            SELECT e.event_id, e.event_type,
                   CAST(FLOOR(e.value*1000) AS BIGINT) AS value_milli
            FROM events e JOIN q USING (event_type)
            WHERE CAST(FLOOR(e.value*1000) AS BIGINT) > q.p99
            ORDER BY e.event_id"""

# q74: entity-resolution fuzzy join — the SQL twin does the
# quadratic compare the deletion-variant blocking avoids
FUZZY_NAME_PAIRS_SQL = """
            SELECT a.c_custkey AS a_custkey, b.c_custkey AS b_custkey
            FROM customer a JOIN customer b
              ON a.c_custkey < b.c_custkey
             AND levenshtein(a.c_name, b.c_name) = 1
            ORDER BY 1, 2"""

# q73: NTILE(10) over (alpha_ppm, doc_id) — decile is pure
# arithmetic on q70's exact global rank
QUALITY_DECILES_SQL = r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) * 1000000
                     // GREATEST(CAST(length(text) AS BIGINT), 1) AS alpha_ppm,
                   CAST(NTILE(10) OVER (
                       ORDER BY CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) * 1000000
                                  // GREATEST(CAST(length(text) AS BIGINT), 1),
                                doc_id) AS BIGINT) AS decile
            FROM documents"""

# q66: ROLLUP over the same measures
ROLLUP_LINEITEM_SQL = _SUBTOTALS + """
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
            ORDER BY 1, 2"""

REVENUE_BY_NATION_SQL = """
            SELECT n.n_name,
                   CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   COUNT(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
                          JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name"""

TOPK_EVENTS_SQL = """
            SELECT event_id, user_id, event_type, value
            FROM events ORDER BY value DESC, event_id LIMIT 20"""

EVENTS_BY_TYPE_SQL = """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value*1000) AS BIGINT)) AS BIGINT) AS sum_value_milli,
                   COUNT(*) AS n_events,
                   MAX(value) AS max_value
            FROM events GROUP BY event_type ORDER BY event_type"""

FILTER_ORDERS_SQL = """
            SELECT o_orderkey, o_custkey, o_totalprice, o_orderpriority,
                   CAST(FLOOR(o_totalprice/1000) AS BIGINT) AS price_k
            FROM orders WHERE o_totalprice > 100000 ORDER BY o_orderkey"""

USER_EVENT_STATS_SQL = """
            WITH f AS (SELECT user_id, CAST(FLOOR(value*1000) AS BIGINT) AS v FROM (
                         SELECT user_id, value,
                                ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, value) AS rn
                         FROM events) WHERE rn = 1),
                 l AS (SELECT user_id, CAST(FLOOR(value*1000) AS BIGINT) AS v FROM (
                         SELECT user_id, value,
                                ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts DESC, value DESC) AS rn
                         FROM events) WHERE rn = 1),
                 s AS (SELECT user_id, COUNT(*) AS n_events,
                              COUNT(DISTINCT event_type) AS n_types
                       FROM events GROUP BY user_id)
            SELECT s.user_id, s.n_events, s.n_types, l.v - f.v AS delta_milli
            FROM s JOIN f USING (user_id) JOIN l USING (user_id)
            ORDER BY s.user_id"""

WINDOWED_EVENTS_SQL = """
            SELECT DATE_TRUNC('hour', ts) AS window_start, event_type,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value*1000) AS BIGINT)) AS BIGINT) AS sum_value_milli,
                   CAST(MAX(CAST(FLOOR(value*1000) AS BIGINT)) AS BIGINT) AS max_value_milli
            FROM events GROUP BY 1, 2 ORDER BY 1, 2"""

SESSIONIZE_SQL = """
            WITH e AS (
              SELECT user_id, ts,
                     CASE WHEN LAG(ts) OVER w IS NULL
                               OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            s AS (
              SELECT user_id, ts,
                     CAST(SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
              FROM e
            )
            SELECT user_id, session_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   MIN(ts) AS start_ts, MAX(ts) AS end_ts
            FROM s GROUP BY 1, 2 ORDER BY 1, 2"""

ASOF_JOIN_SQL = """
            SELECT e.user_id, e.event_id, e.ts, v.ts AS prior_ts
            FROM events e
            ASOF LEFT JOIN (SELECT user_id, ts FROM events
                            WHERE event_type = 'view') v
              ON e.user_id = v.user_id AND e.ts > v.ts
            ORDER BY e.event_id"""

GROUPED_TOPK_SQL = """
            SELECT user_id, event_id, value, rank FROM (
                SELECT user_id, event_id, value,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                                          ORDER BY value DESC, event_id) AS rank
                FROM events)
            WHERE rank <= 3 ORDER BY user_id, rank"""

EVENT_QUANTILES_SQL = """
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(percentile_disc(0.50) WITHIN GROUP
                        (ORDER BY CAST(FLOOR(value*1000) AS BIGINT)) AS BIGINT) AS p50_milli,
                   CAST(percentile_disc(0.90) WITHIN GROUP
                        (ORDER BY CAST(FLOOR(value*1000) AS BIGINT)) AS BIGINT) AS p90_milli,
                   CAST(percentile_disc(0.99) WITHIN GROUP
                        (ORDER BY CAST(FLOOR(value*1000) AS BIGINT)) AS BIGINT) AS p99_milli
            FROM events GROUP BY event_type ORDER BY event_type"""

DOC_SAMPLE_SQL = """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) <= '28'
            ORDER BY doc_id"""

RANGE_JOIN_SQL = """
            SELECT e.event_id, e.user_id,
                   CAST(COUNT(v.ts) AS BIGINT) AS n_views_10m
            FROM events e LEFT JOIN events v
              ON v.user_id = e.user_id AND v.event_type = 'view'
             AND v.ts >= e.ts - INTERVAL 10 MINUTE AND v.ts < e.ts
            GROUP BY 1, 2 ORDER BY e.event_id"""

ANTI_JOIN_SQL = """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderpriority = '1-URGENT')
            ORDER BY c_custkey"""

BLOOM_SEMI_JOIN_SQL = """
            SELECT l_orderkey,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS rev_units,
                   COUNT(*) AS n_items
            FROM lineitem
            WHERE l_orderkey IN (
                SELECT o_orderkey FROM orders o
                JOIN customer c ON o.o_custkey = c.c_custkey
                WHERE c.c_mktsegment = 'BUILDING')
            GROUP BY l_orderkey ORDER BY l_orderkey"""

# q29: integer PageRank, the 5 iterations UNROLLED as CTEs (same
# floor-division recurrence the BSP fabric runs — bit-equal)
_PR_BASE = "(15 * (1000000000000 // (SELECT n FROM n))) // 100"
_PR_ITERS = "".join(
    f""", r{i} AS (
              SELECT e.dst AS id,
                     CAST({_PR_BASE} + (85 * SUM(r.rank // d.outdeg)) // 100
                          AS BIGINT) AS rank
              FROM edges e
              JOIN r{i - 1} r ON r.id = e.src
              JOIN deg d ON d.src = e.src
              GROUP BY e.dst)"""
    for i in range(1, 6))
PAGERANK_SQL = f"""
        WITH edges AS (
              SELECT DISTINCT l_partkey AS src, 1000000 + l_suppkey AS dst
              FROM lineitem
              UNION
              SELECT DISTINCT 1000000 + l_suppkey AS src, l_partkey AS dst
              FROM lineitem),
             deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
             n AS (SELECT COUNT(*) AS n FROM deg),
             r0 AS (SELECT src AS id,
                           1000000000000 // (SELECT n FROM n) AS rank
                    FROM deg){_PR_ITERS}
        SELECT id AS node_id, rank FROM r5 ORDER BY node_id"""
