"""DuckDB oracle SQL for every value-checkable query.

The conformance oracle, kept apart from the implementation: no engine
module imports this package.  The query registry in ``__ray_entry__``
pairs each engine function with its oracle here by Python reference,
and ``oracle_sql()`` renders the table.  An oracle may import engine
constants, so both sides are built from one value.  Importing the
package runs no DuckDB and builds no corpus.

- ``analytics``: the q81+ operators of ``pipelines/analytics.py``;
- ``relational`` and ``training``: the operators of the modules of
  the same name;
- ``corpus``: the crawl, archive and ingest queries ``__ray_entry__``
  defines.  The oracles that read corpus artifacts are functions of a
  ``corpus.CorpusPaths``.
"""


def md5h(expr: str) -> str:
    """64-bit big-endian md5-PREFIX hash of the SQL string ``expr``, as
    a HUGEINT: the SQL twin of ``stages.dedup._hash64_str``."""
    return ("list_sum(list_transform(range(1, 17), "
            "i -> CAST(strpos('0123456789abcdef', "
            f"substr(md5({expr}), CAST(i AS INTEGER), 1)) - 1 AS HUGEINT) "
            "<< (4 * (16 - i))))")


def splitmix64(src: str, key: str, cols: str) -> str:
    """CTEs ``s0``..``s3`` over ``src``: ``s3.x`` is splitmix64(``key``)
    as a HUGEINT, with ``cols`` carried along — the SQL twin of the
    engine's splitmix64 (sampling coins, corpus host ids).  The 64x64-bit
    products mod 2^64 go through a 32-bit split (lo*M + ((hi*M) mod
    2^32) << 32), exact."""
    def mul(m: int) -> str:
        return (f"SELECT {cols}, ((x % 4294967296) * {m}"
                f" + (((x // 4294967296) * {m}) % 4294967296) * 4294967296)"
                " % 18446744073709551616 AS x")
    return f"""s0 AS (
              SELECT {cols}, (CAST({key} AS HUGEINT) + 11400714819323198485)
                               % 18446744073709551616 AS x FROM {src}),
            s1 AS (SELECT {cols}, xor(x, x >> 30) AS x FROM s0),
            m1 AS ({mul(13787848793156543929)} FROM s1),
            s2 AS (SELECT {cols}, xor(x, x >> 27) AS x FROM m1),
            m2 AS ({mul(10723151780598845931)} FROM s2),
            s3 AS (SELECT {cols}, xor(x, x >> 31) AS x FROM m2)"""
