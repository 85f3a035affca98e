"""Oracles of the training-data operators (``pipelines/training.py``):
text statistics, dedup, similarity search and loader prep.  The hash
families (minhash permutations, LSH hyperplanes) are inlined from the
engine's own constants."""

from __future__ import annotations

from ..stages import dedup as _dd
from ..stages import similarity as _sim
from . import md5h, splitmix64


def _perms_sql() -> str:
    """The minhash permutation constants (dedup._A/_B) as SQL VALUES
    literals, so the q21 oracle runs the IDENTICAL hash family."""
    return ", ".join(f"({i}, {int(a)}, {int(b)})"
                     for i, (a, b) in enumerate(zip(_dd._A, _dd._B)))


def _lsh_planes_sql(dim: int = 64) -> str:
    """The sign-LSH hyperplane matrix (similarity.lsh_planes) as SQL
    VALUES literals for the q47 oracle."""
    planes = _sim.lsh_planes(dim)
    return ", ".join(
        f"({j}, [{', '.join(str(int(v)) for v in planes[j])}])"
        for j in range(planes.shape[0]))

# q71: incremental re-crawl delta — two deterministic snapshots
# full-outer joined on doc_id, unchanged rows filtered in-bucket
SNAPSHOT_DIFF_SQL = """
            WITH a AS (SELECT doc_id, md5(text) AS fp
                       FROM documents WHERE doc_id % 97 != 3),
                 b AS (SELECT doc_id,
                              md5(CASE WHEN doc_id % 89 = 5
                                       THEN text || '!' ELSE text END) AS fp
                       FROM documents WHERE doc_id % 101 != 7)
            SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                   CASE WHEN a.fp IS NULL THEN 'added'
                        WHEN b.fp IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
            WHERE a.fp IS NULL OR b.fp IS NULL OR a.fp != b.fp
            ORDER BY doc_id"""

# q80: grouped MODE, ties broken by smallest lang — ROW_NUMBER
# over (n DESC, lang) reproduces the deterministic argmax
MODE_LANG_BY_SOURCE_SQL = """
            WITH c AS (SELECT source, lang, COUNT(*) AS n
                       FROM documents GROUP BY 1, 2),
                 r AS (SELECT source, lang, n,
                              ROW_NUMBER() OVER (PARTITION BY source
                                  ORDER BY n DESC, lang) AS rn
                       FROM c)
            SELECT source, lang AS mode_lang, n AS n_docs
            FROM r WHERE rn = 1 ORDER BY source"""

# q79: the export manifest must survive the hive write→read
# round trip; expected values = routing computed on the source
EXPORT_PARTITIONED_SQL = r"""
            SELECT CASE WHEN CAST(len(regexp_extract_all(text, '\b(the|a|of|and|in)\b')) AS BIGINT) * 1000000
                     // GREATEST(CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT), 1) >= 50000
                        THEN 'en' ELSE 'unk' END AS lang_pred,
                   COUNT(*) AS n_docs,
                   CAST(SUM(strlen(text)) AS BIGINT) AS n_bytes
            FROM documents GROUP BY 1 ORDER BY lang_pred"""

# q76: stride-1 rolling 16-token windows, distinct per doc,
# spans claimed by >= 2 docs (substring-dedup granularity)
DUPLICATE_SPANS_SQL = """
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
              FROM documents
            ), w AS (
              SELECT DISTINCT doc_id,
                     md5(array_to_string(
                         list_slice(t, CAST(i AS BIGINT),
                                    CAST(i + 15 AS BIGINT)), ' ')) AS fp
              FROM toks, UNNEST(range(1, len(t) - 16 + 2)) AS u(i)
              WHERE len(t) >= 16)
            SELECT fp, COUNT(*) AS n_docs, MIN(doc_id) AS min_doc,
                   MAX(doc_id) AS max_doc
            FROM w GROUP BY fp HAVING COUNT(*) >= 2 ORDER BY fp"""

# word-trigram shingle sets (dedup.shingles: the whole token list when
# shorter than 3) and each doc's set size; _OVERLAPS adds the
# intersection size of every doc pair sharing a shingle
_SHINGLES = """toks AS (
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
            )"""
_OVERLAPS = _SHINGLES + """, inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
              FROM sh a JOIN sh b USING (s)
              WHERE a.doc_id < b.doc_id
              GROUP BY 1, 2
            )"""
# q27's near-dup families: reach(a, b) is the transitive closure of
# the pairs with Jaccard >= 0.5
_FAMILIES = f"""
            WITH RECURSIVE {_OVERLAPS}, pairs AS (
              SELECT doc_a, doc_b FROM inter
              JOIN sizes sa ON sa.doc_id = doc_a
              JOIN sizes sb ON sb.doc_id = doc_b
              WHERE i * 1000000 >= 500000 * (sa.n + sb.n - i)
            ), e AS (
              SELECT doc_a AS a, doc_b AS b FROM pairs
              UNION SELECT doc_b, doc_a FROM pairs
            ), reach(a, b) AS (
              SELECT a, b FROM e
              UNION
              SELECT r.a, e.b FROM reach r JOIN e ON e.a = r.b
            )"""

DUP_CLUSTERS_SQL = _FAMILIES + """
            SELECT a AS doc_id, LEAST(a, MIN(b)) AS cluster
            FROM reach GROUP BY a ORDER BY doc_id"""

# q59 = q27's families reduced to the curation decision: drop
# every non-canonical member (min reachable doc_id < self)
NEARDUP_CURATION_SQL = _FAMILIES + """
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (
              SELECT a FROM reach GROUP BY a HAVING MIN(b) < a)
            ORDER BY doc_id"""

TFIDF_TOPTERMS_SQL = """
            WITH words AS (
              SELECT doc_id,
                     UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
              FROM documents
            ), tf AS (
              SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
              FROM words GROUP BY 1, 2
            ), df AS (
              SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY 1
            ), ranked AS (
              SELECT doc_id, tf.term, tf.tf * 1000000 // df.df AS score,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                                        ORDER BY tf.tf * 1000000 // df.df DESC,
                                                 tf.term) AS rank
              FROM tf JOIN df USING (term)
            )
            SELECT doc_id, term, score, rank FROM ranked
            WHERE rank <= 3 ORDER BY doc_id, rank"""

TOKEN_COUNTS_SQL = r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens
            FROM documents ORDER BY doc_id"""

QUALITY_SCORES_SQL = r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) * 1000000
                     // GREATEST(CAST(length(text) AS BIGINT), 1) AS alpha_ppm,
                   CAST(len(regexp_extract_all(text, '\b(the|a|of|and|in)\b')) AS BIGINT) AS stop_hits,
                   (CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) >= 10
                    AND CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) * 1000000
                        // GREATEST(CAST(length(text) AS BIGINT), 1) >= 500000) AS is_quality
            FROM documents ORDER BY doc_id"""

# q62: the same RE2 feature counts as q11/q12 folded through
# the FIXED integer weight vector (textstats.QUALITY_MODEL);
# all divisions on non-negative operands, the weighted sum has
# none — bit-equal logits
QUALITY_MODEL_SQL = r"""
            WITH f AS (
              SELECT doc_id,
                CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tok,
                GREATEST(CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT), 1) AS safe_t,
                GREATEST(CAST(length(text) AS BIGINT), 1) AS safe_c,
                CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS alpha,
                CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS digit,
                CAST(len(regexp_extract_all(text, '[A-Za-z0-9]')) AS BIGINT) AS alnum,
                CAST(len(regexp_extract_all(text, '\b(the|a|of|and|in)\b')) AS BIGINT) AS stop
              FROM documents
            ), lg AS (
              SELECT doc_id,
                2000 * LEAST(n_tok, 1000)
                + 3 * (alpha * 1000000 // safe_c)
                + 1 * (stop * 1000000 // safe_t)
                - 5 * (digit * 1000000 // safe_c)
                - 40 * (alnum * 1000 // safe_t)
                - 2460000 AS logit_micro
              FROM f
            )
            SELECT doc_id, logit_micro, logit_micro > 0 AS is_keep
            FROM lg ORDER BY doc_id"""

LANG_ID_SQL = r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\b(the|a|of|and|in)\b')) AS BIGINT) * 1000000
                     // GREATEST(CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT), 1) AS stop_ppm,
                   CASE WHEN CAST(len(regexp_extract_all(text, '\b(the|a|of|and|in)\b')) AS BIGINT) * 1000000
                     // GREATEST(CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT), 1) >= 50000
                        THEN 'en' ELSE 'unk' END AS lang_pred
            FROM documents ORDER BY doc_id"""

DOC_FINGERPRINTS_SQL = """
            SELECT doc_id, md5(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS fp
            FROM documents ORDER BY doc_id"""

# q61: the same tokenizer as q27/q28; list_slice is 1-based
# inclusive, so window w covers tokens [w*stride+1, w*stride+win]
# = the Python slice [w*stride, w*stride+win); window count =
# ceil(n/stride) keeps every token covered (tail windows stay)
WINDOW_CHUNKS_SQL = """
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
              FROM documents
            ), wins AS (
              SELECT doc_id, CAST(w AS BIGINT) AS win_idx,
                     list_slice(t, CAST(w*32 + 1 AS BIGINT),
                                CAST(w*32 + 64 AS BIGINT)) AS wt
              FROM toks, UNNEST(range(0, (len(t) + 31) // 32)) AS u(w)
            )
            SELECT doc_id, win_idx, CAST(len(wt) AS BIGINT) AS n_tok,
                   md5(array_to_string(wt, ' ')) AS win_md5
            FROM wins ORDER BY doc_id, win_idx"""

EXACT_DEDUP_SQL = """
            SELECT MIN(doc_id) AS keep_doc, COUNT(*) AS n_copies
            FROM documents GROUP BY text ORDER BY keep_doc"""

# exact SQL twin of the MinHash-LSH pipeline: md5-prefix-64
# shingle hashes (dedup._hash64_str), the SAME 64 (a,b) mod
# 2^61-1 permutations inlined as literals (HUGEINT arithmetic is
# exact: a < 2^61, hv < 2^64 → a*hv+b < 2^126), banding by
# direct slot equality (the Ray side folds the 2 slots to one
# key — identical up to a ~2^-64 fold collision), then the same
# integer-ppm exact-Jaccard verification as q25.
MINHASH_PAIRS_SQL = f"""
            WITH perms(i, a, b) AS (VALUES {_perms_sql()}),
            {_SHINGLES}, shh AS (
              SELECT doc_id, s, {md5h('s')} AS hv FROM sh
            ), sigs AS (
              SELECT doc_id, p.i,
                     MIN((CAST(p.a AS HUGEINT) * hv + p.b)
                         % 2305843009213693951) AS sg
              FROM shh CROSS JOIN perms p GROUP BY doc_id, p.i
            ), bands AS (
              SELECT doc_id, i // 2 AS band,
                     MIN(CASE WHEN i % 2 = 0 THEN sg END) AS s0,
                     MIN(CASE WHEN i % 2 = 1 THEN sg END) AS s1
              FROM sigs GROUP BY doc_id, i // 2
            ), cand AS (
              SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM bands a JOIN bands b
                ON a.band = b.band AND a.s0 = b.s0 AND a.s1 = b.s1
               AND a.doc_id < b.doc_id
            ), inter AS (
              SELECT c.doc_a, c.doc_b, COUNT(*) AS i
              FROM cand c JOIN sh x ON x.doc_id = c.doc_a
                          JOIN sh y ON y.doc_id = c.doc_b AND y.s = x.s
              GROUP BY 1, 2
            )
            SELECT i.doc_a, i.doc_b,
                   (i.i * 1000000) // (sa.n + sb.n - i.i) AS jaccard_ppm
            FROM inter i
            JOIN sizes sa ON sa.doc_id = i.doc_a
            JOIN sizes sb ON sb.doc_id = i.doc_b
            WHERE i.i * 1000000 >= 500000 * (sa.n + sb.n - i.i)
            ORDER BY doc_a, doc_b"""

# exact SQL twin of the 64-bit token-multiset simhash: one vote
# row per (token occurrence, bit), sign-summed; bit set iff the
# vote is strictly positive (ties → 0, matching dedup.simhash64)
SIMHASH_SQL = f"""
            WITH toks AS (
              SELECT doc_id,
                     UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
              FROM documents
            ), th AS (
              SELECT doc_id, {md5h('w')} AS h FROM toks
            ), votes AS (
              SELECT doc_id, bit.b,
                     SUM(CASE WHEN (h >> bit.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
              FROM th CROSS JOIN (SELECT UNNEST(range(64)) AS b) bit
              GROUP BY doc_id, bit.b
            ), val AS (
              SELECT doc_id,
                     SUM(CASE WHEN v > 0 THEN (CAST(1 AS HUGEINT) << b)
                              ELSE CAST(0 AS HUGEINT) END) AS x
              FROM votes GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(printf('%08x%08x',
                                   CAST(v.x >> 32 AS BIGINT),
                                   CAST(v.x & 4294967295 AS BIGINT)),
                            '0000000000000000') AS simhash
            FROM documents d LEFT JOIN val v USING (doc_id)
            ORDER BY doc_id"""

CURATION_SQL = r"""
            WITH keep AS (SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text)
            SELECT d.doc_id,
                   CAST(len(regexp_extract_all(d.text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
                   CAST(len(regexp_extract_all(d.text, '[A-Za-z]')) AS BIGINT) * 1000000
                     // GREATEST(CAST(length(d.text) AS BIGINT), 1) AS alpha_ppm
            FROM documents d JOIN keep USING (doc_id)
            WHERE CAST(len(regexp_extract_all(d.text, '[A-Za-z0-9]+')) AS BIGINT) >= 10
              AND CAST(len(regexp_extract_all(d.text, '[A-Za-z]')) AS BIGINT) * 1000000
                  // GREATEST(CAST(length(d.text) AS BIGINT), 1) >= 500000
            ORDER BY d.doc_id"""

NGRAM_JACCARD_SQL = f"""
            WITH {_OVERLAPS}
            SELECT doc_a, doc_b,
                   (i * 1000000) // (sa.n + sb.n - i) AS jaccard_ppm
            FROM inter
            JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
            WHERE i * 1000000 >= 500000 * (sa.n + sb.n - i)
            ORDER BY doc_a, doc_b"""

EMBEDDING_NEARDUP_SQL = """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a CROSS JOIN embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.4
            ORDER BY vec_a, vec_b"""

# exact SQL twin of the int8 scalar quantizer: per-dim min/max
# over fixed-point values, round-half-up codes on NON-NEGATIVE
# offsets (numpy floor div == DuckDB truncating // there), and
# the integer reconstruction-error checksum
EMBEDDING_QUANTIZE_SQL = """
            WITH x AS (
              SELECT vec_id, k.k AS dim,
                     CAST(floor(CAST(embedding[CAST(k.k AS INTEGER)] AS DOUBLE)
                                * 1000000 + 0.5) AS BIGINT) AS xv
              FROM embeddings CROSS JOIN (SELECT UNNEST(range(1, 65)) AS k) k
            ), st AS (
              SELECT dim, MIN(xv) AS mn, MAX(xv) AS mx FROM x GROUP BY dim
            ), qq AS (
              SELECT x.vec_id, x.dim,
                     CASE WHEN mx = mn THEN 0
                          ELSE ((xv - mn) * 510 + (mx - mn))
                               // (2 * (mx - mn)) END AS q,
                     xv - mn AS xp, mx - mn AS rng
              FROM x JOIN st USING (dim)
            )
            SELECT vec_id,
                   string_agg(lpad(lower(hex(q)), 2, '0'), ''
                              ORDER BY dim) AS code_hex,
                   CAST(SUM(CASE WHEN rng = 0 THEN 0
                            ELSE (xp * 255 - q * rng) * (xp * 255 - q * rng)
                            END) AS BIGINT) AS err_scaled
            FROM qq GROUP BY vec_id ORDER BY vec_id"""

# exact SQL twin of the sign-LSH pipeline: fixed-point quantize
# (identical float64 multiply/add/floor), the SAME 64 int
# hyperplanes as literals, 4-bit band keys, candidates = pairs
# sharing >= 1 band, then the q23 cosine-threshold verify
EMBEDDING_LSH_SQL = f"""
            WITH planes(j, p) AS (VALUES {_lsh_planes_sql()}),
            q AS (
              SELECT vec_id,
                     list_transform(embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                                 AS HUGEINT)) AS qe
              FROM embeddings
            ), dots AS (
              SELECT vec_id, pl.j,
                     list_sum(list_transform(range(1, 65),
                                             k -> q.qe[k] * pl.p[k])) AS d
              FROM q CROSS JOIN planes pl
            ), bands AS (
              SELECT vec_id, j // 4 AS band,
                     SUM(CASE WHEN d >= 0 THEN 1 << (j % 4) ELSE 0 END) AS key
              FROM dots GROUP BY vec_id, j // 4
            ), cand AS (
              SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
              FROM bands a JOIN bands b
                ON a.band = b.band AND a.key = b.key AND a.vec_id < b.vec_id
            )
            SELECT c.vec_a, c.vec_b
            FROM cand c
            JOIN embeddings ea ON ea.vec_id = c.vec_a
            JOIN embeddings eb ON eb.vec_id = c.vec_b
            WHERE list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]),
                                         CAST(eb.embedding AS DOUBLE[])) >= 0.4
            ORDER BY vec_a, vec_b"""

KNN_TOPK_SQL = """
            WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 5),
                 sims AS (SELECT q.qid AS query_id, e.vec_id,
                                 list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS sim
                          FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid)
            SELECT query_id, vec_id, rank FROM (
                SELECT query_id, vec_id,
                       ROW_NUMBER() OVER (PARTITION BY query_id
                                          ORDER BY sim DESC, vec_id) AS rank
                FROM sims)
            WHERE rank <= 10 ORDER BY query_id, rank"""

INVERTED_INDEX_SQL = """
            WITH pairs AS (
              SELECT DISTINCT doc_id,
                     UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
              FROM documents
            )
            SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM pairs GROUP BY term ORDER BY term"""

PACK_CHUNKS_SQL = """
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens
              FROM documents
            )
            SELECT doc_id, n_tokens,
                   CAST((SUM(n_tokens) OVER (ORDER BY doc_id) - n_tokens)
                        // 2048 AS BIGINT) AS pack_id
            FROM t ORDER BY doc_id"""

PII_SCRUB_SQL = r"""
            WITH r AS (
              SELECT doc_id, text,
                     regexp_replace(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '[EMAIL]', 'g') AS red1
              FROM documents
            )
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
                   CAST(len(regexp_extract_all(red1, '[0-9]{3,}')) AS BIGINT) AS n_numbers,
                   CAST(length(regexp_replace(red1, '[0-9]{3,}', '[NUM]', 'g')) AS BIGINT) AS clean_len
            FROM r ORDER BY doc_id"""

# q35: splitmix64(doc_id) % 100 buckets the train/val/test split
SPLIT_ASSIGN_SQL = f"""
            WITH {splitmix64("documents", "doc_id", "doc_id")}
            SELECT doc_id, CAST(x % 100 AS BIGINT) AS bucket,
                   CASE WHEN x % 100 < 80 THEN 'train'
                        WHEN x % 100 < 90 THEN 'val'
                        ELSE 'test' END AS split
            FROM s3 ORDER BY doc_id"""

REPETITION_SQL = """
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
              FROM documents
            ), tri AS (
              SELECT doc_id, CAST(len(t) AS BIGINT) AS n_tokens,
                CASE WHEN len(t) < 3 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(1, len(t) - 1),
                            i -> array_to_string(list_slice(t, i, i + 2), ' '))
                END AS g
              FROM toks
            )
            SELECT doc_id, n_tokens,
                   CAST(len(g) AS BIGINT) AS n_tri,
                   CAST((len(g) - len(list_distinct(g))) * 1000000
                        // GREATEST(len(g), 1) AS BIGINT) AS dup_tri_ppm,
                   ((len(g) - len(list_distinct(g))) * 1000000
                        // GREATEST(len(g), 1)) >= 200000 AS is_repetitive
            FROM tri ORDER BY doc_id"""

# q63: Efraimidis–Spirakis weighted sample — the same splitmix64
# chain as q37, then the float key -ln((x+0.5)/2^64)/w computed
# with the IDENTICAL IEEE ops (uint64→double rounding, libm ln)
# as numpy, so the sample is value-exact
WEIGHTED_SAMPLE_SQL = f"""
            WITH {splitmix64("documents", "doc_id", "doc_id, n_chars")},
            ky AS (
              SELECT doc_id, n_chars,
                     -ln((CAST(x AS DOUBLE) + 0.5)
                         / 18446744073709551616.0)
                       / GREATEST(n_chars, 1) AS ky
              FROM s3
            )
            SELECT doc_id, n_chars,
                   CAST(ROW_NUMBER() OVER (ORDER BY ky, doc_id)
                        AS BIGINT) AS rank
            FROM ky ORDER BY ky, doc_id LIMIT 20"""

STRATIFIED_SAMPLE_SQL = f"""
            WITH {splitmix64("documents", "doc_id", "doc_id, lang")},
            r AS (
              SELECT lang, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY x, doc_id) AS rank
              FROM s3
            )
            SELECT lang, doc_id, rank FROM r
            WHERE rank <= 20 ORDER BY lang, rank"""

NGRAM_COUNTS_SQL = """
            WITH toks AS (
              SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS t
              FROM documents
            ), tri AS (
              SELECT UNNEST(
                CASE WHEN len(t) < 3 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(1, len(t) - 1),
                            i -> array_to_string(list_slice(t, i, i + 2), ' '))
                END) AS trigram
              FROM toks
            ), c AS (
              SELECT trigram, CAST(COUNT(*) AS BIGINT) AS n
              FROM tri GROUP BY trigram
            )
            SELECT trigram, n,
                   ROW_NUMBER() OVER (ORDER BY n DESC, trigram) AS rank
            FROM c ORDER BY rank LIMIT 50"""

# bottom-k (KMV) distinct sketch: the estimate is a pure
# integer function of the 16 smallest md5-prefix64 hashes, so
# SQL reproduces it exactly (hex prefix -> HUGEINT via nibble
# shifts; (k-1)<<64 // h_k floor division)
BOTTOMK_DISTINCT_SQL = f"""
            WITH h AS (
              SELECT DISTINCT lang, {md5h('text')} AS hv FROM documents
            ), r AS (
              SELECT lang, hv,
                     ROW_NUMBER() OVER (PARTITION BY lang
                                        ORDER BY hv) AS rn,
                     COUNT(*) OVER (PARTITION BY lang) AS cnt
              FROM h
            )
            SELECT lang,
                   CAST(CASE WHEN MAX(cnt) < 16 THEN MAX(cnt)
                        ELSE LEAST((CAST(15 AS HUGEINT) << 64)
                                   // GREATEST(MAX(CASE WHEN rn = 16
                                                   THEN hv END), 1),
                                   9223372036854775807)
                        END AS BIGINT) AS est_distinct
            FROM r GROUP BY lang ORDER BY lang"""

# segment-level exact dedup (CCNet/C4 line-dedup over 16-token
# segments): global keep-first per distinct segment string,
# first occurrence = min (doc_id, seg_idx)
SEGMENT_DEDUP_SQL = """
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS t
              FROM documents
            ), seg AS (
              SELECT doc_id, CAST((i-1)//16 AS BIGINT) AS seg_idx,
                     array_to_string(
                       list_slice(t, i, LEAST(i+15, len(t))), ' ') AS seg
              FROM toks, UNNEST(range(1, len(t)+1, 16)) AS u(i)
            ), firsts AS (
              SELECT seg, MIN(doc_id * 1048576 + seg_idx) AS fk
              FROM seg GROUP BY seg
            ), kept AS (
              SELECT s.doc_id, s.seg_idx, s.seg
              FROM seg s JOIN firsts f
                ON s.seg = f.seg
               AND s.doc_id * 1048576 + s.seg_idx = f.fk
            ), nseg AS (
              SELECT doc_id, COUNT(*) AS n_seg FROM seg GROUP BY doc_id
            )
            SELECT k.doc_id, n.n_seg,
                   CAST(COUNT(*) AS BIGINT) AS n_kept,
                   string_agg(k.seg, ' ' ORDER BY k.seg_idx) AS text_kept
            FROM kept k JOIN nseg n USING (doc_id)
            GROUP BY k.doc_id, n.n_seg ORDER BY doc_id"""

# benchmark contamination: distinct word n-grams of each
# candidate doc ∩ the benchmark slice (doc_id % 97 == 0);
# n=3 because the synthetic vocabulary is tiny (prod uses 13)
CONTAMINATION_SQL = """
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS t
              FROM documents
            ), grams AS (
              SELECT doc_id, list_distinct(
                CASE WHEN len(t) < 3 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(1, len(t) - 1),
                       i -> array_to_string(list_slice(t, i, i+2), ' '))
                END) AS g
              FROM toks
            ), bench AS (
              SELECT DISTINCT u.g13 FROM grams, UNNEST(g) AS u(g13)
              WHERE doc_id % 97 = 0
            ), cand AS (
              SELECT doc_id, len(g) AS n_grams, u.g13
              FROM grams, UNNEST(g) AS u(g13) WHERE doc_id % 97 <> 0
            )
            SELECT doc_id, CAST(n_grams AS BIGINT) AS n_grams,
                   CAST(COUNT(*) AS BIGINT) AS n_hits
            FROM cand WHERE g13 IN (SELECT g13 FROM bench)
            GROUP BY doc_id, n_grams ORDER BY doc_id"""

# per-label centroid sums in exact fixed-point (floor(v*2^20)
# int64) — order-free, so partials merge bit-identically
GROUP_CENTROIDS_SQL = """
            SELECT label, CAST(i AS BIGINT) AS pos,
                   CAST(SUM(CAST(FLOOR(CAST(embedding[i] AS DOUBLE)
                                       * 1048576) AS BIGINT))
                        AS BIGINT) AS sum_q,
                   CAST(COUNT(*) AS BIGINT) AS n_vecs
            FROM embeddings, UNNEST(range(1, len(embedding)+1)) AS r(i)
            GROUP BY label, pos ORDER BY label, pos"""
