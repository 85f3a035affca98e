"""Hot-host salted aggregation (G11).

The synthetic web is deliberately Zipf-skewed: host-0 owns ~20% of all
documents (corpus.py host_index), so any groupby-on-host sends a fifth
of the data to one reducer.  The classic fix: a Misra-Gries count
over the per-block partials picks a salt factor k per hot key, stage 1
groups by ``host#(hash % k)`` (parallel partial aggregates), stage 2
merges the k salted partials — two small exchanges instead of one
skewed one, and one scan of the input.

Used on the link table (millions of rows at bench scale); the same
pattern applies to any host-keyed reduce over fetched records.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

HOST_RE = r"^https?://(?P<host>[^/:]+)"


def add_host_column(batch: pa.Table, url_col: str = "url") -> pa.Table:
    m = pc.extract_regex(batch[url_col], HOST_RE)
    host = pc.struct_field(m, "host")
    return batch.append_column("host", pc.cast(host, pa.string()))


def _host_partials(ds: rd.Dataset, url_col: str) -> rd.Dataset:
    """Per-block exact ``(host, n_links, min_src, max_src)`` partials,
    materialized — the one scan both the hot-host fold and the
    aggregate read."""
    from .exchange import materialize

    def partial(b: pa.Table) -> pa.Table:
        g = add_host_column(b, url_col).group_by("host").aggregate(
            [("host", "count"), ("src_doc", "min"), ("src_doc", "max")])
        return g.rename_columns(["host", "n_links", "min_src", "max_src"])

    return materialize(ds.map_batches(partial, batch_format="pyarrow",
                                      batch_size=None))


def _mg_fold(parts: rd.Dataset, target_per_group: int,
             cells: int) -> tuple[dict[str, int], int]:
    """Misra-Gries hot hosts from per-block partials: each block's exact
    host counts prune to ≤``cells`` counters, the driver folds them one
    block at a time (re-pruning an oversized fold buffer) and keeps the
    hosts whose count UPPER bound clears ``target_per_group``.

    Driver state is O(cells) at any host cardinality.  The MG
    guarantee (under-count ≤ n/(cells+1), merge-preserved — Agarwal et
    al., "Mergeable Summaries") means every host with true count >
    target survives whenever target ≥ n/(cells+1).  Returns ``(hot
    host → upper-bound count, n)``, n = links with a host."""
    from .exchange import block_refs
    from .sketch import mg_prune

    def prune(acc: dict[str, int]) -> dict[str, int]:
        ks, cs = mg_prune(np.asarray(list(acc), dtype=object),
                          np.fromiter(acc.values(), dtype=np.int64,
                                      count=len(acc)), cells)
        return dict(zip(ks.tolist(), cs.tolist()))

    acc: dict[str, int] = {}
    total = 0
    for ref in block_refs(parts):
        t = ray.get(ref)
        t = t.filter(pc.is_valid(t["host"]))
        counts = t["n_links"].to_numpy(zero_copy_only=False).astype(np.int64)
        total += int(counts.sum())
        idx, counts = mg_prune(np.arange(t.num_rows), counts, cells)
        for h, n in zip(t["host"].take(pa.array(idx)).to_pylist(),
                        counts.tolist()):
            acc[h] = acc.get(h, 0) + n
        if len(acc) > 4 * cells:
            acc = prune(acc)
    if len(acc) > cells:
        acc = prune(acc)
    err = total // (cells + 1)
    return {h: c + err for h, c in acc.items()
            if c + err > target_per_group}, total


def salt_factors(counts: dict[str, int], target_per_group: int = 50_000,
                 max_salt: int = 32) -> dict[str, int]:
    """k per host that needs splitting (k=1 hosts are left unsalted)."""
    return {
        h: min(max_salt, -(-n // target_per_group))
        for h, n in counts.items() if n > target_per_group
    }


def host_link_stats(ds: rd.Dataset, url_col: str = "url",
                    target_per_group: int = 50_000,
                    cells: int = 4096) -> rd.Dataset:
    """Per-host inbound-link stats with hot-key salting:
    (host, n_links, n_src_docs is NOT computed — count + min/max src).

    Output columns: host, n_links, min_src, max_src — named identically
    in the SQL oracle.  One scan: ``ds`` executes once into per-block
    exact partials.  The Misra-Gries fold over those partials' counts
    (≤``cells`` driver rows, any host cardinality) picks k per hot
    host; a hot host's partial rows become ``host#d`` with
    ``d = hash64(min_src) % k``, stage 1 combines on the salted key
    and stage 2 strips the salt and merges the ≤k rows per host.
    Upper-bound counts may over-salt a warm host, which costs one
    extra stage-2 merge row and changes no results."""
    from .exchange import combine_buckets, hash64_strings

    parts = _host_partials(ds, url_col)
    salts = salt_factors(_mg_fold(parts, target_per_group, cells)[0],
                         target_per_group)
    hot = pa.array(list(salts), type=pa.string())
    ks = np.array(list(salts.values()) + [1], dtype=np.uint64)

    def salt(b: pa.Table) -> pa.Table:
        # vectorized: k per row via index_in against the (small)
        # hot-host list, digit via hash64(min_src) % k, suffix only
        # where hot
        idx = pc.fill_null(pc.index_in(b["host"], value_set=hot), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        d = hash64_strings(b["min_src"]) % ks[idx]
        salted = pc.if_else(
            pa.array(idx >= 0),
            pc.binary_join_element_wise(
                b["host"], pa.array(d.astype(np.str_)), "#"),
            b["host"])
        return b.drop_columns(["host"]).add_column(0, "host_salted", salted)

    aggs = [("n_links", "sum"), ("min_src", "min"), ("max_src", "max")]
    # stage 1: reduce on the SALTED key (skew split across k buckets);
    # one salt call per partials block, so a small plan runs on the
    # driver (exchange.local_blocks); the partials have one block per
    # scan block, 2 x cluster CPUs (sources/_util.default_read_blocks)
    stage1 = combine_buckets(
        parts.map_batches(salt, batch_format="pyarrow", batch_size=None),
        "host_salted", aggs, npart=16)

    # stage 2: strip the salt (vectorized), merge the k partials per
    # hot host
    def strip(b: pa.Table) -> pa.Table:
        hosts = pc.replace_substring_regex(b["host_salted"], r"#\d+$", "")
        return b.drop_columns(["host_salted"]).add_column(
            0, "host", pc.cast(hosts, pa.string()))

    return combine_buckets(
        stage1.map_batches(strip, batch_format="pyarrow"), "host", aggs,
        npart=8)
