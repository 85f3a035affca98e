"""Frontier shard: URL-seen cuckoo filter + per-host priority queues +
token-bucket politeness + robots gating (G5-G9).

One ``FrontierCore`` owns a deterministic slice of the host space
(``shard_of(host) == shard_id``).  Sharding by **host** (not URL) means
seen-set, priority queue, politeness bucket and robots cache for a host
live together — one shuffle per round, and seen+queue updates are
atomic per URL (SURVEY.md §7 "two-keyed frontier" note).

Determinism (the crawl-order parity contract, BASELINE.json):
  * offers are buffered per round and **sealed in sorted order**
    ``(depth, src_doc, src_offset, url)`` — so the nondeterministic
    arrival order of distributed fetch tasks never leaks into filter
    insertion order or queue order;
  * the queues are columnar: per-host state (tokens, last refill, next
    allowed round, crawl delay, robots flag, name rank) in numpy arrays
    by host id, and every pending URL one entry of a sorted int64 key
    array ``(host id, -priority)``, FIFO within a key in seal order,
    with a parallel reference into the seal's Arrow chunk of (url,
    depth) rows; politeness uses the **logical round clock**, never
    wall-clock;
  * the single-process oracle (pipelines/oracle.py) drives this same
    class — parity by construction.

The distributed wrapper ``FrontierShard`` is a Ray actor exchanging
Arrow tables (zero-copy through the object store).  The actor process
is long-lived — the crawl keeps its shard fleet warm across runs — and
``bind_run`` gives it one run's ``FrontierCore``: fresh, or loaded from
a checkpoint (its state is NOT re-derivable from lineage — SURVEY.md
§4).  ``finish`` reads the run out and drops the core.
"""

from __future__ import annotations

import os
import pickle
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .cuckoo import CuckooFilter

# The frontier offer schema: every offer table carries exactly these
# columns (hash64 = first 8 bytes of sha1(canonical url), computed by
# canonicalize_batch in the parallel workers).
OFFER_COLS = ["url", "host", "priority", "src_doc", "src_offset",
              "depth", "hash64"]


@dataclass(frozen=True)
class FrontierConfig:
    rate: float = 1.0               # token-bucket refill per logical round
    burst: int = 2                  # bucket capacity
    per_round_host_budget: int = 2  # max emissions per host per round
    max_rounds: int = 100
    max_depth: int = 4
    filter_capacity: int = 1 << 16  # per-shard cuckoo capacity
    num_shards: int = 4
    seed: int = 42


def shard_of(host: str, num_shards: int) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha1(host.encode()).digest()[:4], "big") % num_shards


def url_paths(urls: pa.Array) -> pa.Array:
    """Each URL's path: from the first '/' after the scheme's '://' on,
    or '/' when there is none."""
    paths = pc.replace_substring_regex(urls, pattern=r"(?s)^.*?://[^/]*",
                                       replacement="")
    return pc.if_else(pc.equal(paths, ""), "/", paths)


def delay_rounds(crawl_delay_ms: int) -> int:
    return crawl_delay_ms // 100  # 0ms→0, 100ms→1, 500ms→5 logical rounds


def rep_rule_to_regex(pattern: str) -> str:
    """One REP (RFC 9309 §2.2.3) disallow pattern → anchored regex.

    ``*`` matches any character sequence (including empty); a ``$`` at
    the END of the pattern anchors at end-of-path ('$' elsewhere is a
    literal, handled by re.escape on the split segments).  Without the
    anchor the rule is a prefix match, as in the plain-prefix case."""
    anchored = pattern.endswith("$")
    core = pattern[:-1] if anchored else pattern
    body = ".*".join(re.escape(seg) for seg in core.split("*"))
    return "^" + body + ("$" if anchored else "")


def compile_robots_rules(patterns) -> tuple:
    """Disallow patterns → (plain_prefixes, combined_regex_or_None).

    Plain prefixes (no ``*``, no trailing ``$``) keep the str.startswith
    fast path; wildcard/anchored rules compile ONCE into a single
    alternation so the seal hot loop pays one C regex call per URL on
    ruled hosts only.  The same translation drives the vectorized
    audit (pipelines/reports.robots_audit) and, in single-star form,
    the q259 DuckDB oracle — one matching semantics, three
    executions."""
    plain, wild = [], []
    for p in patterns:
        (wild if ("*" in p or p.endswith("$")) else plain).append(p)
    rx = (re.compile("|".join(f"(?:{rep_rule_to_regex(p)})" for p in wild))
          if wild else None)
    return tuple(plain), rx


# Pending-row keys: the host id in the high 32 bits, _PRIO_TOP - priority
# in the low 32 (0 for the top int32 priority, 2^32 - 1 for the bottom),
# so ascending keys run host by host, highest priority first.
_PRIO_TOP = (1 << 31) - 1
_NONE = np.iinfo(np.int64).min  # "no entry" in the per-host int arrays


def _robots_deny(path: str, plain: tuple, rx) -> bool:
    """True iff any disallow rule matches ``path``."""
    return (path.startswith(plain)
            or (rx is not None and rx.match(path) is not None))


class FrontierCore:
    """Single-shard frontier state machine (Arrow + numpy, columnar).

    Hosts get a stable id at first sight; their politeness state lives
    in numpy arrays indexed by that id (``_tokens``, ``_last_refill``,
    ``_next_allowed``, ``_delay``, ``_ruled``, ``_rank``).  The pending
    URLs are one sorted int64 key array, ``(host id, -priority)`` packed
    so that equal keys keep their FIFO (insertion) order, with a
    parallel array of packed ``(chunk, row)`` references into the
    append-only Arrow chunks of (url, depth) rows, one chunk per seal."""

    def __init__(self, shard_id: int, config: FrontierConfig,
                 robots: dict[str, tuple[tuple[str, ...], int]] | None = None):
        self.shard_id = shard_id
        self.config = config
        # host -> (disallow_patterns, delay_rounds); missing host =
        # allow-all.  Patterns are full REP rules (plain prefixes plus
        # '*' wildcards and trailing-'$' anchors, RFC 9309).
        self.robots = robots or {}
        # per-host compiled matchers: (plain_prefixes, combined_regex)
        self.robots_match = {h: compile_robots_rules(r[0])
                             for h, r in self.robots.items() if r[0]}
        self.filter = CuckooFilter(config.filter_capacity,
                                   seed=config.seed * 1000 + shard_id)
        self._reset_queues()
        self.buffer: list[tuple] = []
        self.counters = {
            "offered": 0, "dup": 0, "robots_denied": 0, "too_deep": 0,
            "queued": 0, "emitted": 0,
        }
        # in-actor work time (diagnostics only — NOT in counters, which
        # are compared 1:1 against the single-process oracle's)
        self.busy = {"seal": 0.0, "pop": 0.0,
                     "seal_sort": 0.0, "seal_filter": 0.0, "seal_queue": 0.0}

    def _reset_queues(self) -> None:
        # host registry: the name of host id i is _host_arr[i]
        # (pa.nulls, not pa.array: a process's first pa.array call
        # imports pandas, ~0.4 s, which would land in the fleet spawn)
        self._host_arr = pa.nulls(0, pa.string())
        # per-host state by id; _NONE marks "no entry yet"
        self._tokens = np.zeros(0, dtype=np.float64)
        self._last_refill = np.zeros(0, dtype=np.int64)
        self._next_allowed = np.zeros(0, dtype=np.int64)
        self._delay = np.zeros(0, dtype=np.int64)
        self._ruled = np.zeros(0, dtype=bool)
        self._rank = np.zeros(0, dtype=np.int64)  # rank of the host name
        # pending rows, sorted by key; FIFO within a key
        self._keys = np.zeros(0, dtype=np.int64)
        self._refs = np.zeros(0, dtype=np.int64)
        self._chunks: list = []   # per seal: (urls, depths), None once drained
        self._live = np.zeros(0, dtype=np.int64)  # pending rows per chunk

    def _register(self, names: list[str]) -> None:
        """Give each new host name the next id and its per-host state."""
        if not names:
            return
        self._host_arr = pa.concat_arrays(
            [self._host_arr, pa.array(names, type=pa.string())])
        m = len(names)
        self._tokens = np.concatenate(
            [self._tokens, np.full(m, float(self.config.burst))])
        self._last_refill = np.concatenate(
            [self._last_refill, np.full(m, _NONE, dtype=np.int64)])
        self._next_allowed = np.concatenate(
            [self._next_allowed, np.full(m, _NONE, dtype=np.int64)])
        self._delay = np.concatenate([self._delay, np.array(
            [self.robots.get(h, ((), 0))[1] for h in names], dtype=np.int64)])
        self._ruled = np.concatenate([self._ruled, np.array(
            [h in self.robots_match for h in names], dtype=bool)])
        order = pc.sort_indices(self._host_arr).to_numpy()
        self._rank = np.empty(len(order), dtype=np.int64)
        self._rank[order] = np.arange(len(order))

    def _host_ids_of(self, hosts) -> np.ndarray:
        """Per-row host id (new hosts registered in first-seen order)."""
        pos = pc.index_in(hosts, value_set=self._host_arr)
        if pos.null_count:
            self._register(pc.unique(hosts.filter(pc.is_null(pos))).to_pylist())
            pos = pc.index_in(hosts, value_set=self._host_arr)
        return pos.to_numpy().astype(np.int64)

    def _insert(self, keys: np.ndarray, urls: pa.Array,
                depths: pa.Array) -> None:
        """Queue rows as one new chunk: a stable sort of their keys and
        one merge, placing each row after the pending rows of its key."""
        chunk = len(self._chunks)
        self._chunks.append((urls, depths.cast(pa.int32())))
        self._live = np.append(self._live, len(keys))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        at = np.searchsorted(self._keys, keys, side="right")
        self._keys = np.insert(self._keys, at, keys)
        self._refs = np.insert(self._refs, at, (chunk << 32) | order)

    # -- offer / seal ---------------------------------------------------

    def offer(self, table: pa.Table, n_suppressed: int = 0) -> int:
        """Buffer one offer table (columns per OFFER_COLS); processed
        in deterministic sorted order at ``seal_round``.

        ``n_suppressed`` counts the producer's suppressed re-offers: a
        worker that already offered a URL ships only this count for the
        repeat.  Any previously-offered URL is guaranteed in the cuckoo
        filter (every offer passes contains_or_add at seal), so the
        repeat would have been counted offered+dup here — the counters
        stay EXACTLY equal to the no-suppression run."""
        if table.num_rows:
            self.buffer.append(table.select(OFFER_COLS))
        self.counters["offered"] += n_suppressed
        self.counters["dup"] += n_suppressed
        return table.num_rows + n_suppressed

    @staticmethod
    def _sort_offers(buf: pa.Table, n: int) -> pa.Array:
        """Deterministic offer order: (depth, src_doc, src_offset, url).

        Fast path for the SEED ingest (the hot shard seals ~20% of all
        seeds in one serial call): when depth and src_doc are constant
        and src_offset values are unique — seeds get globally unique
        offsets by construction — the multi-key string sort reduces to
        one int argsort, verified exact (any offset tie falls back)."""
        if n > 4096:
            dmm = pc.min_max(buf["depth"])
            smm = pc.min_max(buf["src_doc"])
            if (dmm["min"] == dmm["max"]
                    and smm["min"].as_py() == smm["max"].as_py()):
                off = buf["src_offset"].to_numpy(zero_copy_only=False)
                order = np.argsort(off, kind="stable")
                if (np.diff(off[order]) > 0).all():
                    return pa.array(order.astype(np.int64))
        return pc.sort_indices(buf, sort_keys=[("depth", "ascending"),
                                               ("src_doc", "ascending"),
                                               ("src_offset", "ascending"),
                                               ("url", "ascending")])

    def seal_round(self) -> None:
        """Deterministically ingest this round's offers (sorted).

        Arrow-native: multi-key sort + vectorized cuckoo batch.  The
        surviving candidates get host ids from one Arrow lookup (only
        new hosts touch Python), the robots gate runs in Python over
        the rows of ruled hosts only, and the rest is one stable key
        sort and one merge into the pending keys (``_insert``).  Arrow
        utf8 ordering == Python str ordering (determinism vs the
        oracle)."""
        if not self.buffer:
            return
        import time as _time

        _b0 = _time.perf_counter()
        buf = pa.concat_tables(self.buffer)
        self.buffer = []
        n = buf.num_rows
        self.counters["offered"] += n
        idx = self._sort_offers(buf, n)
        # src_doc/src_offset exist only to define the sort — don't
        # gather them (src_doc is a string column, ~25% of the take)
        buf = buf.select(["url", "host", "priority", "depth",
                          "hash64"]).take(idx)
        self.busy["seal_sort"] += _time.perf_counter() - _b0
        _b1 = _time.perf_counter()
        keys = buf["hash64"].to_numpy(zero_copy_only=False)
        seen = self.filter.contains_or_add(keys)
        depth_np = buf["depth"].to_numpy(zero_copy_only=False)
        n_dup = int(seen.sum())
        self.counters["dup"] += n_dup
        fresh = ~seen
        deep = fresh & (depth_np > self.config.max_depth)
        self.counters["too_deep"] += int(deep.sum())
        cand_mask = fresh & ~deep
        if not cand_mask.any():
            self.busy["seal_filter"] += _time.perf_counter() - _b1
            self.busy["seal"] += _time.perf_counter() - _b0
            return
        cand = buf.filter(pa.array(cand_mask))
        self.busy["seal_filter"] += _time.perf_counter() - _b1
        _b2 = _time.perf_counter()
        hid = self._host_ids_of(cand["host"])
        urls = cand["url"].combine_chunks()
        depths = cand["depth"].combine_chunks()
        prio = cand["priority"]
        ruled = np.flatnonzero(self._ruled[hid])
        if len(ruled):
            rows, match = pa.array(ruled), self.robots_match
            deny = np.array([
                _robots_deny(path, *match[host]) for path, host in zip(
                    url_paths(urls.take(rows)).to_pylist(),
                    cand["host"].take(rows).to_pylist())], dtype=bool)
            if deny.any():
                self.counters["robots_denied"] += int(deny.sum())
                keep = np.ones(len(hid), dtype=bool)
                keep[ruled[deny]] = False
                hid = hid[keep]
                mask = pa.array(keep)
                urls, depths = urls.filter(mask), depths.filter(mask)
                prio = prio.filter(mask)
        if len(hid):
            prio = prio.to_numpy().astype(np.int64)
            self._insert((hid << 32) | (_PRIO_TOP - prio), urls, depths)
            self.counters["queued"] += len(hid)
        self.busy["seal_queue"] += _time.perf_counter() - _b2
        self.busy["seal"] += _time.perf_counter() - _b0

    # -- emission -------------------------------------------------------

    def _host_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(host id, first pending position, pending count) of each host
        with pending rows: one binary search per registered host."""
        bounds = np.searchsorted(self._keys, np.arange(
            len(self._host_arr) + 1, dtype=np.int64) << 32)
        counts = np.diff(bounds)
        hosts = np.flatnonzero(counts)
        return hosts, bounds[hosts], counts[hosts]

    def pop_round(self, t: int) -> pa.Table:
        """Emit every eligible URL at logical time ``t`` (G9).

        A host with pending rows is eligible unless its crawl-delay
        window (``next_allowed``) is still open.  Its token bucket
        refills by ``rate`` per round up to ``burst``, and it emits
        ``min(floor(tokens), per_round_host_budget, pending[, 1 if
        crawl-delay])`` URLs, each costing one token.  Emission order
        is hosts sorted by name, then priority desc, then FIFO.

        Vectorized over the hosts with pending rows: each host's
        emission is the head of its key range, so the emitted rows are
        one gather of key positions, one ``take`` per chunk touched and
        one delete."""
        import time as _time

        _b0 = _time.perf_counter()
        cfg = self.config
        hosts, starts, counts = self._host_runs()
        nxt = self._next_allowed[hosts]
        ok = np.where(nxt == _NONE, 0, nxt) <= t
        hosts, starts, counts = hosts[ok], starts[ok], counts[ok]
        last = self._last_refill[hosts]
        tok = np.minimum(float(cfg.burst), self._tokens[hosts]
                         + cfg.rate * (t - np.where(last == _NONE, t, last)))
        dly = self._delay[hosts]
        cap = np.minimum(np.trunc(tok).astype(np.int64),
                         cfg.per_round_host_budget)
        cap = np.where(dly != 0, np.minimum(cap, 1), cap)  # crawl-delay
        k = np.minimum(np.maximum(cap, 0), counts)
        self._last_refill[hosts] = t
        self._tokens[hosts] = tok - k
        wait = (dly != 0) & (k > 0)
        self._next_allowed[hosts[wait]] = t + dly[wait]

        emit = k > 0
        order = np.argsort(self._rank[hosts[emit]])
        hosts, starts, k = hosts[emit][order], starts[emit][order], k[emit][order]
        n_out = int(k.sum())
        self.counters["emitted"] += n_out
        if n_out:
            first = np.repeat(np.cumsum(k) - k, k)
            seq = np.arange(n_out, dtype=np.int64) - first
            pos = np.repeat(starts, k) + seq
            refs = self._refs[pos]
            url_arr, depth_arr = self._take(refs)
            prio = (_PRIO_TOP - (self._keys[pos] & 0xFFFFFFFF)).astype(np.int32)
            host_arr = self._host_arr.take(pa.array(np.repeat(hosts, k)))
            keep = np.ones(len(self._keys), dtype=bool)
            keep[pos] = False
            self._keys, self._refs = self._keys[keep], self._refs[keep]
            # a chunk with no pending row left is dropped
            self._live -= np.bincount(refs >> 32, minlength=len(self._live))
            for c in np.unique(refs >> 32).tolist():
                if not self._live[c]:
                    self._chunks[c] = None
        else:
            url_arr = pa.array([], type=pa.string())
            depth_arr = pa.array([], type=pa.int32())
            host_arr = pa.array([], type=pa.string())
            prio = np.zeros(0, dtype=np.int32)
            seq = np.zeros(0, dtype=np.int64)
        self.busy["pop"] += _time.perf_counter() - _b0
        return pa.table({
            "url": url_arr,
            "host": host_arr,
            "priority": pa.array(prio),
            "depth": depth_arr,
            "round": pa.array(np.full(n_out, t, dtype=np.int32)),
            "fetch_seq": pa.array(seq),
        })

    def _take(self, refs: np.ndarray) -> tuple[pa.Array, pa.Array]:
        """(urls, depths) of the chunk rows at packed ``refs``, in
        ``refs`` order: one take per column per chunk touched."""
        chunk = refs >> 32
        row = refs & 0xFFFFFFFF
        used = np.unique(chunk).tolist()
        if len(used) == 1:
            u, d = self._chunks[used[0]]
            take = pa.array(row)
            return u.take(take), d.take(take)
        urls, depths = [], []
        for c in used:
            take = pa.array(row[chunk == c])
            u, d = self._chunks[c]
            urls.append(u.take(take))
            depths.append(d.take(take))
        # inverse permutation of the chunk-grouped order
        back = pa.array(np.argsort(np.argsort(chunk, kind="stable")))
        return (pa.concat_arrays(urls).take(back),
                pa.concat_arrays(depths).take(back))

    def has_pending(self) -> bool:
        return bool(self.buffer) or len(self._keys) > 0

    def earliest_allowed(self, t: int) -> int | None:
        """Smallest future round at which a queued host becomes eligible
        (for skipping idle rounds under crawl-delay)."""
        if not len(self._keys):
            return None
        nxt = self._next_allowed[self._host_runs()[0]]
        return int(np.where(nxt == _NONE, t, nxt).min())

    def frontier_depth(self) -> dict:
        """Frontier depth: rows queued and not yet emitted, and the
        number of hosts they belong to."""
        return {"pending": len(self._keys),
                "active_hosts": len(self._host_runs()[0])}

    # -- checkpoint (G16) ----------------------------------------------

    def state(self) -> dict:
        # queues serialize as plain (urls, depths) lists per (host,
        # prio) — compact (pickling Arrow chunks can drag whole seal
        # buffers) and FIFO-preserving; load() rebuilds one chunk.
        # Hosts go in name order, so the layout is history-free.
        names = self._host_arr.to_pylist()
        qs: dict = {}
        if len(self._keys):
            us, ds = (a.to_pylist() for a in self._take(self._refs))
            cut = (np.flatnonzero(np.diff(self._keys)) + 1).tolist()
            for s, e in zip([0, *cut], [*cut, len(self._keys)]):
                key = int(self._keys[s])
                qs.setdefault(names[key >> 32], {})[
                    _PRIO_TOP - (key & 0xFFFFFFFF)] = (us[s:e], ds[s:e])

        def by_name(mask):
            ids = np.flatnonzero(mask)
            return ids[np.argsort(self._rank[ids])].tolist()

        seen = by_name(self._last_refill != _NONE)
        return {
            "shard_id": self.shard_id,
            "filter": self.filter.state(),
            "queues": dict(sorted(qs.items())),
            "tokens": {names[h]: float(self._tokens[h]) for h in seen},
            "last_refill": {names[h]: int(self._last_refill[h]) for h in seen},
            "next_allowed": {names[h]: int(self._next_allowed[h])
                             for h in by_name(self._next_allowed != _NONE)},
            "counters": self.counters,
        }

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(self.state(), f)
        os.replace(tmp, path)

    def load(self, path: str) -> None:
        """Restore a checkpoint written by ``save`` (one from before the
        columnar queues, which also stores a ``seq`` count, loads the
        same way)."""
        with open(path, "rb") as f:
            s = pickle.load(f)
        self.filter = CuckooFilter.from_state(s["filter"])
        self._reset_queues()
        self._register(list(dict.fromkeys(
            [*s["queues"], *s["tokens"], *s["last_refill"],
             *s["next_allowed"]])))
        ids = {h: i for i, h in enumerate(self._host_arr.to_pylist())}
        for col, d in ((self._tokens, s["tokens"]),
                       (self._last_refill, s["last_refill"]),
                       (self._next_allowed, s["next_allowed"])):
            for h, v in d.items():
                col[ids[h]] = v
        keys, urls, depths = [], [], []
        for host, qp in s["queues"].items():
            for prio, (us, ds) in qp.items():
                keys.append(np.full(len(us), (ids[host] << 32)
                                    + _PRIO_TOP - prio, dtype=np.int64))
                urls.extend(us)
                depths.extend(ds)
        if urls:
            self._insert(np.concatenate(keys), pa.array(urls, type=pa.string()),
                         pa.array(depths, type=pa.int32()))
        self.counters = s["counters"]


def robots_to_shard_dict(robots_table: pa.Table) -> dict:
    """robots table → {host: (disallow_prefixes, delay_rounds)}; small
    side — broadcast via ray.put, filtered per shard in the actor."""
    out = {}
    hosts = robots_table["host"].to_pylist()
    rules = robots_table["disallow_prefixes"].to_pylist()
    delays = robots_table["crawl_delay_ms"].to_pylist()
    for h, r, d in zip(hosts, rules, delays):
        if r or d:
            out[h] = (tuple(r), delay_rounds(d))
    return out


# num_shards -> {host: shard}: every process hashes a host once, not
# once per call (a crawl round re-meets the same few thousand hosts).
# A memo past _SHARD_MEMO_CAP hosts is cleared, which bounds its size.
_SHARD_MEMO: dict[int, dict[str, int]] = {}
_SHARD_MEMO_CAP = 1 << 20


def shard_ids_of(table: pa.Table, num_shards: int) -> np.ndarray:
    """Per-row owning shard id (``shard_of`` once per host per process)."""
    hosts = table["host"]
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    enc = pc.dictionary_encode(hosts)
    memo = _SHARD_MEMO.setdefault(num_shards, {})
    ids = []
    for h in enc.dictionary.to_pylist():
        s = memo.get(h)
        if s is None:
            if len(memo) >= _SHARD_MEMO_CAP:
                memo.clear()
            s = memo[h] = shard_of(h, num_shards)
        ids.append(s)
    return np.array(ids, dtype=np.int32)[
        enc.indices.to_numpy(zero_copy_only=False)]


def split_by_host_shard(table: pa.Table, num_shards: int) -> list:
    """Split an offer table by host-hash shard ownership; returns a list
    of ``num_shards`` tables (None where empty)."""
    if table.num_rows == 0:
        return [None] * num_shards
    sid = shard_ids_of(table, num_shards)
    out = []
    for s in range(num_shards):
        mask = sid == s
        out.append(table.filter(pa.array(mask)) if mask.any() else None)
    return out


def seed_offers(seeds: pa.Table, i: int, k: int, num_shards: int):
    """Canonicalize slice ``i`` of ``k`` of the seed list — rows ``i,
    i+k, i+2k, …`` — into one ``(offer_table, 0)`` per owning shard, the
    shape of a fetch worker's round offers, so the seeds reach the
    round-0 seal as its arguments.  Strided, not contiguous: a seed
    list whose costly rows sit together (perfbench appends its
    non-canonical variants at the end) would otherwise load one slice
    alone.  ``src_offset`` is each row's index in the whole list, and
    the seal sorts, so any split seals in the serial order.  Every
    actor of the crawl fleet runs this (parallel seeding); call it with
    ``num_returns=num_shards``.  Ray stores a ``num_returns=1`` call's
    whole value as its one object, so a single shard gets its pair
    bare, not in a 1-tuple."""
    from ..stages.urls import urls_from_seeds

    rows = np.arange(i, seeds.num_rows, k)
    part = urls_from_seeds(seeds.take(rows), offsets=rows).select(OFFER_COLS)
    out = tuple((part.slice(0, 0) if sub is None else sub, 0)
                for sub in split_by_host_shard(part, num_shards))
    return out if num_shards > 1 else out[0]


def single_threaded_actor() -> None:
    """Set up a crawl actor's process (frontier shards, fetch workers,
    WARC writers): Arrow kernel/IO pools capped at 1 thread, a
    stretched GC cadence and the default scheduling policy.

    Every actor process otherwise spins up an Arrow pool sized to the
    MACHINE's core count — 13 actors x 32 threads oversubscribed an
    8-CPU cluster ~50x and tripled wall time.  Parallelism here comes
    from the actor pools, not intra-kernel threads."""
    import gc

    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    # Stretch GC cadence ~20x: crawl actors hold large long-lived
    # containers (buffered log tables), and CPython's default cadence
    # runs a full gen-2 scan over all of them every
    # ~70k container allocations — a fixed multi-100ms tax per round at
    # full batch rate.  Almost all garbage here is refcount-freed, so
    # collections are purely cycle insurance.
    gc.set_threshold(50_000, 25, 25)
    # heal scheduling policy: this process may previously have hosted a
    # SCHED_BATCH WarcWriter (Ray reuses worker processes); fetch and
    # frontier actors are latency-critical
    try:
        os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
    except (AttributeError, OSError):
        pass


def make_frontier_shard_cls():
    """Ray actor class for FrontierCore (import-time Ray optional)."""
    import ray

    # max_restarts=0 on purpose: an auto-restarted shard would re-run
    # __init__ with EMPTY state (silent frontier loss).  Recovery is the
    # explicit checkpoint+resume path (G16) — fail fast instead; the
    # crawl pool respawns its whole fleet when a pooled shard is gone.
    # Default actor resources (1 CPU to place, none held while alive),
    # as CrawlWorker/WarcWriter: shards outlive a crawl in the warm
    # pool (pipelines/crawl._POOL_CACHE), and a held fraction of a CPU
    # per idle shard starved later Ray Data tasks on a 1-CPU node.
    # run_crawl's pool budget keeps cores back for the shards' work.
    @ray.remote(max_restarts=0)
    class FrontierShard:
        def __init__(self, shard_id: int, config: FrontierConfig,
                     robots_ref=None, restore_path: str | None = None):
            # shards sort/filter with Arrow; the GC cadence matches
            # the other crawl actors' (the queues themselves are numpy
            # arrays and a few Arrow chunks, no per-host containers)
            single_threaded_actor()
            self.bind_run(shard_id, config, robots_ref, restore_path)

        def bind_run(self, shard_id: int, config: FrontierConfig,
                     robots_ref=None, restore_path: str | None = None) -> None:
            """Bind this process to one crawl run: a fresh FrontierCore,
            or the one checkpointed at ``restore_path``.  Fresh runs,
            resumes and pool reuse across crawls all take this path."""
            self.core = None  # the previous run's state goes first
            # ray.put refs passed as task args arrive auto-resolved
            robots = robots_ref if isinstance(robots_ref, dict) else (
                ray.get(robots_ref) if robots_ref is not None else {})
            # keep only this shard's hosts (host-hash ownership)
            mine = {h: r for h, r in robots.items()
                    if shard_of(h, config.num_shards) == shard_id}
            core = FrontierCore(shard_id, config, mine)
            if restore_path and os.path.exists(restore_path):
                core.load(restore_path)
            self.core = core

        def seed_offers(self, seeds: pa.Table, i: int, k: int,
                        num_shards: int):
            # an idle shard seeds too: it takes no offer calls, so its
            # own seal never waits behind this one
            return seed_offers(seeds, i, k, num_shards)

        def write_round(self, chunk: pa.Table, round_dir: str,
                        date_str: str) -> tuple:
            # an idle shard deflates WARC chunks at the crawl's drain
            # points (checkpoint barriers, crawl end)
            from ..pipelines.crawl import write_round

            return write_round(chunk, round_dir, date_str)

        def seal_round(self, *offers) -> dict:
            """Seal the round's offers: one ``(offer_table,
            n_suppressed)`` per producer.  Ray resolves them before the
            call runs, so the arguments are the round barrier; the seal
            sorts, so their order never reaches the output."""
            for table, n_suppressed in offers:
                self.core.offer(table, n_suppressed)
            self.core.seal_round()
            return self.core.counters

        def seal_then_pop_split(self, t: int, n_buckets: int,
                                n_workers: int, *offers):
            """seal_round(*offers) + pop_round_split(t) in ONE actor
            call: the driver submits it with the producers' not-yet-
            ready offer refs and awaits only the next round's counts —
            no offer RPCs, no ack barrier, and the hot shard's seal
            overlaps the other shards' pops.  Token-bucket math is
            composition-safe (min(B, tok+rΔ) telescopes), so an eager
            pop at an empty round is behavior-identical to the skip
            path."""
            self.seal_round(*offers)
            return self.pop_round_split(t, n_buckets, n_workers)

        def pop_round_split(self, t: int, n_buckets: int, n_workers: int):
            """pop_round + bucket%n_workers split, SHARD-side: returns
            (counts, slice_0, ..., slice_{n-1}) so the driver routes
            ObjectRefs to fetch workers without ever touching rows
            (the driver-side concat+split was a serial per-round cost
            that grew with cluster emission rate)."""
            emit = self.core.pop_round(t)
            if emit.num_rows == 0:
                empty = emit.slice(0, 0)
                return tuple([[0] * n_workers] + [empty] * n_workers)
            from ..stages.fetch import add_bucket_column

            emit = add_bucket_column(emit, n_buckets)
            wid = emit["bucket"].to_numpy(zero_copy_only=False) % n_workers
            out = [emit.filter(pa.array(wid == w)) for w in range(n_workers)]
            return tuple([[t.num_rows for t in out]] + out)

        def has_pending(self) -> bool:
            return self.core.has_pending()

        def earliest_allowed(self, t: int):
            return self.core.earliest_allowed(t)

        def stats(self) -> dict:
            """Counters, plus the frontier depth (``pending`` rows and
            ``active_hosts``) and the cuckoo fill."""
            return dict(self.core.counters, **self.core.frontier_depth(),
                        shard_id=self.core.shard_id,
                        filter_count=self.core.filter.count)

        def checkpoint(self, path: str) -> str:
            self.core.save(path)
            return path

        def finish(self) -> dict:
            """End-of-run readout in one call — in-actor busy times,
            counters and the raw cuckoo table (seen-set parity checks)
            — then drop the run's state; the idle pooled process keeps
            none of it until the next ``bind_run``."""
            out = {"busy": dict(self.core.busy), "stats": self.stats(),
                   "filter_bytes": self.core.filter.table.tobytes()}
            self.core = None
            return out

    return FrontierShard
