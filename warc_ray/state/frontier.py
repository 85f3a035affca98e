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
    insertion order or queue sequence numbers;
  * queue ordering is the total order ``(-priority, seq)`` with ``seq``
    assigned at seal time; politeness uses the **logical round clock**,
    never wall-clock;
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


def path_of(url: str) -> str:
    rest = url.split("://", 1)[1]
    return "/" + rest.split("/", 1)[1] if "/" in rest else "/"


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


def _robots_deny(path: str, plain: tuple, rx) -> bool:
    """True iff any disallow rule matches ``path``."""
    return (any(path.startswith(p) for p in plain)
            or (rx is not None and rx.match(path) is not None))


class FrontierCore:
    """Single-shard frontier state machine (pure python + numpy)."""

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
        self.queues: dict[str, list] = {}
        self.tokens: dict[str, float] = {}
        self.last_refill: dict[str, int] = {}
        self.next_allowed: dict[str, int] = {}
        self.seq = 0
        self.buffer: list[tuple] = []
        self.counters = {
            "offered": 0, "dup": 0, "robots_denied": 0, "too_deep": 0,
            "queued": 0, "emitted": 0,
        }
        # in-actor work time (diagnostics only — NOT in counters, which
        # are compared 1:1 against the single-process oracle's)
        self.busy = {"seal": 0.0, "pop": 0.0,
                     "seal_sort": 0.0, "seal_filter": 0.0, "seal_queue": 0.0}

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

        Arrow-native: multi-key sort + vectorized cuckoo batch; Python
        touches only the rows that survive dedup/depth (the ones that
        actually enter a queue).  URLs/hosts are ASCII, so Arrow utf8
        ordering == Python str ordering (determinism vs the oracle)."""
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
        # Bulk insert, grouped by (host, priority): a stable sort on the
        # already-globally-sorted candidates preserves FIFO order WITHIN
        # each (host, priority) queue — the only ordering pop_round
        # depends on.  Queues hold ZERO-COPY Arrow slices of the
        # grouped candidate table, one chunk per (run, round): no
        # per-row Python tuples (the ~6.5µs/URL deque fill was the
        # dominant seal cost, and the millions of live queue tuples
        # made every gen-2 GC pass seconds long on the hot shard).
        prios = cand["priority"].to_numpy(zero_copy_only=False)
        host_codes = pc.dictionary_encode(cand["host"]).combine_chunks()
        codes = (host_codes.indices.to_numpy(zero_copy_only=False)
                 if cand.num_rows else np.zeros(0, dtype=np.int32))
        composite = codes.astype(np.int64) * (1 << 31) - prios.astype(np.int64)
        order = np.argsort(composite, kind="stable")
        g = cand.select(["url", "depth"]).take(
            pa.array(order, type=pa.int64()))
        g_urls = g["url"].combine_chunks()
        g_depths = g["depth"].combine_chunks()
        host_dict = host_codes.dictionary
        codes_sorted = codes[order]
        prios_sorted = prios[order]
        matchers = self.robots_match
        queues = self.queues
        seq = self.seq
        queued = 0
        denied = 0
        sorted_comp = composite[order]
        bounds = np.flatnonzero(np.diff(sorted_comp)) + 1
        starts = np.concatenate([[0], bounds]) if len(order) else []
        ends = np.concatenate([bounds, [len(order)]]) if len(order) else []
        for s, e in zip(starts, ends):
            s, e = int(s), int(e)
            host = host_dict[int(codes_sorted[s])].as_py()
            prio = int(prios_sorted[s])
            u_sl = g_urls.slice(s, e - s)
            d_sl = g_depths.slice(s, e - s)
            m = matchers.get(host)
            if m:
                plain, rx = m
                ul = u_sl.to_pylist()
                keep = [i for i, u in enumerate(ul)
                        if not _robots_deny(path_of(u), plain, rx)]
                denied += (e - s) - len(keep)
                if not keep:
                    continue
                if len(keep) != e - s:
                    ki = pa.array(keep, type=pa.int32())
                    u_sl = u_sl.take(ki)
                    d_sl = d_sl.take(ki)
            q = queues.get(host)
            if q is None:
                q = queues[host] = {}
            d = q.get(prio)
            if d is None:
                d = q[prio] = []
            d.append([0, u_sl, d_sl])  # [cursor, urls, depths]
            seq += len(u_sl)
            queued += len(u_sl)
        self.seq = seq
        self.counters["robots_denied"] += denied
        self.counters["queued"] += queued
        self.busy["seal_queue"] += _time.perf_counter() - _b2
        self.busy["seal"] += _time.perf_counter() - _b0

    # -- emission -------------------------------------------------------

    def pop_round(self, t: int) -> pa.Table:
        """Emit every eligible URL at logical time ``t`` (G9).

        Chunk-slicing formulation over the Arrow-backed queues —
        behavior-identical to the per-item reference loop (token bucket
        decrements 1.0/URL, so the pop count per host is exactly
        ``min(floor(tokens), per_round_host_budget, queued[, 1 if
        crawl-delay])`` and the emission order is hosts sorted, then
        priority desc, then FIFO)."""
        import time as _time

        _b0 = _time.perf_counter()
        cfg = self.config
        parts: list[tuple] = []     # (prio, url_slice, depth_slice)
        host_rows: list[tuple] = []  # (host, n_emitted)
        for host in sorted(h for h, q in self.queues.items() if q):
            q = self.queues[host]  # {priority: [[cursor, urls, depths]..]}
            if self.next_allowed.get(host, 0) > t:
                continue
            last = self.last_refill.get(host, t)
            tok = min(float(cfg.burst),
                      self.tokens.get(host, float(cfg.burst)) + cfg.rate * (t - last))
            self.last_refill[host] = t
            dly = self.robots.get(host, ((), 0))[1]
            cap = min(int(tok), cfg.per_round_host_budget)
            if dly:
                cap = min(cap, 1)  # crawl-delay: one fetch per window
            k = 0
            if cap > 0:
                # highest priority first; FIFO (chunk order) within one
                for prio in sorted(q, reverse=True):
                    chunks = q[prio]
                    while chunks and k < cap:
                        entry = chunks[0]
                        pos, u_sl, d_sl = entry
                        avail = len(u_sl) - pos
                        n = min(avail, cap - k)
                        parts.append((prio, u_sl.slice(pos, n),
                                      d_sl.slice(pos, n)))
                        k += n
                        if n == avail:
                            chunks.pop(0)
                        else:
                            entry[0] = pos + n
                    if not chunks:
                        del q[prio]
                    if k >= cap:
                        break
                if dly and k:
                    self.next_allowed[host] = t + dly
            self.tokens[host] = tok - k
            if not q:
                del self.queues[host]
            if k:
                host_rows.append((host, k))
        n_out = sum(k for _, k in host_rows)
        self.counters["emitted"] += n_out
        if n_out:
            url_arr = pa.concat_arrays([p[1] for p in parts])
            depth_arr = pa.concat_arrays(
                [p[2].cast(pa.int32()) if p[2].type != pa.int32() else p[2]
                 for p in parts])
            host_col = np.repeat(
                np.array([h for h, _ in host_rows], dtype=object),
                [k for _, k in host_rows]).tolist()
            prio_arr = np.concatenate(
                [np.full(len(p[1]), p[0], dtype=np.int32) for p in parts])
            seq_arr = np.concatenate(
                [np.arange(k, dtype=np.int64) for _, k in host_rows])
        else:
            url_arr = pa.array([], type=pa.string())
            depth_arr = pa.array([], type=pa.int32())
            host_col = []
            prio_arr = np.zeros(0, dtype=np.int32)
            seq_arr = np.zeros(0, dtype=np.int64)
        self.busy["pop"] += _time.perf_counter() - _b0
        return pa.table({
            "url": url_arr,
            "host": pa.array(host_col, type=pa.string()),
            "priority": pa.array(prio_arr),
            "depth": depth_arr,
            "round": pa.array([t] * n_out, type=pa.int32()),
            "fetch_seq": pa.array(seq_arr),
        })

    def has_pending(self) -> bool:
        return bool(self.buffer) or any(self.queues.values())

    def earliest_allowed(self, t: int) -> int | None:
        """Smallest future round at which a queued host becomes eligible
        (for skipping idle rounds under crawl-delay)."""
        vals = [self.next_allowed.get(h, t) for h, q in self.queues.items() if q]
        return min(vals) if vals else None

    # -- checkpoint (G16) ----------------------------------------------

    def state(self) -> dict:
        # queues serialize as plain (urls, depths) lists per (host,
        # prio) — compact (pickling Arrow slices can drag whole parent
        # buffers) and FIFO-preserving; load() rebuilds one Arrow chunk
        # per queue.
        qs = {}
        for host, q in self.queues.items():
            qp = {}
            for prio, chunks in q.items():
                us: list[str] = []
                ds: list[int] = []
                for pos, u_sl, d_sl in chunks:
                    us.extend(u_sl.slice(pos).to_pylist())
                    ds.extend(d_sl.slice(pos).to_pylist())
                qp[prio] = (us, ds)
            qs[host] = qp
        return {
            "shard_id": self.shard_id,
            "filter": self.filter.state(),
            "queues": qs,
            "tokens": self.tokens,
            "last_refill": self.last_refill,
            "next_allowed": self.next_allowed,
            "seq": self.seq,
            "counters": self.counters,
        }

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(self.state(), f)
        os.replace(tmp, path)

    def load(self, path: str) -> None:
        with open(path, "rb") as f:
            s = pickle.load(f)
        self.filter = CuckooFilter.from_state(s["filter"])
        self.queues = {
            host: {prio: [[0, pa.array(us, type=pa.string()),
                           pa.array(ds, type=pa.int32())]]
                   for prio, (us, ds) in qp.items() if us}
            for host, qp in s["queues"].items()}
        self.tokens = s["tokens"]
        self.last_refill = s["last_refill"]
        self.next_allowed = s["next_allowed"]
        self.seq = s["seq"]
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


def seed_offers(seeds: pa.Table, lo: int, hi: int, num_shards: int):
    """Canonicalize seed rows ``[lo, hi)`` into one ``(offer_table, 0)``
    per owning shard — the shape of a fetch worker's round offers, so
    the seeds reach the round-0 seal as its arguments.  ``src_offset``
    counts from ``lo``: any split of the seed list seals in the serial
    order.  Every actor of the crawl fleet runs this (parallel seeding);
    call it with ``num_returns=num_shards``.  Ray stores a
    ``num_returns=1`` call's whole value as its one object, so a single
    shard gets its pair bare, not in a 1-tuple."""
    from ..stages.urls import urls_from_seeds

    part = urls_from_seeds(seeds.slice(lo, hi - lo),
                           offset0=lo).select(OFFER_COLS)
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
            # shards sort/filter with Arrow and hold many long-lived
            # containers (per-host queue dicts and lists of Arrow
            # slices) that a default-cadence gen-2 pass would rescan
            # on the seal critical path
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

        def seed_offers(self, seeds: pa.Table, lo: int, hi: int,
                        num_shards: int):
            # an idle shard seeds too: it takes no offer calls, so its
            # own seal never waits behind this one
            return seed_offers(seeds, lo, hi, num_shards)

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
            return dict(self.core.counters, shard_id=self.core.shard_id,
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
