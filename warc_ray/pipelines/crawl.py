"""Distributed crawl loop (G9): round-barrier frontier over Ray actors.

Per logical round ``t``::

    slices  = shard.seal_then_pop_split(t, *offers[t-1][shard])  # per shard
              # seal the previous round's offers, then a politeness-
              # bounded emit, split shard-side by corpus bucket → worker
              # (bucket % n_workers)
    stats, *offers[t] = worker.process_round_refs(t, slices)     # per worker
              # fetch → log rows → WARC chunk jobs → extract links →
              # one (offer_table, n_suppressed) object per shard

Each shard's seal takes every worker's offer object for it as an
argument: Ray resolves the arguments before the seal runs, so they are
the round barrier, and no offer RPC or ack wait exists.  The seeds take
the same path into the round-0 seal (``frontier.seed_offers``).

WARC output never feeds the frontier.  A worker's stats carry its WARC
chunks as jobs (an object ref, ``round_dir``, date); the driver keeps
one FIFO of them (``_DeflateQueue``) and gives each to a free deflater:
during rounds the ``WarcWriter`` pool, fed while the driver waits on
the round, and at every drain point (a checkpoint barrier, the crawl's
end) the whole fleet — fetch workers, writers and shards, idle there —
until the FIFO is empty.  Each job returns its CDX rows, and each
drain writes one CDX part sorted by (shard, offset), so no output
depends on which actor deflated what.

The barrier per round is REQUIRED for exact crawl-order parity with the
single-process oracle (SURVEY.md §4 Ordering); throughput comes from
within-round parallelism.  Outputs are round-keyed directories with a
manifest per round → a restarted run resumes from the last checkpoint
and skips completed rounds (G16).

Why raw actors, not per-round ``Dataset`` pipelines (SURVEY.md §2.B
"custom operators", case (b)): a crawl round is a small,
politeness-bounded batch (≤ burst × hosts rows) but there are hundreds
of rounds.  Expressing each round as Dataset.map_batches/groupby costs
a fresh task/actor pool + an all-to-all shuffle per round — fixed
overhead that dominated wall-time ~50× over the useful work at bench
scale.  Persistent ``CrawlWorker`` actors keep bucket caches warm
across rounds; the bucket → worker assignment is stable
(``bucket % n_workers``) so each corpus bucket file is read by exactly
one worker for the whole crawl (same co-partitioning a 256-node
cluster would use).  The bulk, non-iterative paths (corpus → WARC
archive, readers, reports) remain plain Ray Data pipelines
(pipelines/archive.py, sources/).

The whole fleet — frontier shards, fetch workers, WARC writers — is
long-lived across crawls too (``_POOL_CACHE``): a repeat ``run_crawl``
in one process rebinds the warm actors to its run (``bind_run``)
instead of spawning new ones, and respawns the fleet when any pooled
actor has died.  The spawn phase ends with every actor's bind
acknowledgement, so the seed phase times seeding only.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
from dataclasses import asdict

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .. import corpus as corpus_mod
from ..sinks.warc_sink import write_fused_round
from ..sources._util import scan_parquet
from ..stages.assemble import logical_date
from ..stages.fetch import FetchGroup
from ..stages.urls import canonicalize_batch, extract_links
from ..state.frontier import (
    OFFER_COLS,
    FrontierConfig,
    make_frontier_shard_cls,
    robots_to_shard_dict,
    seed_offers,
    shard_ids_of,
    single_threaded_actor,
)

LOG_COLS = ["url", "host", "doc_id", "status", "round", "fetch_seq", "depth"]
# exactly what write_fused_round (and its per-row parity reference,
# fused_fetch_records) reads — the writer-IPC payload
WRITER_COLS = ["url", "host", "status", "round", "content_type", "body",
               "depth", "fetch_seq"]
WRITE_CHUNK = 2048  # fetched rows per writer call
SEED_SLICE_ROWS = 20_000  # seeds per parallel seeding call, at least
# per-round CrawlWorker phase times (the ``tm`` tuple), summed over
# rounds and workers into phase_sec under these names
WORKER_PHASES = ("worker_fetch", "worker_warc", "worker_links",
                 "worker_offer")

# (session, corpus_dir, n_buckets, num_shards, n_workers, n_writers)
# -> (workers, writers, shards): the warm actor fleet.  Every actor's
# bind_run resets its per-run state (a shard gets a fresh or restored
# FrontierCore), so a repeat run_crawl in a process reuses the fleet
# instead of cold-starting it.  run_crawl takes the entry out for the
# length of a crawl and puts it back only when the crawl returns.
_POOL_CACHE: dict = {}


def _ready(refs: list) -> list:
    """Every complete ref of ``refs``, once at least one is."""
    ray.wait(refs, num_returns=1)
    return ray.wait(refs, num_returns=len(refs), timeout=0)[0]


def _ref_list(refs) -> list:
    """A multi-return call's refs as a list: with ``num_returns=1`` Ray
    returns one bare ObjectRef."""
    return refs if isinstance(refs, list) else [refs]


def write_round(chunk: pa.Table, round_dir: str, date_str: str) -> tuple:
    """Deflate one WARC chunk job into ``round_dir/warc/``: every actor
    of the crawl fleet runs this (``write_round`` on WarcWriter,
    CrawlWorker and FrontierShard).  Returns the chunk's CDX rows and
    this call's (wall, cpu, deflate) seconds; deflate is the wall time
    of write_fused_round's deflate loop, a part of wall.  The shard's
    name and bytes are a pure function of the chunk, so which actor
    ran the job never reaches the output."""
    import time as _t

    b0, c0 = _t.perf_counter(), _t.process_time()
    timing = {"deflate": 0.0}
    cdx = write_fused_round(chunk, os.path.join(round_dir, "warc"),
                            date_str, timing)
    # wall vs CPU split: busy-wall >> busy-cpu means the actor was
    # preempted mid-call (oversubscribed node), not doing more work
    return cdx, (_t.perf_counter() - b0, _t.process_time() - c0,
                 timing["deflate"])


@ray.remote
class WarcWriter:
    """Persistent WARC deflate actor.

    Off the round critical path on purpose: WARC output never feeds the
    frontier, so gzip (the single largest CPU cost) pipelines ACROSS
    round barriers in a dedicated long-lived actor pool (persistent
    processes — floating tasks churned Ray worker processes and
    stalled the loop).  During rounds the writers are the only
    deflaters the driver's ``_DeflateQueue`` feeds; at a drain point
    (checkpoint barrier, crawl end) every fleet actor joins them."""

    def __init__(self):
        single_threaded_actor()
        # Deprioritize the compressor pool with SCHED_BATCH, NOT
        # os.nice(): Ray reuses worker PROCESSES across actor
        # lifetimes, and nice can never be lowered back without
        # CAP_SYS_NICE — one bench run left every ray::IDLE process
        # niced and later fetch workers ran degraded.  SCHED_BATCH is
        # unprivileged in BOTH directions (latency-critical actors
        # reset to SCHED_OTHER in their own init), and gives fetch /
        # frontier wakeups preemption preference over the long-running
        # gzip slices.
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):
            pass

    def write_round(self, chunk: pa.Table, round_dir: str,
                    date_str: str) -> tuple:
        return write_round(chunk, round_dir, date_str)

    def seed_offers(self, seeds: pa.Table, i: int, k: int,
                    num_shards: int):
        # writers are idle before round 0, so they seed too
        return seed_offers(seeds, i, k, num_shards)


@ray.remote
class CrawlWorker:
    """Persistent per-round fetch/assemble/offer worker.

    Owns buckets ``{b : b % n_workers == worker_id}`` for the whole
    crawl: its ``FetchGroup`` bucket store stays warm, and every output
    file the worker writes is keyed ``(round, worker_id)`` → reruns of
    a round overwrite their own files (idempotent, resumable).
    """

    # worker-side re-offer suppression set cap: above this the set is
    # cleared (suppression is best-effort traffic shaping — a cleared
    # set only costs duplicate offers the shard dedups anyway)
    OFFERED_SET_CAP = 16_000_000

    def __init__(self, worker_id: int, corpus_dir: str, n_buckets: int,
                 num_shards: int, out_dir: str):
        single_threaded_actor()
        self.worker_id = worker_id
        self.fetch = FetchGroup(corpus_dir, n_buckets)
        self.num_shards = num_shards
        self.out_dir = out_dir
        self._log_buf: list = []
        from ..state.u64set import U64Set

        self._offered = U64Set()

    def bind_run(self, out_dir: str) -> None:
        """Rebind to a new crawl run (pool reuse): fresh output dir and
        offer-suppression set; the bucket store stays warm."""
        self.out_dir = out_dir
        self._log_buf = []
        self._offered.clear()

    def flush_log(self, upto: int) -> int:
        """Write buffered fetch-log rows (rounds < upto) as one parquet
        part.  Called at checkpoint barriers and at crawl end — log
        durability has checkpoint granularity, and per-round tiny-file
        writes were a measurable slice of the round critical path."""
        if not self._log_buf:
            return 0
        tbl = pa.concat_tables(self._log_buf)
        self._log_buf = []
        # Canonical row order at flush: the buffer concatenates shard
        # slices in ray.wait ARRIVAL order, which varies run-to-run
        # even though the row multiset is deterministic.  Sorting by
        # all columns here makes each part file byte-stable, so crash
        # recovery (tools/kill_resume_check.py) can assert sha1
        # equality on log parts, not just content equality
        # (round-3 ADVICE).  Cost: one sort of this worker's buffered
        # rows per checkpoint barrier — off the round critical path.
        tbl = tbl.sort_by([(c, "ascending") for c in tbl.column_names])
        log_dir = os.path.join(self.out_dir, "log")
        os.makedirs(log_dir, exist_ok=True)
        pq.write_table(tbl, os.path.join(
            log_dir, f"part-{self.worker_id:03d}-r{upto:05d}.parquet"))
        return tbl.num_rows

    def seed_offers(self, seeds: pa.Table, i: int, k: int,
                    num_shards: int):
        return seed_offers(seeds, i, k, num_shards)

    def write_round(self, chunk: pa.Table, round_dir: str,
                    date_str: str) -> tuple:
        # an idle fetch worker deflates at drain points
        return write_round(chunk, round_dir, date_str)

    def process_round_refs(self, t: int, slice_refs: list,
                           write_warc: bool) -> tuple:
        """process_round over shard-side-split slices: the driver hands
        this worker the ObjectRefs of ITS slices only — emitted rows
        flow shard → worker through the object store, never the
        driver.  Slices are processed in READINESS order (``ray.wait``),
        not shard order: the driver submits this call before the pops
        resolve, so the worker fetches every fast shard's emissions
        while the hot shard (the per-round straggler) is still sealing —
        its seal+pop tail stops gating the other shards' fetch work.
        Ready slices are processed in WAVES (everything complete at each
        ``ray.wait`` return is concatenated into one call), so the
        vectorized fetch/extract/offer path keeps its batch width —
        typically two waves: the fast shards together, then the hot one.
        WARC chunk ids are (worker, shard, chunk), so the waves never
        reach the output bytes.

        Returns ``1 + num_shards`` objects (call it with
        ``.options(num_returns=1 + num_shards)``): the round's stats
        (its WARC chunk jobs in ``warc_jobs``), then one
        ``(offer_table, n_suppressed)`` per shard, gathered over all
        waves.  The driver passes shard ``s``'s object
        straight to that shard's next seal."""
        sid_of = {r: i for i, r in enumerate(slice_refs)}
        pend = list(slice_refs)
        stats = {"fetched": 0, "warc_jobs": [], "tm": (0.0,) * 4}
        offers = [[] for _ in range(self.num_shards)]
        n_sup = [0] * self.num_shards
        fresh_keys: list = []
        while pend:
            done, pend = ray.wait(pend, num_returns=1)
            if pend:  # drain everything else that is already complete
                more, pend = ray.wait(pend, num_returns=len(pend), timeout=0)
                done += more
            # keep the SHARD id with each slice: WARC chunk ids derive
            # from it, so archive file layout is a pure function of the
            # round content — wave composition (which slices happened
            # to be ready together) never leaks into output bytes
            slices = [(sid_of[r], tb) for r, tb in zip(done, ray.get(done))
                      if tb.num_rows]
            if not slices:
                continue
            one = self.process_round(t, slices, write_warc,
                                     offers, n_sup, fresh_keys)
            stats["fetched"] += one["fetched"]
            stats["warc_jobs"].extend(one["warc_jobs"])
            stats["tm"] = tuple(a + b for a, b in zip(stats["tm"], one["tm"]))
        # this round's offered keys join the suppression set only now,
        # at the round boundary (see process_round)
        if len(self._offered) > self.OFFERED_SET_CAP:
            self._offered.clear()
        for h in fresh_keys:
            self._offered.add(h)
        # a shard with no fresh link gets a zero-row table, which its
        # offer() skips
        return (stats, *[(pa.concat_tables(o) if o else pa.table({}), n)
                         for o, n in zip(offers, n_sup)])

    def process_round(self, t: int, slices: list, write_warc: bool,
                      offers: list, n_sup: list, fresh_keys: list) -> dict:
        """``slices``: list of ``(shard_id, url_table)`` — fetch and
        extraction run over the concatenation (vector width), WARC
        chunks are cut per SLICE so chunk contents and shard file names
        are deterministic (shard id, not arrival wave).  The wave's fresh
        links go to ``offers[s]`` (a list of tables per shard), its
        suppressed re-offers to ``n_sup[s]`` and its fresh hash64 keys
        to ``fresh_keys``."""
        import time as _t
        _p0 = _t.perf_counter()
        # fetch PER SLICE: FetchGroup re-sorts its input bucket-
        # contiguously, so a concatenated-wave fetch returns rows in an
        # order that depends on which slices happened to share a wave —
        # slicing THAT by offsets produced wave-dependent WARC chunks
        # (the round-3 determinism hunt).  Per-slice fetch keeps each
        # fetched part a pure function of (round, shard); vector width
        # is the slice (thousands of rows at bench scale).
        fetched_parts = [(sid, self.fetch(tb)) for sid, tb in slices]
        fetched = (fetched_parts[0][1] if len(fetched_parts) == 1
                   else pa.concat_tables([f for _, f in fetched_parts]))
        _p1 = _t.perf_counter()
        round_dir = os.path.join(self.out_dir, f"round={t:05d}")
        self._log_buf.append(fetched.select(LOG_COLS))

        warc_jobs = []
        if write_warc:
            # each chunk is a job the driver hands to a free deflater,
            # so a fat round spreads over the WHOLE pool.  Only the
            # columns the record assembler reads are shipped — the
            # spans column in particular is ~1/3 of the fetched table's
            # bytes and dead weight in the deflater IPC.  Chunk
            # identity is (worker, SHARD, chunk): a pure function of
            # round content, so reruns/resumes regenerate
            # byte-identical shard files whoever deflates them.
            date_str = logical_date(t)
            for _, fp in fetched_parts:
                to_write = fp.select(WRITER_COLS)
                warc_jobs += [(ray.put(to_write.slice(lo, WRITE_CHUNK)),
                               round_dir, date_str)
                              for lo in range(0, fp.num_rows, WRITE_CHUNK)]

        _p2 = _t.perf_counter()
        links = canonicalize_batch(
            extract_links(fetched, doc_col="doc_id", depth_col="depth"))
        _p3 = _t.perf_counter()
        # Re-offer suppression: a URL this worker already offered is a
        # guaranteed duplicate at its shard (the cuckoo filter holds
        # every offered key), so repeats ship as per-shard COUNTS
        # instead of rows — ~7x less offer traffic / seal sort volume
        # on link-dense corpora, with counters exactly preserved
        # (FrontierCore.offer's n_suppressed).
        import numpy as np

        if links.num_rows:
            # ROUND-SNAPSHOT suppression (determinism fix): slices are
            # consumed in ray.wait readiness order, so the SAME round's
            # links may split into different waves run-to-run.  If the
            # set mutated per wave, which occurrence of a newly-found
            # URL survives to the seal — and so its (depth, src_doc,
            # src_offset) sort key, queue seq, even its depth — would
            # depend on wave timing (observed: run-to-run fetch-order
            # and depth divergence at t2/budget-64).  Membership is
            # answered against the ROUND-START state and inserts apply
            # at the round boundary, so the offered multiset is a pure
            # function of the round's fetched pages.  This also makes
            # checkpoint/resume exact: a resumed worker's emptier set
            # only re-offers prior-round URLs, which the shard filter
            # drops identically.
            links = links.select(OFFER_COLS)  # url_sha1 stays behind
            h = links["hash64"].to_numpy(zero_copy_only=False)
            # GC-free vectorized set: a Python set[int] of millions of
            # offered keys made every gen-2 GC pass scan it — observed
            # as seconds of fixed stall per late crawl round
            fresh = ~self._offered.contains(h)
            fresh_keys.append(h[fresh])
            sid = shard_ids_of(links, self.num_shards)
            sup = np.bincount(sid[~fresh], minlength=self.num_shards)
            for s in range(self.num_shards):
                mask = fresh & (sid == s)
                if mask.any():
                    offers[s].append(links.filter(pa.array(mask)))
                n_sup[s] += int(sup[s])
        return {"fetched": fetched.num_rows, "warc_jobs": warc_jobs,
                "tm": (_p1 - _p0, _p2 - _p1, _p3 - _p2,
                       _t.perf_counter() - _p3)}


class _DeflateQueue:
    """The driver's one FIFO of WARC chunk jobs and the actors that
    deflate them.

    ``fleet`` is every crawl actor with its role; the ``"writer"``s
    (the WarcWriters) alone deflate during rounds, and ``drain`` lets the
    whole fleet take jobs until none is left.  Each deflater holds at
    most one job, and a finished job frees its actor for the FIFO's
    head, so no deflater idles while a chunk waits and no chunk waits
    behind a busy actor while another deflater is idle.  The driver
    serves the queue whenever it waits on the crawl (``get``).  CDX rows
    come back with each job and land as one part per flush, so the
    output does not depend on which actor deflated what."""

    def __init__(self, fleet: list):
        self.fleet = fleet                    # [(actor, role)]
        self.writers = [i for i, (_, role) in enumerate(fleet)
                        if role == "writer"]
        self.jobs: collections.deque = collections.deque()
        self.free = list(self.writers)
        self.running: dict = {}               # job ref -> fleet index
        self.cdx: list = []
        self.records = 0
        self.busy = [(0.0, 0.0, 0.0)] * len(fleet)
        self.chunks = {role: 0 for _, role in fleet}

    def add(self, jobs) -> None:
        self.jobs.extend(jobs)
        self._dispatch()

    def _dispatch(self) -> None:
        while self.jobs and self.free:
            i = self.free.pop(0)
            self.running[self.fleet[i][0].write_round.remote(
                *self.jobs.popleft())] = i

    def _finish(self, refs: list) -> None:
        for ref, (cdx, b) in zip(refs, ray.get(refs)):
            i = self.running.pop(ref)
            self.busy[i] = tuple(x + y for x, y in zip(self.busy[i], b))
            self.chunks[self.fleet[i][1]] += 1
            self.cdx.append(cdx)
            self.records += cdx.num_rows
            self.free.append(i)
        self._dispatch()

    def get(self, refs: list, jobs: bool = False) -> list:
        """``ray.get(refs)``, serving the queue while it waits: each
        finished job frees its deflater for the next chunk, and with
        ``jobs`` each result's ``warc_jobs`` join the FIFO as soon as
        it lands.  Without writers (no WARC output) it is a plain
        ``ray.get``."""
        if not self.writers:
            return ray.get(refs)
        out = dict.fromkeys(refs)
        pend = set(refs)
        while pend:
            ready = _ready(list(pend) + list(self.running))
            mine = [r for r in ready if r in pend]
            for r, v in zip(mine, ray.get(mine)):
                out[r] = v
                pend.discard(r)
                if jobs:
                    self.add(v["warc_jobs"])
            self._finish([r for r in ready if r in self.running])
        return [out[r] for r in refs]

    def drain(self) -> None:
        """Deflate every queued chunk on the whole fleet, then hand the
        fleet back: only the writers deflate during rounds."""
        self.free = [i for i in range(len(self.fleet))
                     if i not in self.running.values()]
        self._dispatch()
        while self.running:
            self._finish(_ready(list(self.running)))
        self.free = list(self.writers)

    def flush_cdx(self, out_dir: str, upto: int) -> None:
        """Write the CDX rows of every job since the last flush as one
        ``cdx/part-rNNNNN.parquet`` (rounds < upto; the name is
        rerun-stable).  (shard, offset) is a total order (one gzip
        member per compressed offset per file), so the part's rows do
        not depend on job arrival order; parts are content-identical
        across runs up to the absolute output-path prefix embedded in
        ``shard``.  CDX is re-derivable from the WARC shards, so a crash
        between checkpoints loses nothing."""
        if not self.cdx:
            return
        tbl = pa.concat_tables(self.cdx).sort_by(
            [("shard", "ascending"), ("offset", "ascending")])
        self.cdx = []
        cdx_dir = os.path.join(out_dir, "cdx")
        os.makedirs(cdx_dir, exist_ok=True)
        pq.write_table(tbl, os.path.join(cdx_dir, f"part-r{upto:05d}.parquet"))

    def phases(self) -> dict:
        """Busy seconds summed over every actor that deflated a chunk,
        and the busiest actor's wall."""
        return {"writer_busy": sum(b[0] for b in self.busy),
                "writer_busy_cpu": sum(b[1] for b in self.busy),
                "writer_deflate": sum(b[2] for b in self.busy),
                "writer_busy_max": max(b[0] for b in self.busy)}


def run_crawl(corpus_dir: str, out_dir: str, *,
              config: FrontierConfig | None = None,
              write_warc: bool = True,
              checkpoint_every: int = 0,
              resume: bool = False,
              fetch_concurrency: int | None = None) -> dict:
    """Run the crawl; returns stats.  Fetch log parquet lands under
    ``out_dir/round=NNNNN/log/``, WARC shards under ``.../warc/``."""
    profile = corpus_mod.PROFILES[json.load(open(os.path.join(corpus_dir, "MANIFEST.json")))["name"]]
    cfg = config or FrontierConfig()
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = os.path.join(out_dir, "checkpoint")
    manifest_path = os.path.join(out_dir, "CRAWL_MANIFEST.json")
    resuming = resume and os.path.exists(manifest_path)
    if not resuming:
        # fresh run into a reused out_dir: drop ALL prior outputs.
        # Flushed log part names are keyed (worker_id, round) — a
        # rerun with a different pool size overwrites only ITS OWN
        # part names and read_fetch_log would union in stale parts
        # from the previous layout.
        for sub in ("log", "cdx", "checkpoint"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
        for name in os.listdir(out_dir):
            if name.startswith("round="):
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
        for fname in ("CRAWL_MANIFEST.json", "LINEAGE.jsonl"):
            try:
                os.unlink(os.path.join(out_dir, fname))
            except FileNotFoundError:
                pass

    import time as _time

    _t_start = _time.perf_counter()
    _phase = {}
    robots_ref = ray.put(robots_to_shard_dict(corpus_mod.read_robots(corpus_dir)))

    start_round = 0
    if resuming:
        with open(manifest_path) as f:
            m = json.load(f)
        start_round = m["next_round"]
        # drop log parts flushed after the manifest's checkpoint (crash
        # between flush and manifest write) — the rerun regenerates them
        for sub in ("log", "cdx"):
            part_dir = os.path.join(out_dir, sub)
            if not os.path.isdir(part_dir):
                continue
            for name in os.listdir(part_dir):
                if name.endswith(".parquet"):
                    upto = int(name.rsplit("-r", 1)[1].split(".")[0])
                    if upto > start_round:
                        os.unlink(os.path.join(part_dir, name))
    restore = [os.path.join(ckpt_dir, f"shard-{s:03d}.pkl") if resuming
               else None for s in range(cfg.num_shards)]

    cpus = int(ray.cluster_resources().get("CPU", 8))
    # On small clusters don't reserve a whole core for the driver (it
    # mostly blocks on ray.get between barriers): at 4 CPUs the old
    # budget degenerated to 1 fetch + 1 WRITER, which serialized the
    # entire ~370 core-s gzip backlog through one actor while the rest
    # of the machine idled (measured: 393 s wall, 298 s of it
    # final_flush).  The writer pool's TOTAL must fit the wall — it
    # needs the lion's share of tiny budgets.
    driver_reserve = 1 if cpus >= 12 else 0
    shard_reserve = (cfg.num_shards + 3) // 4
    budget = max(1, cpus - shard_reserve - driver_reserve)
    if fetch_concurrency is None:
        # (A combined fetch+gzip pool with max_concurrency=2 was tried
        # and LOST ~40% at small cluster sizes to head-of-line
        # blocking; split pools also mirror how a real cluster would
        # separate IO-politeness-bound fetchers from CPU-bound
        # compressors.)
        # measured costs (crawl-archive config on the perfbench corpus,
        # seed 3, nproc 1, affinity 4): fetch+links ≈ 9µs/URL of pool
        # CPU (phase_sec worker_fetch + worker_links; all four worker_*
        # phases ≈ 12) vs deflate's ≈ 110µs/URL (writer_busy_cpu;
        # tools/bench_writer.py reads write_fused_round at ≈ 95
        # in-process, ≈ 15 of it outside deflate) → deflate:fetch work
        # ≈ 10-13:1.  This split sizes only the DURING-ROUND deflaters:
        # the writers take chunks across round barriers, and whatever
        # they have not deflated when the rounds end drains over the
        # whole fleet (fetch workers and shards included).  Fetch still
        # gets ~1/5 of the pool (above its work share) because the
        # round-barrier chain rides on fetch latency.  The 0.22 itself
        # is not re-tuned: at one Ray CPU the fleet is 1 fetch worker
        # and 1 writer whatever the fraction, so a change to it cannot
        # be measured there.
        frac = max(1, round(budget * 0.22)) if write_warc else budget
        fetch_concurrency = max(1, min(profile.n_buckets, 32, frac))
    n_workers = fetch_concurrency
    n_writers = max(1, budget - n_workers) if write_warc else 0
    # the driver's node id names the Ray session: a new session has a
    # new one, and actor handles from an older session are unusable
    pool_key = (ray.get_runtime_context().get_node_id(), corpus_dir,
                profile.n_buckets, cfg.num_shards, n_workers, n_writers)
    _pt = _time.perf_counter()
    # The pool leaves the cache for the length of this crawl and goes
    # back only when the crawl returns, so an aborted crawl's in-flight
    # calls never reach the next crawl's actors.
    pool = _POOL_CACHE.pop(pool_key, None)
    _POOL_CACHE.clear()  # a pool of another layout dies here
    if pool is not None:
        workers, writers, shards = pool
        # rebind the warm fleet to this run: fresh (or restored)
        # frontier state, output dir and counters; the worker bucket
        # caches and every actor process survive across crawls (a
        # long-lived fleet, as a production crawler would keep)
        try:
            _await_bound(
                [s.bind_run.remote(i, cfg, robots_ref, restore[i])
                 for i, s in enumerate(shards)],
                [w.bind_run.remote(out_dir) for w in workers]
                + [w.__ray_ready__.remote() for w in writers],
                _phase, _pt)
        except ray.exceptions.RayActorError:
            pool = None  # an actor died between crawls: respawn all
    if pool is None:
        Shard = make_frontier_shard_cls()
        shards = [Shard.remote(s, cfg, robots_ref, restore[s])
                  for s in range(cfg.num_shards)]
        writers = [WarcWriter.remote() for _ in range(n_writers)]
        workers = [
            CrawlWorker.remote(w, corpus_dir, profile.n_buckets,
                               cfg.num_shards, out_dir)
            for w in range(n_workers)
        ]
        _await_bound([s.__ray_ready__.remote() for s in shards],
                     [a.__ray_ready__.remote() for a in workers + writers],
                     _phase, _pt)
    _pt = _time.perf_counter()

    n_shards = len(shards)
    # the whole fleet seeds before round 0 and deflates at drain points
    fleet = ([(a, "fetch_worker") for a in workers]
             + [(a, "writer") for a in writers]
             + [(a, "shard") for a in shards])
    seed_pool = [a for a, _ in fleet]
    deflate = _DeflateQueue(fleet)
    seed_slices = 0
    if not resuming:
        # round -1: seed the frontier IN PARALLEL across the whole
        # actor fleet (writers and shards are idle before round 0) —
        # seed canonicalization+sha1 was ~11 s of serial driver time at
        # bench scale, a fixed cost that capped scaling efficiency.
        # Slice i of k takes rows i, i+k, …, so costly seed rows spread
        # over all slices; global src_offsets keep the ingestion order
        # byte-identical to the serial path (seal sorts offers).
        seeds_tbl = corpus_mod.read_seeds(corpus_dir)
        n_seeds = seeds_tbl.num_rows
        seed_slices = max(1, min(len(seed_pool),
                                 n_seeds // SEED_SLICE_ROWS or 1))
        seeds_ref = ray.put(seeds_tbl)
        seeded = [
            _ref_list(seed_pool[i % len(seed_pool)].seed_offers.options(
                num_returns=n_shards).remote(
                    seeds_ref, i, seed_slices, n_shards))
            for i in range(min(seed_slices, n_seeds))
        ]
        # wait without pulling the tables here: they go to the shards
        flat = [r for refs in seeded for r in refs]
        ray.wait(flat, num_returns=len(flat), fetch_local=False)
        _phase["seed"] = _time.perf_counter() - _pt
        _pt = _time.perf_counter()

    round_log = os.environ.get("WARC_RAY_ROUND_LOG")
    t = start_round
    next_split = None  # (round, split_refs) from a combined seal+pop
    if not resuming:
        # seed seal FUSED with the round-0 pop (one actor call instead
        # of a seal barrier + a pop chain; the hot shard's seed seal
        # overlaps every other shard's round-0 pop)
        next_split = (0, [
            s.seal_then_pop_split.options(num_returns=n_workers + 1).remote(
                0, profile.n_buckets, n_workers,
                *[refs[si] for refs in seeded])
            for si, s in enumerate(shards)
        ])
    rounds_run = 0
    total_fetched = 0
    worker_tm = [0.0] * len(WORKER_PHASES)

    # rounds already on disk when THIS run starts are stale (an
    # unfinished prior run) and safe to clear on resubmission; a round
    # dir that appears DURING the run belongs to our own in-flight
    # writers — deleting it mid-write was a crash under back-to-back
    # bench runs (an orphaned writer re-created a cleared dir, and the
    # "unfinished round" rmtree then raced a live writer's open)
    stale_rounds = {name for name in
                    (os.listdir(out_dir) if os.path.isdir(out_dir) else [])
                    if name.startswith("round=")}

    def _submit_work(t_sub: int, split_refs_sub):
        rd_name = f"round={t_sub:05d}"
        rd_dir = os.path.join(out_dir, rd_name)
        if rd_name in stale_rounds:          # rerun of an unfinished round
            stale_rounds.discard(rd_name)
            shutil.rmtree(rd_dir, ignore_errors=True)
        # per worker: [stats_ref, offers_ref for shard 0, 1, ...]
        return [
            workers[w].process_round_refs.options(
                num_returns=1 + n_shards).remote(
                t_sub, [split_refs_sub[si][w + 1] for si in range(n_shards)],
                write_warc)
            for w in range(n_workers)
        ]
    next_work = None
    while t < cfg.max_rounds:
        _t0 = _time.perf_counter()
        # shard-side pop+split: the driver sees only per-worker row
        # COUNTS; emitted rows travel shard → worker via ObjectRefs
        # (the driver-side concat+re-split was a serial per-round cost
        # that grew with cluster emission rate).  Usually the previous
        # iteration already fired the combined seal+pop for this round
        # AND pre-submitted the per-(shard, worker) fetch tasks — the
        # workers are already fetching by the time the driver reads the
        # counts below.
        if next_split is not None and next_split[0] == t:
            split_refs = next_split[1]
            refs = next_work if next_work is not None \
                else _submit_work(t, split_refs)
        else:
            split_refs = [
                s.pop_round_split.options(num_returns=n_workers + 1).remote(
                    t, profile.n_buckets, n_workers)
                for s in shards
            ]
            refs = _submit_work(t, split_refs)
        next_split = None
        next_work = None
        counts_per_shard = deflate.get([r[0] for r in split_refs])
        per_worker = [sum(c[w] for c in counts_per_shard)
                      for w in range(n_workers)]
        if sum(per_worker) == 0:
            # drain the no-op calls AND queue any chunk jobs they made
            # — a dropped job left its round's WARC output incomplete
            deflate.get([r[0] for r in refs], jobs=True)
            if not any(deflate.get([s.has_pending.remote() for s in shards])):
                break
            nexts = [x for x in deflate.get([s.earliest_allowed.remote(t)
                                             for s in shards])
                     if x is not None]
            t = max(t + 1, min(nexts)) if nexts else t + 1
            continue

        # shard si's seal takes every worker's offers for it: the
        # workers' results ARE the round barrier, resolved by Ray
        offers = [[r[1 + si] for r in refs] for si in range(n_shards)]
        fused = t + 1 < cfg.max_rounds and not checkpoint_every
        if fused:
            # combined seal + next-round pop in one actor call, submitted
            # before the workers finish: the driver never awaits seal
            # separately (the next iteration's counts read IS the
            # barrier).  The next round's fetch tasks are submitted HERE
            # too, referencing the not-yet-ready pop slices — each
            # worker starts on a shard's slice the moment that pop
            # lands, so the slowest shard's seal+pop never gates the
            # other shards' fetch work.  Checkpointing runs need the
            # explicit seal barrier below (shard snapshots must be
            # post-seal).
            next_split = (t + 1, [
                s.seal_then_pop_split.options(
                    num_returns=n_workers + 1).remote(
                    t + 1, profile.n_buckets, n_workers, *offers[si])
                for si, s in enumerate(shards)
            ])
            next_work = _submit_work(t + 1, next_split[1])
        _t1 = _time.perf_counter()
        # the driver feeds the writers while it waits for the round
        counts = [c for c in deflate.get([r[0] for r in refs], jobs=True)
                  if c["fetched"]]
        _t2 = _time.perf_counter()
        total_fetched += sum(c["fetched"] for c in counts)
        for c in counts:
            worker_tm = [a + b for a, b in zip(worker_tm, c["tm"])]
        if not fused:
            deflate.get([s.seal_round.remote(*offers[si])
                         for si, s in enumerate(shards)])
        if round_log:
            tmx = [max(c["tm"][i] for c in counts) for i in range(4)]
            with open(round_log, "a") as f:
                f.write("%d %d %.3f %.3f %.3f  f%.2f w%.2f l%.2f o%.2f  "
                        "rows[%d..%d]\n" % (
                            t, sum(per_worker), _t1 - _t0, _t2 - _t1,
                            _time.perf_counter() - _t2, *tmx,
                            min(per_worker), max(per_worker)))

        rounds_run += 1
        t += 1
        if checkpoint_every and rounds_run % checkpoint_every == 0:
            # durability barrier: all WARC shards + log rows up to this
            # round must be on disk before the manifest commits it
            _flush(deflate, workers, out_dir, t)
            _checkpoint(shards, ckpt_dir, manifest_path, t, cfg)

    _phase["rounds"] = _time.perf_counter() - _pt
    _phase.update(zip(WORKER_PHASES, worker_tm))
    _pt = _time.perf_counter()
    _flush(deflate, workers, out_dir, t)
    if checkpoint_every:
        _checkpoint(shards, ckpt_dir, manifest_path, t, cfg)
    _phase["final_flush"] = _time.perf_counter() - _pt
    # one end-of-run round over the shards: each reads out and drops
    # its run state (finish)
    fin = ray.get([s.finish.remote() for s in shards])
    shard_busy = [f["busy"] for f in fin]
    _phase["seal_busy_max"] = max(b["seal"] for b in shard_busy)
    _phase["seal_busy_sum"] = sum(b["seal"] for b in shard_busy)
    _phase["pop_busy_max"] = max(b["pop"] for b in shard_busy)
    hot = max(shard_busy, key=lambda b: b["seal"])
    for k in ("seal_sort", "seal_filter", "seal_queue"):
        _phase["hot_" + k] = hot.get(k, 0.0)
    if writers:
        _phase.update(deflate.phases())
    # a clean finish: the fleet goes back to the warm pool
    _POOL_CACHE[pool_key] = (workers, writers, shards)
    return {
        "rounds": rounds_run,
        "last_round": t,
        "total_fetched": total_fetched,
        "warc_records": deflate.records,
        # WARC chunks deflated per actor role (writer, fetch_worker,
        # shard): the non-writer counts are the drain points' share
        "warc_chunks": deflate.chunks,
        "shard_stats": [f["stats"] for f in fin],
        "filter_bytes": [f["filter_bytes"] for f in fin],
        "out_dir": out_dir,
        "seed_slices": seed_slices,
        "wall_sec": round(_time.perf_counter() - _t_start, 3),
        "phase_sec": {k: round(v, 3) for k, v in _phase.items()},
    }


def _flush(deflate: _DeflateQueue, workers: list, out_dir: str,
           upto: int) -> None:
    """A drain point: every queued WARC chunk deflated on the whole
    fleet, then the fetch-log parts and one CDX part for rounds <
    ``upto`` on disk."""
    deflate.drain()
    logs = [w.flush_log.remote(upto) for w in workers]
    deflate.flush_cdx(out_dir, upto)
    ray.get(logs)


def _await_bound(shard_acks: list, pool_acks: list, phase: dict,
                 t0: float) -> None:
    """Wait for the fleet's bind acknowledgements.  The spawn phases end
    only when every actor holds this run's state, so a cold actor start
    never shows up in the seed phase."""
    import time as _time

    ray.get(shard_acks)
    t1 = _time.perf_counter()
    ray.get(pool_acks)
    phase["spawn_shards"] = t1 - t0
    phase["spawn_pools"] = _time.perf_counter() - t1


def _checkpoint(shards, ckpt_dir: str, manifest_path: str, next_round: int,
                cfg: FrontierConfig) -> None:
    import hashlib

    os.makedirs(ckpt_dir, exist_ok=True)
    paths = ray.get([
        s.checkpoint.remote(os.path.join(ckpt_dir, f"shard-{i:03d}.pkl"))
        for i, s in enumerate(shards)
    ])
    stats = ray.get([s.stats.remote() for s in shards])
    out_dir = os.path.dirname(manifest_path)

    # G16 lineage: one append-only row per checkpoint — which rounds it
    # covers, the digests of the shard state files it commits, and the
    # per-shard counters at that point (G15 metrics dump).  A restarted
    # run can audit exactly which state/outputs each epoch produced.
    digests = {}
    for p in paths:
        with open(p, "rb") as f:
            digests[os.path.basename(p)] = hashlib.sha1(f.read()).hexdigest()
    with open(os.path.join(out_dir, "LINEAGE.jsonl"), "a") as f:
        f.write(json.dumps({
            "next_round": next_round,
            "shard_state_sha1": digests,
            "metrics": stats,
        }) + "\n")

    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"next_round": next_round, "config": asdict(cfg)}, f)
    os.replace(tmp, manifest_path)


def read_fetch_log(out_dir: str) -> "rd.Dataset":
    """The crawl fetch log (rows carry their ``round`` column; file
    layout is checkpoint-granular parts under ``out_dir/log/``)."""
    import glob

    paths = sorted(glob.glob(os.path.join(out_dir, "log", "*.parquet")))
    return scan_parquet(paths)
