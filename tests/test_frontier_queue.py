"""FrontierCore's queues against an independent per-item reference.

The crawl oracle drives the same ``FrontierCore`` as the distributed
crawl, so the parity tests cannot see a change of emission order.  The
reference here is written from the ``pop_round`` and ``seal_round``
docstrings: offers sealed one item at a time in ``(depth, src_doc,
src_offset, url)`` order, one deque per (host, priority), token buckets
in dicts, hosts walked in sorted name order, one token per URL.
"""

import hashlib
import pickle
from collections import deque

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from warc_ray.state.cuckoo import CuckooFilter
from warc_ray.state.frontier import FrontierConfig, FrontierCore

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1
# host -> (disallow rules, crawl-delay rounds)
ROBOTS = {
    "a.example": (("/p/1",), 0),              # plain prefix
    "b.example": (("/p/*3$", "/q"), 0),       # star + anchor, and a prefix
    "c.example": ((), 2),                     # crawl delay only
    "d.example": (("/r*7",), 1),              # star rule and a delay
}
HOSTS = ["a.example", "b.example", "c.example", "d.example", "e.example",
         "f.example"]
PATHS = ["/", "/p/1", "/p/13", "/p/3", "/p/23x", "/p/1/3", "/q", "/qq/1",
         "/r/7", "/r/77/x", "/s/3", "/s/13"]
SCHEMA = pa.schema([("url", pa.string()), ("host", pa.string()),
                    ("priority", pa.int32()), ("depth", pa.int32()),
                    ("round", pa.int32()), ("fetch_seq", pa.int64())])


def _hash64(url: str) -> int:
    return int.from_bytes(hashlib.sha1(url.encode()).digest()[:8], "big")


def _rule_matches(rule: str, path: str) -> bool:
    """REP rule match: '*' is any run, a final '$' anchors the end,
    otherwise a prefix match (leftmost placement of each literal)."""
    anchored = rule.endswith("$")
    parts = (rule[:-1] if anchored else rule).split("*")
    if len(parts) == 1:
        return path == parts[0] if anchored else path.startswith(parts[0])
    if not path.startswith(parts[0]):
        return False
    pos = len(parts[0])
    for lit in parts[1:-1]:
        at = path.find(lit, pos)
        if at < 0:
            return False
        pos = at + len(lit)
    last = parts[-1]
    if anchored:
        return path.endswith(last) and len(path) - len(last) >= pos
    return path.find(last, pos) >= 0


class RefFrontier:
    """Per-item frontier with the documented semantics."""

    def __init__(self, cfg: FrontierConfig, robots: dict):
        self.cfg = cfg
        self.robots = robots
        self.filter = CuckooFilter(cfg.filter_capacity, seed=cfg.seed * 1000)
        self.queues: dict[tuple, deque] = {}   # (host, priority) -> deque
        self.tokens: dict[str, float] = {}
        self.last_refill: dict[str, int] = {}
        self.next_allowed: dict[str, int] = {}
        self.buffer: list[dict] = []
        self.counters = dict.fromkeys(
            ["offered", "dup", "robots_denied", "too_deep", "queued",
             "emitted"], 0)

    def offer(self, rows: list[dict], n_suppressed: int = 0) -> None:
        self.buffer.extend(rows)
        self.counters["offered"] += n_suppressed
        self.counters["dup"] += n_suppressed

    def seal(self) -> None:
        rows = sorted(self.buffer, key=lambda r: (
            r["depth"], r["src_doc"], r["src_offset"], r["url"]))
        self.buffer = []
        for r in rows:
            self.counters["offered"] += 1
            key = np.array([r["hash64"]], dtype=np.uint64)
            if self.filter.contains_or_add(key)[0]:
                self.counters["dup"] += 1
            elif r["depth"] > self.cfg.max_depth:
                self.counters["too_deep"] += 1
            elif any(_rule_matches(rule, r["url"].split(r["host"], 1)[1] or "/")
                     for rule in self.robots.get(r["host"], ((), 0))[0]):
                self.counters["robots_denied"] += 1
            else:
                self.queues.setdefault((r["host"], r["priority"]), deque()) \
                    .append((r["url"], r["depth"]))
                self.counters["queued"] += 1

    def _hosts(self) -> list[str]:
        return sorted({h for (h, _), q in self.queues.items() if q})

    def pop(self, t: int) -> pa.Table:
        cfg = self.cfg
        out = []
        for host in self._hosts():
            if self.next_allowed.get(host, 0) > t:
                continue
            last = self.last_refill.get(host, t)
            tok = min(float(cfg.burst),
                      self.tokens.get(host, float(cfg.burst)) + cfg.rate * (t - last))
            self.last_refill[host] = t
            delay = self.robots.get(host, ((), 0))[1]
            prios = sorted((p for (h, p), q in self.queues.items()
                            if h == host and q), reverse=True)
            k = 0
            for p in prios:
                q = self.queues[(host, p)]
                while (q and tok >= 1.0 and k < cfg.per_round_host_budget
                       and not (delay and k >= 1)):
                    url, depth = q.popleft()
                    out.append((url, host, p, depth, t, k))
                    tok -= 1.0
                    k += 1
            if delay and k:
                self.next_allowed[host] = t + delay
            self.tokens[host] = tok
        self.counters["emitted"] += len(out)
        cols = list(zip(*out)) if out else [[]] * 6
        return pa.table([pa.array(c, type=f.type)
                         for c, f in zip(cols, SCHEMA)], schema=SCHEMA)

    def has_pending(self) -> bool:
        return bool(self.buffer) or any(self.queues.values())

    def earliest_allowed(self, t: int):
        hosts = self._hosts()
        return min(self.next_allowed.get(h, t) for h in hosts) if hosts else None

    def frontier_depth(self) -> dict:
        return {"pending": sum(len(q) for q in self.queues.values()),
                "active_hosts": len(self._hosts())}


def _offer_table(rows: list[dict]) -> pa.Table:
    return pa.table({
        "url": pa.array([r["url"] for r in rows], type=pa.string()),
        "host": pa.array([r["host"] for r in rows], type=pa.string()),
        "priority": pa.array([r["priority"] for r in rows], type=pa.int32()),
        "src_doc": pa.array([r["src_doc"] for r in rows], type=pa.string()),
        "src_offset": pa.array([r["src_offset"] for r in rows], type=pa.int32()),
        "depth": pa.array([r["depth"] for r in rows], type=pa.int32()),
        "hash64": pa.array([r["hash64"] for r in rows], type=pa.uint64()),
    })


_row = st.builds(
    lambda host, path, prio, depth, doc, off: dict(
        url=f"http://{host}{path}", host=host, priority=prio, depth=depth,
        src_doc=f"doc-{doc}", src_offset=off,
        hash64=_hash64(f"http://{host}{path}")),
    st.sampled_from(HOSTS), st.sampled_from(PATHS),
    st.sampled_from([I32_MIN, I32_MIN + 1, -1, 0, 1, 5, I32_MAX - 1, I32_MAX]),
    st.integers(0, 4), st.integers(0, 2), st.integers(0, 3))
_step = st.fixed_dictionaries({
    "rows": st.lists(_row, max_size=14),
    "split": st.integers(0, 14),           # two producers' tables
    "suppressed": st.integers(0, 2),
    "advance": st.integers(1, 3),          # > 1 skips rounds
    "restore": st.booleans(),              # save()/load() after the seal
})
_config = st.builds(
    lambda rate, burst, budget: FrontierConfig(
        rate=rate, burst=burst, per_round_host_budget=budget, max_depth=3,
        filter_capacity=1 << 10, num_shards=1),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]), st.integers(1, 3),
    st.sampled_from([1, 2, 5]))


def _check(core: FrontierCore, ref: RefFrontier, t: int) -> None:
    assert core.counters == ref.counters
    assert core.has_pending() == ref.has_pending()
    assert core.earliest_allowed(t) == ref.earliest_allowed(t)
    assert core.frontier_depth() == ref.frontier_depth()
    assert core.frontier_depth()["pending"] == (core.counters["queued"]
                                       - core.counters["emitted"])


@settings(max_examples=150, deadline=None)
@given(cfg=_config, steps=st.lists(_step, min_size=1, max_size=8))
def test_queues_match_reference(cfg, steps, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "shard.pkl")
    core, ref = FrontierCore(0, cfg, dict(ROBOTS)), RefFrontier(cfg, ROBOTS)
    t = 0
    for step in steps:
        rows, cut = step["rows"], min(step["split"], len(step["rows"]))
        for part in (rows[:cut], rows[cut:]):
            core.offer(_offer_table(part))
        core.offer(pa.table({}), step["suppressed"])
        ref.offer(rows, step["suppressed"])
        assert core.has_pending() == ref.has_pending()
        core.seal_round()
        ref.seal()
        _check(core, ref, t)
        if step["restore"]:
            core.save(path)
            core = FrontierCore(0, cfg, dict(ROBOTS))
            core.load(path)
            _check(core, ref, t)
        got, want = core.pop_round(t), ref.pop(t)
        assert got.equals(want), (got.to_pylist(), want.to_pylist())
        _check(core, ref, t)
        t += step["advance"]
    while ref.has_pending() and t < 40:   # drain what is left
        got, want = core.pop_round(t), ref.pop(t)
        assert got.equals(want)
        _check(core, ref, t)
        t += 1


def test_load_accepts_a_checkpoint_with_seq(tmp_path):
    """A checkpoint in the layout that also stored a ``seq`` count
    loads; pops follow its queues, tokens and delay windows, and
    ``state()`` gives back the same layout without ``seq``."""
    cfg = FrontierConfig(rate=1.0, burst=2, per_round_host_budget=2,
                         filter_capacity=1 << 10, num_shards=1)
    robots = {"c.example": ((), 2)}
    old = {
        "shard_id": 0,
        "filter": CuckooFilter(cfg.filter_capacity, seed=cfg.seed * 1000).state(),
        "queues": {
            "c.example": {0: (["http://c.example/1", "http://c.example/2"], [1, 1])},
            "b.example": {I32_MIN: (["http://b.example/low"], [2]),
                          I32_MAX: (["http://b.example/hi1", "http://b.example/hi2",
                                     "http://b.example/hi3"], [0, 3, 1])},
        },
        "tokens": {"b.example": 0.5, "c.example": 2.0, "z.example": 1.0},
        "last_refill": {"b.example": 4, "c.example": 4, "z.example": 3},
        "next_allowed": {"c.example": 6},
        "seq": 123,
        "counters": {"offered": 9, "dup": 1, "robots_denied": 0,
                     "too_deep": 0, "queued": 8, "emitted": 2},
    }
    p = tmp_path / "old.pkl"
    p.write_bytes(pickle.dumps(old))
    core = FrontierCore(0, cfg, robots)
    core.load(str(p))
    st_ = core.state()
    assert "seq" not in st_
    assert {k: st_[k] for k in ("queues", "tokens", "last_refill",
                                "next_allowed", "counters")} == \
        {k: old[k] for k in ("queues", "tokens", "last_refill",
                             "next_allowed", "counters")}
    rows = {t: core.pop_round(t).select(["url", "priority", "depth",
                                         "fetch_seq"]).to_pylist()
            for t in range(5, 9)}
    u = "http://b.example/"
    assert rows[5] == [  # b: 0.5 + 1 token -> one URL; c waits until 6
        {"url": u + "hi1", "priority": I32_MAX, "depth": 0, "fetch_seq": 0}]
    assert [r["url"] for r in rows[6]] == [u + "hi2", "http://c.example/1"]
    assert [r["url"] for r in rows[7]] == [u + "hi3"]   # c waits until 8
    assert [r["url"] for r in rows[8]] == [u + "low", "http://c.example/2"]
    assert core.frontier_depth() == {"pending": 0, "active_hosts": 0}
