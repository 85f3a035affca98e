"""Property-based tests (hypothesis) for the engine's hash/state
primitives — the round-3 additions md5vec and the U64Set
probe/deferred-insert API.

These are the primitives every exchange, dedup and crawl pipeline sits
on; example-based tests pin known vectors, hypothesis hunts the
boundary cases (padding edges, zero keys, duplicate-heavy batches,
resize thresholds) no example list anticipates.  No Ray needed.
"""

import hashlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from warc_ray.stages.md5vec import md5_hex, md5_prefix64
from warc_ray.state.u64set import U64Set

# -- md5vec ------------------------------------------------------------------

texts = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=0x2FF),
        max_size=200),
    min_size=0, max_size=40)


@given(texts)
@settings(max_examples=200, deadline=None)
def test_md5vec_matches_hashlib(strs):
    arr = pa.array(strs, type=pa.string())
    got = md5_prefix64(arr)
    exp = np.array(
        [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
         for s in strs], dtype=np.uint64)
    assert (got == exp).all()
    hx = md5_hex(arr).to_pylist()
    for s, h in zip(strs, hx):
        assert h == hashlib.md5(s.encode()).hexdigest()


@given(st.integers(min_value=40, max_value=75))
@settings(max_examples=36, deadline=None)
def test_md5vec_padding_boundary(n):
    """Every length across the one-block/two-block md5 padding edge."""
    s = "a" * n
    assert int(md5_prefix64([s])[0]) == int.from_bytes(
        hashlib.md5(s.encode()).digest()[:8], "big")


# -- U64Set vs Python set ----------------------------------------------------

keys_batches = st.lists(
    st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
             min_size=0, max_size=60),
    min_size=1, max_size=8)


@given(keys_batches)
@settings(max_examples=150, deadline=None)
def test_u64set_contains_add_matches_set(batches):
    u = U64Set(capacity=16)        # tiny: forces resize paths
    ref: set[int] = set()
    for batch in batches:
        arr = np.array(batch, dtype=np.uint64)
        got = u.contains_add(arr)
        exp = np.array([int(k) in ref for k in batch], dtype=bool)
        assert (got == exp).all()
        ref.update(int(k) for k in batch)
    assert len(u) == len(ref)


@given(keys_batches)
@settings(max_examples=100, deadline=None)
def test_u64set_probe_then_add_round_snapshot(batches):
    """The crawl's round-snapshot discipline: contains() must never
    mutate, add() must make exactly the added keys visible."""
    u = U64Set(capacity=16)
    ref: set[int] = set()
    for batch in batches:
        arr = np.array(batch, dtype=np.uint64)
        got = u.contains(arr)
        exp = np.array([int(k) in ref for k in batch], dtype=bool)
        assert (got == exp).all()
        # probing twice changes nothing (pure)
        assert (u.contains(arr) == exp).all()
        u.add(arr)
        ref.update(int(k) for k in batch)
        assert u.contains(arr).all()
    assert len(u) == len(ref)
