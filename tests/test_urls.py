"""URL canonicalizer + link extraction unit & property tests (G2-G4)."""

import hashlib

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warc_ray.stages.urls import (
    _sha1_digests,
    canonicalize_batch,
    canonicalize_url,
    extract_links,
    host_of,
    url_sha1,
)


@pytest.mark.parametrize("raw,expected", [
    ("http://Example.COM/a/b", "http://example.com/a/b"),
    ("HTTP://example.com:80/a", "http://example.com/a"),
    ("https://example.com:443/", "https://example.com/"),
    ("http://example.com:8080/a", "http://example.com:8080/a"),
    ("http://example.com", "http://example.com/"),
    ("http://example.com/a/./b", "http://example.com/a/b"),
    ("http://example.com/a/../b", "http://example.com/b"),
    ("http://example.com/a/b/..", "http://example.com/a/"),
    ("http://example.com/a#frag", "http://example.com/a"),
    ("http://example.com/a?q=1&b=2", "http://example.com/a?q=1&b=2"),
    ("http://example.com/%64oc/5", "http://example.com/doc/5"),
    ("http://example.com/%2fx", "http://example.com/%2Fx"),
    ("http://example.com./a", "http://example.com/a"),
    ("http://host-3.example/doc/7", "http://host-3.example/doc/7"),
])
def test_canonical_cases(raw, expected):
    assert canonicalize_url(raw) == expected


@pytest.mark.parametrize("bad", ["ftp://x/y", "mailto:a@b", "not a url", "//nohost", ""])
def test_non_http_rejected(bad):
    assert canonicalize_url(bad) is None


def test_idempotent_on_fixture_urls():
    for u in ["http://example.com/a/b?x=1", "https://h.example:8443/p%2Fq"]:
        c = canonicalize_url(u)
        assert canonicalize_url(c) == c


@settings(max_examples=200, deadline=None)
@given(
    host=st.from_regex(r"[a-zA-Z][a-zA-Z0-9\-]{0,10}(\.[a-zA-Z]{2,5}){1,2}", fullmatch=True),
    path=st.from_regex(r"(/[a-zA-Z0-9._~%-]{0,8}){0,4}", fullmatch=True),
    query=st.from_regex(r"[a-zA-Z0-9=&%._-]{0,12}", fullmatch=True),
    upper=st.booleans(), port80=st.booleans(), frag=st.booleans(),
)
def test_property_idempotent_and_variant_invariant(host, path, query, upper, port80, frag):
    base = f"http://{host}{path}" + (f"?{query}" if query else "")
    c1 = canonicalize_url(base)
    if c1 is None:
        return
    # canonicalization is idempotent
    assert canonicalize_url(c1) == c1
    # and invariant under trivial variants
    varied = f"http://{host.upper() if upper else host}{':80' if port80 else ''}{path}"
    varied += f"?{query}" if query else ""
    varied += "#zzz" if frag else ""
    # insert variant-safe forms only when path unambiguous
    assert canonicalize_url(varied) == c1


def test_sha1_and_hash64():
    u = "http://example.com/a"
    assert url_sha1(u) == hashlib.sha1(u.encode()).digest()
    # the cuckoo-filter key: first 8 digest bytes, big-endian
    h64 = canonicalize_batch(pa.table({"url": [u]}))["hash64"][0].as_py()
    assert h64 == int.from_bytes(url_sha1(u)[:8], "big")
    assert host_of("http://h.example:81/x") == "h.example"


def test_canonicalize_batch_drops_bad():
    t = pa.table({"url": ["http://A.com/x", "ftp://bad/x", "http://b.com:80/"],
                  "priority": [1, 2, 3]})
    out = canonicalize_batch(t)
    assert out["url"].to_pylist() == ["http://a.com/x", "http://b.com/"]
    assert out["priority"].to_pylist() == [1, 3]
    assert out["host"].to_pylist() == ["a.com", "b.com"]
    assert all(len(s) == 20 for s in out["url_sha1"].to_pylist())


def test_extract_links():
    from warc_ray.schema import SPAN_STRUCT

    spans = [
        [{"kind": "text", "text": "hello", "media_ref": "", "offset": 0},
         {"kind": "link", "text": "x", "media_ref": "http://h.example/doc/1", "offset": 6},
         {"kind": "image", "text": "", "media_ref": "http://h.example/media/2", "offset": 9}],
        [{"kind": "text", "text": "solo", "media_ref": "", "offset": 0}],
        [{"kind": "video", "text": "", "media_ref": "http://h.example/media/3", "offset": 0}],
    ]
    t = pa.table({
        "doc_id": ["d0", "d1", "d2"],
        "spans": pa.array(spans, type=pa.list_(SPAN_STRUCT)),
        "depth": pa.array([0, 0, 1], type=pa.int32()),
    })
    out = extract_links(t, doc_col="doc_id", depth_col="depth")
    assert out["url"].to_pylist() == [
        "http://h.example/doc/1", "http://h.example/media/2", "http://h.example/media/3"]
    assert out["src_doc"].to_pylist() == ["d0", "d0", "d2"]
    assert out["src_offset"].to_pylist() == [6, 9, 0]
    assert out["depth"].to_pylist() == [1, 1, 2]
    assert out["priority"].to_pylist() == [5, 1, 1]  # links > media


def test_canonical_fast_path():
    # Every URL the fast-path regex accepts must be a fixed point of the
    # slow canonicalizer (hypothesis fuzz + targeted cases).
    import re

    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from warc_ray.stages.urls import _CANON_FAST_RE, canonicalize_url

    fast_re = re.compile(_CANON_FAST_RE)

    cases = [
        "http://host-3.example/doc/17",
        "http://a.b/x//y",
        "http://h.example/",
        "http://h.example/a:b@c",
        # must NOT be fast (need slow-path normalization)
        "http://H.example/doc/1",
        "http://h.example:80/doc/1",
        "http://h.example/./doc/1",
        "http://h.example/doc/1#frag",
        "http://h.example/%64oc/1",
        "http://h.example",
        "http://h.example./x",
    ]
    for u in cases:
        if fast_re.match(u):
            assert canonicalize_url(u) == u, u

    @settings(max_examples=300, deadline=None)
    @given(st.text(
        alphabet="abcXYZ019-._~%?#:/@ ", min_size=0, max_size=30).map(
            lambda s: "http://h0.example" + s))
    def fuzz(u):
        if fast_re.match(u):
            assert canonicalize_url(u) == u, u

    fuzz()


_HASH_URL = st.one_of(
    # already canonical: the fast path
    st.from_regex(r"http://[a-z0-9]{1,6}\.example(/[a-z0-9_~-]{0,6}){1,3}",
                  fullmatch=True),
    # needs canonicalizing, or fails to: the mixed path
    st.sampled_from(["http://H.example/doc/1", "http://h.example:80/a",
                     "http://h.example/./b/../c", "http://h.example/%64x",
                     "http://h.example/é/ü", "ftp://bad/x", "not a url"]),
)


def _assert_hashes_match(out):
    urls = out["url"].to_pylist()
    digests = [hashlib.sha1(u.encode()).digest() for u in urls]
    assert out["url_sha1"].to_pylist() == digests
    assert out["hash64"].to_pylist() == [
        int.from_bytes(d[:8], "big") for d in digests]


@settings(max_examples=150, deadline=None)
@given(urls=st.lists(_HASH_URL, max_size=40),
       lo=st.integers(0, 5), cut=st.integers(0, 40))
def test_canonicalize_batch_buffer_hashes(urls, lo, cut):
    # url_sha1 and hash64 are hashed from the Arrow buffers; each must
    # equal hashlib over the canonical URL's utf-8 bytes, on the fast
    # path, the mixed path, a sliced array and a chunked column
    n = len(urls)
    arr = pa.array(urls, type=pa.string())
    prio = pa.array(range(n), type=pa.int32())
    out = canonicalize_batch(pa.table({"url": arr, "priority": prio}))
    assert out["url"].to_pylist() == [
        c for c in map(canonicalize_url, urls) if c is not None]
    _assert_hashes_match(out)

    # sliced input array: non-zero offset into the shared buffers
    lo = min(lo, n)
    assert _sha1_digests(arr.slice(lo)) == b"".join(
        hashlib.sha1(u.encode()).digest() for u in urls[lo:])
    sliced = arr.slice(lo)
    out = canonicalize_batch(
        pa.table({"url": sliced, "priority": prio.slice(lo)}))
    assert out["url"].to_pylist() == [
        c for c in map(canonicalize_url, urls[lo:]) if c is not None]
    _assert_hashes_match(out)

    # chunked column: one sliced chunk (combine_chunks may keep it
    # as is) or two chunks
    cut = min(cut, n)
    for chunks in ([arr.slice(lo)], [arr[:cut], arr[cut:]]):
        col = pa.chunked_array(chunks, type=pa.string())
        out = canonicalize_batch(pa.table(
            {"url": col, "priority": pa.array(range(len(col)),
                                              type=pa.int32())}))
        assert out["url"].to_pylist() == [
            c for c in map(canonicalize_url, col.to_pylist())
            if c is not None]
        _assert_hashes_match(out)
