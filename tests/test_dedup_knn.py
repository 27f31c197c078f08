"""Dedup family, canonicalization, similarity search — Ray stages with
controlled fixtures where the exact answer is computable."""

import numpy as np
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs_ds(texts):
    import ray.data as rd

    return rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )


def test_exact_dedup_keeps_min_id():
    from text_to_rdf_ray.stages.dedup import exact_dedup

    texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"]
    out = exact_dedup(_docs_ds(texts)).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 1, 3]
    assert set(out["text"]) == {"aaa", "bbb", "ccc"}


def test_minhash_pairs_finds_near_dups():
    from text_to_rdf_ray.stages.dedup import minhash_lsh_pairs

    base = "the quick brown fox jumps over the lazy dog while the sun shines bright today"
    texts = [base, base.replace("bright", "dimly"), "entirely different words apear in this unrelated document about databases"]
    pairs = minhash_lsh_pairs(_docs_ds(texts), threshold=0.5).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)} == {(0, 1)}


def test_minhash_dedup_cluster_map():
    from text_to_rdf_ray.stages.dedup import minhash_dedup

    base = "one two three four five six seven eight nine ten eleven twelve thirteen"
    texts = [base, base + " fourteen", base + " fifteen", "zz yy xx ww vv uu tt ss rr qq pp"]
    out = minhash_dedup(_docs_ds(texts), threshold=0.5).to_pandas().sort_values("doc_id")
    assert list(out["canonical_id"])[:3] == [0, 0, 0]
    assert list(out["canonical_id"])[3] == 3


def test_simhash_pairs_hamming_bound():
    from text_to_rdf_ray.kernels.minhash import hamming64, simhash64
    from text_to_rdf_ray.stages.dedup import simhash_pairs

    # long base so one-suffix-char changes flip <= 3 simhash bits
    base = ("the quick brown fox jumps over the lazy dog near the river bank " * 8).strip()
    texts = [base, base + " x", "other totally unrelated content here"]
    assert hamming64(simhash64(texts[0]), simhash64(texts[1])) <= 3
    pairs = simhash_pairs(_docs_ds(texts), max_hamming=3).to_pandas()
    got = (
        {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
        if "id_a" in pairs.columns
        else set()
    )
    # 4x16-bit banding guarantees recall at hamming <= 3 (pigeonhole)
    assert (0, 1) in got
    assert (0, 2) not in got


def test_ngram_jaccard_pairs_exact_threshold():
    from text_to_rdf_ray.kernels.minhash import char_shingles, jaccard
    from text_to_rdf_ray.stages.dedup import ngram_jaccard_pairs

    a = "abcdefghij klmnopqrst uvwxyz now"
    b = "abcdefghij klmnopqrst uvwxyz new"
    j = jaccard(char_shingles(a), char_shingles(b))
    pairs = ngram_jaccard_pairs(_docs_ds([a, b]), threshold=min(0.8, j - 0.01)).to_pandas()
    assert len(pairs) == 1
    assert abs(float(pairs.score.iloc[0]) - j) < 1e-9


def test_embedding_neardup_pairs():
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.RandomState(7)
    base = rng.randn(8).astype(np.float32)
    near = base + 0.01 * rng.randn(8).astype(np.float32)
    far = rng.randn(8).astype(np.float32)
    ds = rd.from_items(
        [
            {"vec_id": 0, "embedding": base.tolist()},
            {"vec_id": 1, "embedding": near.tolist()},
            {"vec_id": 2, "embedding": far.tolist()},
        ]
    )
    pairs = embedding_neardup_pairs(ds, threshold=0.99, dim=8).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)}
    assert (0, 1) in got and (0, 2) not in got


def test_inband_oversized_buckets_processed_not_skipped():
    """The round-2 scale cliff: fixed-width band keys saturate as the
    corpus grows, and the old `> max_bucket -> skip` guard silently
    collapsed recall.  With the vectorized in-band verify, buckets larger
    than max_bucket are PROCESSED (chunked) and counted — every true pair
    must still surface, and the oversized volume must be observable."""
    from text_to_rdf_ray.stages.dedup import simhash_pairs
    from text_to_rdf_ray.state import counters

    # 12 docs off one long template: all share (at least) one band bucket,
    # which overflows max_bucket=2; consecutive variants are hamming-close
    base = ("the quick brown fox jumps over the lazy dog near the river "
            "bank while birds sing " * 8).strip()
    texts = [base + " x" * i for i in range(12)]
    counters.snapshot(reset=True)
    pairs = simhash_pairs(_docs_ds(texts), max_hamming=3, max_bucket=2).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    # reference answer: exact all-pairs hamming
    from text_to_rdf_ray.kernels.minhash import hamming64, simhash64

    hs = [simhash64(t) for t in texts]
    want = {
        (i, j)
        for i in range(len(hs))
        for j in range(i + 1, len(hs))
        if hamming64(hs[i], hs[j]) <= 3
    }
    assert want, "fixture must contain true near-dup pairs"
    assert got == want  # pigeonhole recall survives bucket overflow
    snap = counters.snapshot(reset=True)
    assert snap.get("simhash_oversized_buckets", 0) > 0
    assert snap.get("simhash_skipped_buckets", 0) == 0


def test_embedding_oversized_buckets_processed_not_skipped():
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import embedding_neardup_pairs
    from text_to_rdf_ray.state import counters

    rng = np.random.RandomState(11)
    base = rng.randn(8).astype(np.float32)
    rows = []
    n = 16
    for i in range(n):
        v = base + 0.001 * rng.randn(8).astype(np.float32)
        rows.append({"vec_id": i, "embedding": v.tolist()})
    counters.snapshot(reset=True)
    pairs = embedding_neardup_pairs(
        rd.from_items(rows), threshold=0.999, dim=8, max_bucket=4
    ).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)}
    # all vectors are near-identical: every pair must be found even though
    # they all land in ONE bucket that overflows max_bucket=4
    assert got == {(i, j) for i in range(n) for j in range(i + 1, n)}
    snap = counters.snapshot(reset=True)
    assert snap.get("emblsh_oversized_buckets", 0) > 0
    assert snap.get("emblsh_skipped_buckets", 0) == 0


def test_capped_bucket_skips_are_counted():
    """When a caller DOES cap bucket size on the generic (non-vectorized)
    path, the dropped volume must be surfaced via counters — the
    no-silent-caps rule."""
    from text_to_rdf_ray.stages.dedup import ngram_jaccard_pairs
    from text_to_rdf_ray.state import counters

    base = "abcdefghij klmnopqrst uvwxyz"
    texts = [base + f" {i}" for i in range(12)]
    counters.snapshot(reset=True)
    ngram_jaccard_pairs(_docs_ds(texts), threshold=0.9, max_bucket=2).to_pandas()
    snap = counters.snapshot(reset=True)
    assert snap.get("ngram_skipped_buckets", 0) > 0
    assert snap.get("ngram_skipped_rows", 0) > 0


def test_lsh_band_exchange_is_payload_free():
    """The band-bucket exchange must carry only (shard, band, hash, id,
    feat) — never the document text (the 16-32x shuffle-amplification
    guard)."""
    import pyarrow as pa

    from text_to_rdf_ray.stages.dedup import _band_explode, _band_schema

    docs = pa.table({"doc_id": [0, 1], "text": ["aaa", "bbb"]})

    def bands_feat(text):
        return [(0, len(text)), (1, hash(text) % 97)], None

    out = _band_explode(bands_feat, "doc_id", "text")(docs)
    names = out.column_names
    # no sketch: the feat column is there, all null, so every block of
    # the exchange has one schema
    assert names == ["shard", "band_id", "band_hash", "doc_id", "feat"]
    assert out.schema == _band_schema("doc_id")
    assert out.column("feat").null_count == out.num_rows == 4
    assert "text" not in names

    # with an in-band sketch: the feat column holds it, the payload
    # still does not enter
    def bands_feat_s(text):
        return [(0, len(text))], b"\x01" * 64

    out2 = _band_explode(bands_feat_s, "doc_id", "text")(docs)
    assert out2.schema == _band_schema("doc_id")
    assert out2.column("feat").null_count == 0


def test_pairs_from_buckets_empty_input_gives_empty_pairs():
    """An empty corpus gives the empty (typed) candidate pair set, not an
    error from the band exchange; so does a corpus whose rows explode to
    no band rows."""
    import pyarrow as pa
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import _pairs_from_buckets

    def bands_feat(text):
        return ([(0, len(text))] if text else []), None

    def verify(a, b):
        return 1.0

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                    "text": pa.array([], pa.string())}))
    for ds in (empty, _docs_ds(["", ""])):
        out = _pairs_from_buckets(ds, bands_feat, verify, "doc_id", "text")
        assert out.count() == 0
        assert out.schema().names == ["id_a", "id_b", "score"]


def test_pairs_distributed_verify_path_matches_broadcast():
    """broadcast_threshold=0 forces the hash-partitioned join verify path;
    its pair set must equal the broadcast path's exactly."""
    from text_to_rdf_ray.kernels.minhash import (
        band_keys,
        jaccard,
        minhash_signature,
        word_shingles,
    )
    from text_to_rdf_ray.stages.dedup import _pairs_from_buckets

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu"
    texts = [base, base + " nu", base + " xi", "unrelated words entirely different topic here now"]
    ds = _docs_ds(texts)

    def bands_feat(text):
        return list(enumerate(band_keys(minhash_signature(word_shingles(text, 3)), 16))), None

    def verify(s1, s2):
        j = jaccard(s1, s2)
        return j if j >= 0.5 else None

    def run(threshold):
        out = _pairs_from_buckets(
            ds.select_columns(["doc_id", "text"]), bands_feat, verify, "doc_id", "text",
            prepare_fn=lambda t: word_shingles(t, 3),
            broadcast_threshold=threshold,
        ).to_pandas()
        return {(int(a), int(b), round(float(s), 9))
                for a, b, s in zip(out.id_a, out.id_b, out.score)}

    broadcast = run(10**9)
    joined = run(0)
    assert broadcast == joined
    assert {(a, b) for a, b, _ in broadcast} == {(0, 1), (0, 2), (1, 2)}


def test_canonicalize_surfaces_merges_variants():
    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import canonicalize_surfaces

    names = ["Stanford University", "Stanford  University", "stanford university.",
             "Apple Inc.", "MIT"]
    ds = rd.from_items([{"surface": n} for n in names])
    out = {r["surface"]: r["canonical"] for r in canonicalize_surfaces(ds).take_all()}
    # the three Stanford variants share one canonical (lexicographic min)
    canons = {out[n] for n in names[:3]}
    assert len(canons) == 1
    assert out["Apple Inc."] == "Apple Inc." and out["MIT"] == "MIT"


def test_canonicalize_surfaces_same_map_at_every_partition_count(
        sized_and_capped):
    """canonicalize_surfaces gives the same mapping with its exchanges
    at the sized P=1 and at their caps."""
    import random

    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import (canonicalize_local,
                                                     canonicalize_surfaces)

    rnd = random.Random(5)
    syll = ["stan", "ford", "ap", "ple", "mi", "cro", "soft", "ber", "lin"]
    base = sorted({" ".join("".join(rnd.sample(syll, 2)).title()
                            for _ in range(2)) for _ in range(30)})
    names = set(base)
    for b in base:
        names |= {b.lower() + ".", b.replace(" ", "  "), b[:-1] + "x"}
    names = sorted(names)
    ds = rd.from_items([{"surface": n} for n in names]).repartition(4)

    def run():
        return {r["surface"]: r["canonical"]
                for r in canonicalize_surfaces(ds).take_all()}

    (sized, p_sized), (capped, p_capped) = sized_and_capped(run)
    # 16: the exchange joins/aggs' cap; 64: the LSH pair exchange's cap
    assert (p_sized, p_capped) == ([1], [16, 64])
    assert capped == sized
    assert set(sized) == set(names)
    changed = {s: c for s, c in sized.items() if s != c}
    assert changed and changed == canonicalize_local(names)


def test_giant_bucket_pairs_not_dropped():
    """Regression: a true pair must survive even when EVERY bucket holding
    it is huge (templated corpora share 2-row band hashes in the
    thousands) — exercises the k>512 row-chunked prune branch."""
    import numpy as np

    from text_to_rdf_ray.stages.dedup import _pairs_from_buckets

    n = 600
    # all docs collide into one bucket per band; only docs 7 and 8 share a
    # sketch (the true pair), everyone else gets a distinct deterministic one
    import hashlib

    def sketch(i: int) -> bytes:
        if i in (7, 8):
            return bytes([1] * 64)
        return hashlib.blake2b(f"doc-{i}".encode(), digest_size=64).digest()

    def bands_feat_batch(payloads):
        return [([(0, 42), (1, 99)], sketch(int(p))) for p in payloads]

    import ray.data as rd

    ds = rd.from_items([{"doc_id": i, "text": str(i)} for i in range(n)])

    def verify(t1, t2):
        return 1.0 if sketch(int(t1)) == sketch(int(t2)) else None

    out = _pairs_from_buckets(
        ds, None, verify, "doc_id", "text",
        max_bucket=4096, prune_est=0.9, prepare_fn=lambda t: t,
        bands_feat_batch_fn=bands_feat_batch,
    ).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(out.id_a, out.id_b)} == {(7, 8)}

    # the old 256 guard semantics: same input, guard below bucket size -> lost
    out2 = _pairs_from_buckets(
        ds, None, verify, "doc_id", "text",
        max_bucket=256, prune_est=0.9, prepare_fn=lambda t: t,
        bands_feat_batch_fn=bands_feat_batch,
    ).to_pandas()
    assert len(out2) == 0


def test_lsh_candidates_are_two_exchanges(monkeypatch, partition_counts):
    """_pairs_from_buckets' candidates are two exchanges (the per-shard
    pairs, then their distinct): at P=1 one reduce task each.  The pair
    set and the candidate, skipped and giant-bucket counters are the
    same at P=1, with both exchanges at their cap of 64, and with the
    tree combine forced."""
    import collections
    import hashlib

    import ray.data as rd
    from ray.data import DataContext
    from ray.remote_function import RemoteFunction

    from text_to_rdf_ray.stages import bsp
    from text_to_rdf_ray.stages.dedup import _pairs_from_buckets
    from text_to_rdf_ray.state import counters

    def sketch(i: int) -> bytes:
        # docs 2k, 2k+1 (k < 50) share a sketch, and so do 7 and 8
        if i in (7, 8):
            return bytes([255] * 64)
        if i < 100:
            return bytes([i // 2] * 64)
        return hashlib.blake2b(b"%d" % i, digest_size=64).digest()

    def bands_feat_batch(payloads):
        # band 0: one giant bucket (docs 0-549, kept: 550 <= max_bucket);
        # band 1: one bucket over the cap (docs 550-1249, skipped);
        # band 2: two-doc buckets
        out = []
        for p in payloads:
            i = int(p)
            out.append(([(0, 42 if i < 550 else 10**6 + i),
                         (1, 99 if 550 <= i < 1250 else 2 * 10**6 + i),
                         (2, i // 2)], sketch(i)))
        return out

    ds = rd.from_items([{"doc_id": i, "text": str(i)}
                        for i in range(1300)]).materialize()

    def verify(t1, t2):
        return 1.0 if sketch(int(t1)) == sketch(int(t2)) else None

    inside = [0]
    real_exchange = bsp._exchange

    def exchange(*args, **kwargs):
        inside[0] += 1
        try:
            return real_exchange(*args, **kwargs)
        finally:
            inside[0] -= 1

    tasks = collections.Counter()
    real_remote = RemoteFunction._remote

    def counting(self, *args, **kwargs):
        if inside[0]:
            tasks[self._function_name.rsplit(".", 1)[-1]] += 1
        return real_remote(self, *args, **kwargs)

    monkeypatch.setattr(bsp, "_exchange", exchange)
    monkeypatch.setattr(RemoteFunction, "_remote", counting)

    def run():
        tasks.clear()
        partition_counts.clear()
        counters.snapshot(reset=True)
        out = _pairs_from_buckets(
            ds, None, verify, "doc_id", "text", max_bucket=600,
            prune_est=0.9, prepare_fn=lambda t: t,
            bands_feat_batch_fn=bands_feat_batch).to_pandas()
        pairs = sorted(zip(out.id_a.tolist(), out.id_b.tolist()))
        return pairs, counters.snapshot(reset=True)

    ctx = DataContext.get_current()
    sized = run()
    assert dict(tasks) == {"_reduce_task": 2}
    assert partition_counts == [1, 1]
    want_pairs = sorted({(2 * k, 2 * k + 1) for k in range(50)} - {(6, 7), (8, 9)}
                        | {(7, 8)})
    assert sized[0] == want_pairs
    assert sized[1] == {"lsh_candidates": 49, "lsh_skipped_buckets": 1,
                        "lsh_skipped_rows": 700, "lsh_giant_bucket_rows": 550}

    # one partition per byte of input: both exchanges at their cap
    monkeypatch.setattr(ctx, "target_min_block_size", 1)
    assert run() == sized
    assert partition_counts == [64, 64]
    monkeypatch.setattr(bsp, "TREE_COMBINE_THRESHOLD", 0)
    assert run() == sized
    assert tasks["_regroup_task"] > 0


def test_apply_canonical_join_matches_broadcast():
    """The hash-join canonical rewrite (for mappings too large to
    broadcast) must equal apply_canonical_map row-for-row, including slug
    recomputation and literal objects left untouched."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import (
        apply_canonical_join,
        apply_canonical_map,
    )

    rows = {
        "url": ["u1", "u2", "u3"],
        "subj": ["Stanford  University", "MIT", "Apple Inc."],
        "subj_slug": ["x", "x", "x"], "subj_lower": ["x", "x", "x"],
        "pred": ["locatedIn"] * 3, "pred_key": ["locatedin"] * 3,
        "obj": ["Stanford  University", "1990-01-01", "MIT"],
        "subj_type": ["Organization"] * 3,
        "obj_type": ["Organization", "", "Organization"],
        "nested_in": [""] * 3,
        "chunk_id": pa.array([0] * 3, pa.int32()),
        "span_start": pa.array([0] * 3, pa.int64()),
        "span_end": pa.array([1] * 3, pa.int64()),
        "confidence": [1.0] * 3, "method": ["t"] * 3,
    }
    triples = rd.from_arrow(pa.table(rows))
    mapping = {"Stanford  University": "Stanford University"}
    a = apply_canonical_map(triples, mapping).to_pandas().sort_values("url")
    cmap = rd.from_items(
        [{"surface": s, "canonical": c} for s, c in mapping.items()]
    )
    b = (apply_canonical_join(rd.from_arrow(pa.table(rows)), cmap)
         .to_pandas().sort_values("url")[a.columns])
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    # literal obj "1990-01-01" untouched, entity obj rewritten
    bb = b.set_index("url")
    assert bb.loc["u1", "obj"] == "Stanford University"
    assert bb.loc["u2", "obj"] == "1990-01-01"


def test_connected_components_chain():
    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import connected_components

    edges = rd.from_items(
        [{"src": 1, "dst": 2}, {"src": 2, "dst": 3}, {"src": 3, "dst": 4},
         {"src": 10, "dst": 11}]
    )
    # driver-side union-find path (small edge set)
    comp = {r["name_id"]: r["component"] for r in connected_components(edges).take_all()}
    assert comp[1] == comp[2] == comp[3] == comp[4] == 1
    assert comp[10] == comp[11] == 10
    # distributed label-propagation path must agree exactly
    comp_dist = {
        r["name_id"]: r["component"]
        for r in connected_components(edges, driver_threshold=0).take_all()
    }
    assert comp_dist == comp


def test_knn_bruteforce_matches_numpy():
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import knn_bruteforce

    rng = np.random.RandomState(3)
    corpus = rng.randn(200, 16).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": corpus[i].tolist()} for i in range(200)]
    )
    queries = corpus[:3].astype(np.float64)
    out = knn_bruteforce(ds, queries, [0, 1, 2], k=5)
    # numpy reference
    cn = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = qn @ cn.T
    for qi in range(3):
        order = np.lexsort((np.arange(200), -sims[qi]))[:5]
        got = out[out.query_id == qi].sort_values("rank")["neighbor_id"].tolist()
        assert got == order.tolist()
        assert got[0] == qi  # self is nearest


def test_knn_ivf_recall_reasonable():
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import knn_bruteforce, knn_ivf

    rng = np.random.RandomState(5)
    corpus = rng.randn(500, 16).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": corpus[i].tolist()} for i in range(500)]
    )
    queries = corpus[:5].astype(np.float64)
    exact = knn_bruteforce(ds, queries, list(range(5)), k=10)
    approx = knn_ivf(ds, queries, list(range(5)), k=10, n_clusters=8, nprobe=4)
    recalls = []
    for qi in range(5):
        e = set(exact[exact.query_id == qi]["neighbor_id"])
        a = set(approx[approx.query_id == qi]["neighbor_id"])
        recalls.append(len(e & a) / len(e))
    assert sum(recalls) / len(recalls) >= 0.5


def test_ivf_partitioned_index_matches_inline(tmp_path):
    """build_ivf_index + knn_ivf_indexed (write-once partitioned-by-list,
    partition-pruned probe) must reproduce knn_ivf exactly for the same
    quantizer params, and the probe scan must read only the probed lists."""
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import build_ivf_index, knn_ivf, knn_ivf_indexed

    rng = np.random.RandomState(11)
    corpus = rng.randn(400, 16).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": corpus[i].tolist()} for i in range(400)]
    )
    idx_dir = str(tmp_path / "ivf")
    meta = build_ivf_index(ds, idx_dir, n_clusters=8, sample_size=400)
    assert meta["n_clusters"] == 8

    queries = corpus[:4].astype(np.float64)
    inline = knn_ivf(ds, queries, [0, 1, 2, 3], k=5, n_clusters=8, nprobe=3,
                     sample_size=400)
    indexed = knn_ivf_indexed(idx_dir, queries, [0, 1, 2, 3], k=5, nprobe=3)
    assert indexed.equals(inline)

    # partition pruning: a 1-probe scan over one query touches fewer rows
    # than the corpus (only that query's list directory leaves storage)
    import os

    one = knn_ivf_indexed(idx_dir, queries[:1], [0], k=5, nprobe=1)
    assert len(one) == 5
    part_dirs = [d for d in os.listdir(idx_dir + "/data") if d.startswith("list_id=")]
    assert len(part_dirs) == 8
    one_list = rd.read_parquet(os.path.join(idx_dir, "data", part_dirs[0])).count()
    assert one_list < 400


def test_multimodal_plumbing():
    import ray.data as rd

    from text_to_rdf_ray.stages.multimodal import DecodeStub, decode_features, make_fake_media

    ds = rd.from_arrow(make_fake_media(30))
    out = decode_features(ds, fake=True).to_pandas()
    assert len(out) == 30
    assert all(len(f) == DecodeStub.FEATURE_DIM for f in out["features"])
    assert "payload" not in out.columns  # wide column dropped after decode
    # real decode path is explicitly stubbed
    with pytest.raises(NotImplementedError):
        DecodeStub(fake=False)._decode_real(b"x", "image")


def test_multimodal_resize_and_frame_sample():
    import ray.data as rd

    from text_to_rdf_ray.stages.multimodal import (
        FrameSampleStub,
        ResizeStub,
        make_fake_media,
        resize_images,
        sample_frames,
    )

    media = make_fake_media(30)
    ds = rd.from_arrow(media)
    resized = resize_images(ds, 224, 224, fake=True).to_pandas()
    assert len(resized) == 30
    imgs = resized[resized.media_type == "image"]
    others = resized[resized.media_type != "image"]
    assert (imgs["width"] == 224).all() and (imgs["height"] == 224).all()
    # non-image rows pass through byte-identical
    orig = media.to_pandas().set_index("media_id")
    for _, r in others.iterrows():
        assert r["payload"] == orig.loc[r["media_id"], "payload"]
        assert r["width"] == orig.loc[r["media_id"], "width"]

    frames = sample_frames(rd.from_arrow(media), fps_n=4, fake=True).to_pandas()
    vids = media.to_pandas()
    vids = vids[vids.media_type == "video"]
    # one row per sampled frame; zero-duration videos get exactly one frame
    expect = sum(4 if d > 0 else 1 for d in vids["duration_ms"])
    assert len(frames) == expect
    assert set(frames["media_id"]) == set(vids["media_id"])
    assert frames["frame"].map(len).eq(64).all()
    # uniform timestamps within duration
    g = frames.groupby("media_id")["ts_ms"].max()
    for mid, mx in g.items():
        assert mx <= int(vids.set_index("media_id").loc[mid, "duration_ms"])

    for stub, args in ((ResizeStub(2, 2), (b"x",)), (FrameSampleStub(), (b"x", 0))):
        with pytest.raises(NotImplementedError):
            (stub._resize_real if isinstance(stub, ResizeStub) else stub._frame_real)(*args)


def test_canonicalize_local_matches_distributed():
    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import canonicalize_local, canonicalize_surfaces

    names = ["Stanford University", "Stanford  University", "stanford university.",
             "Apple Inc.", "Apple  Inc", "MIT", "Microsoft Corp", "Mikrosoft Corp"]
    local = canonicalize_local(names)
    ds = rd.from_items([{"surface": n} for n in names])
    dist_all = {r["surface"]: r["canonical"] for r in canonicalize_surfaces(ds).take_all()}
    dist = {s: c for s, c in dist_all.items() if s != c}
    assert local == dist


def test_ivf_indexed_handles_empty_lists(tmp_path):
    """Regression: centroids with zero assigned rows have no hive dir;
    probing them must skip, not crash."""
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import build_ivf_index, knn_ivf_indexed

    base = np.ones(8, dtype=np.float32)
    corpus = base + 0.001 * np.arange(50, dtype=np.float32)[:, None]
    ds = rd.from_items(
        [{"vec_id": i, "embedding": corpus[i].tolist()} for i in range(50)]
    )
    idx_dir = str(tmp_path / "ivf_empty")
    build_ivf_index(ds, idx_dir, n_clusters=8, sample_size=50)
    out = knn_ivf_indexed(idx_dir, corpus[:2].astype(np.float64), [0, 1],
                          k=5, nprobe=8)
    assert len(out) == 10 and set(out.query_id) == {0, 1}


def test_connected_components_pointer_jump_log_rounds(ray_session):
    """A 120-hop path must converge within O(log diameter) rounds — the
    pointer-jump move (Hash-to-Min) makes max_rounds=16 enough where pure
    min-propagation would need ~120 rounds."""
    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import connected_components
    from text_to_rdf_ray.state import counters

    n = 120
    edges = rd.from_items(
        [{"src": i, "dst": i + 1} for i in range(n)]).repartition(8)
    counters.snapshot(reset=True)
    comp = {
        r["name_id"]: r["component"]
        for r in connected_components(
            edges, max_rounds=16, driver_threshold=0).take_all()
    }
    assert len(comp) == n + 1
    assert set(comp.values()) == {0}
    rounds = counters.snapshot().get("cc_rounds", 0)
    assert 0 < rounds <= 16, rounds


def test_connected_components_engine_parity(ray_session):
    """Forced BSP (driver_threshold=0) and the driver union-find tier
    must produce identical component labelings on a graph mixing
    chains and singleton-free star shapes."""
    import ray.data as rd

    from text_to_rdf_ray.stages.canonicalize import connected_components

    rng = np.random.RandomState(7)
    edges = []
    for c in range(30):  # 30 chains of length 5
        base = 1000 * c
        edges += [(base + i, base + i + 1) for i in range(4)]
    for s in range(10):  # stars
        hub = 100000 + 1000 * s
        edges += [(hub, hub + i) for i in range(1, 6)]
    rng.shuffle(edges)
    ds = rd.from_items(
        [{"src": a, "dst": b} for a, b in edges]).repartition(6)
    by_tier = {}
    for tier, threshold in (("bsp", 0), ("driver", 10_000)):
        rows = connected_components(
            ds, driver_threshold=threshold).take_all()
        by_tier[tier] = {r["name_id"]: r["component"] for r in rows}
    assert by_tier["bsp"] == by_tier["driver"]
    assert len({v for v in by_tier["bsp"].values()}) == 40


def test_connected_components_bsp_single_partition(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.bsp import connected_components_bsp

    import pyarrow as pa
    edges = pa.table({"src": pa.array([1, 2, 10], pa.int64()),
                      "dst": pa.array([2, 3, 11], pa.int64())})
    rev = pa.table({"src": edges.column("dst"), "dst": edges.column("src")})
    und = rd.from_arrow(pa.concat_tables([edges, rev]))
    labels, rounds = connected_components_bsp(und, num_parts=1, max_rounds=8)
    comp = {r["name_id"]: r["component"] for r in labels.take_all()}
    assert comp == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}
    assert rounds <= 8


def test_embedding_dedup_clusters_planted_duplicates(ray_session):
    """Planted exact-direction duplicates must cluster to the original's
    id; unrelated vectors stay their own canonical."""
    import numpy as np

    import ray.data as rd
    from text_to_rdf_ray.stages.dedup import embedding_dedup

    rng = np.random.RandomState(7)
    base = rng.randn(40, 16).astype(np.float64)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(40)]
    # ids 100..119 duplicate ids 0..19 (scaled: same direction)
    rows += [{"vec_id": 100 + i, "embedding": (3.0 * base[i]).tolist()}
             for i in range(20)]
    ds = rd.from_items(rows).repartition(4)
    out = (embedding_dedup(ds, threshold=0.995).to_pandas()
           .set_index("vec_id")["canonical_id"])
    for i in range(20):
        assert out[100 + i] == i and out[i] == i
    for i in range(20, 40):
        assert out[i] == i


def _numpy_lloyd(X, k, iters):
    cent = X[:k].astype(np.float64).copy()
    for _ in range(iters):
        d2 = ((X * X).sum(1, keepdims=True) - 2.0 * (X @ cent.T)
              + (cent * cent).sum(1))
        a = np.argmin(d2, axis=1)
        for j in range(k):
            if (a == j).any():
                cent[j] = X[a == j].mean(axis=0)
    d2 = ((X * X).sum(1, keepdims=True) - 2.0 * (X @ cent.T)
          + (cent * cent).sum(1))
    a = np.argmin(d2, axis=1)
    return a, cent


def test_kmeans_lloyd_matches_numpy(ray_session):
    import pandas as pd
    import ray.data as rd
    from text_to_rdf_ray.stages.knn import kmeans_lloyd

    rng = np.random.RandomState(5)
    X = rng.randn(200, 16).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64),
                       "embedding": list(X)})
    ds = rd.from_pandas(df).repartition(7)
    assign, cent = kmeans_lloyd(ds, k=4, iters=3, num_partitions=4)
    out = assign.to_pandas().sort_values("vec_id").reset_index(drop=True)
    # ids are 0..n-1 in row order, so init (lowest ids) == X[:k]
    want_a, want_c = _numpy_lloyd(X.astype(np.float64), 4, 3)
    assert np.array_equal(out["cluster"].to_numpy(), want_a)
    assert np.allclose(cent, want_c, atol=1e-9)
    d2 = ((X.astype(np.float64) - want_c[want_a]) ** 2).sum(axis=1)
    assert np.allclose(out["dist"].to_numpy(), d2, atol=1e-9)


def test_kmeans_lloyd_duplicate_points_empty_cluster(ray_session):
    import pandas as pd
    import ray.data as rd
    from text_to_rdf_ray.stages.knn import kmeans_lloyd

    # all points identical: clusters 1..k-1 go empty and must keep their
    # seed centroid; every point lands in cluster 0 (lowest-id tie-break)
    X = np.ones((50, 4), np.float32)
    df = pd.DataFrame({"vec_id": np.arange(50, dtype=np.int64),
                       "embedding": list(X)})
    assign, cent = kmeans_lloyd(rd.from_pandas(df).repartition(3),
                                k=3, iters=2)
    out = assign.to_pandas()
    assert (out["cluster"] == 0).all()
    assert np.allclose(cent, 1.0)


def test_kmeans_lloyd_k_exceeds_n_raises(ray_session):
    import pandas as pd
    import ray.data as rd
    import pytest

    from text_to_rdf_ray.stages.knn import kmeans_lloyd

    df = pd.DataFrame({"vec_id": [1, 2], "embedding": [[0.0, 1.0], [1.0, 0.0]]})
    with pytest.raises(ValueError, match="only 2 vectors"):
        kmeans_lloyd(rd.from_pandas(df), k=5, iters=1)


def test_knn_lsh_exact_within_probed_buckets(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import (
        _normalize, knn_lsh, lsh_bucket, lsh_planes)

    rng = np.random.RandomState(3)
    n, d = 2_000, 16
    emb = rng.standard_normal((n, d)).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(emb)})).repartition(4)
    q = emb[:20]
    qids = list(range(20))
    side: dict = {}
    out = knn_lsh(ds, q, qids, k=5, n_planes=6, multiprobe=1, side_out=side)

    planes = side["planes"]
    buckets = lsh_bucket(emb, planes)
    qn, en = _normalize(q.astype(np.float32)), _normalize(emb)
    probes = dict(side["probes"])
    for qi, qid in enumerate(qids):
        cand = np.flatnonzero(np.isin(buckets, probes[qid]))
        sims = en[cand] @ qn[qi]
        order = np.lexsort((cand, -sims))[:5]
        want = cand[order]
        got = out[out["query_id"] == qid].sort_values("rank")
        assert got["neighbor_id"].tolist() == want.tolist(), qid
    # multiprobe recall sanity: each query's own vector is its own rank-1
    own = out[out["rank"] == 1]
    assert (own["query_id"].to_numpy() == own["neighbor_id"].to_numpy()).all()


def test_knn_lsh_indexed_parity_and_pruning(ray_session, tmp_path):
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import (
        build_lsh_index, knn_lsh, knn_lsh_indexed)

    rng = np.random.RandomState(9)
    n, d = 1_500, 12
    emb = rng.standard_normal((n, d)).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(emb)})).repartition(3)
    q = emb[5:25]
    qids = list(range(5, 25))

    idx = str(tmp_path / "lsh_idx")
    meta = build_lsh_index(ds, idx, n_planes=5)
    assert meta["n_planes"] == 5 and meta["dim"] == d
    got = knn_lsh_indexed(idx, q, qids, k=7, multiprobe=1)
    want = knn_lsh(ds, q, qids, k=7, n_planes=5, multiprobe=1)
    for df in (got, want):
        df.sort_values(["query_id", "rank"], inplace=True)
        df.reset_index(drop=True, inplace=True)
    pd.testing.assert_frame_equal(got, want)
    # the index is genuinely bucket-partitioned and probing reads a
    # strict subset of the bucket directories
    dirs = [p for p in os.listdir(os.path.join(idx, "data"))
            if p.startswith("bucket=")]
    assert len(dirs) > 4
    side: dict = {}
    knn_lsh_indexed(idx, q[:1], qids[:1], k=7, multiprobe=1, side_out=side)
    probed = set(side["probes"][0][1])
    assert len(probed) == 6  # own bucket + 5 one-bit flips
    assert len(probed) < len(dirs) + 6  # sanity: bounded probe set


def test_dedup_against_brute_force_parity(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.kernels.minhash import word_shingles
    from text_to_rdf_ray.stages.dedup import dedup_against

    rng = np.random.RandomState(4)
    vocab = [f"w{i}" for i in range(60)]

    def mk_text(n):
        return " ".join(rng.choice(vocab, size=n))

    ref = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [mk_text(30) for _ in range(40)],
    })
    new_rows = []
    for i in range(30):
        if i % 3 == 0:     # exact copy of a ref doc
            t = ref.loc[i, "text"]
        elif i % 3 == 1:   # near-copy: one word appended
            t = ref.loc[i, "text"] + " zzz"
        else:              # fresh text
            t = mk_text(30)
        new_rows.append((1000 + i, t))
    new = pd.DataFrame(new_rows, columns=["doc_id", "text"])

    for max_df in (None, 25):
        got = (dedup_against(rd.from_pandas(new).repartition(3),
                             rd.from_pandas(ref).repartition(4),
                             threshold=0.5, shingle_words=3, max_df=max_df)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        # brute force with the same df semantics
        sh_new = {r.doc_id: word_shingles(r.text, 3) for r in new.itertuples()}
        sh_ref = {r.doc_id: word_shingles(r.text, 3) for r in ref.itertuples()}
        if max_df is not None:
            from collections import Counter
            df = Counter()
            for s in list(sh_new.values()) + list(sh_ref.values()):
                df.update(s)
            keep = {g for g, c in df.items() if c <= max_df}
            sh_new = {k: v & keep for k, v in sh_new.items()}
            sh_ref = {k: v & keep for k, v in sh_ref.items()}
        assert len(got) == len(new)
        for _, row in got.iterrows():
            a = sh_new[row["doc_id"]]
            cands = []
            for rid, b in sh_ref.items():
                un = len(a | b)
                if un and a and b:
                    j = len(a & b) / un
                    if j >= 0.5:
                        cands.append((-j, rid))
            if cands:
                cands.sort()
                assert bool(row["is_dup"]), (max_df, row["doc_id"])
                assert row["ref_id"] == cands[0][1], (max_df, row["doc_id"])
                assert abs(row["jaccard"] - (-cands[0][0])) < 1e-6
            else:
                assert not row["is_dup"]
                assert row["ref_id"] == -1 and row["jaccard"] == 0.0
    # the exact copies and near-copies were flagged
    assert got[got["doc_id"] % 3 == 1]["is_dup"].all()  # 1000+3k


def test_embedding_moments_and_pca_match_numpy(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.knn import embedding_moments, embedding_pca

    rng = np.random.RandomState(11)
    X = rng.rand(300, 6).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(300), pa.int64()),
        "embedding": pa.array(X.tolist(), pa.list_(pa.float32())),
    })).repartition(5)

    m = embedding_moments(ds).to_pandas()
    Xd = X.astype(np.float64)
    n = m.loc[(m.i == -1) & (m.j == -1), "s"].iloc[0]
    assert n == 300
    s0 = m.loc[(m.i == 0) & (m.j == -1), "s"].iloc[0]
    assert abs(s0 - Xd[:, 0].sum()) < 1e-9
    s01 = m.loc[(m.i == 0) & (m.j == 1), "s"].iloc[0]
    assert abs(s01 - (Xd[:, 0] * Xd[:, 1]).sum()) < 1e-9

    vals, comps, mean = embedding_pca(ds, k=3)
    cov = np.cov(Xd, rowvar=False, bias=True)
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1][:3]
    assert np.allclose(vals, evals, atol=1e-9)
    assert np.allclose(mean, Xd.mean(axis=0), atol=1e-12)
    # components orthonormal and actually diagonalize cov
    assert np.allclose(comps @ comps.T, np.eye(3), atol=1e-9)
    assert np.allclose(comps @ cov @ comps.T,
                       np.diag(vals), atol=1e-9)


def test_ed1_dist_kernel_cases():
    from text_to_rdf_ray.stages.dedup import _ed1_dist

    sa = np.array(["abc", "abc", "abc", "abc", "abc", "ab", "", "a",
                   "abc"], dtype=object)
    sb = np.array(["abc", "abd", "ab", "abcd", "adbx", "axb", "a", "",
                   "xyz"], dtype=object)
    # exact, subst, delete, insert, ed2 (len diff 1 but 2 edits),
    # single-insert, insert into empty, delete to empty, ed3
    assert _ed1_dist(sa, sb).tolist() == [0, 1, 1, 1, 2, 1, 1, 1, 2]


def test_editdist_join_matches_bruteforce(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import editdist_join

    def lev(s, t):
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

    rng = np.random.RandomState(42)
    words = ["ring", "rings", "wing", "king", "kin", "widget", "wedget",
             "bolt", "bolts", "jolt", "", "a", "b", "ab"]
    strs = [words[i] for i in rng.randint(0, len(words), 80)]
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64),
                       "text": strs})
    out = (editdist_join(rd.from_pandas(df).repartition(4))
           .to_pandas().sort_values(["id_a", "id_b"])
           .reset_index(drop=True))
    exp = [(i, j, lev(strs[i], strs[j]))
           for i in range(80) for j in range(i + 1, 80)
           if lev(strs[i], strs[j]) <= 1]
    assert (list(map(tuple, out[["id_a", "id_b", "dist"]]
                     .to_numpy().tolist())) == exp)


def test_quantize_embeddings_codes_and_reconstruction(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import (quantization_range,
                                            quantize_embeddings)

    rng = np.random.RandomState(3)
    m = rng.randn(200, 8).astype(np.float32)
    m[:, 5] = 1.25                      # constant dim -> code 0
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(200, dtype=np.int64),
        "embedding": list(m)})).repartition(4)
    mn, mx = quantization_range(ds)
    assert np.allclose(mn, m.astype(np.float64).min(0))
    assert np.allclose(mx, m.astype(np.float64).max(0))
    out = quantize_embeddings(ds, mn, mx).to_pandas()
    codes = np.stack(out.sort_values("vec_id")["codes"].to_numpy())
    assert codes.min() >= 0 and codes.max() <= 255
    assert (codes[:, 5] == 0).all()
    # reconstruction error bounded by half a quantization step
    rngv = mx - mn
    recon = mn + codes * np.where(rngv > 0, rngv, 1.0) / 255.0
    err = np.abs(recon - m.astype(np.float64))
    step = np.where(rngv > 0, rngv, 1.0) / 255.0
    assert (err <= step / 2 + 1e-12).all()


def test_knn_quantized_matches_numpy_int_dot(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import knn_quantized

    rng = np.random.RandomState(9)
    codes = rng.randint(0, 256, size=(120, 16)).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(120, dtype=np.int64),
        "codes": list(codes)})).repartition(5)
    q = codes[:3]
    out = knn_quantized(ds, q, [0, 1, 2], k=5)
    dots = q @ codes.T                        # (3, 120) exact int64
    for qi in range(3):
        order = sorted(range(120), key=lambda j: (-dots[qi, j], j))[:5]
        got = out[out.query_id == qi].sort_values("rank")
        assert got.neighbor_id.tolist() == order
        assert got.score.tolist() == [int(dots[qi, j]) for j in order]


def test_random_projection_preserves_distance_in_expectation(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import random_projection, rproj_signs

    rng = np.random.RandomState(21)
    m = rng.randn(300, 64).astype(np.float32)
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(300, dtype=np.int64),
        "embedding": list(m)})).repartition(4)
    out = random_projection(ds, out_dim=16, seed=7).to_pandas()
    y = np.stack(out.sort_values("vec_id")["proj"].to_numpy())
    # exact parity with the driver-side formula
    s = rproj_signs(64, 16, seed=7)
    want = (m.astype(np.float64) @ s) / np.sqrt(16.0)
    assert np.allclose(y, want, atol=0, rtol=0)
    # JL property (loose at k=16): squared norms broadly preserved
    r = (y ** 2).sum(1) / (m.astype(np.float64) ** 2).sum(1)
    assert np.mean((r > 0.4) & (r < 1.8)) > 0.9
    assert 0.8 < r.mean() < 1.2
    # sign matrix is balanced-ish
    assert abs(s.mean()) < 0.1


def test_sorted_neighborhood_pairs_bruteforce_parity(ray_session,
                                                     monkeypatch):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import sorted_neighborhood_pairs

    rng = np.random.RandomState(13)
    names = ["w%03d" % i for i in rng.randint(0, 400, 500)]
    df = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64),
                       "text": names})
    # one sort range per byte: ~8-row sorted blocks, so many windows
    # straddle block boundaries
    monkeypatch.setattr(rd.DataContext.get_current(),
                        "target_min_block_size", 1)
    out = (sorted_neighborhood_pairs(
        rd.from_pandas(df).repartition(7), key_col="text",
        id_col="doc_id", window=4)
        .to_pandas().sort_values(["id_a", "id_b", "dist"])
        .reset_index(drop=True))
    order = sorted(range(500), key=lambda i: (names[i], i))
    exp = []
    for p in range(500):
        for gap in (1, 2, 3):
            if p + gap < 500:
                exp.append((order[p], order[p + gap], gap))
    exp.sort()
    assert list(map(tuple, out.to_numpy().tolist())) == exp


def test_cdc_chunks_shift_resilience(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import cdc_chunks

    rng = np.random.RandomState(17)
    body = "".join(rng.choice(list("abcdefgh "), 600))
    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": [body,
                 "PREFIX-INSERTED " + body,   # shifted copy
                 "totally different content " * 20]})
    out = cdc_chunks(rd.from_pandas(docs).repartition(3)).to_pandas()
    # chunks partition each doc's byte range exactly
    for did, g in out.groupby("doc_id"):
        g = g.sort_values("chunk_idx")
        n = len(docs.loc[docs.doc_id == did, "text"].iloc[0]
                .encode("utf-8"))
        assert g["start"].iloc[0] == 0
        assert (g["start"] + g["length"]).iloc[-1] == n
        assert (g["start"].to_numpy()[1:]
                == (g["start"] + g["length"]).to_numpy()[:-1]).all()
    # content-defined boundaries: most of the shifted copy's chunks are
    # detected as duplicates of doc 0's chunks despite the offset
    d1 = out[out.doc_id == 1]
    dup_bytes = d1.loc[d1.is_dup, "length"].sum()
    assert dup_bytes > 0.6 * len(body)
    # doc 0 (first occurrence) has no dups against itself unless content
    # repeats; the unrelated doc contributes its own repetitions only
    assert not out[(out.doc_id == 0) & out.is_dup &
                   (out.length > 32)].shape[0]


def test_containment_pairs_short_doc_quoted_in_long(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import containment_pairs

    quote = "the quick brown fox jumps over the lazy dog tonight"
    long_doc = ("completely different opening words here now " + quote
                + " and then a very long unrelated tail keeps going "
                + "with many more words that never repeat the quote "
                + "sequence again at all in any form whatsoever")
    docs = pd.DataFrame({"doc_id": [1, 2, 3],
                         "text": [quote, long_doc,
                                  "nothing in common with either one "
                                  "of those two documents at all here"]})
    out = (containment_pairs(rd.from_pandas(docs), n=5, tau=0.9)
           .to_pandas())
    # all 6 of doc 1's 5-grams appear in doc 2 -> c_a = 1.0; the pair
    # survives tau=0.9 even though Jaccard is far below it
    assert len(out) == 1
    row = out.iloc[0]
    assert (row.id_a, row.id_b) == (1, 2)
    assert row.n_a == 6 and row.inter == 6
    assert abs(row.c_a - 1.0) < 1e-12
    assert row.c_b < 0.5


def test_containment_pairs_bucket_cap_counts(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import containment_pairs
    from text_to_rdf_ray.state import counters

    # one shared 5-gram across 5 docs -> bucket of 5 > cap 3
    shared = "alpha beta gamma delta epsilon"
    docs = pd.DataFrame({
        "doc_id": range(1, 6),
        "text": [f"unique{i} prefix{i} words{i} here{i} now{i} "
                 + shared for i in range(1, 6)]})
    counters.snapshot(reset=True)
    out = (containment_pairs(rd.from_pandas(docs), n=5, tau=0.1,
                             max_bucket=3).to_pandas())
    snap = counters.snapshot()
    assert snap.get("containment_skipped_buckets", 0) >= 1
    assert snap.get("containment_skipped_rows", 0) >= 4
    # the capped gram produced no pairs
    assert out.empty or (out.inter < 5).all()


def test_mmr_rerank_matches_reference_greedy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.retrieval import _r6, mmr_rerank

    rng = np.random.RandomState(11)
    vecs = rng.randn(30, 8).astype(np.float32)
    emb = pd.DataFrame({"vec_id": range(30),
                        "embedding": [v.tolist() for v in vecs]})
    out = mmr_rerank(rd.from_pandas(emb), query_vec_id=0,
                     n_candidates=12, k=4, lam=0.7, mu=0.3)

    # reference greedy in plain numpy over the same contract
    q = vecs[0].astype(np.float64)

    def cos(a, b):
        return _r6(float(a @ b / (np.sqrt(a @ a) * np.sqrt(b @ b))))

    rel = {i: cos(vecs[i].astype(np.float64), q) for i in range(1, 30)}
    cand = sorted(rel, key=lambda i: (-rel[i], i))[:12]
    sel, picks = [], []
    for _ in range(4):
        best = None
        for c in cand:
            if c in sel:
                continue
            pen = max(cos(vecs[c].astype(np.float64),
                          vecs[s].astype(np.float64)) for s in sel) \
                if sel else 0.0
            sc = _r6(0.7 * rel[c] - 0.3 * pen) if sel \
                else _r6(0.7 * rel[c])
            if best is None or (-sc, c) < best[0]:
                best = ((-sc, c), c)
        sel.append(best[1])
        picks.append(best[1])
    assert out.vec_id.tolist() == picks


def test_mmr_diversifies_near_duplicates(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.retrieval import mmr_rerank

    # doc1/doc2 nearly identical and most relevant; doc3 moderately
    # relevant but orthogonal to them — with a strong diversity weight
    # MMR puts doc3 second, plain top-k would not
    emb = pd.DataFrame({
        "vec_id": [0, 1, 2, 3],
        "embedding": [[1.0, 1.0, 0.0], [1.0, 0.99, 0.0],
                      [0.99, 1.0, 0.0], [0.0, 1.0, 1.0]]})
    out = mmr_rerank(rd.from_pandas(emb), query_vec_id=0,
                     n_candidates=3, k=2, lam=0.3, mu=0.7)
    assert out.vec_id.tolist()[0] in (1, 2)
    assert out.vec_id.tolist()[1] == 3


def test_blocking_quality_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import (blocking_quality,
                                              sorted_neighborhood_pairs)

    # names: 'aa' x3, 'bb' x2, 'zz' x1 -> gold = C(3,2)+C(2,2) = 4
    base = pd.DataFrame({"doc_id": [1, 2, 3, 4, 5, 6],
                         "text": ["aa", "aa", "aa", "bb", "bb", "zz"]})
    ds = rd.from_pandas(base)
    pairs = sorted_neighborhood_pairs(ds, key_col="text",
                                      id_col="doc_id", window=3)
    out = blocking_quality(pairs, ds, id_col="doc_id", key_col="text")
    row = out.iloc[0]
    # window-3 over sort aa,aa,aa,bb,bb,zz: 5+4 = 9 candidates,
    # matched = (1,2),(2,3),(1,3),(4,5) = 4 -> PC = 1.0
    assert row.n_gold == 4
    assert row.n_candidates == 9
    assert row.n_matched == 4
    assert abs(row.pairs_completeness - 1.0) < 1e-12
    # RR = 1 - 9/15
    assert abs(row.reduction_ratio - (1 - 9 / 15)) < 1e-12


def test_containment_pairs_matches_bruteforce_random(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import _terms, _word_ngrams
    from text_to_rdf_ray.stages.dedup import containment_pairs

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(12)]
    docs = pd.DataFrame({
        "doc_id": range(14),
        "text": [" ".join(rng.choice(vocab, size=rng.randint(6, 18)))
                 for _ in range(14)]})
    out = (containment_pairs(rd.from_pandas(docs), n=3, tau=0.4)
           .to_pandas())
    got = {(int(r.id_a), int(r.id_b)): (int(r.inter), int(r.n_a),
                                        int(r.n_b))
           for r in out.itertuples()}

    grams = {int(d): set(_word_ngrams(_terms(t), 3))
             for d, t in zip(docs.doc_id, docs.text)}
    want = {}
    for a in grams:
        for b in grams:
            if a >= b or not grams[a] or not grams[b]:
                continue
            inter = len(grams[a] & grams[b])
            if inter and max(inter / len(grams[a]),
                             inter / len(grams[b])) >= 0.4:
                want[(a, b)] = (inter, len(grams[a]), len(grams[b]))
    assert got == want


def test_semdedup_first_wins(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import semdedup

    # ids 0/1/2 identical direction (scaled copies -> cosine 1.0);
    # id 3 orthogonal.  First-wins: only id 0 of the triplet survives.
    vecs = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.5, 0.0, 0.0],
            [0.0, 1.0, 0.0]]
    emb = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(4, dtype=np.int64),
        "embedding": [np.asarray(v, np.float32) for v in vecs]}))
    assign = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(4, dtype=np.int64),
        "cluster": np.zeros(4, dtype=np.int64)}))
    out = (semdedup(emb, assignments=assign, tau=0.95).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert list(out["keep"]) == [True, False, False, True]
    assert set(out["cluster"]) == {0}

    # internal k-means path (squared-L2, k=2): id 1 = [2,0,0] is far
    # from [1,0,0] in L2 and becomes its own cluster (a singleton
    # always keeps); id 2 = [0.5,0,0] stays with id 0 and still drops
    out2 = (semdedup(emb, k=2, iters=3, tau=0.95).to_pandas()
            .sort_values("vec_id").reset_index(drop=True))
    assert list(out2["keep"]) == [True, True, False, True]


def test_semdedup_non_transitive_vs_earlier_dropped(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import semdedup

    # id 1 is near id 0 (dropped); id 2 is near id 1 but NOT near id 0.
    # SemDeDup compares against ALL earlier members (kept or not), so
    # id 2 drops too — the non-transitive first-wins rule.
    a = np.array([1.0, 0.0], np.float64)

    def rot(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([c, s], np.float64)

    # cos(0.25) ~ 0.969 > 0.95; cos(0.5) ~ 0.878 < 0.95
    vecs = [a, rot(0.25), rot(0.5)]
    emb = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(3, dtype=np.int64),
        "embedding": [v.astype(np.float32) for v in vecs]}))
    assign = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(3, dtype=np.int64),
        "cluster": np.zeros(3, dtype=np.int64)}))
    out = (semdedup(emb, assignments=assign, tau=0.95).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert list(out["keep"]) == [True, False, False]


def test_fs_link_scores_manual_weights(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import fs_link_scores

    # one block of 3: (1,2) agree on both fields -> link;
    # (1,3)/(2,3) disagree on both -> nonlink; other block no pairs
    df = pd.DataFrame({
        "id": np.array([1, 2, 3, 9], np.int64),
        "blk": ["b1", "b1", "b1", "b2"],
        "f1": ["x", "x", "y", "z"],
        "f2": [10, 10, 20, 30]})
    out = (fs_link_scores(
        rd.from_pandas(df), id_col="id", block_col="blk",
        fields=["f1", "f2"],
        m={"f1": 0.9, "f2": 0.9}, u={"f1": 0.1, "f2": 0.1},
        lower=0.0, upper=2.0, num_partitions=4).to_pandas()
        .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    wa = float(np.log2(0.9 / 0.1))          # ~3.17 per agreeing field
    wd = float(np.log2((1 - 0.9) / (1 - 0.1)))
    assert len(out) == 3
    r12 = out[(out.id_a == 1) & (out.id_b == 2)].iloc[0]
    assert r12["w"] == 2 * wa and r12["decision"] == "link"
    r13 = out[(out.id_a == 1) & (out.id_b == 3)].iloc[0]
    assert r13["w"] == 2 * wd and r13["decision"] == "nonlink"
    with pytest.raises(ValueError):
        fs_link_scores(rd.from_pandas(df), id_col="id", block_col="blk",
                       fields=["f1"], m={"f1": 1.0}, u={"f1": 0.1})


def test_survivorship_merge_rules(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import survivorship_merge

    # cluster 1: newest (id 3) has null name -> latest non-null = id 2's;
    # type majority 'x' (2 vs 1); size tie 1-1 -> smaller wins
    df = pd.DataFrame({
        "c": np.array([1, 1, 1, 2], np.int64),
        "id": np.array([1, 2, 3, 9], np.int64),
        "name": ["old", "mid", None, "solo"],
        "type": ["x", "x", "y", "z"],
        "size": np.array([10, 20, 10, 5], np.int64)})
    out = (survivorship_merge(rd.from_pandas(df), cluster_col="c",
                              recency_col="id", latest_cols=["name"],
                              majority_cols=["type", "size"],
                              num_partitions=4).to_pandas()
           .sort_values("c").reset_index(drop=True))
    r1 = out[out["c"] == 1].iloc[0]
    assert r1["name"] == "mid"          # newest non-null
    assert r1["type"] == "x"            # majority
    assert int(r1["size"]) == 10        # 10 vs 20 tie at count 1? no:
    # sizes in cluster 1 are [10, 20, 10] -> 10 wins on count
    assert int(r1["n_members"]) == 3
    r2 = out[out["c"] == 2].iloc[0]
    assert (r2["name"], r2["type"], int(r2["size"])) == ("solo", "z", 5)
    with pytest.raises(ValueError):
        survivorship_merge(rd.from_pandas(df), cluster_col="c",
                           recency_col="id")


def test_media_exact_dedup_planted_copies(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from text_to_rdf_ray.stages.multimodal import (make_fake_media,
                                                   media_exact_dedup)

    media = make_fake_media(9)
    dup = pa.table({
        "media_id": pa.array([100, 101], pa.int64()),
        "payload": media.column("payload").take(pa.array([2, 5]))})
    base = pa.table({"media_id": media.column("media_id"),
                     "payload": media.column("payload")})
    out = (media_exact_dedup(rd.from_arrow(base).union(rd.from_arrow(dup)),
                             num_partitions=4).to_pandas()
           .set_index("media_id")["canonical_id"])
    assert int(out.loc[100]) == 2 and int(out.loc[101]) == 5
    # originals are their own canonical
    assert all(int(out.loc[i]) == i for i in range(9))


def test_reciprocal_best_match_manual(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import reciprocal_best_match

    # 1's best is 2 (0.9); 2's best is 1 (0.9)  -> mutual
    # 3's best is 4 (0.8); 4's best is 5 (0.85) -> not mutual
    # 5's best is 4 -> (4,5) mutual
    # 6-7 tie with 6-8 at 0.5: 6's best breaks to smaller id 7;
    # 7's best is 6 -> mutual; 8's best is 6 but 6 chose 7
    pairs = pa.table({
        "id_a": pa.array([1, 2, 3, 4, 6, 6], pa.int64()),
        "id_b": pa.array([2, 3, 4, 5, 7, 8], pa.int64()),
        "w": pa.array([0.9, 0.4, 0.8, 0.85, 0.5, 0.5], pa.float64()),
    })
    out = (reciprocal_best_match(rd.from_arrow(pairs).repartition(3))
           .to_pandas().sort_values(["id_a", "id_b"])
           .reset_index(drop=True))
    assert list(zip(out["id_a"], out["id_b"])) == [(1, 2), (4, 5), (6, 7)]
    assert list(out["score"]) == [0.9, 0.85, 0.5]


def test_pca_power_scores_matches_eigh(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import embedding_pca, pca_power_scores

    # anisotropic cloud with a dominant axis: power iteration must
    # align with the eigh top component (up to sign)
    rng = np.random.RandomState(3)
    d, n = 8, 300
    base = rng.randn(n, d)
    base[:, 2] *= 6.0  # dominant variance direction
    tbl = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in base]),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    out = (pca_power_scores(ds, iterations=30).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    _, comps, mean = embedding_pca(ds, k=1)
    ref = (base - mean) @ comps[0]
    got = out["pc1"].to_numpy()
    sign = 1.0 if np.dot(got, ref) >= 0 else -1.0
    assert np.abs(got - sign * ref).max() < 1e-4


def test_triplet_mining_manual(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from text_to_rdf_ray.stages.knn import triplet_mining

    # label 0: vecs 0,1,2 along x with slight tilts; label 1: vec 3
    # opposite-ish, vec 4 near x (the hard negative)
    vecs = [
        [1.0, 0.0], [0.9, 0.1], [0.0, 1.0],   # label 0
        [-1.0, 0.0], [0.95, 0.05],            # label 1
    ]
    tbl = pa.table({
        "vec_id": pa.array(range(5), pa.int64()),
        "embedding": pa.array([[float(x) for x in v] for v in vecs]),
        "label": pa.array([0, 0, 0, 1, 1], pa.int32()),
    })
    out = (triplet_mining(rd.from_arrow(tbl).repartition(2))
           .to_pandas().set_index("vec_id"))
    # anchor 0 (label 0): hardest positive = 2 (orthogonal);
    # hardest negative = 4 (cosine ~0.9986), not 3
    assert out.loc[0, "pos_id"] == 2
    assert out.loc[0, "neg_id"] == 4
    assert out.loc[0, "margin"] < 0  # negative closer than positive
    # anchor 3 (label 1): only positive is 4
    assert out.loc[3, "pos_id"] == 4
    assert len(out) == 5


def _pil_available() -> bool:
    try:
        from PIL import Image  # noqa: F401

        return True
    except ImportError:
        return False


@pytest.mark.skipif(not _pil_available(),
                    reason="PIL absent in this container — real decode "
                           "stays an honest NotImplementedError")
def test_media_real_decode_when_pil_present(ray_session):
    """Gated probe (VERDICT r4 #7): iff the environment grows PIL, the
    real decode/resize paths light up behind the same plumbing the
    fake mode tests exercise."""
    import io

    from PIL import Image

    from text_to_rdf_ray.stages.multimodal import (decode_features,
                                                   resize_images)

    def png(w, h, val):
        img = Image.new("L", (w, h), val)
        out = io.BytesIO()
        img.save(out, format="PNG")
        return out.getvalue()

    t = pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "media_type": pa.array(["image", "image"], pa.string()),
        "payload": pa.array([png(8, 8, 0), png(6, 4, 255)], pa.binary()),
        "width": pa.array([8, 6], pa.int32()),
        "height": pa.array([8, 4], pa.int32()),
        "duration_ms": pa.array([-1, -1], pa.int32()),
    })
    feats = (decode_features(rd.from_arrow(t), fake=False).to_pandas()
             .set_index("media_id"))
    assert list(feats.loc[1, "features"]) == [0.0] * 16
    assert list(feats.loc[2, "features"]) == [1.0] * 16

    rz = (resize_images(rd.from_arrow(t), 4, 4, fake=False).to_pandas()
          .set_index("media_id"))
    back = Image.open(io.BytesIO(rz.loc[1, "payload"]))
    assert back.size == (4, 4)
    assert (rz["width"] == 4).all() and (rz["height"] == 4).all()


def test_media_real_decode_raises_without_pil(ray_session):
    """When PIL is absent the real path must stay an honest, named
    NotImplementedError (never a fake silently standing in)."""
    if _pil_available():
        pytest.skip("PIL present — covered by the gated real-decode test")
    from text_to_rdf_ray.stages.multimodal import DecodeStub

    stub = DecodeStub(fake=False)
    with pytest.raises(NotImplementedError, match="PIL"):
        stub._decode_real(b"xx", "image")


def test_sorted_neighborhood_numeric_key_global_order(ray_session,
                                                      monkeypatch):
    """Review r5: blocks must be ordered NATIVELY — str() ordering put
    key 10 before key 9 and corrupted every global row number for
    numeric sort keys.  30 rows over 64 sort ranges: most blocks hold
    one row or none, so each pair's right end is in a later block."""
    import pandas as pd

    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import sorted_neighborhood_pairs

    # keys 1..30 with ids equal to keys; window 2 -> pairs are exactly
    # consecutive integers (9,10), (10,11), ... regardless of blocking
    df = pd.DataFrame({"k": np.arange(1, 31, dtype=np.int64),
                       "doc_id": np.arange(1, 31, dtype=np.int64)})
    monkeypatch.setattr(rd.DataContext.get_current(),
                        "target_min_block_size", 1)
    out = (sorted_neighborhood_pairs(
        rd.from_pandas(df.sample(frac=1.0, random_state=3)),
        key_col="k", id_col="doc_id", window=2)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    want = [(i, i + 1) for i in range(1, 30)]
    assert list(zip(out.id_a, out.id_b)) == want


def test_dedup_pair_generators_empty_corpus(ray_session):
    """Review r5: empty upstream slices produce empty pair sets, not
    crashes — exact_dedup's empty contract extended to the LSH family
    and embedding_neardup_pairs."""
    import pandas as pd

    import ray.data as rd

    from text_to_rdf_ray.stages.dedup import (embedding_neardup_pairs,
                                              minhash_lsh_pairs)

    empty_docs = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.Series(dtype="int64"),
        "text": pd.Series(dtype="object")}))
    assert minhash_lsh_pairs(empty_docs).count() == 0

    empty_vecs = rd.from_pandas(pd.DataFrame({
        "vec_id": pd.Series(dtype="int64"),
        "embedding": pd.Series(dtype="object")}))
    assert embedding_neardup_pairs(empty_vecs).count() == 0


def test_canonicalize_head_entity_beyond_max_bucket_unifies(ray_session):
    """Review r5: >max_bucket identical-norm spellings saturate every
    band bucket (identical signatures), so the LSH loop skips them all
    — the dedicated same-norm pass must still unify them, on BOTH
    paths, with the skip still counted."""
    import pandas as pd

    import ray.data as rd

    from text_to_rdf_ray.state import counters
    from text_to_rdf_ray.stages.canonicalize import (canonicalize_local,
                                                     canonicalize_surfaces)

    # 70 case-variant spellings of one name (max_bucket default 64),
    # plus an unrelated surface that must stay its own cluster
    base = "united states of america"
    variants = []
    for i in range(70):
        chars = list(base)
        for j, c in enumerate(chars):
            if (i >> (j % 7)) & 1 and c.isalpha():
                chars[j] = c.upper()
        variants.append("".join(chars) + "")
    variants = sorted(set(variants))[:70]
    assert len(variants) == 70
    surfaces = variants + ["zzz unrelated zzz"]

    local = canonicalize_local(surfaces)
    canon_of = {s: local.get(s, s) for s in surfaces}
    assert len({canon_of[v] for v in variants}) == 1
    assert canon_of["zzz unrelated zzz"] == "zzz unrelated zzz"

    counters.snapshot(reset=True)
    dist = (canonicalize_surfaces(
        rd.from_pandas(pd.DataFrame({"surface": surfaces})))
        .to_pandas())
    snap = counters.snapshot(reset=True)
    dmap = dict(zip(dist["surface"], dist["canonical"]))
    dcanon = {s: dmap.get(s, s) for s in surfaces}
    assert dcanon == canon_of  # parity incl. the head group
    # the oversized buckets were still skipped-and-counted
    assert snap.get("canon_skipped_rows", 0) > 0
