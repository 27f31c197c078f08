"""Tests for the training-data curation operators (stages/curation.py):
deterministic stratified sampling, prefix-sum sequence packing, TF-IDF.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from text_to_rdf_ray.stages.curation import (
    pack_sequences,
    sample_hash,
    stratified_sample,
    tfidf_terms,
    tfidf_top_terms,
)


def test_stratified_sample_matches_local_hash_rank(ray_session):
    ids = np.arange(1, 201, dtype=np.int64)
    groups = ["a" if i % 2 == 0 else "b" for i in ids]
    ds = rd.from_arrow(pa.table({"doc_id": ids, "grp": groups})).repartition(8)
    out = stratified_sample(ds, key_col="grp", id_col="doc_id",
                            n_per_group=7).to_pandas()
    assert set(out.columns) == {"doc_id", "grp", "sample_rank"}
    local = pd.DataFrame({"doc_id": ids, "grp": groups,
                          "h": sample_hash(ids)})
    for g, sub in local.groupby("grp"):
        want = sub.sort_values("h").head(7)["doc_id"].tolist()
        got = (out[out["grp"] == g].sort_values("sample_rank")["doc_id"]
               .tolist())
        assert got == want, g
        assert sorted(out[out["grp"] == g]["sample_rank"]) == list(range(1, 8))


def test_stratified_sample_deterministic_across_partitionings(ray_session):
    ids = np.arange(0, 300, dtype=np.int64)
    tbl = pa.table({"doc_id": ids, "grp": ["g"] * 300})
    a = stratified_sample(rd.from_arrow(tbl).repartition(3),
                          key_col="grp", id_col="doc_id",
                          n_per_group=11).to_pandas()
    b = stratified_sample(rd.from_arrow(tbl).repartition(17),
                          key_col="grp", id_col="doc_id",
                          n_per_group=11).to_pandas()
    key = ["grp", "sample_rank", "doc_id"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True))


def test_pack_sequences_matches_numpy_prefix_sum(ray_session):
    rng = np.random.RandomState(7)
    ids = np.arange(1000, dtype=np.int64)
    toks = rng.randint(1, 500, size=1000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "n_tok": toks})).repartition(13)
    out = pack_sequences(ds, id_col="doc_id", token_col="n_tok",
                         budget=1000).to_pandas().sort_values("doc_id")
    before = np.concatenate([[0], np.cumsum(toks)[:-1]])
    want = before // 1000
    assert (out["seq_id"].to_numpy() == want).all()
    assert (out["n_tok"].to_numpy() == toks).all()
    # sequence ids are contiguous from 0 (every budget window with tokens
    # is represented, since no document exceeds the budget here)
    seqs = np.unique(out["seq_id"].to_numpy())
    assert seqs[0] == 0 and (np.diff(seqs) >= 1).all()


def test_pack_sequences_straddle_starts_in_first_window(ray_session):
    # doc of 1500 tokens against budget 1000 starting at offset 500:
    # its seq_id is the window its FIRST token lands in (0)
    ds = rd.from_items([
        {"doc_id": 0, "n_tok": 500},
        {"doc_id": 1, "n_tok": 1500},
        {"doc_id": 2, "n_tok": 10},
    ])
    out = pack_sequences(ds, id_col="doc_id", token_col="n_tok",
                         budget=1000).to_pandas().sort_values("doc_id")
    assert out["seq_id"].tolist() == [0, 0, 2]


def test_tfidf_counts_and_topk(ray_session):
    docs = [
        {"doc_id": 0, "text": "apple banana apple"},
        {"doc_id": 1, "text": "banana cherry"},
        {"doc_id": 2, "text": "cherry cherry durian"},
    ]
    ds = rd.from_items(docs)
    t = tfidf_terms(ds).to_pandas()
    t = t.set_index(["doc_id", "term"])
    assert t.loc[(0, "apple"), "tf"] == 2
    assert t.loc[(0, "apple"), "df"] == 1
    assert t.loc[(1, "banana"), "df"] == 2
    n = 3
    want = 2 * (math.log((n + 1) / (1 + 1)) + 1)
    assert abs(t.loc[(0, "apple"), "tfidf"] - want) < 1e-12

    # doc 1: banana and cherry tie (tf=1, df=2) -> term asc picks banana
    top = tfidf_top_terms(ds, k=1).to_pandas().sort_values("doc_id")
    assert top["term"].tolist() == ["apple", "banana", "cherry"]
    assert (top["rank"] == 1).all()


def test_repetition_stats_known_values(ray_session):
    from text_to_rdf_ray.stages.curation import repetition_stats

    docs = [
        # 6 words: "a b a b a b" -> top word a:3/6; bigrams (5): "a b" x3,
        # "b a" x2 -> 3/5; 5-grams (2): "a b a b a","b a b a b" distinct -> 0
        {"doc_id": 0, "text": "a b a b a b"},
        # pure repetition: "x x x x x x" -> topw 1.0, topb 5/5, 5-grams
        # total 2 distinct 1 -> 0.5
        {"doc_id": 1, "text": "x x x x x x"},
        {"doc_id": 2, "text": ""},           # empty -> all zeros
        {"doc_id": 3, "text": "one"},        # too short for bigrams/5-grams
    ]
    out = (repetition_stats(rd.from_items(docs)).to_pandas()
           .set_index("doc_id").sort_index())
    assert out.loc[0, "n_words"] == 6
    assert abs(out.loc[0, "top_word_frac"] - 0.5) < 1e-12
    assert abs(out.loc[0, "top_bigram_frac"] - 0.6) < 1e-12
    assert out.loc[0, "dup_5gram_frac"] == 0.0
    assert out.loc[1, "top_word_frac"] == 1.0
    assert out.loc[1, "top_bigram_frac"] == 1.0
    assert abs(out.loc[1, "dup_5gram_frac"] - 0.5) < 1e-12
    assert (out.loc[2] == 0).all()
    assert out.loc[3, "n_words"] == 1
    assert out.loc[3, "top_word_frac"] == 1.0
    assert out.loc[3, "top_bigram_frac"] == 0.0


def test_passage_dedup_first_occurrence_wins(ray_session):
    from text_to_rdf_ray.stages.curation import passage_dedup

    p1 = " ".join(["w%d" % i for i in range(32)])
    p2 = " ".join(["v%d" % i for i in range(32)])
    docs = [
        {"doc_id": 10, "text": p1 + " " + p2},   # passages 0,1 original
        {"doc_id": 11, "text": p2 + " " + p1},   # both dups (later doc)
        {"doc_id": 12, "text": p1},              # dup of (10, 0)
        {"doc_id": 13, "text": "tail words only"},  # unique short passage
    ]
    out = (passage_dedup(rd.from_items(docs).repartition(3), window=32)
           .to_pandas())
    got = {(r.doc_id, r.passage_idx): (r.keep, r.n_words)
           for r in out.itertuples()}
    assert got[(10, 0)] == (True, 32)
    assert got[(10, 1)] == (True, 32)
    assert got[(11, 0)] == (False, 32)
    assert got[(11, 1)] == (False, 32)
    assert got[(12, 0)] == (False, 32)
    assert got[(13, 0)] == (True, 3)
    assert len(got) == 6


def test_decontaminate_counts_distinct_bench_grams(ray_session):
    from text_to_rdf_ray.stages.curation import decontaminate

    bench_text = "b1 b2 b3 b4 b5 b6 b7 b8 b9"   # 8-grams: [b1..b8], [b2..b9]
    docs = [
        {"doc_id": 0, "text": bench_text},                      # both grams
        {"doc_id": 1, "text": "x " + bench_text},               # both grams
        {"doc_id": 2, "text": "b1 b2 b3 b4 b5 b6 b7 b8 zz"},    # one gram
        {"doc_id": 3, "text": "clean text with no overlap at all here ok"},
        {"doc_id": 4, "text": "short"},
    ]
    ds = rd.from_items(docs)
    bench = rd.from_items([{"doc_id": 100, "text": bench_text}])
    out = (decontaminate(ds, bench, n=8).to_pandas()
           .set_index("doc_id").sort_index())
    assert out["contam_grams"].tolist() == [2, 2, 1, 0, 0]
    assert out["contaminated"].tolist() == [True, True, True, False, False]


def test_pack_sequences_rejects_duplicate_ids(ray_session, monkeypatch):
    # ADVICE round-3: a duplicate id would silently shift seq_ids.  Equal
    # ids always fall in one range of the sort, so the per-range pass sees
    # them as neighbours and raises, at one range and at many, wherever
    # the input blocks cut them.
    import pytest

    from text_to_rdf_ray.stages.curation import pack_sequences

    ids = list(range(40)) + [7, 23, 31]
    ds = rd.from_pandas([pd.DataFrame({"doc_id": ids[i::4],
                                       "n_tokens": [5] * len(ids[i::4])})
                         for i in range(4)])
    ctx = rd.DataContext.get_current()
    for part_bytes in (ctx.target_min_block_size, 1):
        monkeypatch.setattr(ctx, "target_min_block_size", part_bytes)
        with pytest.raises(ValueError, match="unique"):
            pack_sequences(ds, id_col="doc_id", token_col="n_tokens",
                           budget=16)


def test_passage_dedup_rejects_oversized_doc_id(ray_session):
    # ADVICE round-3: doc_id >= 2^43 overflows the packed int64 first-wins
    # key, flipping which occurrence is "first" — rejected loudly.
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import passage_dedup

    ds = rd.from_items([{"doc_id": 1 << 43, "text": "a b c"}])
    # Ray 2.49 wraps task-side user exceptions in RayTaskError(UserCodeException)
    with pytest.raises(Exception, match="overflow"):
        passage_dedup(ds).to_pandas()


def _hh_corpus() -> tuple[rd.Dataset, pd.Series]:
    """Skewed synthetic corpus: 5 hot terms (300x), 45 warm (40x),
    550 cold (2x) — vocabulary far above the test capacity so the
    Misra-Gries compression genuinely fires."""
    rows = []
    for i in range(600):
        reps = 300 if i < 5 else (40 if i < 50 else 2)
        rows.append({"text": " ".join([f"t{i:04d}"] * reps)})
    exact = pd.Series({f"t{i:04d}": (300 if i < 5 else 40 if i < 50 else 2)
                       for i in range(600)})
    return rd.from_items(rows).repartition(8), exact


def test_heavy_hitters_exact_via_mg_sketch(ray_session):
    from text_to_rdf_ray.stages.curation import heavy_hitters

    ds, exact = _hh_corpus()
    n = int(exact.sum())
    phi = 0.05  # thresh = ceil(0.05 * 4400) = 220: only the 5 hot terms
    out = heavy_hitters(ds, phi=phi, capacity=32).to_pandas()
    thresh = math.ceil(phi * n)
    want = exact[exact >= thresh].sort_values(ascending=False)
    assert out["term"].tolist() == sorted(want.index)
    assert out["cnt"].tolist() == [300] * 5  # EXACT counts, not MG lower bounds
    assert out["rank"].tolist() == [1, 2, 3, 4, 5]


def test_heavy_hitters_fallback_matches_sketch_path(ray_session):
    from text_to_rdf_ray.state import counters
    from text_to_rdf_ray.stages.curation import heavy_hitters

    ds, _ = _hh_corpus()
    a = heavy_hitters(ds, phi=0.05, capacity=32).to_pandas()
    counters.snapshot(reset=True)
    # capacity=1 makes the summaries swallow whole hitters (thresh <= U):
    # the operator must detect it, count it, and recount exactly
    b = heavy_hitters(ds, phi=0.05, capacity=1).to_pandas()
    assert counters.snapshot().get("heavyhit_fallback") == 1
    pd.testing.assert_frame_equal(a, b)


def test_heavy_hitters_threshold_boundary(ray_session):
    from text_to_rdf_ray.stages.curation import heavy_hitters

    # 10 terms x 10 occurrences each, N = 100; phi = 0.1 -> thresh = 10:
    # EVERY term sits exactly on the boundary and must be included,
    # ranked by term asc at equal counts
    rows = [{"text": " ".join([f"w{i}"] * 10)} for i in range(10)]
    out = heavy_hitters(rd.from_items(rows).repartition(4),
                        phi=0.1, capacity=4096).to_pandas()
    assert out["term"].tolist() == [f"w{i}" for i in range(10)]
    assert out["cnt"].tolist() == [10] * 10
    assert out["rank"].tolist() == list(range(1, 11))


def test_add_quality_keep_cols_and_source_cap(ray_session):
    from text_to_rdf_ray.stages.analytics import topk_per_group
    from text_to_rdf_ray.stages.textstats_stage import add_quality
    from text_to_rdf_ray.kernels.textstats import quality_score

    rows = [
        {"doc_id": i, "source": f"s{i % 3}",
         "text": " ".join(["the quick brown fox"] * (1 + i % 7))}
        for i in range(60)
    ]
    ds = rd.from_items(rows).repartition(6)
    scored = add_quality(ds, keep_cols=("source",)).select_columns(
        ["source", "doc_id", "quality"])
    out = topk_per_group(scored, key_col="source", sort_col="quality",
                         tiebreak_col="doc_id", k=4).to_pandas()
    local = pd.DataFrame([
        {"doc_id": r["doc_id"], "source": r["source"],
         "quality": quality_score(r["text"])["quality"]} for r in rows])
    for s, sub in local.groupby("source"):
        want = (sub.sort_values(["quality", "doc_id"],
                                ascending=[False, True]).head(4)
                ["doc_id"].tolist())
        got = (out[out["source"] == s].sort_values("rank")["doc_id"].tolist())
        assert got == want, s


def test_lm_perplexity_matches_local_model(ray_session):
    from text_to_rdf_ray.stages.curation import _terms, lm_perplexity

    ref_rows = [{"doc_id": i, "text": "the cat sat on the mat"} for i in range(3)]
    corpus_rows = [
        {"doc_id": 10, "text": "the cat sat on the mat"},   # in-distribution
        {"doc_id": 11, "text": "quantum flux capacitor"},   # all-OOV
        {"doc_id": 12, "text": "single"},                   # < 2 tokens
        {"doc_id": 13, "text": ""},                         # empty
    ]
    out = (lm_perplexity(rd.from_items(corpus_rows), rd.from_items(ref_rows))
           .to_pandas().set_index("doc_id").sort_index())

    uni, bi = {}, {}
    for r in ref_rows:
        toks = _terms(r["text"])
        for t in toks:
            uni[t] = uni.get(t, 0) + 1
        for a, b in zip(toks, toks[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
    v = len(uni) + 1
    for r in corpus_rows:
        toks = _terms(r["text"])
        if len(toks) < 2:
            want_nll, want_ppl = 0.0, 1.0
        else:
            s = sum(math.log((bi.get((a, b), 0) + 1.0) / (uni.get(a, 0) + v))
                    for a, b in zip(toks, toks[1:]))
            want_nll = -s / (len(toks) - 1)
            want_ppl = math.exp(want_nll)
        got = out.loc[r["doc_id"]]
        assert got["n_tokens"] == len(toks)
        assert got["avg_nll"] == want_nll and got["ppl"] == want_ppl, r
    # the in-distribution doc must score better than the OOV doc
    assert out.loc[10, "ppl"] < out.loc[11, "ppl"]


def test_heavy_hitters_empty_corpus(ray_session):
    from text_to_rdf_ray.stages.curation import heavy_hitters

    out = heavy_hitters(rd.from_items([{"text": ""}, {"text": "   "}]),
                        phi=0.1)
    # typed empty result (Ray's to_pandas drops columns at zero rows, so
    # assert on the Dataset schema)
    assert out.schema().names == ["term", "cnt", "rank"]
    assert out.count() == 0


def test_lm_perplexity_tokenless_reference(ray_session):
    """An empty LM (no reference tokens) scores every bigram ln(1/V)=0
    at V=1 -> nll 0 / ppl 1, instead of crashing on the column-less
    zero-row count table."""
    from text_to_rdf_ray.stages.curation import lm_perplexity

    docs = rd.from_items([{"doc_id": 1, "text": "a b c"}])
    ref = rd.from_items([{"doc_id": 9, "text": ""}])
    out = lm_perplexity(docs, ref).to_pandas()
    assert out["ppl"].tolist() == [1.0] and out["n_tokens"].tolist() == [3]


def _brute_pmi(texts, min_df, min_pair):
    import itertools

    docs = [set(t.lower().split()) for t in texts]
    df = {}
    for d in docs:
        for t in d:
            df[t] = df.get(t, 0) + 1
    vocab = {t: c for t, c in df.items() if c >= min_df}
    pc = {}
    for d in docs:
        for a, b in itertools.combinations(sorted(t for t in d if t in vocab), 2):
            pc[(a, b)] = pc.get((a, b), 0) + 1
    n = len(docs)
    out = {}
    for (a, b), c in pc.items():
        if c >= min_pair:
            out[(a, b)] = (c, round(math.log(c * n / (vocab[a] * vocab[b])), 6))
    return out


def test_pmi_pairs_matches_bruteforce(ray_session):
    from text_to_rdf_ray.stages.curation import pmi_pairs

    rng = np.random.RandomState(13)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "rare1", "rare2"]
    texts = [" ".join(rng.choice(words, rng.randint(2, 7)))
             for _ in range(120)]
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)]).repartition(5)
    out = pmi_pairs(ds, min_df=10, min_pair=4, num_partitions=4).to_pandas()
    got = {(r.term_a, r.term_b): (r.n_ab, r.pmi) for r in out.itertuples()}
    want = _brute_pmi(texts, 10, 4)
    assert got == want
    assert len(got) > 5  # the fixture actually exercises pairs


def test_pmi_pairs_empty_and_tiny_vocab(ray_session):
    from text_to_rdf_ray.stages.curation import pmi_pairs

    ds = rd.from_items([{"doc_id": 1, "text": "x"}, {"doc_id": 2, "text": ""}])
    out = pmi_pairs(ds, min_df=1, min_pair=1).to_pandas()
    assert len(out) == 0  # vocab < 2 terms -> typed empty result


def test_pmi_pairs_max_vocab_raises(ray_session):
    import pytest

    from text_to_rdf_ray.stages.curation import pmi_pairs

    ds = rd.from_items([{"doc_id": i, "text": f"w{i} common"} for i in range(20)])
    with pytest.raises(ValueError, match="max_vocab"):
        pmi_pairs(ds, min_df=1, min_pair=1, max_vocab=3)


def test_dup_ngram_fraction_vs_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import _terms, _word_ngrams, dup_ngram_fraction

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "the cat sat on the mat and the cat sat on the mat",  # self-repeat
            "the cat sat on the mat quite happily today it seems",  # shares grams with 0
            "completely unique words alpha beta gamma delta epsilon zeta",
            "short text",                                           # < n words
            "completely unique words alpha beta gamma delta epsilon zeta",  # dup of 2
            "one more document with no overlap whatsoever here now",
        ],
    })
    out = (dup_ngram_fraction(rd.from_pandas(docs).repartition(3), n=5)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # brute force: global n-gram counts over occurrences
    from collections import Counter
    allc = Counter()
    per_doc = []
    for t in docs["text"]:
        gs = _word_ngrams(_terms(t), 5)
        per_doc.append(gs)
        allc.update(gs)
    for i, gs in enumerate(per_doc):
        nd = sum(1 for g in gs if allc[g] >= 2)
        row = out.iloc[i]
        assert row["n_grams"] == len(gs), i
        assert row["n_dup"] == nd, i
        want = round(nd / len(gs), 6) if gs else 0.0
        assert abs(row["dup_frac"] - want) < 1e-9, i
    assert out.loc[3, "n_grams"] == 0 and out.loc[3, "dup_frac"] == 0.0
    assert out.loc[0, "n_dup"] > 0 and out.loc[2, "dup_frac"] == 1.0


def test_hash_split_deterministic_and_stable(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import hash_split, split_thresholds

    df = pd.DataFrame({"doc_id": np.arange(10_000, dtype=np.int64)})
    out = (hash_split(rd.from_pandas(df).repartition(5), id_col="doc_id")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # fractions roughly honored
    frac = out["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.9) < 0.02
    assert abs(frac["val"] - 0.05) < 0.01
    assert abs(frac["test"] - 0.05) < 0.01
    # membership is a pure function of the id: a subset corpus gets the
    # SAME labels (stability under corpus growth)
    sub = (hash_split(rd.from_pandas(df.head(1000)), id_col="doc_id")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out.head(1000), sub)
    # distinct salts give (near-)independent splits
    salted = (hash_split(rd.from_pandas(df), id_col="doc_id", salt=7)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    agree = (salted["split"] == out["split"]).mean()
    assert 0.7 < agree < 0.95  # ~0.815 expected for 0.9/0.05/0.05
    # threshold validation
    import pytest as _pt
    with _pt.raises(ValueError, match="sum"):
        split_thresholds([("a", 0.5), ("b", 0.2)])


def test_mix_sources_monotone_and_exact(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import splitmix64
    from text_to_rdf_ray.stages.curation import mix_sources

    n = 6000
    rng = np.random.RandomState(0)
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "source": rng.choice(["a", "b", "c"], size=n),
    })
    ds = rd.from_pandas(df).repartition(4)
    w1 = {"a": 0.25, "b": 0.0}
    out1 = mix_sources(ds, weights=w1, id_col="doc_id").to_pandas()
    # exact membership replay
    h = splitmix64(df["doc_id"].to_numpy())
    keep = np.ones(n, dtype=bool)
    keep[df["source"] == "a"] = h[df["source"] == "a"] < np.uint64(int(0.25 * 2.0**64))
    keep[df["source"] == "b"] = False
    assert sorted(out1["doc_id"]) == df.loc[keep, "doc_id"].tolist()
    # c untouched (default weight 1.0)
    assert (out1["source"] == "c").sum() == (df["source"] == "c").sum()
    # monotone: raising a's weight only ADDS docs
    out2 = mix_sources(ds, weights={"a": 0.75, "b": 0.0}, id_col="doc_id").to_pandas()
    s1 = set(out1.loc[out1["source"] == "a", "doc_id"])
    s2 = set(out2.loc[out2["source"] == "a", "doc_id"])
    assert s1 < s2


def test_weighted_sample_properties(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import splitmix64
    from text_to_rdf_ray.stages.curation import weighted_sample

    n = 20_000
    rng = np.random.RandomState(2)
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        # two strata: weight 10 vs weight 1 -> heavy stratum dominates
        "w": np.where(np.arange(n) < n // 2, 10.0, 1.0),
    })
    out = (weighted_sample(rd.from_pandas(df).repartition(6),
                           id_col="doc_id", weight_col="w", k=500)
           .to_pandas())
    assert len(out) == 500
    assert out["sample_rank"].sort_values().tolist() == list(range(1, 501))
    heavy = (out["doc_id"] < n // 2).mean()
    assert heavy > 0.75  # E ~ 10/11 = 0.909
    # exact replay: top-500 by ln(u)/w
    h = splitmix64(df["doc_id"].to_numpy())
    u = (h.astype(np.float64) + 1.0) / 2.0**64
    r = np.log(u) / df["w"].to_numpy()
    want = set(np.lexsort((df["doc_id"].to_numpy(), -r))[:500])
    assert set(out["doc_id"]) == want
    # zero/negative weights never sampled
    df2 = df.copy()
    df2.loc[df2["doc_id"] < 100, "w"] = 0.0
    out2 = weighted_sample(rd.from_pandas(df2), id_col="doc_id",
                           weight_col="w", k=500).to_pandas()
    assert (out2["doc_id"] >= 100).all()


def test_shuffle_rows_permutation_and_salt(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import shuffle_rows

    n = 10_000
    ids = np.arange(n, dtype=np.int64) * 7 + 3  # sparse, unique
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids})).repartition(7)
    out = (shuffle_rows(ds, id_col="doc_id")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # dense permutation 0..n-1
    assert sorted(out["shuffle_pos"]) == list(range(n))
    # not the identity order (it is a shuffle)
    assert (out["shuffle_pos"].to_numpy()
            != np.arange(n)).mean() > 0.99
    # parallelism-invariant: 1 block == 7 blocks
    out1 = (shuffle_rows(rd.from_pandas(pd.DataFrame({"doc_id": ids})),
                         id_col="doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (out["shuffle_pos"].to_numpy()
            == out1["shuffle_pos"].to_numpy()).all()
    # a different salt is a different permutation
    out2 = (shuffle_rows(ds, id_col="doc_id", salt=1)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (out["shuffle_pos"].to_numpy()
            != out2["shuffle_pos"].to_numpy()).mean() > 0.99
    # duplicate ids: equal hashes fall in one range of the sort, so each
    # ROW still gets its own position — a dense permutation
    dup = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.r_[ids[:50], ids[:50]]})).repartition(4)
    outd = shuffle_rows(dup, id_col="doc_id").to_pandas()
    assert sorted(outd["shuffle_pos"]) == list(range(100))


def _line_dedup_brute(docs: dict[int, str], min_df: int) -> pd.DataFrame:
    from collections import Counter

    df = Counter()
    for t in docs.values():
        df.update(set(t.split("\n")))
    rows = []
    for did in sorted(docs):
        lines = docs[did].split("\n")
        kept = [ln for ln in lines if df[ln] < min_df]
        rows.append({"doc_id": did, "n_lines": len(lines),
                     "n_removed": len(lines) - len(kept),
                     "text_clean": "\n".join(kept)})
    return pd.DataFrame(rows)


def test_line_dedup_matches_brute_both_tiers(ray_session):
    from text_to_rdf_ray.stages.curation import line_dedup

    docs = {}
    for i in range(60):
        body = f"unique body line {i} alpha\nsecond unique {i * 7}"
        parts = []
        if i % 2 == 0:
            parts.append("shared cookie banner")
        parts.append(body)
        if i % 5 == 0:
            parts.append("rare promo line")  # df=12
        parts.append("global footer")
        docs[i] = "\n".join(parts)
    expect = _line_dedup_brute(docs, min_df=12)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    })).repartition(6)
    for tier_kw in ({"max_broadcast_pairs": 5_000_000},
                    {"max_broadcast_pairs": 0}):  # force the join tier
        out = (line_dedup(ds, min_df=12, **tier_kw).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            out[["doc_id", "n_lines", "n_removed", "text_clean"]],
            expect, check_dtype=False)
    # boundary: df == min_df is removed ("rare promo line" df=12)
    assert all("rare promo line" not in t for t in out["text_clean"])
    # lines below threshold survive
    assert any("unique body line" in t for t in out["text_clean"])


def test_line_dedup_all_boilerplate_and_empty(ray_session):
    from text_to_rdf_ray.stages.curation import line_dedup

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["same\nsame", "same", ""], pa.string()),
    }))
    out = (line_dedup(ds, min_df=2).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # "same" df=2 -> removed everywhere; doc 2's single empty line has
    # df=1 and survives
    assert out["text_clean"].tolist() == ["", "", ""]
    assert out["n_removed"].tolist() == [2, 1, 0]
    assert out["n_lines"].tolist() == [2, 1, 1]


def _vocab_brute(texts: list[str], max_vocab: int) -> pd.DataFrame:
    from collections import Counter

    c = Counter()
    for t in texts:
        c.update(w for w in t.lower().split(" ") if w)
    rows = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:max_vocab]
    return pd.DataFrame({
        "term": [t for t, _ in rows],
        "count": [n for _, n in rows],
        "token_id": np.arange(1, len(rows) + 1, dtype=np.int64),
    })


def test_build_vocab_matches_brute(ray_session):
    from text_to_rdf_ray.stages.curation import build_vocab

    texts = [f"alpha beta gamma w{i % 7} w{i % 3} alpha" for i in range(40)]
    texts += ["", "   ", "Alpha ALPHA tie tie2"]  # case fold + ties
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    ds = ds.repartition(5)
    out = (build_vocab(ds, max_vocab=6).to_pandas()
           .sort_values("token_id").reset_index(drop=True))
    expect = _vocab_brute(texts, 6)
    pd.testing.assert_frame_equal(out, expect, check_dtype=False)
    # tie at the same count breaks term-ascending
    grp = out.groupby("count")["term"].apply(list)
    for terms in grp:
        assert terms == sorted(terms)


def test_encode_with_vocab_roundtrip(ray_session):
    from text_to_rdf_ray.stages.curation import build_vocab, encode_with_vocab

    texts = ["the cat sat", "the the unknownword cat", "", "dog"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(2)
    vocab = build_vocab(ds, max_vocab=3).to_pandas()
    # vocab: the(3) cat(2) then first-alpha of the count-1 terms
    assert vocab["term"].iloc[0] == "the"
    out = (encode_with_vocab(ds, vocab).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    vmap = dict(zip(vocab["term"], vocab["token_id"]))
    for _, r in out.iterrows():
        toks = [w for w in texts[int(r["doc_id"])].lower().split(" ") if w]
        ids = [int(vmap.get(w, 0)) for w in toks]
        assert r["n_tokens"] == len(toks)
        assert r["n_oov"] == sum(1 for i in ids if i == 0)
        assert r["ids_csv"] == ",".join(map(str, ids))


def test_bm25_topk_matches_brute(ray_session):
    from text_to_rdf_ray.stages.retrieval import bm25_topk

    texts = [
        "hash join table scan",
        "hash hash join",
        "window agg stream window",
        "table scan scan scan filter",
        "",
        "unrelated words only here",
    ]
    queries = {"q1": ["hash", "join"], "q2": ["scan", "window"]}
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    out = (bm25_topk(ds, queries, k=3).to_pandas()
           .sort_values(["query_id", "rank"]).reset_index(drop=True))

    # brute force
    import math
    from collections import Counter

    toks = [t.lower().split() for t in texts]
    n = len(texts)
    avgdl = sum(len(t) for t in toks) / n
    k1, b = 1.2, 0.75

    def idf(term):
        df = sum(1 for t in toks if term in t)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    rows = []
    for qid, terms in queries.items():
        scores = []
        for did, t in enumerate(toks):
            tf = Counter(t)
            s = sum(idf(w) * tf[w] * (k1 + 1)
                    / (tf[w] + k1 * (1 - b + b * len(t) / avgdl))
                    for w in terms if tf[w])
            if any(tf[w] for w in terms):
                scores.append((round(s, 6), did))
        scores.sort(key=lambda x: (-x[0], x[1]))
        for r, (s, did) in enumerate(scores[:3], 1):
            rows.append({"query_id": qid, "doc_id": did,
                         "score": s, "rank": r})
    expect = (pd.DataFrame(rows)
              .sort_values(["query_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out[["query_id", "doc_id", "score", "rank"]], expect,
        check_dtype=False)


def _bpe_brute(texts, n_merges):
    from collections import Counter

    wc = Counter()
    for t in texts:
        wc.update(w for w in t.lower().split(" ") if w)
    words = {w: list(w) + ["</w>"] for w in wc}
    merges = []
    for rank in range(1, n_merges + 1):
        pc = Counter()
        for w, syms in words.items():
            for a, b in zip(syms, syms[1:]):
                pc[(a, b)] += wc[w]
        if not pc:
            break
        (a, b), cnt = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append({"rank": rank, "left": a, "right": b,
                       "merged": a + b, "pair_cnt": cnt})
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    seg = pd.DataFrame({
        "word": sorted(words),
        "cnt": [wc[w] for w in sorted(words)],
        "sym": [" ".join(words[w]) for w in sorted(words)],
    })
    return pd.DataFrame(merges), seg


def test_bpe_train_matches_brute(ray_session):
    from text_to_rdf_ray.stages.bpe import bpe_train

    texts = ["the theme there then", "hash hashing then the",
             "aaaa aaa banana bandana", "theme theme hash the"]
    ds = rd.from_arrow(pa.table({
        "text": pa.array(texts, pa.string())})).repartition(3)
    merges, words = bpe_train(ds, n_merges=8)
    em, es = _bpe_brute(texts, 8)
    got_seg = (words.to_pandas().sort_values("word")
               .reset_index(drop=True)[["word", "cnt", "sym"]])
    pd.testing.assert_frame_equal(
        merges[["rank", "left", "right", "merged", "pair_cnt"]], em,
        check_dtype=False)
    pd.testing.assert_frame_equal(got_seg, es, check_dtype=False)


def test_bpe_repeated_symbol_run_greedy(ray_session):
    # 'aaaa' must segment [aa, aa, </w>]-style under greedy BPE once
    # (a,a) is merged — the double-space replace invariant
    from text_to_rdf_ray.stages.bpe import bpe_train

    ds = rd.from_arrow(pa.table({"text": pa.array(["aaaa aaaa aaa"])}))
    merges, words = bpe_train(ds, n_merges=1)
    seg = dict(zip(words.to_pandas()["word"], words.to_pandas()["sym"]))
    assert merges.iloc[0]["merged"] == "aa"
    assert seg["aaaa"] == "aa aa </w>"
    assert seg["aaa"] == "aa a </w>"


def test_normalize_text(ray_session):
    from text_to_rdf_ray.stages.curation import normalize_text

    texts = ["Héllo\t  World\n x  ", "plain text", "", "  A  B  "]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    out = (normalize_text(ds).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # NFC combines e + combining-acute into é; ws runs collapse
    assert out["text_norm"].tolist() == [
        "héllo world x", "plain text", "", "a b"]
    assert out["changed"].tolist() == [True, False, False, True]


def test_bm25_join_mode_parity(ray_session):
    from text_to_rdf_ray.stages.retrieval import bm25_topk, bm25_topk_join

    rng = np.random.RandomState(9)
    words = ["hash", "join", "scan", "table", "window", "agg", "dup",
             "vector", "stream", "sort"]
    texts = [" ".join(rng.choice(words, rng.randint(3, 30)))
             for _ in range(80)]
    queries = {"q1": ["hash", "join"], "q2": ["scan", "window", "dup"],
               "q3": ["vector"]}
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    qrows = [(qid, t) for qid, ts in queries.items() for t in ts]
    qds = rd.from_pandas(pd.DataFrame(qrows, columns=["query_id", "term"]))

    cols = ["query_id", "doc_id", "score", "rank"]
    a = (bm25_topk(ds, queries, k=7).to_pandas()[cols]
         .sort_values(["query_id", "rank"]).reset_index(drop=True))
    bj = (bm25_topk_join(ds, qds, k=7).to_pandas()[cols]
          .sort_values(["query_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, bj, check_dtype=False)


def test_grouped_prefix_sum_matches_pandas(ray_session):
    """Segmented scan vs pandas window, int and string keys, many blocks,
    a hot key spanning block boundaries."""
    from text_to_rdf_ray.stages.analytics import grouped_prefix_sum

    rng = np.random.default_rng(11)
    n = 900
    df = pd.DataFrame({
        # key 3 is hot (spans many sorted blocks)
        "k": np.where(rng.random(n) < 0.6, 3,
                      rng.integers(0, 12, n)).astype(np.int64),
        "o": rng.permutation(n).astype(np.int64),   # unique order
        "v": rng.integers(1, 50, n).astype(np.int64),
    })
    for key in ("k", "ks"):
        d = df.copy()
        if key == "ks":
            d["ks"] = "s" + d["k"].astype(str)
            d = d.drop(columns=["k"])
        got = grouped_prefix_sum(
            rd.from_pandas(d).repartition(8),
            key_col=key, order_col="o", value_col="v").to_pandas()
        want = d.sort_values([key, "o"]).reset_index(drop=True)
        want["before"] = (want.groupby(key, sort=False)["v"].cumsum()
                          - want["v"]).astype(float)
        got = got.sort_values([key, "o"]).reset_index(drop=True)[
            want.columns.tolist()]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_token_budget_mix_exact_budget(ray_session):
    """Kept set = hash-ordered prefix whose preceding tokens < budget,
    per source; straddling doc kept; deterministic across parallelism."""
    from text_to_rdf_ray.stages.analytics import splitmix64
    from text_to_rdf_ray.stages.curation import token_budget_mix

    rng = np.random.default_rng(5)
    n = 300
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "source": np.array(["a", "b", "c"])[rng.integers(0, 3, n)],
        "w": rng.integers(10, 100, n).astype(np.int64),
    })

    def brute(budget):
        d = df.copy()
        d["hk"] = splitmix64(d["doc_id"].to_numpy().astype(np.uint64))
        d = d.sort_values(["source", "hk"])
        d["before"] = (d.groupby("source", sort=False)["w"].cumsum()
                       - d["w"])
        return (d[d["before"] < budget]
                .sort_values("doc_id").reset_index(drop=True))

    for parts in (2, 9):
        got = token_budget_mix(
            rd.from_pandas(df).repartition(parts),
            id_col="doc_id", source_col="source", weight_col="w",
            budget=1500).to_pandas().sort_values("doc_id").reset_index(
                drop=True)
        want = brute(1500)
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        np.testing.assert_allclose(got["tokens_before"].to_numpy(),
                                   want["before"].to_numpy().astype(float))


def test_canonical_urls_rules():
    from text_to_rdf_ray.stages.curation import canonical_urls

    urls = pd.Series([
        "HTTPS://WWW.Example.COM/Page/5/?utm_source=rss&ref=2&a=1#frag",
        "https://example.com:443/Page/5?a=1&ref=2",
        "http://example.com:80/",
        "http://example.com",
        "https://sub.example.com/x?fbclid=abc&gclid=z&b=1",
        "not a url",
        "https://example.com/x?utm_campaign=only",
    ])
    got = canonical_urls(urls).tolist()
    assert got[0] == "https://example.com/Page/5?a=1&ref=2"
    assert got[1] == got[0]                     # :443, no-www, sorted params
    assert got[2] == "http://example.com"       # :80 + trailing slash
    assert got[3] == "http://example.com"
    assert got[4] == "https://sub.example.com/x?b=1"
    assert got[5] == "not a url"                # unparsed passes through
    assert got[6] == "https://example.com/x"    # all params tracking


def test_url_dedup_keeps_min_id(ray_session):
    from text_to_rdf_ray.stages.curation import url_dedup

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "url": [
            "https://www.a.com/x/?utm_source=1",   # canon https://a.com/x
            "https://a.com/x",                     # dup of 0 -> dropped
            "HTTP://b.com/y#z",                    # canon http://b.com/y
            "http://b.com/y",                      # dup of 2 -> dropped
            "https://c.com/z?b=2&a=1",
            "https://c.com/z?a=1&b=2",             # dup of 4 -> dropped
        ],
    })
    out = (url_dedup(rd.from_pandas(df).repartition(3)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["is_kept"].tolist() == [True, False, True, False, True, False]
    assert out.loc[0, "canon_url"] == "https://a.com/x"
    assert out.loc[2, "canon_url"] == "http://b.com/y"
    assert out.loc[4, "canon_url"] == "https://c.com/z?a=1&b=2"


def test_redact_pii_counts_order_and_passthrough(ray_session):
    from text_to_rdf_ray.stages.curation import redact_pii

    texts = [
        "mail me at a.b-c@foo.example.org please",
        "server at 192.168.0.1 and backup 10.0.0.254.",
        "call +1 415-555-0132 today",
        "combo: x@y.co then 8.8.8.8 then 020 7946 0958 ok",
        "clean text with no pii at all",
        "",
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    out = redact_pii(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)

    assert out["n_email"].tolist() == [1, 0, 0, 1, 0, 0]
    assert out["n_ipv4"].tolist() == [0, 2, 0, 1, 0, 0]
    assert out["n_phone"].tolist() == [0, 0, 1, 1, 0, 0]
    assert out["has_pii"].tolist() == [True, True, True, True, False, False]
    assert out.loc[0, "text_redacted"] == "mail me at [EMAIL] please"
    assert out.loc[1, "text_redacted"] == "server at [IP] and backup [IP]."
    assert out.loc[2, "text_redacted"] == "call [PHONE] today"
    # order contract: email redacted before its host could look like an IP,
    # IP before the phone pattern could eat octet runs
    assert out.loc[3, "text_redacted"] == "combo: [EMAIL] then [IP] then [PHONE] ok"
    # non-PII text and schema pass through untouched
    assert out.loc[4, "text_redacted"] == texts[4]
    assert out.loc[5, "text_redacted"] == ""
    assert "text" in out.columns


def test_hashed_classifier_score_exact_and_empty(ray_session):
    from text_to_rdf_ray.kernels.minhash import _hash_shingles
    from text_to_rdf_ray.stages.analytics import splitmix64
    from text_to_rdf_ray.stages.curation import hashed_classifier_score

    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["Alpha beta ALPHA 42", "", "zzz"],
    })).repartition(2)
    out = (hashed_classifier_score(ds, dim=16, seed=5).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["clf_n_tokens"].tolist() == [4, 0, 1]
    # empty doc: raw 0, score exactly 0.5
    assert out.loc[1, "clf_raw"] == 0 and out.loc[1, "clf_score"] == 0.5

    def w(tok):
        b = _hash_shingles([tok])[0] % np.uint64(16)
        return int((splitmix64(np.array([b + np.uint64(5)],
                                        dtype=np.uint64))[0]
                    >> np.uint64(32))) - 2**31

    exp_raw = w("alpha") + w("beta") + w("alpha") + w("42")
    assert out.loc[0, "clf_raw"] == exp_raw
    assert abs(out.loc[0, "clf_score"]
               - 1.0 / (1.0 + np.exp(-exp_raw / (4 * 2**31)))) < 1e-12
    assert out.loc[0, "clf_keep"] == (out.loc[0, "clf_score"] >= 0.5)


def test_phrase_search_matches_and_repeated_word(ray_session):
    from text_to_rdf_ray.stages.retrieval import phrase_search

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["big table value here table value",   # matches at 1 and 4
                 "table or value but not adjacent",    # no match
                 "prefix table value",                 # match at 1
                 "table table value"],                 # match at 1 only
    })
    ds = rd.from_pandas(docs).repartition(2)
    out = (phrase_search(ds, ["table", "value"]).to_pandas()
           .sort_values(["doc_id", "start_pos"]).reset_index(drop=True))
    assert out[["doc_id", "start_pos"]].to_numpy().tolist() == [
        [1, 1], [1, 4], [3, 1], [4, 1]]

    # repeated phrase word: "table table" must not double-count slots
    out2 = (phrase_search(ds, ["table", "table"]).to_pandas()
            .sort_values(["doc_id", "start_pos"]).reset_index(drop=True))
    assert out2[["doc_id", "start_pos"]].to_numpy().tolist() == [[4, 0]]


def test_dup_spans_merges_and_counts_within_doc(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import dup_spans

    docs = [
        (0, "a b c d e f g h"),      # grams at pos 0,1 shared with doc 1
        (1, "x a b c d e f y z"),    # -> merged spans [0,6) / [1,7)
        (2, "unique tokens only here none match qq ww"),
        (3, "p p p p p p p"),        # within-doc repeat counts: [0,7)
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    out = (dup_spans(ds, n=5, num_partitions=8).to_pandas()
           .sort_values(["doc_id", "span_start"]).reset_index(drop=True))
    exp = pd.DataFrame({"doc_id": [0, 1, 3],
                        "span_start": [0, 1, 0],
                        "span_end": [6, 7, 7]})
    pd.testing.assert_frame_equal(
        out.astype("int64"), exp.astype("int64"))


def test_dup_spans_gap_splits_spans(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import dup_spans

    # two shared 5-gram regions separated by > n unique tokens -> two
    # spans, not one
    shared1 = "alpha beta gamma delta eps"
    shared2 = "one two three four five"
    d0 = f"{shared1} u1 u2 u3 u4 u5 u6 {shared2}"
    d1 = f"zz {shared1} qq rr ss tt uu vv ww xx {shared2} yy"
    ds = rd.from_items([{"doc_id": 0, "text": d0},
                        {"doc_id": 1, "text": d1}])
    out = (dup_spans(ds, n=5, num_partitions=4).to_pandas()
           .sort_values(["doc_id", "span_start"]).reset_index(drop=True))
    assert len(out) == 4
    d0_spans = out[out.doc_id == 0][["span_start", "span_end"]].values.tolist()
    assert d0_spans == [[0, 5], [11, 16]]


def test_ngram_novelty_first_doc_wins(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import ngram_novelty

    shared = "a b c d e"                     # one 5-gram
    docs = [
        (0, f"{shared} z1 z2 z3 z4"),        # introduces shared + 4 own
        (1, f"q1 q2 q3 q4 {shared}"),        # shared is NOT novel here
        (2, "short text"),                    # < 5 words -> (0, 0, 0.0)
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    out = (ngram_novelty(ds, n=5, num_partitions=4).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    exp = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "n_distinct": [5, 5, 0],
        "n_novel": [5, 4, 0],
        "novelty": [1.0, 0.8, 0.0]})
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_nb_train_classify_reference(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import nb_classify, nb_train

    train = rd.from_items([
        {"doc_id": 0, "lang": "en", "text": "the cat sat on the mat"},
        {"doc_id": 1, "lang": "en", "text": "the dog ran in the park"},
        {"doc_id": 2, "lang": "fr", "text": "le chat sur le tapis"},
        {"doc_id": 3, "lang": "fr", "text": "le chien dans le parc"},
    ])
    test = rd.from_items([
        {"doc_id": 10, "text": "the cat ran"},
        {"doc_id": 11, "text": "le chat parc"},
        {"doc_id": 12, "text": ""},           # prior tie -> lex smaller
        {"doc_id": 13, "text": "zz qq ww"},   # all-OOV -> length penalty
    ])
    model, cs, vocab = nb_train(train, class_col="lang")
    assert vocab == 16
    assert dict(zip(cs["class"], cs["tokens"])) == {"en": 12, "fr": 10}
    out = (nb_classify(test, model, cs, vocab, num_partitions=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out.pred_class.tolist() == ["en", "fr", "en", "fr"]
    # hand-check doc 10 ("the cat ran" vs en): c(the)=4, c(cat)=1,
    # c(ran)=1 -> prior ln(.5) - 3 ln(12+16) + ln(5) + ln(2) + ln(2)
    want = np.log(0.5) - 3 * np.log(28.0) + np.log(5.0) + 2 * np.log(2.0)
    assert abs(out.loc[0, "score"] - want) < 1e-9
    # empty doc scores = prior only
    assert abs(out.loc[2, "score"] - np.log(0.5)) < 1e-12


def test_js_divergence_reference_and_bounds(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import js_divergence_by_group

    docs = rd.from_items([
        {"doc_id": 0, "source": "a", "text": "x x y"},
        {"doc_id": 1, "source": "b", "text": "y z z"},
        {"doc_id": 2, "source": "c", "text": "x x y y z z"},  # = corpus-ish
    ])
    out = js_divergence_by_group(docs, num_partitions=4)

    def ref(pg, q):
        s = 0.0
        for t, qq in q.items():
            p = pg.get(t, 0.0)
            m = (p + qq) / 2
            if p > 0:
                s += 0.5 * p * np.log(p / m)
            if qq > 0:
                s += 0.5 * qq * np.log(qq / m)
        return s

    q = {"x": 4 / 12, "y": 4 / 12, "z": 4 / 12}
    want = {"a": ref({"x": 2 / 3, "y": 1 / 3}, q),
            "b": ref({"y": 1 / 3, "z": 2 / 3}, q),
            "c": ref({"x": 2 / 6, "y": 2 / 6, "z": 2 / 6}, q)}
    got = dict(zip(out["source"], out["js"]))
    for k in want:
        assert abs(got[k] - want[k]) < 1e-12
    # the corpus-shaped source diverges least; JS in [0, ln2]
    assert got["c"] < got["a"] and got["c"] < got["b"]
    assert all(0.0 <= v <= np.log(2.0) + 1e-12 for v in got.values())


def test_class_term_chi2_hand_computed(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import class_term_chi2

    # 4 docs, 2 classes; "aa" appears in both en docs and no fr doc ->
    # perfect association: chi2 = N = 4
    docs = rd.from_items([
        {"doc_id": 0, "lang": "en", "text": "aa shared"},
        {"doc_id": 1, "lang": "en", "text": "aa aa other"},  # presence 1x
        {"doc_id": 2, "lang": "fr", "text": "bb shared"},
        {"doc_id": 3, "lang": "fr", "text": "bb solo"},
    ])
    out = class_term_chi2(docs, class_col="lang", k=3,
                          num_partitions=4).to_pandas()
    en = out[out.cls == "en"].sort_values("rank")
    assert en.iloc[0]["term"] == "aa"          # ties: aa before bb
    assert abs(en.iloc[0]["chi2"] - 4.0) < 1e-12
    # "shared" is in one doc of each class -> zero association
    sh = out[(out.cls == "en") & (out.term == "shared")]
    assert sh.empty or abs(float(sh["chi2"].iloc[0])) < 1e-12


def test_rerank_by_embedding_query_by_example(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.retrieval import rerank_by_embedding

    # candidates for one query; rank-1 doc (id 5) is the reference.
    # vectors: id 7 nearly parallel to 5, id 9 orthogonal, id 3 opposite
    vecs = {
        5: np.array([1.0, 0.0, 0.0]),
        7: np.array([0.99, 0.1, 0.0]),
        9: np.array([0.0, 1.0, 0.0]),
        3: np.array([-1.0, 0.0, 0.0]),
    }
    emb = rd.from_pandas(pd.DataFrame({
        "vec_id": list(vecs.keys()),
        "embedding": [v.astype(np.float32) for v in vecs.values()]}))
    cand = pd.DataFrame({
        "query_id": ["q"] * 4,
        "doc_id": [5, 9, 7, 3],
        "rank": [1, 2, 3, 4]})
    out = rerank_by_embedding(cand, emb, k=3)
    assert out.doc_id.tolist() == [5, 7, 9]        # cos 1.0, ~0.995, 0
    assert out.rerank.tolist() == [1, 2, 3]
    assert out.cos.iloc[0] == 1.0 and abs(out.cos.iloc[2]) < 1e-9


def test_rbo_hand_computed(ray_session):
    import numpy as np

    # RBO@10 p=0.9 for identical rankings of k items = (1-p) * sum(
    # p^(d-1)) over d<=k (overlap at depth d is d, weight p^(d-1)/d * d)
    dd = np.arange(1, 11, dtype=np.float64)
    wd = np.power(0.9, dd - 1.0) / dd
    tail = np.cumsum(wd[::-1])[::-1]
    # tail telescoping: tail[m] = tail[m+1] + w[m]
    for m in range(9):
        assert abs(tail[m] - (tail[m + 1] + wd[m])) < 1e-15
    # full agreement at k=10 gives RBO@10 = (1-p) * sum p^(d-1)
    full = float(sum(0.1 * tail[m - 1] for m in range(1, 11)))
    expect = 0.1 * sum(0.9 ** (d - 1) for d in range(1, 11))
    assert abs(full - expect) < 1e-12


def test_readability_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import readability

    # "the cat sat. it ran!" -> words 5, sentences 2,
    # vowel groups: e,a,a,i,a -> 5
    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1], "text": ["The cat sat. It ran!"]}))
    out = readability(docs).to_pandas()
    assert (int(out.words[0]), int(out.sentences[0]),
            int(out.syllables[0])) == (5, 2, 5)
    expect = 206.835 - 1.015 * (5 / 2) - 84.6 * (5 / 5)
    assert abs(out.flesch[0] - expect) < 1e-9


def test_readability_empty_text_floors_at_one(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import readability

    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "text": ["", None]}))
    out = readability(docs).to_pandas().sort_values("doc_id")
    assert list(out.words) == [1, 1]
    assert list(out.sentences) == [1, 1]
    assert list(out.syllables) == [1, 1]


def test_dsir_sample_prefers_target_like_docs(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import dsir_sample

    # target (en) docs speak vocabulary A; others vocabulary B —
    # except doc 100, a non-target doc written in vocabulary A
    va = "alpha beta gamma delta epsilon zeta"
    vb = "uno dos tres cuatro cinco seis"
    rows = []
    for i in range(20):
        rows.append((i, va, "en"))
    for i in range(20, 40):
        rows.append((i, vb, "fr"))
    rows.append((100, va, "fr"))
    docs = pd.DataFrame(rows, columns=["doc_id", "text", "lang"])
    out = (dsir_sample(rd.from_pandas(docs), dim=64, k=41, seed=7)
           .to_pandas())
    s = dict(zip(out.doc_id, out.score))
    # vocabulary decides the importance weight, not the label:
    # the A-speaking non-target doc scores like the target docs
    assert abs(s[100] - s[0]) < 1e-9
    assert s[100] > s[25]
    # deterministic: same seed reproduces keys exactly
    out2 = (dsir_sample(rd.from_pandas(docs), dim=64, k=41, seed=7)
            .to_pandas())
    assert out.sort_values("rank").gkey.tolist() == \
        out2.sort_values("rank").gkey.tolist()


def test_wordlist_screen_fractions_and_gate(ray_session):
    from text_to_rdf_ray.stages.curation import wordlist_screen

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["the quick brown fox", "clean words only here",
                 "", "THE the The"],
    })
    out = (wordlist_screen(rd.from_pandas(df), ["the", "quick"],
                           max_frac=0.5)
           .to_pandas().set_index("doc_id"))
    assert int(out.loc[1, "n_blocked"]) == 2  # the + quick of 4
    assert abs(float(out.loc[1, "blocked_frac"]) - 0.5) < 1e-12
    assert not bool(out.loc[1, "keep"])      # 0.5 < 0.5 is False
    assert bool(out.loc[2, "keep"]) and int(out.loc[2, "n_blocked"]) == 0
    assert int(out.loc[3, "n_tokens"]) == 0  # empty doc keeps
    assert float(out.loc[3, "blocked_frac"]) == 0.0
    assert bool(out.loc[3, "keep"])
    assert int(out.loc[4, "n_blocked"]) == 3  # case-insensitive
    import pytest
    with pytest.raises(ValueError):
        wordlist_screen(rd.from_pandas(df), ["a", "b"], max_words=1)


def test_kanon_audit_violations(ray_session):
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import kanon_audit

    # class (a, 1): 5 rows, 3 distinct sensitive -> no violations
    # class (a, 2): 2 rows, 1 distinct           -> both violations
    # class (b, 1): 6 rows, 1 distinct           -> l-violation only
    df = pd.DataFrame({
        "qa": ["a"] * 5 + ["a"] * 2 + ["b"] * 6,
        "qb": [1] * 5 + [2] * 2 + [1] * 6,
        "s":  [10, 11, 12, 10, 11] + [7, 7] + [9] * 6})
    out = (kanon_audit(rd.from_pandas(df), quasi_cols=["qa", "qb"],
                       sensitive_col="s", k=5, l=2).to_pandas()
           .set_index(["qa", "qb"]).sort_index())
    assert len(out) == 3
    r = out.loc[("a", 1)]
    assert (int(r["n"]), int(r["n_sensitive"])) == (5, 3)
    assert not r["k_violation"] and not r["l_violation"]
    r = out.loc[("a", 2)]
    assert (int(r["n"]), int(r["n_sensitive"])) == (2, 1)
    assert r["k_violation"] and r["l_violation"]
    r = out.loc[("b", 1)]
    assert (int(r["n"]), int(r["n_sensitive"])) == (6, 1)
    assert not r["k_violation"] and r["l_violation"]
    with pytest.raises(ValueError):
        kanon_audit(rd.from_pandas(df), quasi_cols=[],
                    sensitive_col="s")


def test_dp_counts_deterministic_laplace(ray_session):
    import pytest
    import ray.data as rd

    from text_to_rdf_ray.stages.analytics import splitmix64
    from text_to_rdf_ray.stages.curation import dp_counts

    df = pd.DataFrame({"k": ["a"] * 100 + ["b"] * 50 + ["c"] * 10})
    r1 = dp_counts(rd.from_pandas(df), key_col="k", epsilon=1.0, seed=7)
    r2 = dp_counts(rd.from_pandas(df), key_col="k", epsilon=1.0, seed=7)
    pd.testing.assert_frame_equal(r1, r2)  # bit-for-bit replayable
    assert list(r1.columns) == ["k", "noisy_n"]  # true n never emitted
    # manual replay of key "a" (rank 0 in sorted order)
    hv = splitmix64(np.array([0 + 7], np.int64))[0]
    u = float(hv >> np.uint64(11)) / 9007199254740992.0
    t = u - 0.5
    want = 100.0 + (-(1.0) * np.sign(t) * np.log(1.0 - 2.0 * abs(t)))
    assert float(r1.set_index("k").loc["a", "noisy_n"]) == want
    # different seed -> different noise; epsilon scales the magnitude
    r3 = dp_counts(rd.from_pandas(df), key_col="k", epsilon=1.0, seed=8)
    assert not r1["noisy_n"].equals(r3["noisy_n"])
    r4 = dp_counts(rd.from_pandas(df), key_col="k", epsilon=10.0, seed=7)
    n_true = np.array([100.0, 50.0, 10.0])
    assert (np.abs(r4["noisy_n"].to_numpy() - n_true)
            <= np.abs(r1["noisy_n"].to_numpy() - n_true) + 1e-12).all()
    with pytest.raises(ValueError):
        dp_counts(rd.from_pandas(df), key_col="k", max_groups=2)


def test_extract_links_absolute_and_host_norm(ray_session):
    import ray.data as rd

    from text_to_rdf_ray.stages.curation import extract_links
    from text_to_rdf_ray.state import counters

    pages = pd.DataFrame({
        "page_id": np.array([1], np.int64),
        "url": ["https://WWW.Example.COM:443/p"],
        "html": ['<a href="https://Other.com:80/x">o</a>'
                 '<a href="/relative">r</a>'
                 '<a href="HTTP://www.third.net/y?z=1">t</a>']})
    counters.snapshot(reset=True)
    out = (extract_links(rd.from_pandas(pages)).to_pandas()
           .sort_values("dst_url").reset_index(drop=True))
    assert len(out) == 2  # relative dropped (counted)
    assert set(out["src_host"]) == {"example.com"}
    assert set(out["dst_host"]) == {"other.com", "third.net"}
    snap = counters.snapshot(reset=True)
    assert snap.get("extractlinks_relative", 0) == 1


def test_binary_ndcg_manual(ray_session):
    from text_to_rdf_ray.stages.retrieval import binary_ndcg

    # relevance (>=2 distinct query terms): q1 {hash,join,table} ->
    # docs 0,1 relevant; q2 {scan,window} -> doc 3 only (doc 2 has
    # window but not scan; doc 0 has scan+table but table not in q2)
    texts = [
        "hash join table scan",     # q1: hash,join,table (3 terms)
        "hash hash join extra",     # q1: hash,join (2 terms)
        "window agg stream window",  # q2: window only -> not relevant
        "scan window scan",         # q2: scan,window (2 terms)
        "",
        "unrelated words only here",
    ]
    queries = {"q1": ["hash", "join", "table"], "q2": ["scan", "window"]}
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    # a fixed ranking: q1 ranks docs [1, 5, 0]; q2 ranks [2, 3]
    ranking = pd.DataFrame({
        "query_id": ["q1", "q1", "q1", "q2", "q2"],
        "doc_id": [1, 5, 0, 2, 3],
        "rank": [1, 2, 3, 1, 2],
    })
    out = (binary_ndcg(ds, queries, ranking, k=3, min_terms=2)
           .set_index("query_id"))

    g = [round(1.0 / math.log2(r + 1), 9) for r in range(1, 4)]
    # q1: hits at ranks 1 and 3 of {0,1}; R=2 -> idcg over ranks 1,2
    assert out.loc["q1", "n_rel_total"] == 2
    assert out.loc["q1", "n_rel_ranked"] == 2
    assert out.loc["q1", "dcg"] == round(g[0] + g[2], 6)
    assert out.loc["q1", "idcg"] == round(g[0] + g[1], 6)
    assert out.loc["q1", "ndcg"] == round(
        round(g[0] + g[2], 6) / round(g[0] + g[1], 6), 6)
    # q2: only doc 3 relevant, ranked at 2; R=1
    assert out.loc["q2", "n_rel_total"] == 1
    assert out.loc["q2", "n_rel_ranked"] == 1
    assert out.loc["q2", "dcg"] == round(g[1], 6)
    assert out.loc["q2", "idcg"] == round(g[0], 6)


def test_retrieval_eval_manual(ray_session):
    from text_to_rdf_ray.stages.retrieval import retrieval_eval

    texts = [
        "hash join table scan",
        "hash hash join extra",
        "window agg stream window",
        "scan window scan",
        "",
        "unrelated words only here",
    ]
    queries = {"q1": ["hash", "join", "table"], "q2": ["scan", "window"]}
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    ranking = pd.DataFrame({
        "query_id": ["q1", "q1", "q1", "q2", "q2"],
        "doc_id": [5, 1, 0, 2, 3],
        "rank": [1, 2, 3, 1, 2],
    })
    out = (retrieval_eval(ds, queries, ranking, k=3, min_terms=2)
           .set_index("query_id"))
    # q1: rel {0,1}; hits at ranks 2,3 -> first=2, mrr=0.5,
    # P@3 = 2/3, R@3 = 2/2
    assert out.loc["q1", "n_rel_total"] == 2
    assert out.loc["q1", "first_rel_rank"] == 2
    assert out.loc["q1", "mrr"] == 0.5
    assert out.loc["q1", "precision_at_k"] == round(2 / 3, 6)
    assert out.loc["q1", "recall_at_k"] == 1.0
    # q2: rel {3}; hit at rank 2
    assert out.loc["q2", "mrr"] == 0.5
    assert out.loc["q2", "precision_at_k"] == round(1 / 3, 6)
    assert out.loc["q2", "recall_at_k"] == 1.0


def test_textrank_matches_brute(ray_session):
    from text_to_rdf_ray.stages.curation import textrank_keywords

    texts = [
        "graph rank word graph rank",
        "word graph node edge",
        "rank edge node",
        "",
        "solo",
    ]
    ds = rd.from_arrow(pa.table({
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    out = textrank_keywords(ds, window=2, iterations=4, top_k=10)

    # brute force: window-2 co-occurrence weights, weighted pagerank
    from collections import Counter
    wts: Counter = Counter()
    for t in texts:
        toks = [w for w in t.lower().split(" ") if w]
        for i in range(len(toks)):
            for j in (i + 1, i + 2):
                if j < len(toks) and toks[i] != toks[j]:
                    wts[tuple(sorted((toks[i], toks[j])))] += 1
    words = sorted({w for p in wts for w in p})
    idx = {w: i for i, w in enumerate(words)}
    n = len(words)
    wsum = [0.0] * n
    for (a, b), w in wts.items():
        wsum[idx[a]] += w
        wsum[idx[b]] += w
    r = [1.0 / n] * n
    for _ in range(4):
        contrib = [0.0] * n
        for (a, b), w in wts.items():
            contrib[idx[b]] += r[idx[a]] * w / wsum[idx[a]]
            contrib[idx[a]] += r[idx[b]] * w / wsum[idx[b]]
        r = [0.15 / n + 0.85 * c for c in contrib]
    ref = sorted(((round(s, 9), w) for w, s in zip(words, r)),
                 key=lambda t: (-t[0], t[1]))
    assert "solo" not in set(out["word"])  # isolated word: no edges
    for rank, (score, word) in enumerate(ref[:10], 1):
        row = out[out["rank"] == rank].iloc[0]
        assert row["word"] == word
        assert abs(row["score"] - score) < 1e-9


def test_bm25_prf_expands_and_reranks(ray_session):
    from text_to_rdf_ray.stages.retrieval import bm25_prf, bm25_topk

    # "alpha" always co-occurs with query term "hash" in the feedback
    # docs, so PRF must pull doc 4 ("alpha" only, no query terms) into
    # the ranking where plain BM25 cannot score it at all.
    texts = [
        "hash join alpha",
        "hash alpha table",
        "hash join table scan",
        "window agg stream",
        "alpha alpha alpha",
        "unrelated words",
    ]
    queries = {"q1": ["hash", "join"]}
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(3)
    base = bm25_topk(ds, queries, k=6).to_pandas()
    assert 4 not in set(base["doc_id"])
    out = bm25_prf(ds, queries, k=6, fb_docs=3, fb_terms=3,
                   beta=0.5).to_pandas()
    assert 4 in set(out["doc_id"])
    # ranking still deterministic: rank 1..n unique per query
    assert sorted(out["rank"]) == list(range(1, len(out) + 1))


def test_kn_perplexity_reference(ray_session):
    from text_to_rdf_ray.stages.curation import kn_perplexity

    ref_texts = ["a b a c", "b a b"]
    doc_texts = ["a b", "a z", "q q q", "x"]
    ref = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(ref_texts)), pa.int64()),
        "text": pa.array(ref_texts, pa.string())}))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(doc_texts)), pa.int64()),
        "text": pa.array(doc_texts, pa.string())})).repartition(2)
    out = (kn_perplexity(docs, ref).to_pandas()
           .set_index("doc_id"))

    # model: uni a3 b3 c1; bigrams: (a,b)1 (b,a)2 (a,c)1 (b,b)... wait
    # ref bigrams: a-b, b-a, a-c | b-a, a-b -> (a,b)2 (b,a)2 (a,c)1
    # n1f: a->{b,c}=2, b->{a}=1; n1b: b<-{a}=1, a<-{b}=1, c<-{a}=1
    # T=3 types, V=3+1=4
    import math
    T, V, D = 3, 4, 0.75
    def pcont(w):
        return ({"a": 1, "b": 1, "c": 1}.get(w, 0) + 1.0) / (T + V)
    # doc 0 "a b": c(a)=3, n1f(a)=2, c12(a,b)=2
    p_ab = (max(2 - D, 0.0) + D * 2 * pcont("b")) / 3
    assert abs(out.loc[0, "avg_nll"] - (-math.log(p_ab))) < 1e-9
    # doc 1 "a z": unseen continuation z -> floor
    p_az = (max(0 - D, 0.0) + D * 2 * pcont("z")) / 3
    assert abs(out.loc[1, "avg_nll"] - (-math.log(p_az))) < 1e-9
    # doc 2 "q q q": unseen context -> pure continuation floor
    p_qq = pcont("q")
    assert abs(out.loc[2, "avg_nll"] - (-math.log(p_qq))) < 1e-9
    # doc 3: single token
    assert out.loc[3, "ppl"] == 1.0


def test_kn_perplexity_context_total_denominator(ray_session):
    """The KN denominator is the bigram-context total sum_w c(w1,w),
    NOT the unigram count — they diverge exactly when w1 ends a
    reference document (ADVICE r4: with c(w1) the conditional would
    sum to < 1 at document-final contexts)."""
    import math

    from text_to_rdf_ray.stages.curation import kn_perplexity

    # 'b' ends "b a b": uni(b)=3 but ctx(b) = c(b,a) = 2
    ref_texts = ["a b a c", "b a b"]
    ref = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(2), pa.int64()),
        "text": pa.array(ref_texts, pa.string())}))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["b a"], pa.string())}))
    out = kn_perplexity(docs, ref).to_pandas().set_index("doc_id")
    T, V, D = 3, 4, 0.75
    pcont_a = (1 + 1.0) / (T + V)
    p_ba = (max(2 - D, 0.0) + D * 1 * pcont_a) / 2  # ctx(b)=2, not 3
    assert abs(out.loc[0, "avg_nll"] - (-math.log(p_ba))) < 1e-9


def test_extractive_summary_brute(ray_session):
    from text_to_rdf_ray.stages.curation import extractive_summary

    # 3 segments of 3 tokens: seg0/seg1 share 2 tokens, seg2 isolated
    text = "a b c a b d x y z"
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": pa.array([text], pa.string())}))
    out = (extractive_summary(ds, segment_tokens=3, top_k=3,
                              iterations=4)
           .to_pandas().sort_values("rank").reset_index(drop=True))

    # brute reference
    segs = [frozenset("abc"), frozenset("abd"), frozenset("xyz")]
    W = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            inter = len(segs[i] & segs[j])
            if inter:
                W[i, j] = W[j, i] = inter / (len(segs[i])
                                             + len(segs[j]) - inter)
    wsum = W.sum(1)
    pi = np.full(3, round(1 / 3, 9))
    for _ in range(4):
        nz = wsum > 0
        contrib = np.zeros(3)
        contrib = W[:, nz] @ (pi[nz] / wsum[nz])
        pi = np.round(0.15 / 3 + 0.85 * contrib, 9)
    ref = sorted(range(3), key=lambda k: (-pi[k], k))
    assert list(out["segment"]) == ref
    assert np.allclose(out["score"], pi[ref])
    # isolated segment ranks last with the bare teleport score
    assert out.iloc[2]["segment"] == 2


def test_gopher_rules_flags(ray_session):
    from text_to_rdf_ray.stages.curation import gopher_rules

    texts = [
        " ".join(f"word{i}" for i in range(40)),      # 40 tokens, ok
        "a b",                                        # too short
        " ".join(["xx"] * 40),                        # word len 2, rep 1.0
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    out = (gopher_rules(ds, min_tokens=10).to_pandas()
           .set_index("doc_id"))
    assert bool(out.loc[0, "keep"]) is True
    assert bool(out.loc[1, "pass_len"]) is False
    r2 = out.loc[2]
    assert bool(r2["pass_word_len"]) is False
    assert r2["dup_bigram_frac"] == round(1.0 - 1 / 39, 6)
    assert bool(r2["pass_rep"]) is False


def test_zipf_fit_planted_power_law(ray_session):
    from text_to_rdf_ray.stages.curation import zipf_fit

    # plant term frequencies following freq = 1000 / rank exactly:
    # slope must come out -1, r2 = 1
    words = []
    for r in range(1, 21):
        words += [f"term{r:02d}"] * (1000 // r)
    # one doc per 50 words
    texts = [" ".join(words[i:i + 50])
             for i in range(0, len(words), 50)]
    ds = rd.from_arrow(pa.table({
        "text": pa.array(texts, pa.string())})).repartition(3)
    out = zipf_fit(ds, top_k=20).iloc[0]
    # 1000//r is near-exact power law; slope close to -1
    assert abs(out["slope"] + 1.0) < 0.02
    assert out["r2"] > 0.999
    assert out["n_terms"] == 20


def test_null_text_guards_textrank_gopher_qrels(ray_session):
    """Null text columns must not crash the pandas-vectorized paths
    (ADVICE r4): textrank_keywords, gopher_rules, lexical_qrels all
    treat null as empty text, matching the _terms(txt or "")
    convention."""
    from text_to_rdf_ray.stages.curation import (gopher_rules,
                                                 textrank_keywords)
    from text_to_rdf_ray.stages.retrieval import lexical_qrels

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha beta alpha gamma", None, "beta beta"],
                         pa.string())}))
    tk = textrank_keywords(docs)  # returns a driver DataFrame
    assert len(tk) > 0  # doc 1/3 terms survive, null contributed nothing

    gr = gopher_rules(docs, min_tokens=1).to_pandas()
    assert len(gr) == 3
    assert int(gr.set_index("doc_id").loc[2, "n_tokens"]) == 0

    rel, totals = lexical_qrels(docs, {"q1": ["alpha", "gamma"]},
                                min_terms=2)
    assert ("q1", 1) in rel and totals.get("q1", 0) == 1


def test_curation_review_r5_regressions(ray_session):
    """Review r5 curation.py fixes, pinned."""
    import pytest

    from text_to_rdf_ray.stages.curation import (bigram_entropy,
                                                 decontaminate,
                                                 kanon_audit,
                                                 mix_sources,
                                                 split_thresholds)

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha beta gamma delta", "epsilon zeta"],
                         pa.string())}))

    # benchmark with docs shorter than n: zero n-grams -> nothing
    # contaminated, not KeyError on the column-less empty frame
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([9], pa.int64()),
        "text": pa.array(["tiny"], pa.string())}))
    out = decontaminate(docs, bench, n=8).to_pandas()
    assert not out["contaminated"].any()

    # negative FINAL fraction rejected even when the sum is 1.0
    with pytest.raises(ValueError, match="negative"):
        split_thresholds([("train", 1.2), ("test", -0.2)])

    # null source rows take the default threshold, not a TypeError
    srcs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "source": pa.array(["a", None, "a"], pa.string())}))
    kept = mix_sources(srcs, weights={"a": 1.0}, default_weight=1.0,
                       id_col="doc_id").to_pandas()
    assert len(kept) == 3  # weight 1.0 keeps everything, nulls included

    # null quasi values form equivalence classes (dropna=False)
    ka = kanon_audit(
        rd.from_arrow(pa.table({
            "zip": pa.array(["111", None], pa.string()),
            "age": pa.array([30, 40], pa.int64()),
            "disease": pa.array(["x", "y"], pa.string())})),
        quasi_cols=["zip", "age"], sensitive_col="disease",
        k=2).to_pandas()
    assert len(ka) == 2 and ka["k_violation"].all()

    # token-less corpus raises cleanly, not KeyError
    emptyish = rd.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array([""], pa.string())}))
    with pytest.raises(ValueError, match="no tokens or no bigrams"):
        bigram_entropy(emptyish)
