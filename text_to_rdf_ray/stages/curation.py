"""Training-data curation operators: deterministic stratified sampling,
token-budget sequence packing (distributed prefix sum), and TF-IDF
term scoring.

All three are Ray-Data-first and deterministic (hash/order-derived, no
RNG at call time) so task retries and N-vs-4N runs produce identical
outputs, and each has an exact DuckDB replay in ``__ray_entry__``:

- ``stratified_sample``: per-group uniform-rate subsample keyed by a
  Knuth multiplicative hash of the id — a per-batch top-k combiner keeps
  only possible survivors before the key exchange (the ``topk_per_group``
  pattern), so the shuffle moves O(n_per_group x groups), not the corpus.
- ``pack_sequences``: assigns documents to fixed-token-budget training
  sequences by global token prefix sum.  The scan is the classic two-pass
  distributed prefix sum: per-block partial sums -> driver prefix of the
  tiny per-block table -> per-block offset + local cumsum.  No
  sequential driver loop over rows, no full sort beyond the one
  range-partitioning sort that defines document order.
- ``tfidf_terms`` / ``tfidf_top_terms``: per-document TF-IDF scores via
  an exploded (doc, term, tf) table hash-joined to the (term, df)
  aggregate — join, not broadcast, so a 100 TB vocabulary shuffles
  candidate-proportionally; top-k per doc reuses ``topk_per_group``.
- ``repetition_stats``: Gopher-style repetition quality fractions
  (top-word / top-bigram / duplicate-5-gram) — pure map, no shuffle.
- ``passage_dedup``: sub-document exact dedup over fixed word windows;
  the exchange ships a 128-bit passage hash, never the text.
- ``decontaminate``: benchmark n-gram overlap flagging — the (small)
  benchmark gram set broadcast once via ray.put, corpus side a pure map.
- ``lm_perplexity``: CCNet/Gopher-style bigram-LM perplexity scoring —
  reference counts broadcast once via ray.put, corpus side a pure map.
- ``heavy_hitters``: exact phi-frequent terms via Misra-Gries per-batch
  summaries (exchange volume capped at batches x capacity regardless of
  vocabulary) + a broadcast exact-verify second pass; falls back to a
  counted full recount when the sketch can't guarantee recall.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..kernels.minhash import digest128
from ..state import counters
from .bsp import map_blocks
from .exchange import keyed_apply, pandas_block

#: Knuth/Fibonacci multiplicative constant (2^64 / phi) — the sampling
#: hash must be exactly reproducible in DuckDB HUGEINT arithmetic.
_KNUTH = 11400714819323198485


def sample_hash(ids: np.ndarray) -> np.ndarray:
    """Deterministic uniform 64-bit hash of int64 ids: (id * KNUTH) mod
    2^64 (wraparound multiply).  SQL replay: (CAST(id AS HUGEINT) *
    11400714819323198485) % 18446744073709551616."""
    return ids.astype(np.uint64) * np.uint64(_KNUTH)


def stratified_sample(
    ds: rd.Dataset,
    *,
    key_col: str,
    id_col: str,
    n_per_group: int,
) -> rd.Dataset:
    """The ``n_per_group`` rows with the smallest ``sample_hash(id)`` per
    key (ties impossible: the hash is a bijection on uint64).  Emits the
    input columns plus ``sample_rank`` (1-based within the key).

    Batch-local top-k per key runs before the exchange — only rows that
    can survive globally shuffle.
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = sample_hash(ids)
        # store as int64 bit-pattern; ORDER preserved via the shift to
        # signed? no — keep uint64 semantics by comparing as uint64 in
        # numpy and exporting the unsigned value (DuckDB UBIGINT)
        return batch.append_column("_h", pa.array(h, pa.uint64()))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.sort_values("_h")
                .groupby(key_col, sort=False).head(n_per_group))

    def final_part(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL strata in the partition (not one Python
        # call per stratum): sort (key, hash), head-k per key, rank
        g = g.sort_values([key_col, "_h"])
        out = g.groupby(key_col, sort=False).head(n_per_group).copy()
        out["sample_rank"] = (out.groupby(key_col, sort=False).cumcount()
                              + 1).astype(np.int64)
        return out.drop(columns=["_h"])

    return keyed_apply(
        ds.map_batches(add_hash, batch_format="pyarrow")
        .map_batches(local_topk, batch_format="pandas", batch_size=65536),
        key_col, final_part)


def pack_sequences(
    ds: rd.Dataset,
    *,
    id_col: str,
    token_col: str,
    budget: int,
) -> rd.Dataset:
    """Assign each row (document) to a training-sequence id by global
    token prefix sum in ``id_col`` order:

        seq_id = floor(tokens_before_this_doc / budget)

    (the streaming-pack semantics: a document straddling a budget
    boundary starts in the sequence its first token lands in).  Output:
    ``(id_col, token_col, seq_id)``.

    Precondition: ``id_col`` values are UNIQUE (document ids).  Equal ids
    always fall in one range of the sort, so a duplicate shows as two
    equal neighbours there and raises ``ValueError``.

    Distributed prefix sum over one range sort (``bsp.sort_blocks``):
    (1) one stats pass sums each sorted block's tokens; (2) the driver
    prefix-sums those B numbers; (3) each block adds its offset to its
    local cumsum.  Only the per-block sums reach the driver.
    """
    from .bsp import block_values, scan_blocks, sort_blocks

    def unique(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        if len(dup):
            raise ValueError(
                f"pack_sequences: {id_col} {ids[dup[0]]} occurs more than "
                f"once — {id_col} values must be unique")
        return t

    srt = sort_blocks((ds, lambda t: t.select([id_col, token_col])), id_col,
                      unique)
    sums = block_values(srt, lambda t: int(pc.sum(t.column(token_col)).as_py()
                                           or 0))
    offsets = np.cumsum([0] + sums[:-1])

    def assign(before: int, t: pa.Table) -> pa.Table:
        toks = t.column(token_col).to_numpy(zero_copy_only=False).astype(np.int64)
        seq = (before + np.cumsum(toks) - toks) // budget
        return pa.table({
            id_col: t.column(id_col),
            token_col: pa.array(toks, pa.int64()),
            "seq_id": pa.array(seq, pa.int64()),
        })

    return scan_blocks(srt, assign, offsets).dataset()


_WS_RUN_RE = re.compile(r"[ \t\n\r\f\v]+")


#: per-worker cache of dicts DERIVED from broadcast objects (keyed by
#: the id() of the _worker_obj_cache-resident source object, which is
#: stable for the worker's lifetime)
_DERIVED_CACHE: dict = {}


def _terms(text: str) -> list[str]:
    """Lowercased whitespace terms (SQL replay: list_filter(str_split(
    lower(text), ' '), x -> x <> ''))."""
    return [t for t in text.lower().split(" ") if t]


def repetition_stats(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Gopher-style repetition quality signals per document (Rae et al.
    2021 §A1.1 repetition filters, occurrence-weighted variant so the
    DuckDB oracle can replay them exactly):

    - ``top_word_frac``: count of the most frequent word / n_words
    - ``top_bigram_frac``: count of the most frequent word 2-gram / (n_words-1)
    - ``dup_5gram_frac``: fraction of word 5-gram occurrences that are
      repeats of an earlier occurrence, i.e. (total - distinct) / total

    Fractions are 0.0 when the document is too short to form the n-gram.
    Pure per-document map — no shuffle; scales embarrassingly.
    """
    from collections import Counter

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        nw_o, twf_o, tbf_o, d5_o = [], [], [], []
        for txt in batch.column(text_col).to_pylist():
            words = _terms(txt)
            nw = len(words)
            nw_o.append(nw)
            if nw == 0:
                twf_o.append(0.0); tbf_o.append(0.0); d5_o.append(0.0)
                continue
            twf_o.append(max(Counter(words).values()) / nw)
            if nw >= 2:
                big = Counter(zip(words, words[1:]))
                tbf_o.append(max(big.values()) / (nw - 1))
            else:
                tbf_o.append(0.0)
            if nw >= 5:
                total = nw - 4
                distinct = len({tuple(words[i:i + 5]) for i in range(total)})
                d5_o.append((total - distinct) / total)
            else:
                d5_o.append(0.0)
        return pa.table({
            id_col: ids,
            "n_words": pa.array(nw_o, pa.int64()),
            "top_word_frac": pa.array(twf_o, pa.float64()),
            "top_bigram_frac": pa.array(tbf_o, pa.float64()),
            "dup_5gram_frac": pa.array(d5_o, pa.float64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


#: passage index must fit in the low bits of the packed (doc_id, idx) key
_PASSAGE_IDX_BITS = 20


def passage_dedup(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 32,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Passage-level exact dedup (the C4/"docs repeat boilerplate" move at
    sub-document granularity): split each document into non-overlapping
    ``window``-word passages and keep only the globally FIRST occurrence
    of each distinct passage text — first = smallest (doc_id, passage_idx).

    Output: (id_col, passage_idx, n_words, keep) for every passage.

    Scale shape: the exchange ships a 128-bit content hash per passage
    (two int64 columns), never the passage text; the reduce is a
    vectorized pandas groupby-transform min over the packed
    (doc_id << 20 | idx) key.  One all-to-all total, keyed by hash —
    collision probability ~n^2/2^128, documented in lieu of shipping text.
    """

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_idx, out_nw, out_h1, out_h2 = [], [], [], [], []
        max_doc_id = 1 << (63 - _PASSAGE_IDX_BITS)
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            if did >= max_doc_id or did < 0:
                raise ValueError(
                    f"passage_dedup: doc_id {did} outside [0, 2^"
                    f"{63 - _PASSAGE_IDX_BITS}) — the packed "
                    "(doc_id << idx_bits | idx) first-wins key would "
                    "overflow int64 and flip which occurrence is 'first'")
            words = _terms(txt)
            for p, start in enumerate(range(0, len(words), window)):
                if p >= (1 << _PASSAGE_IDX_BITS):
                    raise ValueError(
                        f"document {did} has >= 2^{_PASSAGE_IDX_BITS} "
                        f"passages; raise _PASSAGE_IDX_BITS")
                chunk = words[start:start + window]
                h1, h2 = digest128(" ".join(chunk))
                out_id.append(did)
                out_idx.append(p)
                out_nw.append(len(chunk))
                out_h1.append(h1)
                out_h2.append(h2)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "passage_idx": pa.array(out_idx, pa.int64()),
            "n_words": pa.array(out_nw, pa.int64()),
            "_h1": pa.array(out_h1, pa.int64()),
            "_h2": pa.array(out_h2, pa.int64()),
        })

    def mark(group: pd.DataFrame) -> pd.DataFrame:
        packed = (group[id_col].to_numpy(np.int64) << _PASSAGE_IDX_BITS
                  | group["passage_idx"].to_numpy(np.int64))
        group = group.assign(_packed=packed)
        win = group.groupby(["_h1", "_h2"], sort=False)["_packed"].transform("min")
        out = group.assign(keep=(group["_packed"] == win))
        return out[[id_col, "passage_idx", "n_words", "keep"]]

    return keyed_apply(ds.map_batches(explode, batch_format="pyarrow"),
                       "_h1", mark, num_partitions=num_partitions)


def _word_ngrams(words: list[str], n: int) -> list[str]:
    return [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]


def decontaminate(
    ds: rd.Dataset,
    bench: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 8,
    keep_cols: tuple[str, ...] = (),
) -> rd.Dataset:
    """Benchmark decontamination: flag corpus documents sharing any word
    ``n``-gram with a (small) benchmark set — the standard eval-overlap
    check run before training (e.g. GPT-3 appendix C's 13-gram rule;
    ``n`` configurable).

    Output: (id_col, contam_grams = count of DISTINCT benchmark n-grams
    present in the doc, contaminated = contam_grams > 0).

    Scale shape: benchmarks are small by definition, so the benchmark
    n-gram set is collected once (via a distributed per-batch distinct
    combiner) and broadcast with ``ray.put``; the corpus side is a pure
    map — no shuffle touches the 100 TB side.  Gram strings (not hashes)
    are broadcast, so membership is exact.
    """
    import ray

    def bench_grams(batch: pa.Table) -> pa.Table:
        grams: set[str] = set()
        for txt in batch.column(text_col).to_pylist():
            grams.update(_word_ngrams(_terms(txt), n))
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    # per-batch distinct combiner, then a driver-side union of the small
    # per-batch gram tables (benchmark side is small by contract)
    _gdf = bench.map_batches(bench_grams, batch_format="pyarrow") \
        .to_pandas()
    # zero benchmark n-grams (all docs shorter than n): nothing can be
    # contaminated — Ray's to_pandas drops columns at zero rows, so
    # guard before indexing (review r5)
    gset = frozenset(_gdf["g"]) if "g" in _gdf.columns else frozenset()
    gref = ray.put(gset)
    cache: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        gs = cache.get("g")
        if gs is None:
            gs = cache["g"] = ray.get(gref)
        hits = []
        for txt in batch.column(text_col).to_pylist():
            grams = set(_word_ngrams(_terms(txt), n))
            hits.append(len(grams & gs))
        h = np.array(hits, dtype=np.int64)
        cols = {id_col: batch.column(id_col)}
        for c in keep_cols:
            cols[c] = batch.column(c)
        cols["contam_grams"] = pa.array(h, pa.int64())
        cols["contaminated"] = pa.array(h > 0, pa.bool_())
        return pa.table(cols)

    return ds.map_batches(score, batch_format="pyarrow")


def tfidf_terms(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 16,
) -> rd.Dataset:
    """(doc_id, term, tf, df, tfidf) — tf = in-doc term count, df =
    number of docs containing the term, tfidf = tf * (ln((N+1)/(df+1)) + 1)
    (smoothed idf).  The (term, df) side is JOINED, not broadcast: at a
    100 TB vocabulary the df table shuffles candidate-proportionally."""
    n_docs = ds.count()

    def explode(batch: pa.Table) -> pa.Table:
        out_i, out_t, out_c = [], [], []
        for i, txt in zip(batch.column(id_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            counts: dict[str, int] = {}
            for t in _terms(txt):
                counts[t] = counts.get(t, 0) + 1
            out_i.extend([i] * len(counts))
            out_t.extend(counts.keys())
            out_c.extend(counts.values())
        return pa.table({
            id_col: pa.array(out_i, pa.int64()),
            "term": pa.array(out_t, pa.string()),
            "tf": pa.array(out_c, pa.int64()),
        })

    # two consumers (the df side and the join): materialized once
    doc_terms = ds.map_batches(explode, batch_format="pyarrow").materialize()

    def df_partial(batch: pa.Table) -> pa.Table:
        # per-batch combiner: one (term, partial_df) row per distinct term
        g = batch.group_by("term").aggregate([("tf", "count")])
        return pa.table({"term": g.column("term"),
                         "df_part": g.column("tf_count").cast(pa.int64())})

    # hash-exchange arrow reduce: one group per distinct TERM — Ray's
    # Aggregate would pay one Python call per term.  The per-block
    # partial df runs in the exchange's split tasks
    from .exchange import exchange_agg, exchange_join

    df_tbl = exchange_agg((doc_terms, df_partial), "term",
                          [("df_part", "sum", "df")])

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = batch.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        idf = np.log((n_docs + 1.0) / (dfv + 1.0)) + 1.0
        return pa.table({
            id_col: batch.column(id_col),
            "term": batch.column("term"),
            "tf": batch.column("tf"),
            "df": pa.array(dfv.astype(np.int64), pa.int64()),
            "tfidf": pa.array(tf * idf, pa.float64()),
        })

    _S_DT = pa.schema([(id_col, pa.int64()), ("term", pa.string()),
                       ("tf", pa.int64())])
    _S_DF = pa.schema([("term", pa.string()), ("df", pa.int64())])
    # task-based exchange join (no JoinOperator actor-pool fixed cost)
    return (
        exchange_join(doc_terms, df_tbl, on="term",
                      num_partitions=num_partitions,
                      left_schema=_S_DT, right_schema=_S_DF)
        .map_batches(score, batch_format="pyarrow")
    )


def tfidf_top_terms(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
) -> rd.Dataset:
    """Each document's ``k`` highest-TF-IDF terms (score desc, term asc
    for determinism) — composes ``tfidf_terms`` with the
    ``topk_per_group`` combiner."""
    from .analytics import topk_per_group

    scored = tfidf_terms(ds, text_col=text_col, id_col=id_col)
    return topk_per_group(scored, key_col=id_col, sort_col="tfidf",
                          tiebreak_col="term", k=k)


def inverted_index(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 64,
    chunk_ids: int = 65536,
    max_df: int | None = None,
) -> rd.Dataset:
    """Inverted index build: rows of ``(term, chunk_seq, df, postings)``
    — the write-once text-search layout, sibling of the IVF index in
    stages/knn.py.  ``postings`` is a comma-joined run of at most
    ``chunk_ids`` sorted distinct doc ids; a term's full posting list is
    the concatenation of its chunks in ``chunk_seq`` order (SQL replay:
    ``string_agg(postings, ',' ORDER BY chunk_seq)``).  ``df`` is the
    term's TOTAL document frequency, repeated on every chunk row.

    Chunking is what makes this survive stop-words at corpus scale: an
    unchunked "the" row at 10^9 docs is a multi-GB single cell landing in
    one reduce group — a memory bomb and a skew magnet.  With chunks the
    largest cell is bounded by ``chunk_ids`` regardless of df.  An
    optional ``max_df`` stop-list drops terms ABOVE the threshold before
    emitting rows, counted under ``invindex_stoplist_terms`` /
    ``invindex_stoplist_postings`` (no silent caps).

    Explode is per-doc distinct (a doc contributes once per term); the
    exchange is a ``keyed_apply`` on the term, and the per-partition
    reduce is one vectorized pandas pass over ALL terms in the partition
    — partitioning assumption: one PARTITION's postings fit in a worker
    (bounded by |corpus|/num_partitions spread).
    """
    def explode(batch: pa.Table) -> pa.Table:
        out_t, out_i = [], []
        for i, txt in zip(batch.column(id_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            terms = set(_terms(txt))
            out_t.extend(terms)
            out_i.extend([i] * len(terms))
        return pa.table({
            "term": pa.array(out_t, pa.string()),
            id_col: pa.array(out_i, pa.int64()),
        })

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["term", id_col]).drop_duplicates(["term", id_col])
        grp = g.groupby("term", sort=False)
        g = g.assign(df=grp[id_col].transform("size").astype("int64"))
        if max_df is not None:
            dropped = g[g["df"] > max_df]
            if len(dropped):
                counters.incr({
                    "invindex_stoplist_terms": dropped["term"].nunique(),
                    "invindex_stoplist_postings": len(dropped),
                })
            g = g[g["df"] <= max_df]
        if g.empty:
            return pd.DataFrame({"term": pd.Series([], dtype=str),
                                 "chunk_seq": pd.Series([], dtype="int64"),
                                 "df": pd.Series([], dtype="int64"),
                                 "postings": pd.Series([], dtype=str)})
        g = g.assign(chunk_seq=(g.groupby("term", sort=False).cumcount()
                                // chunk_ids).astype("int64"))
        agg = (g.groupby(["term", "chunk_seq"], sort=False)
               .agg(df=("df", "first"),
                    postings=(id_col, lambda s: ",".join(map(str, s)))))
        return agg.reset_index()

    return keyed_apply(ds.map_batches(explode, batch_format="pyarrow"),
                       "term", reduce_part, num_partitions=num_partitions)


# -- heavy hitters ----------------------------------------------------------

#: Sentinel "terms" for the Misra-Gries summary's side totals.  ``_terms``
#: splits on single spaces and drops empty strings, so neither value can
#: collide with a real term.
_HH_N = ""     # per-batch token total
_HH_U = " "    # per-batch Misra-Gries decrement


def heavy_hitters(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    phi: float = 0.001,
    capacity: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT phi-heavy-hitters over the corpus token stream: every term
    whose total count is ``>= ceil(phi * N)`` (N = total tokens), with its
    exact count and dense rank (count desc, term asc).

    Sketch-then-verify, the mergeable-summary shape (Misra & Gries 1982;
    Agarwal et al. 2012 "Mergeable Summaries"):

    - **Pass 1 (candidates):** each batch's term counts are compressed to
      a Misra-Gries summary of at most ``capacity`` entries by
      subtracting the (capacity+1)-th largest per-batch count ``d`` and
      keeping terms with count > d, so the exchange ships
      O(batches x capacity) rows regardless of vocabulary size.  Each
      batch also emits its ACTUAL decrement ``d`` and token total under
      two sentinel keys, so after one ``exchange_agg`` sum the driver
      knows N, the total undercount U = sum(d_b), and each surviving
      term's count lower bound.  Every true heavy hitter satisfies
      ``mg_sum(t) >= true(t) - U >= thresh - U``, so the candidate cut
      ``mg_sum >= thresh - U`` is sound — no recall loss, by arithmetic
      on the run's own decrements rather than a worst-case bound.
      Candidate volume is <= N/(thresh-U) terms (their lower bounds sum
      to <= N), i.e. ~2/phi when ``capacity`` is sized >= 2/phi.
    - **Pass 2 (verify):** the candidate set is broadcast once via
      ``ray.put`` and the corpus re-counted for candidates only —
      per-batch combiner then one ``exchange_agg`` sum — giving EXACT
      counts; the final ``>= thresh`` filter runs distributed and only
      the <= 1/phi result rows reach the driver.

    If ``capacity`` is too small for the corpus (``thresh - U <= 0``,
    i.e. the summaries could have swallowed a whole hitter) the operator
    falls back to an exact full-vocabulary recount — correct, but the
    exchange is vocabulary-sized; counted via ``heavyhit_fallback`` (no
    silent degradation).  Two passes over the corpus total, like every
    sketch-verify operator.

    SQL replay: tokenize with ``list_filter(str_split(lower(text), ' '),
    x -> x <> '')``, GROUP BY term, ``HAVING count(*) >= ceil(phi * n)``.
    """
    import math

    import ray

    from .exchange import exchange_agg

    def mg_summary(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        n_b = 0
        for txt in batch.column(text_col).to_pylist():
            for t in _terms(txt):
                counts[t] = counts.get(t, 0) + 1
                n_b += 1
        d = 0
        if len(counts) > capacity:
            cnts = np.fromiter(counts.values(), np.int64, len(counts))
            d = int(np.partition(cnts, len(cnts) - capacity - 1)
                    [len(cnts) - capacity - 1])
            out_t = [t for t, c in counts.items() if c > d]
            out_c = [counts[t] - d for t in out_t]
        else:
            out_t, out_c = list(counts), list(counts.values())
        out_t += [_HH_N, _HH_U]
        out_c += [n_b, d]
        return pa.table({"term": pa.array(out_t, pa.string()),
                         "c": pa.array(out_c, pa.int64())})

    mg = exchange_agg(
        ds.map_batches(mg_summary, batch_format="pyarrow"),
        "term", [("c", "sum", "c")], num_partitions=num_partitions,
        combine=False,  # mg_summary rows are already per-batch-distinct
    ).materialize()

    sent = mg.map_batches(
        lambda t: t.filter(pc.is_in(t.column("term"),
                                    value_set=pa.array([_HH_N, _HH_U]))),
        batch_format="pyarrow").to_pandas().set_index("term")["c"]
    n_tokens = int(sent.get(_HH_N, 0))
    undercount = int(sent.get(_HH_U, 0))
    thresh = int(math.ceil(phi * n_tokens))
    cand_cut = thresh - undercount

    if cand_cut > 0:
        cand_df = mg.map_batches(
            lambda t, cut=cand_cut: t.filter(pc.and_(
                pc.greater_equal(t.column("c"), pa.scalar(cut, pa.int64())),
                pc.invert(pc.is_in(t.column("term"),
                                   value_set=pa.array([_HH_N, _HH_U]))))),
            batch_format="pyarrow").to_pandas()
        counters.incr({"heavyhit_candidates": len(cand_df)})
        cand_ref = ray.put(frozenset(cand_df["term"]))
    else:
        # summaries lossy enough to hide a hitter: exact full recount
        counters.incr({"heavyhit_fallback": 1})
        cand_ref = None
    cache: dict = {}

    def recount(batch: pa.Table) -> pa.Table:
        cand = None
        if cand_ref is not None:
            cand = cache.get("c")
            if cand is None:
                cand = cache["c"] = ray.get(cand_ref)
        counts: dict[str, int] = {}
        for txt in batch.column(text_col).to_pylist():
            for t in _terms(txt):
                if cand is None or t in cand:
                    counts[t] = counts.get(t, 0) + 1
        return pa.table({"term": pa.array(list(counts), pa.string()),
                         "cnt": pa.array(list(counts.values()), pa.int64())})

    exact = exchange_agg(
        ds.map_batches(recount, batch_format="pyarrow"),
        "term", [("cnt", "sum", "cnt")], num_partitions=num_partitions,
        combine=False,
    ).map_batches(
        lambda t, th=thresh: t.filter(
            pc.greater_equal(t.column("cnt"), pa.scalar(th, pa.int64()))),
        batch_format="pyarrow")

    # <= 1/phi rows survive the threshold: the global (count desc, term
    # asc) rank is a bounded driver-side sort.  An all-filtered result
    # yields a column-less empty frame from to_pandas — return the typed
    # empty schema instead of sorting it.
    out = exact.to_pandas()
    if not len(out):
        return rd.from_arrow(pa.table({
            "term": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64())}))
    out = out.sort_values(["cnt", "term"],
                          ascending=[False, True]).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return rd.from_pandas(out)


def lm_perplexity(
    ds: rd.Dataset,
    ref: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Bigram-LM perplexity scoring — the CCNet/Gopher-style quality
    filter: train token statistics on a (small) reference corpus, score
    every corpus document by how well the reference model predicts it,
    then filter/bucket on perplexity downstream.

    Model: add-one-smoothed bigram LM.  For doc tokens ``w_1..w_n``
    (n >= 2), ``nll = -mean_i ln((c(w_{i-1}, w_i) + 1) / (c(w_{i-1}) + V))``
    with unigram/bigram counts from the reference and ``V`` = reference
    vocabulary size + 1 (the +1 holds out unseen-word mass); perplexity =
    ``exp(nll)``.  Docs with < 2 tokens score nll = 0 / ppl = 1.

    Scale shape (same contract as ``decontaminate``): the reference side
    is small by definition, so its counts are reduced by a per-batch
    combiner, merged on the driver, and broadcast ONCE via ``ray.put``;
    the corpus side is a pure ``map_batches`` — no shuffle touches the
    100 TB side.  Counts are exact, so the score is deterministic and
    SQL-replayable (LEFT JOIN to the count tables + the same ln/avg).

    Output: (id_col, n_tokens, avg_nll, ppl).
    """
    import math

    import ray

    def ref_counts(batch: pa.Table) -> pa.Table:
        uni: dict[str, int] = {}
        bi: dict[tuple[str, str], int] = {}
        for txt in batch.column(text_col).to_pylist():
            toks = _terms(txt)
            for t in toks:
                uni[t] = uni.get(t, 0) + 1
            for a, b in zip(toks, toks[1:]):
                bi[(a, b)] = bi.get((a, b), 0) + 1
        return pa.table({
            "w1": pa.array([k for k in uni] + [a for a, _ in bi], pa.string()),
            "w2": pa.array([None] * len(uni) + [b for _, b in bi], pa.string()),
            "c": pa.array(list(uni.values()) + list(bi.values()), pa.int64()),
        })

    # per-batch combiner, driver-side merge of the small per-batch tables
    # (reference is small by contract — the decontaminate pattern)
    parts = ref.map_batches(ref_counts, batch_format="pyarrow").to_pandas()
    if len(parts):
        is_uni = parts["w2"].isna()
        uni_counts = parts[is_uni].groupby("w1")["c"].sum().to_dict()
        bi_counts = {(r.w1, r.w2): r.c for r in
                     parts[~is_uni].groupby(["w1", "w2"], as_index=False)["c"]
                     .sum().itertuples()}
    else:
        # token-less reference (to_pandas drops columns at zero rows):
        # an empty model — every bigram scores the same ln(1/V)
        uni_counts, bi_counts = {}, {}
    v_size = len(uni_counts) + 1
    model_ref = ray.put((uni_counts, bi_counts, v_size))
    cache: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        m = cache.get("m")
        if m is None:
            m = cache["m"] = ray.get(model_ref)
        uni, bi, v = m
        ids = batch.column(id_col).to_pylist()
        out_n, out_nll, out_ppl = [], [], []
        for txt in batch.column(text_col).to_pylist():
            toks = _terms(txt)
            n = len(toks)
            if n < 2:
                out_n.append(n); out_nll.append(0.0); out_ppl.append(1.0)
                continue
            s = 0.0
            for a, b in zip(toks, toks[1:]):
                s += math.log((bi.get((a, b), 0) + 1.0) / (uni.get(a, 0) + v))
            nll = -s / (n - 1)
            out_n.append(n); out_nll.append(nll); out_ppl.append(math.exp(nll))
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "n_tokens": pa.array(out_n, pa.int64()),
            "avg_nll": pa.array(out_nll, pa.float64()),
            "ppl": pa.array(out_ppl, pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def pmi_pairs(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 5,
    min_pair: int = 5,
    n_docs: int | None = None,
    max_vocab: int = 2_000_000,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Pointwise mutual information over within-document term pairs —
    the collocation / phrase-mining primitive (Church & Hanks 1990; the
    word2phrase step of Mikolov et al. 2013 is the same statistic).

    PMI(a, b) = ln( n_ab * N / (df_a * df_b) ) over DOCUMENT-level
    co-occurrence (distinct terms per doc, unordered pairs a < b).

    Distributed shape: pass 1 explodes distinct (doc, term) rows and
    reduces document frequencies with one hash exchange; terms with
    df >= ``min_df`` form the vocabulary, which is collected and
    broadcast ONCE via ``ray.put`` (budget: ``max_vocab`` rows — raises
    above it; df thresholding bounds vocab at total_tokens/min_df, so
    pick min_df proportional to corpus size at scale).  Pass 2 generates
    each document's vocab-term pairs as packed int64 keys, pre-reduces
    per batch with ``np.unique`` (the combiner), and sums counts with one
    more hash exchange; PMI is computed vectorized against the broadcast
    df table.  ``ds`` is consumed twice — materialize upstream lineage
    before calling if it is expensive.

    Output: ``(term_a, term_b, n_ab:int64, pmi:float64)`` for pairs with
    n_ab >= ``min_pair``; pmi is round()ed to 6 dp (DuckDB-replayable).
    """
    import ray

    from .dedup import _worker_obj_cache
    from .exchange import exchange_agg

    if n_docs is None:
        n_docs = ds.count()

    def doc_terms(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        out_t: list = []
        for tx in texts:
            out_t.extend(set(_terms(tx or "")))
        return pa.table({"term": pa.array(out_t, pa.string())})

    df = exchange_agg(
        ds.map_batches(doc_terms, batch_format="pyarrow"),
        "term", [("term", "count", "df")],
        num_partitions=num_partitions).to_pandas()
    if "df" not in df.columns:
        # token-less corpus: Ray's zero-row to_pandas drops columns
        # (review r5) — same typed-empty result as V < 2
        df = pd.DataFrame({"term": pd.Series(dtype="object"),
                           "df": pd.Series(dtype="int64")})
    df = df[df["df"] >= min_df].sort_values("term").reset_index(drop=True)
    if len(df) > max_vocab:
        raise ValueError(
            f"pmi_pairs: vocabulary {len(df)} exceeds max_vocab="
            f"{max_vocab} (raise min_df or max_vocab; broadcast budget "
            f"~{max_vocab * 48 // 2**20} MB per worker)")
    terms = df["term"].to_numpy()
    dfs = df["df"].to_numpy().astype(np.int64)
    V = len(terms)
    vocab_ref = ray.put((terms, dfs))
    if V < 2:
        return rd.from_arrow(pa.table({
            "term_a": pa.array([], pa.string()),
            "term_b": pa.array([], pa.string()),
            "n_ab": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64())}))

    def pair_counts(batch: pa.Table, ref=vocab_ref) -> pa.Table:
        t_arr, _ = _worker_obj_cache(ref)
        # derived-dict cache keyed on the per-worker cached array object
        # — rebuilding a up-to-max_vocab dict per BATCH is O(V) wasted
        # CPU on the corpus-sized pass (review r5)
        v2i = _DERIVED_CACHE.get(id(t_arr))
        if v2i is None:
            v2i = _DERIVED_CACHE[id(t_arr)] = {
                t: i for i, t in enumerate(t_arr)}
        keys_parts = []
        for tx in batch.column(text_col).to_pylist():
            idxs = np.fromiter(
                sorted({v2i[t] for t in set(_terms(tx or "")) if t in v2i}),
                np.int64)
            if len(idxs) >= 2:
                ii, jj = np.triu_indices(len(idxs), k=1)
                keys_parts.append(idxs[ii] * V + idxs[jj])
        if not keys_parts:
            return pa.table({"pk": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        k, c = np.unique(np.concatenate(keys_parts), return_counts=True)
        return pa.table({"pk": pa.array(k, pa.int64()),
                         "c": pa.array(c.astype(np.int64), pa.int64())})

    red = exchange_agg(
        ds.map_batches(pair_counts, batch_format="pyarrow"),
        "pk", [("c", "sum", "c")], num_partitions=num_partitions,
        combine=False)  # pair_counts already combined per batch

    def score(batch: pa.Table, ref=vocab_ref,
              n_docs=n_docs, min_pair=min_pair) -> pa.Table:
        t_arr, df_arr = _worker_obj_cache(ref)
        pk = batch.column("pk").to_numpy(zero_copy_only=False)
        c = batch.column("c").to_numpy(zero_copy_only=False)
        keep = c >= min_pair
        pk, c = pk[keep], c[keep]
        ia, ib = pk // V, pk % V
        pmi = np.log((c * n_docs) / (df_arr[ia] * df_arr[ib]))
        pmi = np.sign(pmi) * np.floor(np.abs(pmi) * 1e6 + 0.5) / 1e6
        return pa.table({
            "term_a": pa.array(t_arr[ia], pa.string()),
            "term_b": pa.array(t_arr[ib], pa.string()),
            "n_ab": pa.array(c, pa.int64()),
            "pmi": pa.array(pmi, pa.float64()),
        })

    return red.map_batches(score, batch_format="pyarrow")


def dup_ngram_fraction(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Corpus-level duplicate-n-gram fraction per document (the
    Gopher/RefinedWeb repetition signal computed ACROSS documents, not
    within one): for each doc, the fraction of its n-gram occurrences
    whose n-gram appears >= 2 times in the whole corpus (within-doc
    repeats count — the corpus total includes them).

    Output: (id_col, n_grams, n_dup: int64, dup_frac: float64 6 dp);
    docs with fewer than ``n`` words get (0, 0, 0.0).

    Scale shape: the exchange ships one 128-bit n-gram hash + an int64
    occurrence count per DISTINCT (doc, gram) — never gram text.  All
    rows of a gram land in one hash partition, so global counts resolve
    per partition with a vectorized transform('sum'); per-doc dup
    partials then reduce by one doc-keyed exchange, and a final
    ``exchange_join`` attaches them to the per-doc totals.  Three
    exchanges total, each O(#distinct (doc, gram) pairs).
    """
    from .exchange import exchange_agg, exchange_join

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_h1, out_h2, out_occ = [], [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            words = _terms(txt)
            counts: dict = {}
            for g in _word_ngrams(words, n):
                dig = digest128(g)
                counts[dig] = counts.get(dig, 0) + 1
            for (h1, h2), occ in counts.items():
                out_id.append(did)
                out_h1.append(h1)
                out_h2.append(h2)
                out_occ.append(occ)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "_h1": pa.array(out_h1, pa.int64()),
            "_h2": pa.array(out_h2, pa.int64()),
            "_occ": pa.array(out_occ, pa.int64()),
        })

    def mark_part(g: pd.DataFrame) -> pd.DataFrame:
        total = g.groupby(["_h1", "_h2"], sort=False)["_occ"].transform("sum")
        dup = g["_occ"].to_numpy() * (total.to_numpy() >= 2)
        out = (pd.DataFrame({id_col: g[id_col], "n_dup": dup})
               .groupby(id_col, sort=False)["n_dup"].sum().reset_index())
        return out

    dups = exchange_agg(
        keyed_apply(ds.map_batches(explode, batch_format="pyarrow"), "_h1",
                    mark_part, num_partitions=num_partitions),
        id_col, [("n_dup", "sum", "n_dup")],
        num_partitions=num_partitions, combine=False)

    def totals(batch: pa.Table) -> pa.Table:
        ids, ng = [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            ids.append(did)
            ng.append(max(len(_terms(txt)) - n + 1, 0))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_grams": pa.array(ng, pa.int64())})

    tot = ds.map_batches(totals, batch_format="pyarrow")
    joined = exchange_join(
        tot, dups, on=id_col, how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()), ("n_grams", pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()), ("n_dup", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        ng = t.column("n_grams").to_numpy(zero_copy_only=False)
        nd = np.nan_to_num(
            t.column("n_dup").to_numpy(zero_copy_only=False).astype(np.float64),
            nan=0.0).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(ng > 0, nd / ng, 0.0)
        frac = np.floor(frac * 1e6 + 0.5) / 1e6
        return pa.table({id_col: t.column(id_col),
                         "n_grams": pa.array(ng, pa.int64()),
                         "n_dup": pa.array(nd, pa.int64()),
                         "dup_frac": pa.array(frac, pa.float64())})

    return joined.map_batches(finish, batch_format="pyarrow")


def split_thresholds(fractions: list[tuple[str, float]]) -> list[tuple[str, int]]:
    """(label, cumulative uint64 threshold) for ``hash_split`` — the LAST
    label's threshold is omitted (it is the catch-all).  Thresholds are
    exact Python ints so the DuckDB oracle can embed the identical
    HUGEINT literals: a row with hash h gets the first label whose
    threshold exceeds h."""
    if not fractions:
        raise ValueError("hash_split: fractions must be non-empty")
    tot = sum(f for _, f in fractions)
    if not (0.999999 <= tot <= 1.000001):
        raise ValueError(f"hash_split: fractions sum to {tot}, expected 1.0")
    if any(f < 0 for _, f in fractions):
        # the old fractions[:-1] loop let a negative FINAL fraction
        # slip through whenever the sum still hit 1.0 (review r5)
        raise ValueError("hash_split: negative fraction")
    out, cum = [], 0.0
    for label, f in fractions[:-1]:
        cum += f
        out.append((label, min(int(cum * 2.0**64), 2**64 - 1)))
    return out


def hash_split(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    fractions: list[tuple[str, float]] | None = None,
    salt: int = 0,
) -> rd.Dataset:
    """Deterministic train/val/test assignment: ``split`` column derived
    from splitmix64(id XOR salt) against cumulative fraction thresholds.

    The canonical held-out-split operator for training corpora: membership
    is a pure function of the id, so (a) it is stable across reruns,
    parallelism levels, and corpus growth (a doc never migrates between
    splits when new shards arrive), and (b) it needs ZERO shuffle — a
    pure ``map_batches`` at any scale.  Distinct ``salt`` values give
    independent splits (re-rolling without touching the data).

    Exactly SQL-replayable: splitmix64 is the repo's HLL hash chain and
    the thresholds are exact integers (``split_thresholds``).
    """
    from .analytics import splitmix64

    if fractions is None:
        fractions = [("train", 0.9), ("val", 0.05), ("test", 0.05)]
    thr = split_thresholds(fractions)
    bounds = np.array([t for _, t in thr], dtype=np.uint64)
    labels = np.array([lbl for lbl, _ in fractions], dtype=object)
    salt_u = np.uint64(np.int64(salt).view(np.uint64))

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.view(np.uint64) ^ salt_u)
        idx = np.searchsorted(bounds, h, side="right")
        return batch.append_column(
            "split", pa.array(labels[idx], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def mix_sources(
    ds: rd.Dataset,
    *,
    weights: dict[str, float],
    id_col: str = "doc_id",
    source_col: str = "source",
    default_weight: float = 1.0,
    salt: int = 0,
) -> rd.Dataset:
    """Deterministic weighted source mixing: keep each row with
    probability ``weights[source]`` (Dolma/RedPajama-style corpus
    re-weighting), decided by splitmix64(id XOR salt) < weight * 2^64.

    Like ``hash_split`` this is a pure per-batch filter — no shuffle, no
    RNG state, identical keep-set at any parallelism — and membership is
    monotone in the weight: raising a source's weight only ADDS docs
    (the retained set at w1 is a subset of the set at w2 > w1), which is
    what you want when iterating on a mixture.  Weights >= 1.0 keep the
    source whole; unlisted sources use ``default_weight``.
    """
    from .analytics import splitmix64

    thr = {
        s: (None if w >= 1.0 else min(int(w * 2.0**64), 2**64 - 1))
        for s, w in weights.items()
    }
    if default_weight < 1.0:
        thr_default = min(int(default_weight * 2.0**64), 2**64 - 1)
    else:
        thr_default = None
    salt_u = np.uint64(np.int64(salt).view(np.uint64))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.view(np.uint64) ^ salt_u)
        src = batch.column(source_col).to_numpy(zero_copy_only=False)
        mask = np.ones(len(ids), dtype=bool)
        null_sel = pd.isna(src)
        if null_sel.any():
            # null source = unlisted source (np.unique would raise
            # sorting None against str; review r5)
            if thr_default is not None:
                mask[null_sel] = h[null_sel] < np.uint64(thr_default)
        for s in np.unique(src[~null_sel]):
            t = thr.get(s, thr_default)
            if t is not None:
                sel = src == s
                mask[sel] = h[sel] < np.uint64(t)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    weight_col: str,
    k: int,
    salt: int = 0,
) -> rd.Dataset:
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis &
    Spirakis 2006 A-Res, public algorithm): each row gets the key
    ``r = ln(u) / w`` with ``u = (splitmix64(id XOR salt) + 1) / 2^64``
    (so r = ln(u^(1/w)) — monotone in the classic u^(1/w) key) and the
    ``k`` LARGEST r win.  Higher weight -> r closer to 0 -> more likely
    sampled; inclusion probabilities match sequential weighted draws
    without replacement.  No RNG state: identical sample at any
    parallelism/retry, re-rollable via ``salt``, SQL-replayable
    (same hash chain + ln/division in IEEE double).

    Rows with weight <= 0 or null are never sampled (dropped before
    ranking).  Shape: per-batch local top-k combiner -> one exchange ->
    O(k) result (reuses ``topk_per_group`` with a constant group).
    Emits the input columns plus ``es_key`` (rounded to 10 dp for a
    stable hash compare) and ``sample_rank`` (1-based).
    """
    from .analytics import splitmix64, topk_per_group

    salt_u = np.uint64(np.int64(salt).view(np.uint64))

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        h = splitmix64(ids.view(np.uint64) ^ salt_u)
        u = (h.astype(np.float64) + 1.0) / 2.0**64
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.log(u) / w
        keep = np.isfinite(r) & (w > 0)
        t = batch.filter(pa.array(keep))
        return (t.append_column("es_key", pa.array(r[keep], pa.float64()))
                .append_column("_g", pa.array(
                    np.zeros(int(keep.sum()), np.int32), pa.int32())))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    out = topk_per_group(keyed, key_col="_g", sort_col="es_key",
                         tiebreak_col=id_col, k=k)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.drop(columns=["_g"]).rename(
            columns={"rank": "sample_rank"})
        batch["es_key"] = (np.sign(batch["es_key"])
                           * np.floor(np.abs(batch["es_key"]) * 1e10 + 0.5)
                           / 1e10)
        batch["sample_rank"] = batch["sample_rank"].astype("int64")
        return batch

    return out.map_batches(finish, batch_format="pandas")


def shuffle_rows(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    salt: int = 0,
) -> rd.Dataset:
    """Deterministic epoch shuffle for training: every row's global
    position is the rank of ``splitmix64(id XOR salt)`` — a full-avalanche
    bijection, so the order is uniform-pseudorandom, IDENTICAL at any
    parallelism (unlike ``Dataset.random_shuffle``), and a new ``salt``
    gives an independent epoch order without touching the data.

    Shape: the hash is mapped order-preservingly into int64 (flip the
    sign bit), ONE range sort on it (``bsp.sort_blocks``), then each
    sorted block's positions are its offset — the rows of the blocks
    before it, from the exchange's block row counts — plus a local
    arange.  Ids should be unique (the hash is a bijection, so distinct
    ids never tie); duplicate ids still get distinct consecutive
    positions.  Emits ``(id_col, shuffle_pos)``, positions 0..n-1.
    """
    from .analytics import splitmix64
    from .bsp import scan_blocks, sort_blocks

    salt_u = np.uint64(np.int64(salt).view(np.uint64))

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.view(np.uint64) ^ salt_u)
        hs = (h ^ np.uint64(1 << 63)).view(np.int64)  # unsigned order, signed domain
        return pa.table({id_col: batch.column(id_col),
                         "_hs": pa.array(hs, pa.int64())})

    srt = sort_blocks((ds, add_hash), "_hs")

    def assign(off: int, t: pa.Table) -> pa.Table:
        return pa.table({id_col: t.column(id_col),
                         "shuffle_pos": pa.array(
                             off + np.arange(t.num_rows, dtype=np.int64))})

    return scan_blocks(srt, assign, srt.row_offsets()).dataset()


def line_dedup(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 2,
    num_partitions: int = 64,
    max_broadcast_pairs: int = 5_000_000,
) -> rd.Dataset:
    """Line-level boilerplate removal (the MassiveText / RefinedWeb
    "remove lines repeated across documents" rule): drop every line of
    text that occurs in at least ``min_df`` DISTINCT documents —
    cookie banners, nav bars, copyright footers — and return the
    per-document cleaned text.

    Output: one row per input doc — ``(id_col, n_lines, n_removed,
    text_clean)`` with ``text_clean`` the surviving lines re-joined by
    ``\\n`` in original order ('' when everything was boilerplate).

    Scale shape: the df exchange ships a 128-bit line hash + (doc, idx)
    — never the line text (collision odds ~n^2/2^128, documented in
    lieu of shipping text).  Each hash lives in exactly one partition,
    so the df count AND the removal flags come from one vectorized
    per-partition pass.  The removal set (pairs of int64) is tiny
    relative to the corpus — boilerplate occurrences only — so below
    ``max_broadcast_pairs`` (~80 MB) it is broadcast once via
    ``ray.put`` and the rebuild is a pure map over the original docs
    (the 100 TB side is never re-shuffled); above it, removals are
    csv-packed per doc in a doc-keyed exchange and attached with one
    ``exchange_join`` (the corpus pays one hash exchange).  Removed
    distinct lines / occurrences are counted
    (``linededup_lines`` / ``linededup_occurrences``), never silent.
    """
    import ray

    from .exchange import exchange_join

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_idx, out_h1, out_h2 = [], [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            for i, line in enumerate((txt or "").split("\n")):
                h1, h2 = digest128(line)
                out_id.append(did)
                out_idx.append(i)
                out_h1.append(h1)
                out_h2.append(h2)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "line_idx": pa.array(out_idx, pa.int64()),
            "_h1": pa.array(out_h1, pa.int64()),
            "_h2": pa.array(out_h2, pa.int64()),
        })

    def flag_removed(group: pd.DataFrame) -> pd.DataFrame:
        # every occurrence of a hash is in THIS partition: df
        # (distinct-doc count) and the removal flags in one pass
        df = group.groupby(["_h1", "_h2"], sort=False)[id_col].transform(
            "nunique")
        rem = group[df >= min_df]
        counters.incr({
            "linededup_lines": int(rem.groupby(["_h1", "_h2"],
                                               sort=False).ngroups),
            "linededup_occurrences": int(len(rem)),
        })
        return rem[[id_col, "line_idx"]]

    # tiny: boilerplate occurrences only
    removed = keyed_apply(ds.map_batches(explode, batch_format="pyarrow"),
                          "_h1", flag_removed, num_partitions=num_partitions)

    def rebuild(removed_of):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_pylist()
            txts = batch.column(text_col).to_pylist()
            n_lines, n_removed, clean = [], [], []
            for did, txt in zip(ids, txts):
                lines = (txt or "").split("\n")
                drop = removed_of(did)
                n_lines.append(len(lines))
                n_removed.append(len(drop))
                clean.append("\n".join(
                    ln for i, ln in enumerate(lines) if i not in drop))
            return pa.table({
                id_col: pa.array(ids, pa.int64()),
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_removed": pa.array(n_removed, pa.int64()),
                "text_clean": pa.array(clean, pa.string()),
            })

        return fn

    n_pairs = removed.count()
    if n_pairs <= max_broadcast_pairs:
        rem_df = removed.to_pandas()  # bounded by max_broadcast_pairs
        rem_map: dict[int, frozenset] = {
            int(k): frozenset(v)
            for k, v in rem_df.groupby(id_col)["line_idx"].apply(set).items()
        }
        rem_ref = ray.put(rem_map)
        cache: dict = {}

        def lookup(did):
            m = cache.get("m")
            if m is None:
                m = cache["m"] = ray.get(rem_ref)
            return m.get(did, frozenset())

        return ds.map_batches(rebuild(lookup), batch_format="pyarrow")

    # join tier: csv-pack removals per doc in a doc-keyed exchange, then
    # one exchange_join attaches them to the corpus
    def pack(group: pd.DataFrame) -> pd.DataFrame:
        g = (group.sort_values("line_idx")
             .groupby(id_col, sort=False)["line_idx"]
             .agg(lambda s: ",".join(map(str, s))).reset_index())
        return g.rename(columns={"line_idx": "_removed_csv"})

    packed = keyed_apply(removed, id_col, pack,
                         num_partitions=num_partitions)
    packed_schema = pa.schema([(id_col, pa.int64()),
                               ("_removed_csv", pa.string())])
    joined = exchange_join(
        ds, packed, on=id_col, how="left_outer",
        num_partitions=num_partitions, right_schema=packed_schema)

    def rebuild_joined(batch: pa.Table) -> pa.Table:
        # one row per doc (packed is per-doc), so a batch-local map is safe
        drop_of = {
            did: (frozenset(map(int, c.split(","))) if c else frozenset())
            for did, c in zip(batch.column(id_col).to_pylist(),
                              batch.column("_removed_csv").to_pylist())
        }
        sub = batch.drop_columns(["_removed_csv"])
        return rebuild(lambda did: drop_of[did])(sub)

    return joined.map_batches(rebuild_joined, batch_format="pyarrow")


def build_vocab(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    max_vocab: int = 30_000,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Corpus vocabulary for fixed-vocab token encoding: the top
    ``max_vocab`` whitespace terms by frequency — ``(term, count,
    token_id)`` with ``token_id`` the 1-based rank under
    (count desc, term asc); id 0 is reserved for OOV.

    Scale shape: per-batch ``Counter`` partials (one row per distinct
    term per batch, never raw tokens) -> one term-keyed ``exchange_agg``
    sum -> global top-``max_vocab`` via ``topk_per_group`` on a constant
    key, whose batch-local combiner caps the final funnel at
    ``batches x max_vocab`` rows — the full vocabulary table is never
    collected anywhere.
    """
    from collections import Counter

    from .analytics import topk_per_group
    from .exchange import exchange_agg

    def explode(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for txt in batch.column(text_col).to_pylist():
            c.update(_terms(txt or ""))
        terms = sorted(c)
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "count": pa.array([c[t] for t in terms], pa.int64()),
        })

    counts = exchange_agg(
        ds.map_batches(explode, batch_format="pyarrow"),
        "term", [("count", "sum", "count")],
        num_partitions=num_partitions)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_all", pa.array(np.zeros(len(batch), np.int32), pa.int32()))

    top = topk_per_group(
        counts.map_batches(tag, batch_format="pyarrow"),
        key_col="_all", sort_col="count", tiebreak_col="term",
        k=max_vocab, descending=True)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.rename(columns={"rank": "token_id"})
        return out[["term", "count", "token_id"]]

    return top.map_batches(finish, batch_format="pandas")


def encode_with_vocab(
    ds: rd.Dataset,
    vocab,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Fixed-vocabulary token encoding (the tokenizer step of a training
    pipeline): map each document's whitespace terms to ``token_id``s from
    ``vocab`` (a ``build_vocab`` result — Dataset or DataFrame), OOV -> 0.
    Output: ``(id_col, n_tokens, n_oov, ids_csv)`` with ``ids_csv`` the
    ids in document order.

    Scale shape: the vocab is bounded by ``max_vocab`` BY CONSTRUCTION,
    so it is collected once, broadcast via ``ray.put`` and cached per
    worker process; the corpus side is a pure map — no shuffle touches
    the big side.  Per-batch encoding is a single vectorized
    ``Series.map`` over the flattened token stream, re-split by
    document boundaries.
    """
    import itertools

    import ray

    vdf = vocab.to_pandas() if isinstance(vocab, rd.Dataset) else vocab
    vmap = dict(zip(vdf["term"], vdf["token_id"].astype(np.int64)))
    vref = ray.put(vmap)
    cache: dict = {}

    def enc(batch: pa.Table) -> pa.Table:
        vd = cache.get("v")
        if vd is None:
            vd = cache["v"] = ray.get(vref)
        ids = batch.column(id_col).to_pylist()
        txts = batch.column(text_col).to_pylist()
        toks = [_terms(t or "") for t in txts]
        lens = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        flat = list(itertools.chain.from_iterable(toks))
        if flat:
            tid = (pd.Series(flat, dtype=object).map(vd)
                   .fillna(0).astype(np.int64).to_numpy())
        else:
            tid = np.empty(0, np.int64)
        parts = np.split(tid, np.cumsum(lens)[:-1]) if len(toks) else []
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "n_oov": pa.array([int((p == 0).sum()) for p in parts],
                              pa.int64()),
            "ids_csv": pa.array([",".join(map(str, p)) for p in parts],
                                pa.string()),
        })

    return ds.map_batches(enc, batch_format="pyarrow")


def normalize_text(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    out_col: str = "text_norm",
) -> rd.Dataset:
    """Unicode text normalization (the first cleaning step of a corpus
    pipeline): NFC-normalize, casefold to lower, collapse ASCII
    whitespace runs (``[ \\t\\n\\r\\f\\v]+``) to one space, strip ends.
    Adds ``out_col`` plus ``changed`` (bool).

    Pure map — no shuffle, no state; the regex is compiled once at
    module import and the per-batch work is C-level (``re.sub`` +
    ``unicodedata.normalize`` per string; strings are the unit here, as
    in every tokenizer).  The whitespace class is EXPLICIT (not ``\\s``)
    because Python ``\\s`` also matches unicode spaces while RE2/DuckDB
    ``\\s`` does not — the explicit class keeps the operator
    SQL-replayable (nfc_normalize + regexp_replace).
    """
    import unicodedata

    ws = _WS_RUN_RE

    def norm(batch: pa.Table) -> pa.Table:
        txts = batch.column(text_col).to_pylist()
        out = [ws.sub(" ", unicodedata.normalize(
            "NFC", (t or "").lower())).strip() for t in txts]
        changed = [a != (b or "") for a, b in zip(out, txts)]
        return (batch.append_column(out_col, pa.array(out, pa.string()))
                .append_column("changed", pa.array(changed, pa.bool_())))

    return ds.map_batches(norm, batch_format="pyarrow")


def token_budget_mix(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    source_col: str = "source",
    weight_col: str,
    budget: int,
    salt: int = 0,
) -> rd.Dataset:
    """Exact per-source token-budget subsampling (the mixture recipe
    stated as token COUNTS, not keep-probabilities — how training mixes
    are actually specified): keep each source's documents in
    deterministic ``splitmix64(id XOR salt)`` order until the source's
    cumulative ``weight_col`` reaches ``budget``.  A document whose
    preceding same-source tokens are still under budget is kept (it may
    straddle the boundary — streaming-pack semantics, same rule as
    ``pack_sequences``).

    Unlike ``mix_sources`` (probabilistic, expected-fraction), the
    budget is exact and the kept set is a deterministic function of
    (corpus, salt): identical at any parallelism, re-rollable via salt,
    and stable under corpus growth only for already-seen ids (new ids
    interleave — by design, the hash order IS the shuffle).

    Scale shape: pure-map hash column, then
    ``analytics.grouped_prefix_sum`` (one global range sort + two
    streaming block passes; a hot source never has to fit in one
    worker), then a pure-map filter.  Output: input columns +
    ``tokens_before``.
    """
    from .analytics import grouped_prefix_sum, splitmix64

    salt_u = np.uint64(np.int64(salt).view(np.uint64))

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        h = splitmix64(ids.astype(np.uint64) ^ salt_u)
        # order-preserving uint64 -> int64 (flip the sign bit) so the
        # range sort ranks exactly like the oracle's UBIGINT ordering
        hk = (h ^ np.uint64(1 << 63)).view(np.int64)
        return batch.append_column("_hk", pa.array(hk, pa.int64()))

    pref = grouped_prefix_sum(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        key_col=source_col, order_col="_hk", value_col=weight_col,
        out_col="tokens_before")

    def keep(batch: pa.Table) -> pa.Table:
        b = batch.column("tokens_before").to_numpy(zero_copy_only=False)
        out = batch.filter(pa.array(b < float(budget)))
        return out.drop_columns(["_hk"])

    return pref.map_batches(keep, batch_format="pyarrow")


_URL_PARTS_RE = r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)(?:\?([^#]*))?(?:#.*)?$"
#: tracking params dropped by canonical_urls (public convention:
#: utm_* campaign tags, facebook/google click ids)
_TRACKING_PREFIXES = ("utm_",)
_TRACKING_EXACT = ("fbclid", "gclid")


def canonical_urls(urls: pd.Series) -> pd.Series:
    """Vectorized URL canonicalization (the crawl-dedup normal form):
    lowercase scheme and host, strip a leading ``www.``, strip default
    ports ``:80``/``:443``, drop the fragment, drop tracking params
    (``utm_*``, ``fbclid``, ``gclid``), sort the surviving query params
    lexicographically, strip one trailing slash from the path.  Rows
    that do not parse as ``scheme://...`` pass through unchanged
    (callers can count them).

    All component surgery is pandas ``.str`` kernels; only the
    per-URL param sort/join runs in Python, bounded by the handful of
    params a URL carries — the explode/sort machinery for the 10^12-URL
    regime is the same explode -> sort_values -> segment-join used
    below, already vectorized up to that final join.
    """
    parts = urls.str.extract(_URL_PARTS_RE)
    parts.columns = ["scheme", "host", "path", "query"]
    ok = parts["scheme"].notna()
    scheme = parts["scheme"].str.lower()
    # scheme-AWARE default-port strip: only :80 is default for http and
    # only :443 for https — stripping both on either scheme made
    # https://host:80/ (a distinct origin) collapse onto https://host/
    # and url_dedup silently dropped real documents (review r5)
    host = (parts["host"].str.lower()
            .str.replace(r"^www\.", "", regex=True))
    host = host.where(~(scheme == "http"),
                      host.str.replace(r":80$", "", regex=True))
    host = host.where(~(scheme == "https"),
                      host.str.replace(r":443$", "", regex=True))
    path = parts["path"].fillna("").str.replace(r"/$", "", regex=True)

    # query params: explode -> filter tracking -> sort -> re-join per row
    q = parts["query"].fillna("")
    long = q.str.split("&").explode()
    long = long[(long != "") & long.notna()]
    keyname = long.str.split("=").str[0]
    keep = ~(keyname.str.startswith(_TRACKING_PREFIXES)
             | keyname.isin(_TRACKING_EXACT))
    long = long[keep]
    if len(long):
        srt = (long.rename("p").reset_index()
               .sort_values(["index", "p"], kind="stable"))
        joined = srt.groupby("index", sort=False)["p"].agg("&".join)
        qcanon = pd.Series("", index=q.index, dtype=object)
        qcanon.loc[joined.index] = "?" + joined
    else:
        qcanon = pd.Series("", index=q.index, dtype=object)

    canon = scheme + "://" + host + path + qcanon
    return canon.where(ok, urls)


def url_dedup(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    url_col: str = "url",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Canonical-URL dedup (the first dedup pass of every web crawl —
    CCNet/RefinedWeb run it before any content hashing): canonicalize
    with :func:`canonical_urls`, then keep per canonical URL the single
    row with the smallest ``id_col``.

    Scale shape: canonicalization is a pure map (URL strings never
    shuffle twice); the winner-per-URL reduce is a batch-local
    min-combiner + ONE canonical-url-hash exchange_agg, so exchange
    volume is per-batch-distinct canonical URLs.  The keep decision then
    flows back as an exchange_join on (canon, min_id) — output rows are
    the kept originals with their ``canon_url``.
    """
    from .exchange import as_arrow_schema, exchange_agg, exchange_join

    # derive the post-map schema from the (metadata-cheap) input schema
    # so the chained join never runs a schema-probe execution
    left_schema = as_arrow_schema(ds.schema()).append(
        pa.field("canon_url", pa.string()))

    def add_canon(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["canon_url"] = canonical_urls(batch[url_col].astype(str))
        return batch

    with_canon = ds.map_batches(add_canon, batch_format="pandas")
    winners = exchange_agg(with_canon, "canon_url",
                           [(id_col, "min", "_keep_id")],
                           num_partitions=num_partitions)

    def tag_keep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "canon_url": batch.column("canon_url"),
            id_col: batch.column("_keep_id").cast(pa.int64()),
            "_keep": pa.array(np.ones(len(batch), np.bool_)),
        })

    keep_ds = winners.map_batches(tag_keep, batch_format="pyarrow")
    joined = exchange_join(
        with_canon, keep_ds, on=["canon_url", id_col], how="left_outer",
        num_partitions=num_partitions,
        left_schema=left_schema, right_schema=pa.schema(
            [("canon_url", pa.string()), (id_col, pa.int64()),
             ("_keep", pa.bool_())]))

    def mark(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        kept = pc.fill_null(batch.column("_keep"), False)
        return batch.drop_columns(["_keep"]).append_column(
            "is_kept", kept)

    return joined.map_batches(mark, batch_format="pyarrow")


def rag_chunks(
    ds: rd.Dataset,
    *,
    id_col: str,
    text_col: str,
    window: int = 64,
    stride: int = 48,
) -> rd.Dataset:
    """Sliding-window passage extraction (RAG / training-context
    chunking): split each document into whitespace words and emit one
    row per window of ``window`` words advancing by ``stride``.

    Start positions are 0, stride, 2·stride, …; a start is emitted while
    the PREVIOUS window has not yet reached the end of the document
    (``start == 0 or start - stride + window < n_words``), so the final
    window is the first one whose end covers the last word — no fully
    redundant trailing sub-windows.  Emits ``(id, chunk_idx, start_word,
    n_words, first_word, last_word)`` — offsets + boundary words, not the
    chunk text, so the exchange-free map stage ships O(chunks) small rows
    and a consumer can slice the original text zero-copy.  Pure
    ``map_batches`` (embarrassingly parallel; no shuffle).
    """
    if window <= 0 or stride <= 0 or stride > window:
        raise ValueError(
            f"rag_chunks: need 0 < stride <= window, got "
            f"window={window} stride={stride}")

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        idxs: list[int] = []
        starts: list[int] = []
        ns: list[int] = []
        firsts: list[str] = []
        lasts: list[str] = []
        for i, txt in zip(batch[id_col].to_numpy(),
                          batch[text_col].astype(str)):
            ws = txt.split()
            nw = len(ws)
            for ci, st in enumerate(range(0, max(nw, 1), stride)):
                if st >= nw or (st > 0 and st - stride + window >= nw):
                    break
                n = min(window, nw - st)
                ids.append(int(i))
                idxs.append(ci)
                starts.append(st)
                ns.append(n)
                firsts.append(ws[st])
                lasts.append(ws[st + n - 1])
        return pd.DataFrame({
            id_col: pd.Series(ids, dtype="int64"),
            "chunk_idx": pd.Series(idxs, dtype="int64"),
            "start_word": pd.Series(starts, dtype="int64"),
            "n_words": pd.Series(ns, dtype="int64"),
            "first_word": pd.Series(firsts, dtype=str),
            "last_word": pd.Series(lasts, dtype=str),
        })

    return ds.map_batches(fn, batch_format="pandas", batch_size=4096)


#: PII redaction patterns, applied IN ORDER (each counts/replaces on the
#: text state left by the previous one — the same sequential semantics
#: the DuckDB oracle replays with chained regexp_replace).  Every
#: pattern is RE2-compatible (no backreferences / lookaround) so the
#: exact same strings drive Python ``re`` and DuckDB.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    ("ipv4", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "[IP]"),
    ("phone", r"\+?[0-9][0-9 ().-]{7,14}[0-9]\b", "[PHONE]"),
]


def redact_pii(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    out_col: str = "text_redacted",
    patterns: list[tuple[str, str, str]] | None = None,
) -> rd.Dataset:
    """Dolma/CCNet-style PII redaction: replace emails / IPv4 addresses /
    phone numbers with typed placeholder tokens and count each category
    per document (``n_<name>`` columns + ``has_pii``).

    Pure map — no shuffle, no state beyond module-level compiled
    patterns.  Order matters and is part of the contract: emails are
    redacted before IPs (an email's host can contain dotted digits),
    IPs before phones (a phone pattern would otherwise eat IP octet
    runs); each pattern counts on the text AFTER the previous
    replacements, exactly like the chained ``regexp_replace`` SQL
    replay.  At 100 TB this is embarrassingly parallel; the per-batch
    work is C-level regex over each string.
    """
    import re as _re

    pats = [(name, _re.compile(rx), token)
            for name, rx, token in (patterns or PII_PATTERNS)]

    def fn(batch: pa.Table) -> pa.Table:
        txts = batch.column(text_col).to_pylist()
        counts = {name: np.zeros(len(txts), dtype=np.int64)
                  for name, _, _ in pats}
        out = []
        for i, t in enumerate(txts):
            t = t or ""
            for name, rx, token in pats:
                t, n = rx.subn(token, t)
                counts[name][i] = n
            out.append(t)
        batch = batch.append_column(out_col, pa.array(out, pa.string()))
        total = np.zeros(len(txts), dtype=np.int64)
        for name, _, _ in pats:
            batch = batch.append_column(
                f"n_{name}", pa.array(counts[name], pa.int64()))
            total += counts[name]
        return batch.append_column("has_pii", pa.array(total > 0, pa.bool_()))

    return ds.map_batches(fn, batch_format="pyarrow")


_CLF_TOKEN_RE = re.compile(r"[a-z0-9]+")


def hashed_classifier_score(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    dim: int = 512,
    seed: int = 1234,
) -> rd.Dataset:
    """fastText-style hashed linear quality classifier: tokens hash into
    ``dim`` weight buckets (hashing trick — no vocabulary is ever built
    or shipped) and the document score is the sigmoid of the mean
    bucket weight.  Weights here are pseudo-random, derived from
    splitmix64(bucket + seed) — the REAL pipeline would broadcast a
    trained weight vector; the Ray plumbing (pure map, integer-exact
    accumulation, zero shuffle) is identical either way.

    Adds ``clf_n_tokens``, ``clf_raw`` (int64 Σ of per-token integer
    weights in [-2³¹, 2³¹) — an ORDER-INDEPENDENT exact sum, so any
    engine/partitioning reproduces it bit-for-bit), ``clf_score`` =
    sigmoid(clf_raw / (n_tokens·2³¹)) (0.5 for empty docs) and
    ``clf_keep`` = score >= 0.5.  Embarrassingly parallel at 100 TB;
    per-batch cost is one C-regex pass + vectorized hashing + one
    grouped int64 sum.
    """
    from ..kernels.minhash import _hash_shingles
    from .analytics import splitmix64

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        toks_per_doc = [_CLF_TOKEN_RE.findall((t or "").lower())
                        for t in batch[text_col]]
        lens = np.array([len(t) for t in toks_per_doc], dtype=np.int64)
        raw = np.zeros(len(batch), dtype=np.int64)
        flat = [tok for toks in toks_per_doc for tok in toks]
        if flat:
            bucket = _hash_shingles(flat) % np.uint64(dim)
            w = ((splitmix64(bucket + np.uint64(seed))
                  >> np.uint64(32)).astype(np.int64) - 2**31)
            seg = np.repeat(np.arange(len(batch)), lens)
            # int64 groupby sum: exact at any token count (float64
            # accumulation is only exact below 2^53)
            sums = pd.Series(w).groupby(seg).sum()
            raw[sums.index.to_numpy()] = sums.to_numpy()
        denom = np.maximum(lens, 1).astype(np.float64) * float(2**31)
        score = 1.0 / (1.0 + np.exp(-(raw / denom)))
        return batch.assign(clf_n_tokens=lens, clf_raw=raw,
                            clf_score=score, clf_keep=score >= 0.5)

    return ds.map_batches(fn, batch_format="pandas", batch_size=4096)


def dup_spans(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Exact duplicated-substring SPAN extraction (the span-level form of
    training-data dedup from Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better" — suffix-array semantics realised
    as a distributed k-gram-hash exchange): every maximal token span of a
    document that is covered by word n-grams occurring >= 2 times
    corpus-wide (within-doc repeats count toward the corpus total).

    Output: one row per merged span — (id_col, span_start, span_end)
    with 0-based token indices, end exclusive; overlapping OR touching
    n-gram windows merge into one span.  Docs with no duplicated grams
    emit nothing.  Downstream removal is a pure map: drop tokens in
    [span_start, span_end) and re-join.

    Scale shape: the first exchange ships one 128-bit gram hash + doc id
    + int32 position per n-gram occurrence — O(tokens) rows, never gram
    text; all occurrences of a gram land in one hash partition, so the
    corpus count resolves with one vectorized transform('size').  The
    surviving (doc, pos) hits (duplicated grams only — candidate-
    proportional) re-exchange on doc and the interval merge is one
    sort + cumsum islands pass per partition, vectorized across all
    docs.  Two exchanges total; no stage holds more than its partition.
    """

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_h1, out_h2, out_pos = [], [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            words = _terms(txt)
            for i, g in enumerate(_word_ngrams(words, n)):
                h1, h2 = digest128(g)
                out_id.append(did)
                out_h1.append(h1)
                out_h2.append(h2)
                out_pos.append(i)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "_h1": pa.array(np.asarray(out_h1, np.int64), pa.int64()),
            "_h2": pa.array(np.asarray(out_h2, np.int64), pa.int64()),
            "_pos": pa.array(np.asarray(out_pos, np.int64), pa.int64()),
        })

    def dup_hits(g: pd.DataFrame) -> pd.DataFrame:
        total = g.groupby(["_h1", "_h2"], sort=False)["_h1"].transform("size")
        return g.loc[total.to_numpy() >= 2, [id_col, "_pos"]]

    def merge_spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "_pos"], kind="mergesort")
        ids = g[id_col].to_numpy(np.int64)
        pos = g["_pos"].to_numpy(np.int64)
        if len(ids) == 0:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "span_start": pd.Series(dtype="int64"),
                                 "span_end": pd.Series(dtype="int64")})
        brk = np.ones(len(ids), dtype=bool)
        brk[1:] = (ids[1:] != ids[:-1]) | (pos[1:] - pos[:-1] > n)
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(ids)] - 1
        return pd.DataFrame({id_col: ids[starts],
                             "span_start": pos[starts],
                             "span_end": pos[ends] + n})

    hits = keyed_apply(ds.map_batches(explode, batch_format="pyarrow",
                                      batch_size=2048),
                       "_h1", dup_hits, num_partitions=num_partitions)
    return keyed_apply(hits, id_col, merge_spans,
                       num_partitions=num_partitions)


def ngram_novelty(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Per-document n-gram NOVELTY rate for incremental crawl curation:
    the fraction of a document's DISTINCT word n-grams that first appear
    in the corpus in this document (corpus-min ``id_col`` == this doc's
    id — the id is the crawl order).  New snapshots with low novelty are
    near-free to drop before any expensive downstream stage.

    Output: (id_col, n_distinct, n_novel, novelty: float64 6 dp); docs
    with fewer than ``n`` words get (0, 0, 0.0).

    Scale shape: identical exchange economics to ``dup_ngram_fraction``
    — one 128-bit gram hash + doc id per DISTINCT (doc, gram) pair (the
    per-batch dict dedup is the combiner), all rows of a gram in one
    hash partition so the corpus-min resolves with one vectorized
    transform('min'); per-doc novel counts reduce by a doc-keyed
    ``exchange_agg`` and attach to per-doc distinct totals with one
    ``exchange_join``.  Gram text never ships.
    """
    from .exchange import exchange_agg, exchange_join

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_h1, out_h2 = [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            words = _terms(txt)
            seen: set = set()
            for g in _word_ngrams(words, n):
                dig = digest128(g)
                if dig in seen:
                    continue
                seen.add(dig)
                out_id.append(did)
                out_h1.append(dig[0])
                out_h2.append(dig[1])
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "_h1": pa.array(np.asarray(out_h1, np.int64), pa.int64()),
            "_h2": pa.array(np.asarray(out_h2, np.int64), pa.int64()),
        })

    def novel_partials(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(np.int64)
        first = (g.groupby(["_h1", "_h2"], sort=False)[id_col]
                 .transform("min").to_numpy(np.int64))
        out = (pd.DataFrame({id_col: ids, "n_novel": (ids == first)
                             .astype(np.int64),
                             "n_distinct": np.ones(len(ids), np.int64)})
               .groupby(id_col, sort=False).sum().reset_index())
        return out

    per_doc = exchange_agg(
        keyed_apply(ds.map_batches(explode, batch_format="pyarrow",
                                   batch_size=2048),
                    "_h1", novel_partials, num_partitions=num_partitions),
        id_col, [("n_distinct", "sum", "n_distinct"),
                 ("n_novel", "sum", "n_novel")],
        num_partitions=num_partitions, combine=False)

    all_ids = ds.select_columns([id_col])
    joined = exchange_join(
        all_ids, per_doc, on=id_col, how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                ("n_distinct", pa.int64()),
                                ("n_novel", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        nd = np.nan_to_num(t.column("n_distinct")
                           .to_numpy(zero_copy_only=False)
                           .astype(np.float64), nan=0.0).astype(np.int64)
        nv = np.nan_to_num(t.column("n_novel")
                           .to_numpy(zero_copy_only=False)
                           .astype(np.float64), nan=0.0).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(nd > 0, nv / nd, 0.0)
        rate = np.floor(rate * 1e6 + 0.5) / 1e6
        return pa.table({id_col: t.column(id_col),
                         "n_distinct": pa.array(nd, pa.int64()),
                         "n_novel": pa.array(nv, pa.int64()),
                         "novelty": pa.array(rate, pa.float64())})

    return joined.map_batches(finish, batch_format="pyarrow")


def nb_train(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    class_col: str = "lang",
    num_partitions: int = 64,
) -> tuple[rd.Dataset, pd.DataFrame, int]:
    """Multinomial Naive Bayes training — integer-exact: returns
    (model: Dataset (class, term, c), class_stats: DataFrame (class,
    docs, tokens), vocab_size).  All counts are exchange_agg int64
    sums; class_stats is O(classes) and vocab_size a scalar, so both
    live on the driver by construction — only the (class, term) count
    table is corpus-scaled and it stays distributed.
    """
    from .exchange import exchange_agg

    def explode(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for cls, txt in zip(batch.column(class_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            for t in _terms(txt or ""):
                counts[(cls, t)] = counts.get((cls, t), 0) + 1
        ks = list(counts.keys())
        return pa.table({
            "class": pa.array([k[0] for k in ks], pa.string()),
            "term": pa.array([k[1] for k in ks], pa.string()),
            "c": pa.array([counts[k] for k in ks], pa.int64())})

    model = exchange_agg(
        ds.map_batches(explode, batch_format="pyarrow", batch_size=2048),
        ["class", "term"], [("c", "sum", "c")],
        num_partitions=num_partitions, combine=False).materialize()

    stats = exchange_agg(model, "class", [("c", "sum", "tokens")],
                         num_partitions=8).to_pandas()
    docs = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({"class": t.column(class_col),
                                "d": pa.array(
                                    np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        "class", [("d", "sum", "docs")], num_partitions=8).to_pandas()
    class_stats = stats.merge(docs, on="class", how="outer").fillna(0)
    class_stats["tokens"] = class_stats["tokens"].astype("int64")
    class_stats["docs"] = class_stats["docs"].astype("int64")
    vocab_size = int(exchange_agg(
        model.select_columns(["term"]), ["term"]).count())
    return model, class_stats, vocab_size


def nb_classify(
    ds: rd.Dataset,
    model: rd.Dataset,
    class_stats: pd.DataFrame,
    vocab_size: int,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Multinomial NB scoring with add-one smoothing.  Key algebra:
    ``score(d,l) = ln(D_l/D) − N_d·ln(T_l+V) + Σ_{t∈d} tf·ln(c(l,t)+1)``
    — the unseen-(term,class) contribution is ln(0+1) = 0, so an INNER
    term-hash join against the model covers every term and the join
    output is candidate-proportional (matched (doc,term,class) rows
    only, never |docs|x|vocab|).  Output: (id_col, pred_class,
    score) — argmax with ties to the lexicographically smaller class.

    Scale shape: one exchange_join tokens⋈model on term, one
    (doc,class)-keyed exchange_agg of matched log sums, one doc-keyed
    finalize with the O(classes) prior/denominator table riding the
    closure.
    """
    from .exchange import exchange_agg, exchange_join

    cs = class_stats.sort_values("class").reset_index(drop=True)
    classes = cs["class"].tolist()
    d_total = np.float64(cs["docs"].sum())
    prior = {c: np.log(np.float64(d) / d_total)
             for c, d in zip(cs["class"], cs["docs"])}
    denom = {c: np.log(np.float64(t) + np.float64(vocab_size))
             for c, t in zip(cs["class"], cs["tokens"])}

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_t, out_tf, tot_id, tot_n = [], [], [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            ts = _terms(txt or "")
            tot_id.append(did)
            tot_n.append(len(ts))
            tf: dict = {}
            for t in ts:
                tf[t] = tf.get(t, 0) + 1
            for t, f in tf.items():
                out_id.append(did)
                out_t.append(t)
                out_tf.append(f)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "term": pa.array(out_t, pa.string()),
            "tf": pa.array(out_tf, pa.int64())})

    def totals(batch: pa.Table) -> pa.Table:
        ids, ns = [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            ids.append(did)
            ns.append(len(_terms(txt or "")))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_tok": pa.array(ns, pa.int64())})

    toks = ds.map_batches(explode, batch_format="pyarrow",
                          batch_size=2048)
    joined = exchange_join(
        toks, model, on="term", num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("term", pa.string()),
                               ("tf", pa.int64())]),
        right_schema=pa.schema([("class", pa.string()),
                                ("term", pa.string()),
                                ("c", pa.int64())]))

    def contrib(t: pa.Table) -> pa.Table:
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(
            np.float64)
        c = t.column("c").to_numpy(zero_copy_only=False).astype(
            np.float64)
        return pa.table({
            id_col: t.column(id_col),
            "class": t.column("class"),
            "m": pa.array(tf * np.log(c + 1.0), pa.float64())})

    msum = exchange_agg(
        joined.map_batches(contrib, batch_format="pyarrow"),
        [id_col, "class"], [("m", "sum", "m")],
        num_partitions=num_partitions)

    nt = ds.map_batches(totals, batch_format="pyarrow")
    both = exchange_join(
        nt, msum, on=id_col, how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("n_tok", pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                ("class", pa.string()),
                                ("m", pa.float64())]))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        # one row per (doc, matched class) + docs with no match at all;
        # expand to ALL classes per doc, fill msum 0
        base = g[[id_col, "n_tok"]].drop_duplicates(id_col)
        full = base.merge(pd.DataFrame({"class": classes}), how="cross")
        m = g.dropna(subset=["class"])[[id_col, "class", "m"]]
        full = full.merge(m, on=[id_col, "class"], how="left")
        ms = full["m"].fillna(0.0).to_numpy(np.float64)
        n = full["n_tok"].to_numpy(np.float64)
        pr = full["class"].map(prior).to_numpy(np.float64)
        dn = full["class"].map(denom).to_numpy(np.float64)
        full["score"] = pr - n * dn + ms
        full = full.sort_values([id_col, "score", "class"],
                                ascending=[True, False, True])
        win = full.groupby(id_col, sort=False).head(1)
        return pd.DataFrame({
            id_col: win[id_col].astype("int64"),
            "pred_class": win["class"],
            "score": win["score"].astype("float64")})

    # doc-keyed exchange already holds every row of a doc in one
    # partition (both joins keyed on id_col); batch_size=None keeps one
    # batch per partition block so no doc straddles a finalize call
    return both.map_batches(
        lambda t: finalize(t.to_pandas()), batch_format="pyarrow",
        batch_size=None)


def js_divergence_by_group(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    group_col: str = "source",
    num_partitions: int = 64,
) -> pd.DataFrame:
    """Per-group Jensen–Shannon divergence between the group's term
    distribution P_g and the whole-corpus distribution Q — the domain-
    drift / source-mix curation signal (a source whose JS spikes changed
    its content mix).

    Key algebra (what keeps the join candidate-proportional): with
    M = (P+Q)/2 and 0·ln0 = 0, terms ABSENT from the group contribute
    exactly ``q·ln2`` to KL(Q‖M), so
    ``JS = ½·Σ_{t∈g} p·ln(p/m) + ½·(Σ_{t∈g} q·ln(q/m) + ln2·(1−Σ_{t∈g} q))``
    — every sum ranges over the group's OWN terms only; the global
    vocabulary is never enumerated per group.

    Output (driver DataFrame, O(groups) rows): (group_col, n_terms,
    js).  Scale shape: one (group,term)-keyed exchange_agg count, one
    term-keyed re-agg for corpus counts, one term-hash exchange_join,
    one group-keyed sum; per-group token totals are O(groups) and ride
    the closure.
    """
    from .exchange import exchange_agg, exchange_join

    def explode(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for g, txt in zip(batch.column(group_col).to_pylist(),
                          batch.column(text_col).to_pylist()):
            for t in _terms(txt or ""):
                counts[(g, t)] = counts.get((g, t), 0) + 1
        ks = list(counts.keys())
        return pa.table({
            "grp": pa.array([k[0] for k in ks], pa.string()),
            "term": pa.array([k[1] for k in ks], pa.string()),
            "c": pa.array([counts[k] for k in ks], pa.int64())})

    gt = exchange_agg(
        ds.map_batches(explode, batch_format="pyarrow", batch_size=2048),
        ["grp", "term"], [("c", "sum", "c")],
        num_partitions=num_partitions, combine=False).materialize()

    tg = exchange_agg(gt, "grp", [("c", "sum", "tg")],
                      num_partitions=8).to_pandas()
    t_total = np.float64(tg["tg"].sum())
    tg_map = {g: np.float64(v) for g, v in zip(tg["grp"], tg["tg"])}

    corpus = exchange_agg(gt.select_columns(["term", "c"]),
                          "term", [("c", "sum", "ct")],
                          num_partitions=num_partitions)
    joined = exchange_join(
        gt, corpus, on="term", num_partitions=num_partitions,
        left_schema=pa.schema([("grp", pa.string()),
                               ("term", pa.string()),
                               ("c", pa.int64())]),
        right_schema=pa.schema([("term", pa.string()),
                                ("ct", pa.int64())]))

    def contrib(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        p = (df["c"].to_numpy(np.float64)
             / df["grp"].map(tg_map).to_numpy(np.float64))
        q = df["ct"].to_numpy(np.float64) / t_total
        m = (p + q) / 2.0
        return pa.table({
            "grp": pa.array(df["grp"], pa.string()),
            "s1": pa.array(p * np.log(p / m), pa.float64()),
            "s2": pa.array(q * np.log(q / m), pa.float64()),
            "qm": pa.array(q, pa.float64()),
            "nt": pa.array(np.ones(len(df), np.int64), pa.int64())})

    sums = exchange_agg(
        joined.map_batches(contrib, batch_format="pyarrow"),
        "grp", [("s1", "sum", "s1"), ("s2", "sum", "s2"),
                ("qm", "sum", "qm"), ("nt", "sum", "n_terms")],
        num_partitions=8).to_pandas()

    ln2 = np.log(np.float64(2.0))
    js = (0.5 * sums["s1"].to_numpy(np.float64)
          + 0.5 * (sums["s2"].to_numpy(np.float64)
                   + ln2 * (1.0 - sums["qm"].to_numpy(np.float64))))
    return pd.DataFrame({
        group_col: sums["grp"],
        "n_terms": sums["n_terms"].astype("int64"),
        "js": js}).sort_values(group_col).reset_index(drop=True)


def class_term_chi2(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    class_col: str = "lang",
    id_col: str = "doc_id",
    k: int = 10,
    num_partitions: int = 64,
) -> rd.Dataset:
    """Top-``k`` class-indicative terms by chi-square association
    (document-presence 2x2 contingency) — the classic feature-selection
    / class-vocabulary pass: for each (class, term),
    ``chi2 = N·(a·d − b·c)² / ((a+b)·(c+d)·(a+c)·(b+d))`` with
    a = docs of the class containing the term, b/c/d the complements.
    Ties break (chi2 desc, term asc).  Output: (class_col, term, chi2,
    rank).

    Scale shape: all four cells derive from three count tables —
    (class,term) doc presence a, per-term df, per-class doc totals —
    each an integer-exact exchange_agg over per-batch DISTINCT
    combiners; df attaches by one term-hash exchange_join (per-class
    totals are O(classes) and ride the closure); the winner pick is
    ``topk_per_group`` (batch-local top-k before the class exchange).
    """
    from .analytics import topk_per_group
    from .exchange import exchange_agg, exchange_join

    def explode(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for cls, txt in zip(batch.column(class_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            # distinct PER DOC, counted across docs (document presence)
            for t in set(_terms(txt or "")):
                counts[(cls, t)] = counts.get((cls, t), 0) + 1
        ks = list(counts.keys())
        return pa.table({
            "cls": pa.array([x[0] for x in ks], pa.string()),
            "term": pa.array([x[1] for x in ks], pa.string()),
            "a": pa.array([counts[x] for x in ks], pa.int64())})

    ct = exchange_agg(
        ds.map_batches(explode, batch_format="pyarrow", batch_size=2048),
        ["cls", "term"], [("a", "sum", "a")],
        num_partitions=num_partitions, combine=False).materialize()

    df = exchange_agg(ct.select_columns(["term", "a"]),
                      "term", [("a", "sum", "df")],
                      num_partitions=num_partitions)
    dc = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({"cls": t.column(class_col),
                                "d": pa.array(np.ones(t.num_rows,
                                                      np.int64))}),
            batch_format="pyarrow"),
        "cls", [("d", "sum", "dc")], num_partitions=8).to_pandas()
    n_total = np.float64(dc["dc"].sum())
    dc_map = {c: np.float64(v) for c, v in zip(dc["cls"], dc["dc"])}

    joined = exchange_join(
        ct, df, on="term", num_partitions=num_partitions,
        left_schema=pa.schema([("cls", pa.string()),
                               ("term", pa.string()),
                               ("a", pa.int64())]),
        right_schema=pa.schema([("term", pa.string()),
                                ("df", pa.int64())]))

    def score(t: pa.Table) -> pa.Table:
        dfr = t.to_pandas()
        a = dfr["a"].to_numpy(np.float64)
        dfv = dfr["df"].to_numpy(np.float64)
        dcv = dfr["cls"].map(dc_map).to_numpy(np.float64)
        b = dcv - a
        c = dfv - a
        d = n_total - dcv - c
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        with np.errstate(divide="ignore", invalid="ignore"):
            chi2 = np.where(denom > 0,
                            n_total * (a * d - b * c) ** 2 / denom, 0.0)
        return pa.table({
            "cls": pa.array(dfr["cls"], pa.string()),
            "term": pa.array(dfr["term"], pa.string()),
            "chi2": pa.array(chi2, pa.float64())})

    scored = joined.map_batches(score, batch_format="pyarrow")
    top = topk_per_group(scored, key_col="cls", sort_col="chi2",
                         tiebreak_col="term", k=k, descending=True)
    return top.map_batches(
        lambda b: b[["cls", "term", "chi2", "rank"]],
        batch_format="pandas")


def readability(
    docs: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Flesch reading-ease scores (Flesch 1948) — the classic curation
    readability signal (easy text ranks high; dense academic text low):

        206.835 - 1.015*(words/sentences) - 84.6*(syllables/words)

    with the standard cheap proxies: words = ``[a-z]+`` runs of the
    lowercased text, sentences = ``[.!?]+`` runs (min 1), syllables =
    ``[aeiouy]+`` vowel-group runs (min 1).  All three are non-
    overlapping regex counts, so an independent engine (DuckDB
    ``regexp_extract_all``) reproduces them exactly; the score itself is
    one per-row float expression (emitted unrounded — callers round
    with the repo's half-away-from-zero helper to match SQL round()).

    Scale shape: pure map — compiled-regex ``Series.str.count`` per
    batch, zero shuffle, output (id, words, sentences, syllables,
    flesch).
    """

    def score(b: pd.DataFrame) -> pd.DataFrame:
        low = b[text_col].fillna("").str.lower()
        words = low.str.count(r"[a-z]+").clip(lower=1).astype("int64")
        sents = low.str.count(r"[.!?]+").clip(lower=1).astype("int64")
        syll = low.str.count(r"[aeiouy]+").clip(lower=1).astype("int64")
        flesch = (206.835 - 1.015 * (words / sents)
                  - 84.6 * (syll / words))
        return pd.DataFrame({
            id_col: b[id_col].astype("int64"),
            "words": words,
            "sentences": sents,
            "syllables": syll,
            "flesch": flesch,
        })

    return docs.map_batches(score, batch_format="pandas",
                            batch_size=8192)


def dsir_sample(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    target_col: str = "lang",
    target_value: str = "en",
    dim: int = 256,
    k: int = 100,
    seed: int = 77,
    num_partitions: int = 64,
) -> rd.Dataset:
    """DSIR-style data selection via importance resampling (Xie et al.
    2023): pick ``k`` docs whose hashed-token feature distribution looks
    like the TARGET slice.  Per-doc log importance weight under two
    add-one-smoothed hashed bag models

        score(d) = Σ_tokens [ ln((n_t[b]+1)/(T_t+B)) −
                              ln((n_a[b]+1)/(T_a+B)) ]

    (b = FNV(token) mod ``dim``; n_t/n_a = target/all token counts per
    bucket), then Gumbel top-k: gkey = round(score + G(doc), 6) with
    G = −ln(−ln(u)), u = (splitmix64(id+seed) >> 11)/2⁵³ — the
    deterministic, SQL-replayable form of DSIR's importance resampling.

    Scale shape: pass 1 streams the corpus once into per-batch
    (bucket, class) count partials (≤ 2·dim rows per batch) and ONE
    bucket exchange; the ``dim``-row model is driver math and
    broadcasts as a closure constant.  Pass 2 is a pure map (vectorized
    bucket-weight gather + grouped sum + Gumbel key); the top-k runs
    through the constant-key ``topk_per_group`` funnel (batch-local
    top-k, one exchange of ≤ k·batches rows).  Output:
    (id, n_tokens, score, gkey, rank) for the k winners.
    """
    from ..kernels.minhash import _hash_shingles
    from .analytics import splitmix64, topk_per_group
    from .exchange import exchange_agg

    def count_partials(b: pd.DataFrame) -> pd.DataFrame:
        toks_per = [_terms(t or "") for t in b[text_col]]
        lens = np.array([len(t) for t in toks_per], np.int64)
        flat = [tok for toks in toks_per for tok in toks]
        if not flat:
            return pd.DataFrame({"bucket": pd.Series(dtype="int64"),
                                 "n_t": pd.Series(dtype="int64"),
                                 "n_a": pd.Series(dtype="int64")})
        bucket = (_hash_shingles(flat) % np.uint64(dim)).astype(np.int64)
        is_t = np.repeat(
            (b[target_col] == target_value).to_numpy(), lens
        ).astype(np.int64)
        return (pd.DataFrame({"bucket": bucket, "n_t": is_t,
                              "n_a": np.ones(len(flat), np.int64)})
                .groupby("bucket", sort=False).sum().reset_index())

    cnt = exchange_agg(
        ds.map_batches(count_partials, batch_format="pandas",
                       batch_size=4096),
        "bucket", [("n_t", "sum", "n_t"), ("n_a", "sum", "n_a")],
        num_partitions=min(num_partitions, dim), combine=False,
    ).to_pandas()  # <= dim rows by construction
    tt = int(cnt["n_t"].sum())
    ta = int(cnt["n_a"].sum())
    wv = np.zeros(dim, np.float64)
    bidx = cnt["bucket"].to_numpy(np.int64)
    wv[bidx] = (np.log((cnt["n_t"].to_numpy(np.int64) + 1.0)
                       / (tt + float(dim)))
                - np.log((cnt["n_a"].to_numpy(np.int64) + 1.0)
                         / (ta + float(dim))))

    def score_docs(b: pd.DataFrame) -> pd.DataFrame:
        toks_per = [_terms(t or "") for t in b[text_col]]
        lens = np.array([len(t) for t in toks_per], np.int64)
        flat = [tok for toks in toks_per for tok in toks]
        score = np.zeros(len(b), np.float64)
        if flat:
            bucket = (_hash_shingles(flat)
                      % np.uint64(dim)).astype(np.int64)
            seg = np.repeat(np.arange(len(b)), lens)
            sums = pd.Series(wv[bucket]).groupby(seg).sum()
            score[sums.index.to_numpy()] = sums.to_numpy()
        ids = b[id_col].to_numpy(np.int64)
        u = ((splitmix64(ids + seed) >> np.uint64(11))
             .astype(np.float64) / float(2 ** 53))
        gumbel = -np.log(-np.log(u))
        gkey = score + gumbel
        gkey = np.sign(gkey) * np.floor(np.abs(gkey) * 1e6 + 0.5) / 1e6
        return pd.DataFrame({id_col: ids,
                             "n_tokens": lens,
                             "score": score,
                             "gkey": gkey,
                             "_one": np.zeros(len(b), np.int64)})

    scored = ds.map_batches(score_docs, batch_format="pandas",
                            batch_size=4096)
    top = topk_per_group(scored, key_col="_one", sort_col="gkey",
                         tiebreak_col=id_col, k=k, descending=True)
    return top.map_batches(
        lambda b: b[[id_col, "n_tokens", "score", "gkey", "rank"]],
        batch_format="pandas")


def wordlist_screen(
    ds: rd.Dataset,
    blocklist: list[str],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_frac: float = 0.05,
    max_words: int = 1_000_000,
) -> rd.Dataset:
    """C4-style blocklist screening: per document, count space-split
    lowercase tokens that hit the blocklist and keep the doc iff the
    blocked fraction stays under ``max_frac`` — the cheap lexical
    safety/quality gate run before any model-based scorer.

    Emits (id, n_tokens, n_blocked, blocked_frac, keep).  Pure map; the
    blocklist ships inside the closure as a frozenset (guarded by
    ``max_words`` — C4's list is ~400 entries, an operator asked to
    broadcast millions of phrases should use a join instead).  An empty
    document keeps (0 tokens, fraction 0).
    """
    if len(blocklist) > max_words:
        raise ValueError(
            f"wordlist_screen: blocklist of {len(blocklist)} exceeds "
            f"max_words={max_words} — use a join-based screen instead")
    bset = frozenset(w.lower() for w in blocklist)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        n_tok = np.zeros(len(b), np.int64)
        n_bad = np.zeros(len(b), np.int64)
        for i, txt in enumerate(b[text_col].tolist()):
            toks = [t for t in (txt or "").lower().split(" ") if t]
            n_tok[i] = len(toks)
            n_bad[i] = sum(1 for t in toks if t in bset)
        frac = np.where(n_tok > 0, n_bad / np.maximum(n_tok, 1), 0.0)
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "n_tokens": n_tok,
            "n_blocked": n_bad,
            "blocked_frac": frac,
            "keep": frac < max_frac})

    return ds.map_batches(score, batch_format="pandas",
                          batch_size=4096)


def kanon_audit(
    ds: rd.Dataset,
    *,
    quasi_cols: list[str],
    sensitive_col: str,
    k: int = 5,
    l: int = 2,
    num_partitions: int = 32,
) -> rd.Dataset:
    """k-anonymity / l-diversity audit (Sweeney 2002; Machanavajjhala
    2007) over quasi-identifier columns — the privacy gate a training
    corpus with user-derived records needs before release: every
    equivalence class (unique quasi-identifier combination) with its
    row count, distinct-sensitive-value count, and whether it violates
    k-anonymity (n < k: the class is re-identifiable) or l-diversity
    (fewer than l distinct sensitive values: the class leaks the
    attribute even when anonymous).

    ONE quasi-key hash exchange; per partition a single vectorized
    pandas pass (groupby size + nunique — C paths across every class
    in the partition).  Emits (quasi..., n, n_sensitive, k_violation,
    l_violation).
    """
    if not quasi_cols:
        raise ValueError("kanon_audit: quasi_cols must be non-empty")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a class with a NULL quasi value is still an
        # equivalence class — the default silently excluded it and the
        # privacy gate passed non-anonymous releases (review r5)
        agg = (g.groupby(quasi_cols, sort=False, dropna=False)
               [sensitive_col]
               .agg(n="size", n_sensitive="nunique").reset_index())
        agg["n"] = agg["n"].astype("int64")
        agg["n_sensitive"] = agg["n_sensitive"].astype("int64")
        agg["k_violation"] = agg["n"] < k
        agg["l_violation"] = agg["n_sensitive"] < l
        return agg

    return keyed_apply(ds, list(quasi_cols), per_part,
                       num_partitions=num_partitions)


def dp_counts(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    epsilon: float = 1.0,
    seed: int = 7,
    max_groups: int = 5_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """ε-differentially-private group counts via the Laplace mechanism
    (Dwork, McSherry, Nissim & Smith 2006; sensitivity 1 for disjoint
    counts) — the privacy release beside :func:`kanon_audit`: publish
    per-group counts of a user-derived table with calibrated noise
    instead of the true values.

    The noise is DETERMINISTIC-SEEDED: u = the 53-bit uniform from
    ``splitmix64(rank + seed)`` where rank = the key's position in the
    sorted key list, then the exact Laplace inverse CDF
    ``-(1/ε)·sign(u-½)·ln(1-2|u-½|)``.  A pure function of (key set,
    seed), so a rerun — and the SQL oracle — reproduces the release
    bit-for-bit while the noise is still exactly Laplace(1/ε) across
    keys.  Deterministic noise is a replayability device for the
    pipeline's audit contract; a production release draws u from a
    CSPRNG per release (one-line swap, same mechanism).

    Shape: combiner-backed count exchange -> O(groups) driver rows
    (guarded by ``max_groups``) -> vectorized noise.  Only the noisy
    counts are returned — emitting the true n beside them would defeat
    the mechanism.
    """
    from .analytics import splitmix64
    from .exchange import exchange_agg

    counts = exchange_agg(
        ds.map_batches(
            lambda t: pa.table({
                key_col: t.column(key_col),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        key_col, [("one", "sum", "n")],
        num_partitions=num_partitions).to_pandas()
    if len(counts) > max_groups:
        raise ValueError(
            f"dp_counts: {len(counts)} groups exceed max_groups="
            f"{max_groups} — release per-partition or raise the guard")
    counts = counts.sort_values(key_col, kind="mergesort").reset_index(
        drop=True)
    rank = np.arange(len(counts), dtype=np.int64)
    hv = splitmix64(rank + np.int64(seed))
    u = (hv >> np.uint64(11)).astype(np.float64) / 9007199254740992.0
    t = u - 0.5
    noise = -(1.0 / epsilon) * np.sign(t) * np.log(1.0 - 2.0 * np.abs(t))
    return pd.DataFrame({
        key_col: counts[key_col],
        "noisy_n": counts["n"].to_numpy(np.float64) + noise})


def extract_links(
    ds: rd.Dataset,
    *,
    id_col: str = "page_id",
    url_col: str = "url",
    html_col: str = "html",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Outlink extraction — the web-graph builder every crawl pipeline
    runs beside text extraction (host graph -> PageRank/centrality ->
    crawl prioritization & spam scoring): ``href="..."`` attributes
    pulled with ONE compiled-regex ``str.findall`` pass per block,
    ABSOLUTE http(s) targets kept (relative links are counted via the
    ``extractlinks_relative`` counter, never silently dropped), and
    both endpoints' hosts normalized with the ``canonical_urls``
    surgery (lowercase, leading ``www.`` strip, default-port strip).

    Emits one edge row (page_id, src_host, dst_url, dst_host); the
    page HTML never re-ships — only the O(edges) link rows leave the
    extraction stage.  Host-graph projection = one (src_host,
    dst_host) count exchange downstream.
    """
    href_re = r'href="([^"]*)"'
    host_re = r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]+)"

    def _norm_host(h: pd.Series) -> pd.Series:
        # HOST-graph normalization (site granularity): both default
        # ports strip regardless of scheme, by contract — unlike
        # canonical_urls, which is scheme-aware because its dedup
        # DELETES documents
        return (h.str.lower()
                .str.replace(r"^www\.", "", regex=True)
                .str.replace(r":(80|443)$", "", regex=True))

    def per_batch(b: pd.DataFrame) -> pd.DataFrame:
        links = b[html_col].str.findall(href_re)
        out = pd.DataFrame({
            id_col: b[id_col].astype("int64"),
            "src_host": _norm_host(b[url_col].str.extract(
                host_re, expand=False).fillna("")),
            "dst_url": links})
        out = out.explode("dst_url")
        out = out[out["dst_url"].notna()]
        absolute = out["dst_url"].str.match(r"^https?://", case=False)
        n_rel = int((~absolute).sum())
        if n_rel:
            counters.incr({"extractlinks_relative": n_rel})
        out = out[absolute]
        out["dst_host"] = _norm_host(out["dst_url"].str.extract(
            host_re, expand=False).fillna(""))
        return out.reset_index(drop=True)

    # one raw task per block: its counts come back with the block, so
    # reading the output twice counts each link once
    return map_blocks(ds, pandas_block(per_batch)).dataset()


def textrank_keywords(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    window: int = 2,
    iterations: int = 5,
    damping: float = 0.85,
    top_k: int = 20,
    max_edges: int = 2_000_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """TextRank keyword extraction (Mihalcea & Tarau 2004): weighted
    PageRank over the corpus word co-occurrence graph.

    The corpus-proportional work is fully distributed — each batch
    emits per-batch-counted co-occurrence pairs (two numpy shifts of
    the flat token stream, positions <= ``window`` apart inside one
    doc, canonicalized u<v) into ONE term-pair exchange_agg sum.  The
    resulting WORD graph is vocabulary-bounded, not corpus-bounded
    (the bounded-small-side pattern used by ontology_closure /
    build_vocab), so the power iteration runs on the driver over <=
    ``max_edges`` distinct pairs — raises loudly above that; a
    larger-vocabulary corpus needs the BSP pagerank engine with edge
    weights.

    Scores: r = (1-d)/N + d * Σ_j w_ji/W_j r_j, r0 = 1/N, fixed
    ``iterations``; final scores rounded to 9dp BEFORE the (score
    desc, word asc) top-k ranking, so ordering is engine-independent.
    Returns (word, score, rank).
    """
    from .exchange import exchange_agg

    def pair_rows(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({
                "u": pd.Series([], dtype="object"),
                "v": pd.Series([], dtype="object"),
                "w": pd.Series([], dtype="int64")})
        toks = b[text_col].fillna("").str.lower().str.split(" ").map(
            lambda ws: [t for t in ws if t])
        lens = toks.str.len().to_numpy(np.int64)
        if not lens.sum():
            return pd.DataFrame({
                "u": pd.Series([], dtype="object"),
                "v": pd.Series([], dtype="object"),
                "w": pd.Series([], dtype="int64")})
        flat = np.concatenate([np.asarray(t, dtype=object)
                               for t in toks])
        did = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        parts = []
        for off in range(1, window + 1):
            if off >= len(flat):
                break
            a, c = flat[:-off], flat[off:]
            same = did[:-off] == did[off:]
            keep = same & (a != c)
            if keep.any():
                aa, cc = a[keep], c[keep]
                lo = np.where(aa < cc, aa, cc)
                hi = np.where(aa < cc, cc, aa)
                parts.append(pd.DataFrame({"u": lo, "v": hi}))
        if not parts:
            return pd.DataFrame({
                "u": pd.Series([], dtype="object"),
                "v": pd.Series([], dtype="object"),
                "w": pd.Series([], dtype="int64")})
        cnt = (pd.concat(parts, ignore_index=True)
               .groupby(["u", "v"], sort=False)
               .size().reset_index(name="w"))
        cnt["w"] = cnt["w"].astype("int64")
        return cnt

    pairs = exchange_agg(
        ds.map_batches(pair_rows, batch_format="pandas"),
        ["u", "v"], [("w", "sum", "w")],
        num_partitions=num_partitions).to_pandas()
    if len(pairs) > max_edges:
        raise ValueError(
            f"textrank_keywords: {len(pairs)} distinct co-occurrence "
            f"pairs exceeds max_edges={max_edges}; the word graph no "
            f"longer fits the driver tier — use the BSP pagerank engine "
            f"with edge weights")
    words = pd.Index(sorted(set(pairs["u"]) | set(pairs["v"])))
    n = len(words)
    if n == 0:
        return pd.DataFrame(columns=["word", "score", "rank"])
    ui = words.get_indexer(pairs["u"]).astype(np.int64)
    vi = words.get_indexer(pairs["v"]).astype(np.int64)
    w = pairs["w"].to_numpy(np.float64)
    src = np.concatenate([ui, vi])
    dst = np.concatenate([vi, ui])
    ww = np.concatenate([w, w])
    wsum = np.zeros(n, np.float64)
    np.add.at(wsum, src, ww)
    r = np.full(n, 1.0 / n, np.float64)
    for _ in range(iterations):
        contrib = np.zeros(n, np.float64)
        np.add.at(contrib, dst, r[src] * ww / wsum[src])
        r = (1.0 - damping) / n + damping * contrib
    out = pd.DataFrame({"word": words.to_numpy(object),
                        "score": np.round(r, 9)})
    out = out.sort_values(["score", "word"],
                          ascending=[False, True]).head(top_k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out.reset_index(drop=True)


def kn_perplexity(
    ds: rd.Dataset,
    ref: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    discount: float = 0.75,
) -> rd.Dataset:
    """Interpolated Kneser–Ney bigram perplexity (Kneser & Ney 1995;
    Chen & Goodman 1999) — the real LM-quality filter beside the
    add-one baseline :func:`lm_perplexity`: absolute discounting plus
    the CONTINUATION unigram (how many distinct contexts a word
    follows, not how often it occurs — "San Francisco" inflates
    c(francisco) but not its continuation count).

    P(w2|w1) = (max(c12 - D, 0) + D * N1+(w1,.) * Pcont(w2)) / ctx(w1)
    where ctx(w1) = sum_w c(w1, w) is the BIGRAM-CONTEXT total (the
    standard interpolated-KN denominator — using the unigram count
    c(w1) instead would leak probability mass at document-final
    contexts, where the conditional would sum to < 1) when ctx(w1) > 0
    and w1 has continuations, else Pcont(w2); with
    Pcont(w2) = (N1+(., w2) + 1) / (T + V) — an add-one floor over
    the T distinct bigram types keeps unseen words finite (and the
    whole score SQL-replayable).  Docs with < 2 tokens score nll 0 /
    ppl 1.

    Scale shape identical to lm_perplexity: the reference model is a
    per-batch-combined driver merge broadcast ONCE; the corpus side
    is a pure map — no shuffle touches the big side.
    Output: (id_col, n_tokens, avg_nll, ppl).
    """
    import math

    import ray

    def ref_counts(batch: pa.Table) -> pa.Table:
        uni: dict[str, int] = {}
        bi: dict[tuple[str, str], int] = {}
        for txt in batch.column(text_col).to_pylist():
            toks = _terms(txt)
            for t in toks:
                uni[t] = uni.get(t, 0) + 1
            for a, b in zip(toks, toks[1:]):
                bi[(a, b)] = bi.get((a, b), 0) + 1
        return pa.table({
            "w1": pa.array([k for k in uni] + [a for a, _ in bi],
                           pa.string()),
            "w2": pa.array([None] * len(uni) + [b for _, b in bi],
                           pa.string()),
            "c": pa.array(list(uni.values()) + list(bi.values()),
                          pa.int64())})

    parts = ref.map_batches(ref_counts, batch_format="pyarrow").to_pandas()
    if len(parts):
        is_uni = parts["w2"].isna()
        uni_counts = parts[is_uni].groupby("w1")["c"].sum().to_dict()
        bi_counts = {(r.w1, r.w2): r.c for r in
                     parts[~is_uni]
                     .groupby(["w1", "w2"], as_index=False)["c"]
                     .sum().itertuples()}
    else:
        uni_counts, bi_counts = {}, {}
    n1f: dict[str, int] = {}
    n1b: dict[str, int] = {}
    ctx_counts: dict[str, int] = {}
    for (a, b), c in bi_counts.items():
        n1f[a] = n1f.get(a, 0) + 1
        n1b[b] = n1b.get(b, 0) + 1
        # bigram-context total sum_w c(a, w) — the standard interpolated
        # KN denominator; differs from the unigram count c(a) exactly at
        # document-final contexts (last tokens have no successor), where
        # using c(a) would make the conditional distribution sum to < 1
        ctx_counts[a] = ctx_counts.get(a, 0) + int(c)
    t_types = len(bi_counts)
    v_size = len(uni_counts) + 1
    model_ref = ray.put((ctx_counts, bi_counts, n1f, n1b,
                         t_types, v_size, float(discount)))
    cache: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        m = cache.get("m")
        if m is None:
            m = cache["m"] = ray.get(model_ref)
        ctx, bi, nf, nb, T, v, D = m
        out_n, out_nll, out_ppl = [], [], []
        for txt in batch.column(text_col).to_pylist():
            toks = _terms(txt)
            n = len(toks)
            if n < 2:
                out_n.append(n)
                out_nll.append(0.0)
                out_ppl.append(1.0)
                continue
            s = 0.0
            for a, b in zip(toks, toks[1:]):
                pcont = (nb.get(b, 0) + 1.0) / (T + v)
                c1 = ctx.get(a, 0)
                f = nf.get(a, 0)
                if c1 > 0 and f > 0:
                    p = (max(bi.get((a, b), 0) - D, 0.0)
                         + D * f * pcont) / c1
                else:
                    p = pcont
                s += math.log(p)
            nll = -s / (n - 1)
            out_n.append(n)
            out_nll.append(nll)
            out_ppl.append(math.exp(nll))
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "n_tokens": pa.array(out_n, pa.int64()),
            "avg_nll": pa.array(out_nll, pa.float64()),
            "ppl": pa.array(out_ppl, pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


def extractive_summary(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    segment_tokens: int = 8,
    top_k: int = 2,
    iterations: int = 4,
    damping: float = 0.85,
    max_segments: int = 4096,
) -> rd.Dataset:
    """Extractive summarization by segment-level TextRank (Mihalcea &
    Tarau 2004 "TextRank: Bringing Order into Texts", sentence
    variant): each document's token stream splits into consecutive
    ``segment_tokens``-token segments (the corpus has no sentence
    punctuation; fixed windows are the deterministic stand-in),
    segments become nodes, edge weight = Jaccard over distinct
    tokens, and a ``iterations``-round damped power iteration ranks
    them; the ``top_k`` per doc are the summary.

    Doc-LOCAL by construction — one pure ``map_batches`` pass, no
    shuffle; per-doc work is O(segments²) with segments bounded by
    doc length / segment_tokens.  Engine-exactness: similarity is an
    exact integer ratio, every iterate re-quantized 9dp (the
    pca_power/textrank contract), ranking on (round(score,9) desc,
    segment asc).  Returns (id_col, segment, score, rank).
    """
    d = float(damping)

    def summarize(batch: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_seg: list[int] = []
        out_score: list[float] = []
        out_rank: list[int] = []
        ids = batch.column(id_col).to_pylist()
        for did, txt in zip(ids, batch.column(text_col).to_pylist()):
            toks = _terms(txt or "")
            if not toks:
                continue
            segs = [frozenset(toks[i:i + segment_tokens])
                    for i in range(0, len(toks), segment_tokens)]
            n = len(segs)
            if n > max_segments:
                # the similarity matrix is O(n^2) — a 1M-token document
                # would allocate ~125 GB unguarded; raise with a named
                # budget like every other driver/worker-budgeted
                # operator (review r5)
                raise ValueError(
                    f"extractive_summary: doc {did} has {n} segments > "
                    f"max_segments={max_segments}; chunk the document "
                    "or raise segment_tokens")
            W = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    inter = len(segs[i] & segs[j])
                    if inter:
                        u = len(segs[i]) + len(segs[j]) - inter
                        W[i, j] = W[j, i] = inter / u
            wsum = W.sum(axis=1)
            pi = np.full(n, round(1.0 / n, 9))
            for _ in range(iterations):
                contrib = np.zeros(n)
                nz = wsum > 0
                if nz.any():
                    contrib = (W[:, nz]
                               @ (pi[nz] / wsum[nz]))
                pi = np.round((1.0 - d) / n + d * contrib, 9)
            order = sorted(range(n), key=lambda k: (-pi[k], k))
            for r, k in enumerate(order[:top_k], 1):
                out_id.append(int(did))
                out_seg.append(k)
                out_score.append(float(pi[k]))
                out_rank.append(r)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "segment": pa.array(out_seg, pa.int64()),
            "score": pa.array(out_score, pa.float64()),
            "rank": pa.array(out_rank, pa.int64())})

    return ds.map_batches(summarize, batch_format="pyarrow")


def gopher_rules(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_tokens: int = 50,
    max_tokens: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_dup_bigram_frac: float = 0.2,
) -> rd.Dataset:
    """Gopher-style repetition/length quality gate (Rae et al. 2021,
    "Scaling Language Models", Table A1 heuristics) as ONE doc-local
    pure-map bundle: token-count bounds, mean-word-length bounds, and
    duplicate-bigram fraction, each reported as its own flag plus the
    conjunctive ``keep`` — filters downstream read the flags, audits
    read the raw statistics.

    dup_bigram_frac = 1 - distinct_bigrams / total_bigrams (0 for
    docs with < 2 tokens); mean_word_len = Σ len(token) / n.  Both
    rounded 6dp BEFORE the threshold compare so the decision is
    engine-independent.  Returns (id_col, n_tokens, mean_word_len,
    dup_bigram_frac, pass_len, pass_word_len, pass_rep, keep).
    """
    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        toks = (batch[text_col].fillna("").str.lower().str.split(" ")
                .map(lambda ws: [t for t in ws if t]))
        n = toks.str.len().to_numpy(np.int64)
        tot_len = toks.map(lambda ws: sum(len(t) for t in ws)).to_numpy(
            np.int64)
        mwl = np.round(np.where(n > 0, tot_len / np.maximum(n, 1), 0.0),
                       6)
        dup = np.round(np.asarray([
            0.0 if len(ws) < 2
            else 1.0 - len(set(zip(ws, ws[1:]))) / (len(ws) - 1)
            for ws in toks]), 6)
        pass_len = (n >= min_tokens) & (n <= max_tokens)
        pass_wl = (mwl >= min_mean_word_len) & (mwl <= max_mean_word_len)
        pass_rep = dup <= max_dup_bigram_frac
        return pd.DataFrame({
            id_col: batch[id_col].astype("int64"),
            "n_tokens": n,
            "mean_word_len": mwl,
            "dup_bigram_frac": dup,
            "pass_len": pass_len,
            "pass_word_len": pass_wl,
            "pass_rep": pass_rep,
            "keep": pass_len & pass_wl & pass_rep})

    return ds.map_batches(stats, batch_format="pandas")


def zipf_fit(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    top_k: int = 100,
) -> pd.DataFrame:
    """Zipf's-law fit over the corpus term distribution: OLS of
    ln(freq) on ln(rank) for the top ``top_k`` terms — the classic
    corpus-health readout (natural text sits near slope -1; synthetic
    or templated corpora deviate visibly).

    Term counting is :func:`build_vocab`'s funneled top-k (the full
    vocabulary is never collected); the fit is driver arithmetic over
    ``top_k`` rows with the closed-form slope/intercept expressions
    (the group_ols tree), ln values and results rounded where the SQL
    replay rounds.  Returns one row (n_terms, slope, intercept,
    r2) — slope is the (negative) Zipf exponent.
    """
    vocab = (build_vocab(ds, text_col=text_col, max_vocab=top_k)
             .to_pandas().sort_values("token_id"))
    n = len(vocab)
    if n < 2:
        raise ValueError("zipf_fit: need >= 2 distinct terms")
    x = np.log(vocab["token_id"].to_numpy(np.float64))
    y = np.log(vocab["count"].to_numpy(np.float64))
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    syy = float((y * y).sum())
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    denom = (n * sxx - sx * sx) * (n * syy - sy * sy)
    r2 = ((n * sxy - sx * sy) ** 2 / denom) if denom > 0 else 1.0
    return pd.DataFrame([{
        "n_terms": np.int64(n),
        "slope": round(slope, 6),
        "intercept": round(intercept, 6),
        "r2": round(r2, 6)}])


def heaps_fit(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 10,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Heaps'-law fit — the vocabulary-growth companion to
    :func:`zipf_fit`: V(n) ~ K n^beta with V = distinct terms and n =
    tokens seen, measured at ``n_buckets`` doc-id-ordered corpus
    prefixes.  beta well below 1 is natural text; beta near 1 means
    the corpus keeps minting novel tokens (ids, noise, boilerplate
    hashes) — a curation smell.

    Fully distributed measurement: per-term FIRST doc via one
    term-keyed min exchange (a term's first occurrence defines where
    it enters the vocabulary), token counts per doc bucket via a
    second count exchange; both reduce to ``n_buckets`` rows
    (buckets = equal doc-id ranges between observed min/max).  The
    log-log OLS is the zipf_fit closed form over the bucket points.
    Returns (n_buckets, beta, log_k, r2).
    """
    from .exchange import exchange_agg

    ids = ds.map_batches(
        lambda t: pa.table({
            "lo": pa.array([int(pc.min(t.column(id_col)).as_py())]
                           if t.num_rows else [], pa.int64()),
            "hi": pa.array([int(pc.max(t.column(id_col)).as_py())]
                           if t.num_rows else [], pa.int64())}),
        batch_format="pyarrow").to_pandas()
    lo, hi = int(ids["lo"].min()), int(ids["hi"].max())
    span = max(hi - lo + 1, 1)

    def explode(batch: pa.Table) -> pa.Table:
        out_t: list[str] = []
        out_d: list[int] = []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            for t in set(_terms(txt or "")):
                out_t.append(t)
                out_d.append(did)
        return pa.table({
            "term": pa.array(out_t, pa.string()),
            "doc": pa.array(out_d, pa.int64())})

    first = exchange_agg(
        ds.map_batches(explode, batch_format="pyarrow"),
        "term", [("doc", "min", "first_doc")],
        num_partitions=num_partitions)
    newv = exchange_agg(
        first.map_batches(
            lambda t: pa.table({
                "bucket": pa.array(np.minimum(
                    (t.column("first_doc")
                     .to_numpy(zero_copy_only=False) - lo)
                    * n_buckets // span, n_buckets - 1), pa.int64()),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        "bucket", [("one", "sum", "new_terms")],
        num_partitions=4).to_pandas()

    def tok_partial(batch: pa.Table) -> pa.Table:
        bk: dict[int, int] = {}
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            b = min((did - lo) * n_buckets // span, n_buckets - 1)
            bk[b] = bk.get(b, 0) + len(_terms(txt or ""))
        return pa.table({
            "bucket": pa.array(list(bk), pa.int64()),
            "ntok": pa.array(list(bk.values()), pa.int64())})

    toks = exchange_agg(
        ds.map_batches(tok_partial, batch_format="pyarrow"),
        "bucket", [("ntok", "sum", "ntok")],
        num_partitions=4).to_pandas()
    folded = (newv.merge(toks, on="bucket", how="outer").fillna(0)
              .sort_values("bucket").reset_index(drop=True))
    v = folded["new_terms"].cumsum().to_numpy(np.int64)
    n = folded["ntok"].cumsum().to_numpy(np.int64)
    ok = (v > 0) & (n > 0)
    x = np.log(n[ok].astype(np.float64))
    y = np.log(v[ok].astype(np.float64))
    m = len(x)
    if m < 2:
        raise ValueError("heaps_fit: not enough non-empty buckets")
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    syy = float((y * y).sum())
    beta = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    log_k = (sy - beta * sx) / m
    denom = (m * sxx - sx * sx) * (m * syy - sy * sy)
    # a constant v or n makes denom 0 in exact arithmetic, but rounding
    # noise can leave either sign: test the degenerate case on the ints
    flat = len(set(v[ok])) == 1 or len(set(n[ok])) == 1
    r2 = ((m * sxy - sx * sy) ** 2 / denom) if denom > 0 and not flat else 1.0
    return pd.DataFrame([{
        "n_buckets": np.int64(m),
        "beta": round(beta, 6),
        "log_k": round(log_k, 6),
        "r2": round(r2, 6)}])


def bigram_entropy(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Corpus entropy rate: unigram entropy H(W), bigram entropy
    H(W1,W2) and the conditional next-token entropy H(W2|W1) =
    H(W1,W2) - H(W1) (chain rule), in nats — how predictable the
    corpus is token-to-token (the model-free floor under any LM's
    perplexity; exp(H(W2|W1)) is the bigram perplexity bound).

    All three reduce from ONE pass of per-batch (kind, gram) count
    partials through a gram-keyed exchange, then the Σ n ln n
    identity per kind (the group_entropy shape) — probabilities are
    never materialized.  Unigram counts include every token; bigram
    counts pair consecutive tokens within a doc.  Returns one row
    (n_tokens, n_bigrams, h_unigram, h_bigram, h_conditional,
    ppl_bound), entropies rounded 6dp.
    """
    from collections import Counter

    from .exchange import exchange_agg

    def partial(batch: pa.Table) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for txt in batch.column(text_col).to_pylist():
            toks = _terms(txt or "")
            uni.update(toks)
            bi.update(f"{a}\x1f{b}" for a, b in zip(toks, toks[1:]))
        grams = list(uni) + list(bi)
        kinds = [0] * len(uni) + [1] * len(bi)
        cnts = list(uni.values()) + list(bi.values())
        return pa.table({
            "kind": pa.array(kinds, pa.int8()),
            "gram": pa.array(grams, pa.string()),
            "n": pa.array(cnts, pa.int64())})

    counts = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["kind", "gram"], [("n", "sum", "n")],
        num_partitions=num_partitions)
    agg = exchange_agg(
        counts.map_batches(
            lambda t: pa.table({
                "kind": t.column("kind"),
                "n": t.column("n"),
                "nlogn": pa.array(
                    t.column("n").to_numpy(zero_copy_only=False)
                    .astype(np.float64)
                    * np.log(t.column("n")
                             .to_numpy(zero_copy_only=False)
                             .astype(np.float64)), pa.float64())}),
            batch_format="pyarrow"),
        "kind", [("n", "sum", "total"), ("nlogn", "sum", "s")],
        num_partitions=2).to_pandas()
    import math

    if "kind" not in agg.columns:
        # token-less corpus: zero-row to_pandas drops columns entirely
        raise ValueError(
            "bigram_entropy: corpus has no tokens or no bigrams")
    agg = agg.set_index("kind")
    if 0 not in agg.index or 1 not in agg.index \
            or int(agg.loc[0, "total"]) == 0 or int(agg.loc[1, "total"]) == 0:
        # a corpus with no tokens or no bigrams has no defined entropy
        # rates — raise cleanly, not KeyError/log(0) (review r5)
        raise ValueError(
            "bigram_entropy: corpus has no tokens or no bigrams")
    n1 = int(agg.loc[0, "total"])
    n2 = int(agg.loc[1, "total"])
    h1 = round(math.log(n1) - float(agg.loc[0, "s"]) / n1, 6)
    h2 = round(math.log(n2) - float(agg.loc[1, "s"]) / n2, 6)
    hc = round(h2 - h1, 6)
    return pd.DataFrame([{
        "n_tokens": np.int64(n1), "n_bigrams": np.int64(n2),
        "h_unigram": h1, "h_bigram": h2, "h_conditional": hc,
        "ppl_bound": round(math.exp(hc), 6)}])
