"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline; ``queries()`` exposes one entry
per implemented operator/pipeline from SURVEY.md §2 plus the training-data
operators (dedup / similarity search / text analysis / multimodal);
``oracle_sql()`` gives DuckDB-equivalent SQL for every SQL-expressible
query (same column names, aggregates rounded identically on both sides).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# make the package importable regardless of the caller's cwd
_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

_QUERY_N = 10  # knn query count


def _r(series, n: int):
    """Round-half-away-from-zero (matches DuckDB round(double, n); pandas/
    pyarrow default to banker's rounding which diverges on .xx5 values)."""
    import numpy as np

    scale = 10.0 ** n
    arr = np.asarray(series, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale


def _pairs_df(df: pd.DataFrame) -> pd.DataFrame:
    """Normalize an (id_a, id_b, score) pairs result; empty-safe."""
    if df.empty or "id_a" not in df.columns:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="float64")})
    return df
_TMP = "/tmp/graft_work"
#: side-table root for queries whose DuckDB oracle needs intermediate
#: artifacts (predicted/gold triple sets, pre-dedup triples, JSON-LD docs).
#: The KG queries are fixture-driven (sf-independent, fully deterministic),
#: so fixed paths are safe: each query (re)writes its side tables before
#: returning, and the driver runs the Ray query before its oracle SQL.
_SIDE = os.path.join(_TMP, "side")


def _side_write(query: str, fname: str, df: pd.DataFrame) -> str:
    """Atomically (tmp+rename) write one oracle side table."""
    import pyarrow.parquet as pq

    d = os.path.join(_SIDE, query)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, fname)
    tmp = path + ".tmp"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp)
    os.replace(tmp, path)
    return path


def _eval_macro_sql(query: str, *, cases_file: bool = False,
                    micro: bool = True) -> str:
    """Set-intersection macro P/R/F1 over pred/gold side tables — the
    DuckDB replay of kernels/metrics.evaluate + macro_average (reference
    semantics: tests/integration_tests.rs:34-67, webnlg_evaluation.rs:113-133).

    ``cases_file``: case universe comes from cases.parquet (queries that
    score every case, even ones with empty pred AND gold); otherwise the
    universe is the union of case ids present in either side (matching
    pipelines/evaluate.evaluate_datasets, where such cases never surface).
    """
    pred = os.path.join(_SIDE, query, "pred.parquet")
    gold = os.path.join(_SIDE, query, "gold.parquet")
    if cases_file:
        cases = f"SELECT case_id FROM read_parquet('{os.path.join(_SIDE, query, 'cases.parquet')}')"
    else:
        cases = "SELECT case_id FROM pred UNION SELECT case_id FROM gold"
    micro_cols = (
        """,
             CAST(sum(tp) AS BIGINT) AS micro_tp,
             CAST(sum(fp) AS BIGINT) AS micro_fp,
             CAST(sum(fn) AS BIGINT) AS micro_fn"""
        if micro else ""
    )
    return f"""
      WITH pred AS (SELECT DISTINCT case_id, subj, pred, obj
                    FROM read_parquet('{pred}')),
           gold AS (SELECT DISTINCT case_id, subj, pred, obj
                    FROM read_parquet('{gold}')),
           cases AS ({cases}),
           tp AS (SELECT case_id, count(*) AS n
                  FROM (SELECT * FROM pred INTERSECT SELECT * FROM gold)
                  GROUP BY case_id),
           pc AS (SELECT case_id, count(*) AS n FROM pred GROUP BY case_id),
           gc AS (SELECT case_id, count(*) AS n FROM gold GROUP BY case_id),
           per AS (
             SELECT c.case_id,
                    coalesce(tp.n, 0) AS tp,
                    coalesce(pc.n, 0) - coalesce(tp.n, 0) AS fp,
                    coalesce(gc.n, 0) - coalesce(tp.n, 0) AS fn
             FROM cases c
             LEFT JOIN tp USING (case_id)
             LEFT JOIN pc USING (case_id)
             LEFT JOIN gc USING (case_id)),
           m AS (
             SELECT case_id, tp, fp, fn,
                    CASE WHEN tp + fp > 0 THEN tp * 1.0 / (tp + fp) ELSE 0.0 END AS p,
                    CASE WHEN tp + fn > 0 THEN tp * 1.0 / (tp + fn) ELSE 0.0 END AS r
             FROM per),
           mf AS (
             SELECT case_id, tp, fp, fn, p, r,
                    CASE WHEN p + r > 0 THEN 2 * p * r / (p + r) ELSE 0.0 END AS f1
             FROM m)
      SELECT round(avg(p), 6) AS precision,
             round(avg(r), 6) AS recall,
             round(avg(f1), 6) AS f1_score,
             CAST(count(*) AS BIGINT) AS cases{micro_cols}
      FROM mf
    """


def _documents(sf_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _embeddings(sf_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


# ---------------------------------------------------------------- KG pipeline


def _fixture_pages_dir(n: int = 1000) -> str:
    from text_to_rdf_ray.sources.fixtures import write_pages

    return write_pages(os.path.join(_TMP, f"pages_{n}"), n, rows_per_file=max(200, n // 8))


def _kg_triples_fixture(sf_dir: str) -> pd.DataFrame:
    """Full KG pipeline (html strip -> coref -> patterns -> link ->
    canonicalize -> validate -> dedup) over the deterministic fixture
    corpus.  The post-link/canonicalize, PRE-validate triples are dumped as
    a parquet side table; the DuckDB oracle replays the validate
    (confidence arithmetic, validation.rs:120-160/183-298 relational form)
    -> global (s,p,o)-dedup suffix in SQL, so the tail of the engine's
    actual product is driver-verified (the extract/link/canonicalize head
    stays golden-tested in tests/test_pipeline_e2e.py)."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.canonicalize import dedup_triples
    from text_to_rdf_ray.stages.kg_stages import validate_triples

    pages = read_pages(_fixture_pages_dir(1000))
    linked = build_triples(
        pages, kb_records=kb_records(), validate=False, dedup=False
    ).materialize()
    _side_write(
        "kg_triples_fixture", "linked.parquet",
        linked.to_pandas().sort_values(
            ["subj", "pred", "obj", "url", "chunk_id", "span_start"]
        ),
    )
    triples = dedup_triples(
        linked.map_batches(validate_triples, batch_format="pyarrow")
    )
    df = triples.to_pandas()
    cols = ["url", "subj", "subj_slug", "pred", "obj", "subj_type", "obj_type",
            "subj_uri", "confidence", "valid"]
    df["confidence"] = _r(df["confidence"], 6)
    return df[cols].sort_values(["subj", "pred", "obj", "url"]).reset_index(drop=True)


def _metrics_df(m: dict) -> pd.DataFrame:
    """Normalize a metrics dict for the driver compare (rounded floats,
    int64 counters) — the SQL oracle produces the same columns."""
    out = pd.DataFrame([m])
    for c in ("precision", "recall", "f1_score"):
        out[c] = _r(out[c], 6)
    for c in ("cases", "micro_tp", "micro_fp", "micro_fn"):
        if c in out.columns:
            out[c] = out[c].astype("int64")
    return out


def _kg_gold_eval(sf_dir: str) -> pd.DataFrame:
    """Macro P/R/F1 of the deterministic extractor vs the reference corpus
    (its own test fixtures) — the north-rule P/R >= 0.95 evidence.  Writes
    per-case pred/gold triple sets (+ the full case universe) as parquet
    side tables; the DuckDB oracle replays the set-intersection metrics."""
    from text_to_rdf_ray.pipelines.evaluate import evaluate_fixture_corpus

    m, pred_rows, gold_rows, case_ids = evaluate_fixture_corpus(return_sets=True)
    cols = ["case_id", "subj", "pred", "obj"]
    _side_write("kg_gold_eval", "pred.parquet",
                pd.DataFrame(pred_rows, columns=cols))
    _side_write("kg_gold_eval", "gold.parquet",
                pd.DataFrame(gold_rows, columns=cols))
    _side_write("kg_gold_eval", "cases.parquet",
                pd.DataFrame({"case_id": case_ids}))
    return _metrics_df(m)


def _harvest_pred_keys(docs) -> pd.DataFrame:
    """(key, pred) side table: every relation key (root + one nested level)
    across the JSON-LD docs with its ``normalize_predicate`` form — lets
    the DuckDB flatten-oracle join predicate names instead of re-deriving
    the (env-blocked) Snowball stem in SQL."""
    from text_to_rdf_ray.kernels.normalize import normalize_predicate

    keys: set[str] = set()
    for doc in docs:
        nodes = doc.get("@graph", [doc]) if "@graph" in doc else [doc]
        for node in nodes:
            if not isinstance(node, dict):
                continue
            for k, v in node.items():
                if k.startswith("@") or k == "name":
                    continue
                keys.add(k)
                if isinstance(v, dict):
                    for nk in v:
                        if not nk.startswith("@") and nk != "name":
                            keys.add(nk)
    keys_sorted = sorted(keys)
    return pd.DataFrame(
        {"key": keys_sorted, "pred": [normalize_predicate(k) for k in keys_sorted]}
    )


def _kg_jsonld_render(sf_dir: str) -> pd.DataFrame:
    """JSON-LD render + WebNLG/DocRED flatteners over fixture gold cases.
    Side tables: the rendered docs + a (key -> stemmed predicate) map; the
    DuckDB oracle re-derives n_webnlg/n_docred by flattening the JSON in
    SQL (json_keys/json_extract traversal of integration_tests.rs:70-110
    and docred_evaluation.rs:251-327 semantics)."""
    import json as _json

    from text_to_rdf_ray.kernels.extractor import extract_document
    from text_to_rdf_ray.kernels.jsonld import flatten_docred, flatten_webnlg, render_jsonld
    from text_to_rdf_ray.sources.fixtures import gold_case

    rows = []
    docs = []
    for i in range(50):
        text, _ = gold_case(i)
        ex = extract_document(text)
        doc = render_jsonld(ex.triples)
        docs.append(doc)
        rows.append(
            {
                "case": i,
                "jsonld": _json.dumps(doc, sort_keys=True),
                "n_webnlg": len(flatten_webnlg(doc)),
                "n_docred": len(flatten_docred(doc)),
            }
        )
    out = pd.DataFrame(rows)
    _side_write("kg_jsonld_render", "doc.parquet", out[["case", "jsonld"]])
    _side_write("kg_jsonld_render", "predmap.parquet", _harvest_pred_keys(docs))
    return out


# ------------------------------------------------------------- text analysis


def _doc_token_counts(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.textstats_stage import add_token_counts

    out = add_token_counts(_documents(sf_dir)).to_pandas()
    return out[["doc_id", "n_tokens_ws"]].sort_values("doc_id").reset_index(drop=True)


def _doc_langid(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.textstats_stage import add_lang_id

    return add_lang_id(_documents(sf_dir)).to_pandas().sort_values("doc_id").reset_index(drop=True)


def _doc_quality(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.textstats_stage import add_quality

    df = add_quality(_documents(sf_dir)).to_pandas()
    df = df[["doc_id", "n_chars", "n_words", "stopword_ratio", "alpha_ratio"]]
    df["stopword_ratio"] = _r(df["stopword_ratio"], 6)
    df["alpha_ratio"] = _r(df["alpha_ratio"], 6)
    return df.sort_values("doc_id").reset_index(drop=True)


def _doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprints + SimHash.  Side tables carry the RAW
    pre-selection artifacts (per-window Rabin-Karp hashes, distinct
    char-trigram hashes — the hash functions themselves are shared, as in
    the other side-table oracles); the DuckDB oracle independently replays
    the winnowing selection (h % 64 == 0, first-hash fallback, distinct
    count) and the SimHash bit-vote packing."""
    from text_to_rdf_ray.stages.textstats_stage import add_fingerprints

    docs = _documents(sf_dir)

    def raw_hashes(batch: pa.Table) -> pa.Table:
        from text_to_rdf_ray.kernels.minhash import (
            _hash_shingles,
            char_shingles,
            short_doc_fingerprint,
            window_hashes,
        )

        w_doc, w_pos, w_h = [], [], []
        s_doc, s_fp = [], []
        g_doc, g_h = [], []
        for i, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            hs = window_hashes(t)
            if hs is None:
                s_doc.append(i)
                s_fp.append(short_doc_fingerprint(t))
            else:
                w_doc.extend([i] * len(hs))
                w_pos.extend(range(len(hs)))
                w_h.extend(hs.tolist())
            sh = np.unique(_hash_shingles(sorted(char_shingles(t))))
            g_doc.extend([i] * len(sh))
            g_h.extend(sh.tolist())
        return pa.table(
            {
                "kind": pa.array(["w"] * len(w_doc) + ["s"] * len(s_doc)
                                 + ["g"] * len(g_doc), pa.string()),
                "doc_id": pa.array(w_doc + s_doc + g_doc, pa.int64()),
                "pos": pa.array(w_pos + [-1] * len(s_doc) + [-1] * len(g_doc),
                                pa.int64()),
                "h": pa.array(w_h + s_fp + g_h, pa.uint64()),
            }
        )

    raw = docs.map_batches(raw_hashes, batch_format="pyarrow").to_pandas()
    for kind, fname in (("w", "win.parquet"), ("s", "short.parquet"),
                        ("g", "shingle.parquet")):
        part = raw[raw["kind"] == kind][["doc_id", "pos", "h"]]
        _side_write("doc_fingerprints", fname,
                    part.sort_values(["doc_id", "pos", "h"]).reset_index(drop=True))

    df = add_fingerprints(docs).to_pandas()
    df = df[["doc_id", "n_fingerprints", "simhash"]]
    df["n_fingerprints"] = df["n_fingerprints"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


def _stem_tokens(sf_dir: str) -> pd.DataFrame:
    """Distinct document tokens -> Snowball stems (M11 parity surface),
    fully distributed: per-batch distinct -> exchange_agg distinct ->
    stems computed inside map_batches (never a driver loop).

    Oracle: no local Snowball exists (duckdb fts unavailable offline),
    so the stem MAPPING itself is a raw side table (the stemmer is
    golden-parity-tested in tests/test_normalize.py) while the SQL
    independently replays the tokenization, the distinct, the join
    coverage, and the ordering — the same shared-kernel trade as the
    doc_fingerprints / media side-table oracles."""
    from text_to_rdf_ray.stages.exchange import exchange_agg

    def explode(batch: pa.Table) -> pa.Table:
        words = set()
        for t in batch.column("text").to_pylist():
            words.update(t.split())
        return pa.table({"token": pa.array(sorted(words), pa.string())})

    def stem_batch(batch: pa.Table) -> pa.Table:
        from text_to_rdf_ray.kernels.stemmer import stem

        toks = batch.column("token").to_pylist()
        return pa.table({
            "token": batch.column("token"),
            "stemmed": pa.array([stem(t) for t in toks], pa.string()),
        })

    out = (
        exchange_agg(
            _documents(sf_dir).map_batches(explode, batch_format="pyarrow"),
            "token")
        .map_batches(stem_batch, batch_format="pyarrow")
        .to_pandas().sort_values("token").reset_index(drop=True)
    )
    _side_write("stem_tokens", "stems.parquet", out)
    return out


def _chunk_counts(sf_dir: str) -> pd.DataFrame:
    """Chunker operator surface (M1/M2 semantics at reduced window so the
    ~300-char docs multi-chunk)."""
    from text_to_rdf_ray.kernels.text import chunk_text

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        chunks = [chunk_text(t, max_chars=120, overlap=30) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": ids,
                "n_chunks": pa.array([len(c) for c in chunks], pa.int64()),
                "covered": pa.array(
                    [c[-1][3] == len(t) for c, t in zip(chunks, batch.column("text").to_pylist())],
                    pa.bool_(),
                ),
            }
        )

    return (
        _documents(sf_dir).map_batches(fn, batch_format="pyarrow").to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )


# -------------------------------------------------------------------- dedup


def _dedup_exact(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.dedup import exact_dedup

    out = exact_dedup(_documents(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _dedup_minhash(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.dedup import minhash_dedup

    out = minhash_dedup(_documents(sf_dir), threshold=0.8).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _dedup_cluster_sizes(sf_dir: str) -> pd.DataFrame:
    """Near-dup cluster-size histogram — the dedup AUDIT readout (how
    much mass sits in big clusters drives dedup-rate expectations):
    minhash_dedup's (doc, canonical) mapping folded by two count
    exchanges into (cluster_size, n_clusters)."""
    from text_to_rdf_ray.stages.dedup import minhash_dedup
    from text_to_rdf_ray.stages.exchange import exchange_agg

    clusters = minhash_dedup(_documents(sf_dir), threshold=0.8)
    sizes = exchange_agg(
        clusters.map_batches(
            lambda b: pd.DataFrame({
                "canonical_id": b["canonical_id"].astype("int64"),
                "one": np.ones(len(b), np.int64)}),
            batch_format="pandas"),
        "canonical_id", [("one", "sum", "size")])
    hist = exchange_agg(
        sizes.map_batches(
            lambda t: pa.table({
                "size": t.column("size"),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        "size", [("one", "sum", "n_clusters")],
        num_partitions=4).to_pandas()
    hist["size"] = hist["size"].astype("int64")
    hist["n_clusters"] = hist["n_clusters"].astype("int64")
    return (hist[["size", "n_clusters"]]
            .sort_values("size").reset_index(drop=True))


def _dedup_simhash(sf_dir: str) -> pd.DataFrame:
    """SimHash pairs.  The 4x16-bit banding is EXACT for Hamming <= 3
    (pigeonhole), so dumping the per-doc simhash values as a side table
    lets DuckDB replay the whole pair generation + verify as an exact
    Hamming cross join (bit_count(xor(...)) <= 3) — a full oracle for the
    LSH machinery (the hash function itself is shared, as with the other
    side-table oracles)."""
    from text_to_rdf_ray.stages.dedup import simhash_pairs

    docs = _documents(sf_dir)

    def hashes(batch: pa.Table) -> pa.Table:
        from text_to_rdf_ray.kernels.minhash import simhash64

        hs = [simhash64(t) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "h": pa.array(hs, pa.uint64())})

    side = docs.map_batches(hashes, batch_format="pyarrow").to_pandas()
    _side_write("dedup_simhash_pairs", "simhash.parquet",
                side.sort_values("doc_id").reset_index(drop=True))
    out = _pairs_df(simhash_pairs(docs).to_pandas())
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _dedup_simhash_docs(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup CLUSTERS: the dedup_simhash_pairs generator
    fed through stages/dedup.py::pairs_to_canonical (connected
    components, min-id canonical) — completing the pairs->clusters
    duality for the simhash family (minhash and embedding already
    have both).  Oracle: same side-written simhash values, exact
    Hamming pair join, recursive reach."""
    from text_to_rdf_ray.stages.dedup import (pairs_to_canonical,
                                              simhash_pairs)

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def hashes(batch: pa.Table) -> pa.Table:
        from text_to_rdf_ray.kernels.minhash import simhash64

        hs = [simhash64(t) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "h": pa.array(hs, pa.uint64())})

    side = docs.map_batches(hashes, batch_format="pyarrow").to_pandas()
    _side_write("dedup_simhash_docs", "simhash.parquet",
                side.sort_values("doc_id").reset_index(drop=True))
    out = pairs_to_canonical(docs, simhash_pairs(docs),
                             "doc_id").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    return (out[["doc_id", "canonical_id"]]
            .sort_values("doc_id").reset_index(drop=True))


def _dedup_ngram(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.dedup import ngram_jaccard_pairs

    out = _pairs_df(ngram_jaccard_pairs(_documents(sf_dir), threshold=0.8).to_pandas())
    out["score"] = _r(out["score"], 6)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_EMB_DUP_OFFSET = 100_000


def _dedup_embedding(sf_dir: str) -> pd.DataFrame:
    """Embedding near-dup pairs over the embeddings table augmented with
    deterministic planted duplicates (id+offset, vector scaled by 2 — same
    direction, different bytes).  The raw synthetic table has NO pair above
    cosine 0.61, so without planting the verify path would never fire; the
    oracle replays the same augmentation and a full cross-join cosine."""
    from text_to_rdf_ray.stages.dedup import embedding_neardup_pairs

    emb = _embeddings(sf_dir).select_columns(["vec_id", "embedding"])

    def planted(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        scaled = [[2.0 * float(x) for x in v]
                  for v in batch.column("embedding").to_pylist()]
        return pa.table(
            {
                "vec_id": pc.add(batch.column("vec_id"), pa.scalar(_EMB_DUP_OFFSET)),
                "embedding": scaled,
            }
        )

    aug = emb.union(emb.map_batches(planted, batch_format="pyarrow"))
    out = _pairs_df(embedding_neardup_pairs(aug, threshold=0.98).to_pandas())
    out["score"] = _r(out["score"], 5)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _dedup_embedding_docs(sf_dir: str) -> pd.DataFrame:
    """Embedding near-dup CLUSTERS (SemDeDup-style semantic dedup): the
    same planted-duplicate augmentation as dedup_embedding_pairs, then
    stages/dedup.py::embedding_dedup (cosine-LSH pairs -> connected
    components -> min-id canonical per cluster)."""
    from text_to_rdf_ray.stages.dedup import embedding_dedup

    emb = _embeddings(sf_dir).select_columns(["vec_id", "embedding"])

    def planted(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        scaled = [[2.0 * float(x) for x in v]
                  for v in batch.column("embedding").to_pylist()]
        return pa.table(
            {
                "vec_id": pc.add(batch.column("vec_id"), pa.scalar(_EMB_DUP_OFFSET)),
                "embedding": scaled,
            }
        )

    aug = emb.union(emb.map_batches(planted, batch_format="pyarrow"))
    out = embedding_dedup(aug, threshold=0.98).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    return (out[["vec_id", "canonical_id"]]
            .sort_values("vec_id").reset_index(drop=True))


# --------------------------------------------------------- similarity search


def _knn_queries(sf_dir: str):
    import pyarrow.compute as pc

    def head_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch.column("vec_id"), pa.scalar(_QUERY_N)))

    rows = (
        _embeddings(sf_dir)
        .map_batches(head_filter, batch_format="pyarrow")
        .take_all()
    )
    rows.sort(key=lambda r: r["vec_id"])
    return np.array([r["embedding"] for r in rows], dtype=np.float64), [r["vec_id"] for r in rows]


def _knn_bruteforce(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.stages.knn import knn_bruteforce

    q, qids = _knn_queries(sf_dir)
    out = knn_bruteforce(_embeddings(sf_dir), q, qids, k=10)
    return out[["query_id", "neighbor_id", "rank"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _embeddings_quantize(sf_dir: str) -> pd.DataFrame:
    """Scalar int8-style quantization (stages/knn.py::quantization_range
    + quantize_embeddings): exact global per-dim min/max calibration,
    then floor((x-mn)/(mx-mn)*255+0.5) codes — fully replayed in SQL
    from the raw embeddings."""
    from text_to_rdf_ray.stages.knn import (quantization_range,
                                            quantize_embeddings)

    emb = _embeddings(sf_dir)
    mn, mx = quantization_range(emb)
    codes = quantize_embeddings(emb, mn, mx).to_pandas()
    rows = []
    for vid, cs in zip(codes["vec_id"], codes["codes"]):
        for d, c in enumerate(cs):
            rows.append((int(vid), d, int(c)))
    out = pd.DataFrame(rows, columns=["vec_id", "dim", "code"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["vec_id", "dim"]).reset_index(drop=True)


def _knn_quantized(sf_dir: str) -> pd.DataFrame:
    """Integer-dot top-k over quantized codes (stages/knn.py::
    knn_quantized): all-int64 scoring, so even the score column is
    bit-identical to the SQL replay."""
    from text_to_rdf_ray.stages.knn import (knn_quantized,
                                            quantization_range,
                                            quantize_embeddings)

    emb = _embeddings(sf_dir)
    mn, mx = quantization_range(emb)
    codes = quantize_embeddings(emb, mn, mx)

    def head_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.less(batch.column("vec_id"),
                                    pa.scalar(_QUERY_N)))

    qrows = codes.map_batches(head_filter,
                              batch_format="pyarrow").take_all()
    qrows.sort(key=lambda r: r["vec_id"])
    qm = np.array([r["codes"] for r in qrows], dtype=np.int64)
    qids = [int(r["vec_id"]) for r in qrows]
    out = knn_quantized(codes, qm, qids, k=10)
    return (out[["query_id", "neighbor_id", "rank", "score"]]
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


def _embeddings_rproj(sf_dir: str) -> pd.DataFrame:
    """JL sign random projection (stages/knn.py::random_projection):
    deterministic splitmix64-derived ±1 matrix, y = V·S/sqrt(k), pure
    map.  Oracle regenerates the sign matrix with the same integer hash
    chain and replays the projection sum."""
    from text_to_rdf_ray.stages.knn import random_projection

    out = random_projection(_embeddings(sf_dir), out_dim=8,
                            seed=42).to_pandas()
    rows = []
    for vid, ys in zip(out["vec_id"], out["proj"]):
        for j, y in enumerate(ys):
            rows.append((int(vid), j, y))
    df = pd.DataFrame(rows, columns=["vec_id", "j", "y"])
    df["vec_id"] = df["vec_id"].astype("int64")
    df["j"] = df["j"].astype("int64")
    df["y"] = _r(df["y"], 6)
    return df.sort_values(["vec_id", "j"]).reset_index(drop=True)


def _knn_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF with nprobe < n_clusters: recall < 1 vs brute force by design,
    but the result is EXACTLY the top-k among vectors in the probed lists
    — so dumping (vec_id, cluster) assignments and the per-query probed
    clusters lets DuckDB replay that semantics precisely (candidates =
    join on probed clusters, then windowed top-10 by cosine)."""
    from text_to_rdf_ray.stages.knn import ivf_assignments, knn_ivf

    q, qids = _knn_queries(sf_dir)
    emb = _embeddings(sf_dir)
    side: dict = {}
    out = knn_ivf(emb, q, qids, k=10, n_clusters=16, nprobe=4, side_out=side)
    assign = ivf_assignments(emb, side["centers"]).to_pandas()
    _side_write("knn_ivf", "assign.parquet",
                assign.sort_values("vec_id").reset_index(drop=True))
    probes = pd.DataFrame(
        [(qid, c) for qid, clusters in side["probes"] for c in clusters],
        columns=["query_id", "cluster"],
    )
    _side_write("knn_ivf", "probes.parquet", probes)
    return out[["query_id", "neighbor_id", "rank"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _knn_recall_eval(sf_dir: str) -> pd.DataFrame:
    """ANN recall@10 — the accuracy-vs-cost readout for the IVF index:
    the same nprobe=4 IVF run as knn_ivf scored against exact
    brute-force top-10 per query; recall = |ivf ∩ exact| / 10.  Side
    tables dumped under THIS query's dir so the oracle replays both
    rankings independently and recomputes the overlap."""
    from text_to_rdf_ray.stages.knn import (ivf_assignments,
                                            knn_bruteforce, knn_ivf)

    q, qids = _knn_queries(sf_dir)
    emb = _embeddings(sf_dir)
    side: dict = {}
    approx = knn_ivf(emb, q, qids, k=10, n_clusters=16, nprobe=4,
                     side_out=side)
    assign = ivf_assignments(emb, side["centers"]).to_pandas()
    _side_write("knn_recall_eval", "assign.parquet",
                assign.sort_values("vec_id").reset_index(drop=True))
    probes = pd.DataFrame(
        [(qid, c) for qid, clusters in side["probes"] for c in clusters],
        columns=["query_id", "cluster"])
    _side_write("knn_recall_eval", "probes.parquet", probes)
    exact = knn_bruteforce(emb, q, qids, k=10)
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    hits = exact.assign(hit=[
        (r, n) in a for r, n in zip(exact["query_id"],
                                    exact["neighbor_id"])])
    out = (hits.groupby("query_id", as_index=False)
           .agg(n_overlap=("hit", "sum")))
    out["n_overlap"] = out["n_overlap"].astype("int64")
    out["recall"] = np.round(out["n_overlap"].to_numpy() / 10.0, 6)
    out["query_id"] = out["query_id"].astype("int64")
    return (out[["query_id", "n_overlap", "recall"]]
            .sort_values("query_id").reset_index(drop=True))


def _knn_lsh(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed ANN (stages/knn.py knn_lsh): random-hyperplane sign
    buckets, multiprobe=1 (own bucket + every 1-bit flip).  Recall < 1 vs
    brute force by design, but EXACT within the probed buckets — dumping
    (vec_id, bucket) assignments and the per-query probed buckets lets
    DuckDB replay that semantics precisely (same trick as knn_ivf)."""
    from text_to_rdf_ray.stages.knn import knn_lsh, lsh_assignments

    q, qids = _knn_queries(sf_dir)
    emb = _embeddings(sf_dir)
    side: dict = {}
    out = knn_lsh(emb, q, qids, k=10, n_planes=6, multiprobe=1, side_out=side)
    assign = lsh_assignments(emb, side["planes"]).to_pandas()
    _side_write("knn_lsh", "assign.parquet",
                assign.sort_values("vec_id").reset_index(drop=True))
    probes = pd.DataFrame(
        [(qid, b) for qid, buckets in side["probes"] for b in buckets],
        columns=["query_id", "bucket"],
    )
    _side_write("knn_lsh", "probes.parquet", probes)
    return out[["query_id", "neighbor_id", "rank"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _knn_lsh_indexed(sf_dir: str) -> pd.DataFrame:
    """Write-once bucket-partitioned LSH index + probe (stages/knn.py
    build_lsh_index / knn_lsh_indexed): only the probed multiprobe bucket
    directories are read (path-level hive pruning).  Same probed-bucket
    semantics as knn_lsh, so the oracle replays it from the
    lsh_assignments side table identically."""
    import hashlib as _hl

    from text_to_rdf_ray.stages.knn import (
        build_lsh_index, knn_lsh_indexed, lsh_assignments)

    tag = _hl.blake2b(sf_dir.encode(), digest_size=6).hexdigest()
    idx_dir = os.path.join(_TMP, f"lsh_index_{tag}")
    if not _index_meta_current(idx_dir):
        # meta.json is written LAST; its absence means a missing or
        # half-built index — clear before rebuilding (write_parquet
        # appends, it does not replace)
        import shutil

        shutil.rmtree(idx_dir, ignore_errors=True)
        build_lsh_index(_embeddings(sf_dir), idx_dir, n_planes=6)
    q, qids = _knn_queries(sf_dir)
    side: dict = {}
    out = knn_lsh_indexed(idx_dir, q, qids, k=10, multiprobe=1,
                          side_out=side)
    assign = lsh_assignments(_embeddings(sf_dir), side["planes"]).to_pandas()
    _side_write("knn_lsh_indexed", "assign.parquet",
                assign.sort_values("vec_id").reset_index(drop=True))
    probes = pd.DataFrame(
        [(qid, b) for qid, buckets in side["probes"] for b in buckets],
        columns=["query_id", "bucket"],
    )
    _side_write("knn_lsh_indexed", "probes.parquet", probes)
    return out[["query_id", "neighbor_id", "rank"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _index_meta_current(idx_dir: str) -> bool:
    """A cached ANN index is reusable iff its meta.json exists AND
    carries the current stored-assignment format (2) — older cached
    indexes lack the stored list/bucket column the probes now read."""
    import json as _json

    p = os.path.join(idx_dir, "meta.json")
    if not os.path.exists(p):
        return False
    try:
        with open(p) as fh:
            return _json.load(fh).get("format") == 2
    except Exception:
        return False


def _knn_ivf_indexed(sf_dir: str) -> pd.DataFrame:
    """Write-once partitioned IVF index + probe (stages/knn.py
    build_ivf_index / knn_ivf_indexed).  nprobe = n_clusters, so the result
    must equal exact brute force -> same SQL oracle; partition pruning with
    nprobe < n_clusters is covered by pytest."""
    import hashlib as _hl

    from text_to_rdf_ray.stages.knn import build_ivf_index, knn_ivf_indexed

    tag = _hl.blake2b(sf_dir.encode(), digest_size=6).hexdigest()
    idx_dir = os.path.join(_TMP, f"ivf_index_{tag}")
    if not _index_meta_current(idx_dir):
        # meta.json is written LAST; its absence means a missing or
        # half-built index — clear before rebuilding (write_parquet
        # appends, it does not replace)
        import shutil

        shutil.rmtree(idx_dir, ignore_errors=True)
        build_ivf_index(_embeddings(sf_dir), idx_dir, n_clusters=16)
    q, qids = _knn_queries(sf_dir)
    out = knn_ivf_indexed(idx_dir, q, qids, k=10, nprobe=16)
    return out[["query_id", "neighbor_id", "rank"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _knn_ivf_exhaustive(sf_dir: str) -> pd.DataFrame:
    """IVF machinery (quantize -> bucket -> probe -> merge) with
    nprobe = n_clusters: every list probed, so the result must equal exact
    brute force — which gives the IVF path a hard DuckDB oracle."""
    from text_to_rdf_ray.stages.knn import knn_ivf

    q, qids = _knn_queries(sf_dir)
    out = knn_ivf(_embeddings(sf_dir), q, qids, k=10, n_clusters=16, nprobe=16)
    return out[["query_id", "neighbor_id", "rank"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _embedding_label_stats(sf_dir: str) -> pd.DataFrame:
    def fn(batch: pa.Table) -> pa.Table:
        from text_to_rdf_ray.stages.knn import _emb_matrix

        m = _emb_matrix(batch, "embedding").astype(np.float64)
        norms = np.sqrt((m * m).sum(axis=1))
        return pa.table(
            {
                "label": batch.column("label"),
                "norm": pa.array(norms, pa.float64()),
            }
        )

    from ray.data.aggregate import Count, Mean

    out = (
        _embeddings(sf_dir)
        .map_batches(fn, batch_format="pyarrow")
        .groupby("label")
        .aggregate(Count(alias_name="n"), Mean("norm", alias_name="avg_norm"))
        .to_pandas()
    )
    out["avg_norm"] = _r(out["avg_norm"], 6)
    out["n"] = out["n"].astype("int64")
    return out[["label", "n", "avg_norm"]].sort_values("label").reset_index(drop=True)


# ------------------------------------------------------ relational operators


def _agg_lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style grouped aggregate with a per-batch combiner:
    pyarrow group_by inside map_batches emits ~6 partial rows per batch, so
    the exchange moves partials, not 600k rows (the pre-aggregation pattern
    for skew/scale)."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        disc = pc.multiply(batch.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        batch = batch.append_column("disc_price", disc)
        return batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("disc_price", "sum"), ("l_quantity", "count")]
        )

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity_sum", alias_name="sum_qty"),
            Sum("l_extendedprice_sum", alias_name="sum_base_price"),
            Sum("disc_price_sum", alias_name="sum_disc_price"),
            Sum("l_quantity_count", alias_name="count_order"),
        )
        .to_pandas()
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[c] = _r(out[c], 2)
    out["count_order"] = out["count_order"].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def _join_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer ⋈ nation with the small sides broadcast (dimension
    tables via ray.put, no shuffle join) + per-batch partial aggregation."""
    import ray

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    cust_map = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    lookup_ref = ray.put(dict(zip(cust_map["c_custkey"], cust_map["n_name"])))
    cache: dict = {}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = cache.get("m")
        if lookup is None:
            lookup = cache["m"] = ray.get(lookup_ref)
        batch["n_name"] = batch["o_custkey"].map(lookup)
        g = batch.groupby("n_name", as_index=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )
        return g

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )
    from ray.data.aggregate import Sum

    out = (
        orders.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("n_name")
        .aggregate(Sum("revenue", alias_name="revenue"), Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    out["revenue"] = _r(out["revenue"], 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("n_name").reset_index(drop=True)


def _topk_orders(sf_dir: str) -> pd.DataFrame:
    """Top-10 orders by totalprice: per-batch local top-k combiner, then a
    global sort over the tiny partials (no full-data sort shuffle)."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_totalprice"]
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(10)

    partials = ds.map_batches(local_topk, batch_format="pandas",
                              batch_size=65536).to_pandas()
    out = partials.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(10)
    out["o_totalprice"] = _r(out["o_totalprice"], 2)
    return out.reset_index(drop=True)


def _filter_high_value(sf_dir: str) -> pd.DataFrame:
    import pyarrow.compute as pc

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.greater(batch.column("l_quantity"), pa.scalar(45.0))
        batch = batch.filter(mask)
        rev = pc.multiply(batch.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_linenumber": batch.column("l_linenumber"),
                "revenue": pa.array(_r(rev.to_numpy(zero_copy_only=False), 2), pa.float64()),
            }
        )

    return (
        ds.map_batches(fn, batch_format="pyarrow").to_pandas()
        .sort_values(["l_orderkey", "l_linenumber"]).reset_index(drop=True)
    )


def _distinct_event_types(sf_dir: str) -> pd.DataFrame:
    vals = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type"]).unique(
        "event_type"
    )
    return pd.DataFrame({"event_type": sorted(vals)})


def _events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h event-time window (stages/windows.py::tumbling_agg) —
    the Ray Data expression of a streaming windowed aggregate (SURVEY.md
    §2.9); per-batch partial aggregation in front of the exchange."""
    from text_to_rdf_ray.stages.windows import tumbling_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts", "value"])
    out = tumbling_agg(ds, ts_col="ts", key_col="event_type",
                       value_col="value", width_us=3_600_000_000).to_pandas()
    out = out.rename(columns={"window_id": "hour_id"})
    out["sum_value"] = _r(out["sum_value"], 2)
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["event_type", "hour_id"]).reset_index(drop=True)


def _events_user_totals(sf_dir: str) -> pd.DataFrame:
    """Top-10 users by total value: per-batch partial aggregation, then a
    small groupby + local sort (no full-data sort)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        return batch.group_by("user_id").aggregate(
            [("value", "sum"), ("value", "count")]
        )

    from text_to_rdf_ray.stages.exchange import exchange_agg

    # one group per USER — exchange_agg, not Ray's per-key Aggregate
    agg = exchange_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "user_id",
        [("value_sum", "sum", "total"), ("value_count", "sum", "n_events")],
    ).to_pandas()
    out = agg.sort_values(["total", "user_id"], ascending=[False, True]).head(10)
    out["total"] = _r(out["total"], 2)
    out["n_events"] = out["n_events"].astype("int64")
    return out.reset_index(drop=True)


def _slug_part_names(sf_dir: str) -> pd.DataFrame:
    from text_to_rdf_ray.kernels.normalize import normalize_entity_name

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "slug": pa.array(
                    [normalize_entity_name(n) for n in batch.column("p_name").to_pylist()],
                    pa.string(),
                ),
            }
        )

    ds = rd.read_parquet(os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"])
    return (
        ds.map_batches(fn, batch_format="pyarrow").to_pandas()
        .sort_values("p_partkey").reset_index(drop=True)
    )


def _media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal plumbing: binary payload column -> actor-pool decode stage
    (deterministic fake decode; real decode stubbed per environment)."""
    from text_to_rdf_ray.stages.multimodal import decode_features, make_fake_media

    ds = rd.from_arrow(make_fake_media(200))
    out = decode_features(ds, fake=True).to_pandas()
    out["feat_dim"] = out["features"].map(len).astype("int64")
    # float64 accumulation on both sides (the raw features are float32;
    # a float32-precision sum can flip the 5th rounded decimal vs the
    # oracle's float64 SUM)
    out["feat_sum"] = out["features"].map(
        lambda f: round(float(np.asarray(f, dtype=np.float64).sum()), 5))
    # side tables: raw INPUT metadata + per-dim feature values; the SQL
    # oracle independently replays the per-media aggregation (dim count,
    # rounded sum) and the metadata join
    _side_write("media_features_fake", "media.parquet",
                out[["media_id", "media_type", "mime"]]
                .sort_values("media_id").reset_index(drop=True))
    feats = out[["media_id", "features"]].explode("features")
    feats["dim_idx"] = feats.groupby("media_id").cumcount()
    feats["feat_val"] = feats["features"].astype("float64")
    _side_write("media_features_fake", "feats.parquet",
                feats[["media_id", "dim_idx", "feat_val"]]
                .sort_values(["media_id", "dim_idx"]).reset_index(drop=True))
    return (
        out[["media_id", "media_type", "mime", "feat_dim", "feat_sum"]]
        .sort_values("media_id").reset_index(drop=True)
    )


def _media_frames(sf_dir: str) -> pd.DataFrame:
    """Multimodal resize + video frame-sampling plumbing (actor-pool
    stages; deterministic fake kernels — real decode env-blocked)."""
    import hashlib as _hl

    from text_to_rdf_ray.stages.multimodal import (
        make_fake_media,
        resize_images,
        sample_frames,
    )

    media = make_fake_media(200)
    ds = rd.from_arrow(media)
    resized = resize_images(ds, 224, 224, fake=True)
    frames = sample_frames(resized, fps_n=4, fake=True).to_pandas()
    frames["frame_hash"] = frames["frame"].map(
        lambda b: _hl.blake2b(b, digest_size=8).hexdigest()
    )
    out = (
        frames[["media_id", "frame_idx", "ts_ms", "frame_hash"]]
        .sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    )
    # side tables: raw INPUT metadata + (media_id, frame_idx) -> hash;
    # the SQL oracle independently replays the sampling decisions (video
    # filter, frame count n, integer-division timestamps) and joins the
    # hashes by position
    _side_write(
        "media_frames_fake", "media.parquet",
        media.select(["media_id", "media_type", "duration_ms"]).to_pandas())
    _side_write("media_frames_fake", "hashes.parquet",
                out[["media_id", "frame_idx", "frame_hash"]])
    return out


def _events_sessions(sf_dir: str) -> pd.DataFrame:
    """Session windows (30-min inactivity gap) per user — the stream-shaped
    operator (stages/windows.py::sessionize + session_summary)."""
    from text_to_rdf_ray.stages.windows import session_summary, sessionize

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts"])
    out = session_summary(sessionize(ds)).to_pandas()
    out["n_sessions"] = out["n_sessions"].astype("int64")
    out["max_session_events"] = out["max_session_events"].astype("int64")
    return (
        out[["user_id", "n_sessions", "max_session_events"]]
        .sort_values("user_id").reset_index(drop=True)
    )


def _events_rolling_avg(sf_dir: str) -> pd.DataFrame:
    """Per-user row-based rolling mean (last 3 events) + inter-event gap
    (stages/windows.py::rolling_agg)."""
    from text_to_rdf_ray.stages.windows import rolling_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts", "value"])
    out = rolling_agg(ds, window_rows=3).to_pandas()
    out["rolling_avg"] = _r(out["rolling_avg"], 6)
    for c in ("user_id", "event_id", "gap_us"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "event_id", "rolling_avg", "gap_us"]]
            .sort_values(["user_id", "event_id"]).reset_index(drop=True))


def _events_cube_counts(sf_dir: str) -> pd.DataFrame:
    """GROUP BY GROUPING SETS over (event_type, hour): all four sets in
    one combiner pass + one hash exchange (stages/analytics.py::
    grouping_sets_agg)."""
    from text_to_rdf_ray.stages.analytics import grouping_sets_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"])

    def add_hour(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        hours = ts_us.to_numpy(zero_copy_only=False) // 3_600_000_000
        return pa.table({
            "event_type": batch.column("event_type"),
            "hour": pa.array(hours, pa.int64()),
            "value": batch.column("value"),
        })

    sets = [(), ("event_type",), ("hour",), ("event_type", "hour")]
    out = grouping_sets_agg(
        ds.map_batches(add_hour, batch_format="pyarrow"),
        sets=sets, value_col="value").to_pandas()
    out["sum_value"] = _r(out["sum_value"], 2)
    for c in ("gid", "n"):
        out[c] = out[c].astype("int64")
    return (out[["gid", "event_type", "hour", "n", "sum_value"]]
            .sort_values(["gid", "event_type", "hour"])
            .reset_index(drop=True))


def _events_props_extract(sf_dir: str) -> pd.DataFrame:
    """Semi-structured parsing: JSON props column -> typed value, fully
    vectorized via Arrow's C-backed ``pc.extract_regex`` (no per-row
    Python json.loads).  The pattern is ANCHORED at the object start
    (^\s*{\s*"k"\s*:\s*INT followed by , or }) so it can only match
    the first top-level member of the flat props objects this table
    carries — a "k" inside a string value, a non-integer k, or any
    other shape yields null and RAISES rather than silently extracting
    the wrong number (the SQL oracle parses real JSON via
    json_extract_string, so a silent regex mismatch would diverge)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "props"])

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(
            batch.column("props"),
            r'^\s*\{\s*"k"\s*:\s*(?P<k>-?\d+)\s*[,}]')
        ks = pc.struct_field(m, "k")
        if pc.any(pc.is_null(ks)).as_py():
            raise ValueError(
                "props row is not a flat object with a leading integer "
                "k member — extend the pattern or parse as JSON")
        return pa.table({"event_id": batch.column("event_id"),
                         "k": ks.cast(pa.int64())})

    return (
        ds.map_batches(fn, batch_format="pyarrow").to_pandas()
        .sort_values("event_id").reset_index(drop=True)
    )


def _events_pc(sf_dir: str, etype: str, cols: dict) -> "rd.Dataset":
    """Project one event_type slice of the events table to renamed columns
    (vectorized mask + rename in a single map_batches pass)."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts", "event_type", "value"])

    def fn(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("event_type"), etype))
        return pa.table({out: b.column(src) for out, src in cols.items()})

    return ds.map_batches(fn, batch_format="pyarrow")


def _events_asof(sf_dir: str) -> pd.DataFrame:
    """As-of join (attribution shape): for each 'purchase' event, the
    latest 'click' by the same user at or before it — the co-partitioned
    single-exchange form (stages/joins.py::asof_join)."""
    from text_to_rdf_ray.stages.joins import asof_join

    left = _events_pc(sf_dir, "purchase",
                      {"user_id": "user_id", "p_event_id": "event_id", "ts": "ts"})
    right = _events_pc(sf_dir, "click",
                       {"user_id": "user_id", "c_event_id": "event_id",
                        "c_ts": "ts", "c_value": "value"})
    out = asof_join(left, right, key_col="user_id", left_ts="ts",
                    right_ts="c_ts", tiebreak_col="c_event_id").to_pandas()
    out["c_value"] = _r(out["c_value"], 2)
    return (out[["user_id", "p_event_id", "ts", "c_event_id", "c_value"]]
            .sort_values("p_event_id").reset_index(drop=True))


def _events_range_agg(sf_dir: str) -> pd.DataFrame:
    """Range join (windowed attribution): per 'purchase', count + value-sum
    of same-user 'click' events in the preceding hour [ts-1h, ts)
    (stages/joins.py::range_join_agg — searchsorted window endpoints, no
    pairwise expansion)."""
    from text_to_rdf_ray.stages.joins import range_join_agg

    left = _events_pc(sf_dir, "purchase",
                      {"user_id": "user_id", "p_event_id": "event_id", "ts": "ts"})
    right = _events_pc(sf_dir, "click",
                       {"user_id": "user_id", "c_ts": "ts", "c_value": "value"})
    out = range_join_agg(left, right, key_col="user_id", left_ts="ts",
                         right_ts="c_ts", lower_us=-3_600_000_000, upper_us=0,
                         value_col="c_value").to_pandas()
    out["sum_value"] = _r(out["sum_value"], 2)
    return (out[["user_id", "p_event_id", "ts", "n_matched", "sum_value"]]
            .sort_values("p_event_id").reset_index(drop=True))


def _events_hopping(sf_dir: str) -> pd.DataFrame:
    """Hopping windows: 1h width / 15min hop over event time
    (stages/windows.py::hopping_agg — combiner-side fan-out, partials on
    the exchange)."""
    from text_to_rdf_ray.stages.windows import hopping_agg

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts", "value"])
    out = hopping_agg(ds, width_us=3_600_000_000, hop_us=900_000_000).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["sum_value"] = _r(out["sum_value"], 2)
    return (out[["event_type", "window_start", "n", "sum_value"]]
            .sort_values(["event_type", "window_start"]).reset_index(drop=True))


def _topk_orders_per_customer(sf_dir: str) -> pd.DataFrame:
    """Grouped top-k: each customer's 2 largest orders
    (stages/analytics.py::topk_per_group — batch-local top-k combiner
    before the key exchange)."""
    from text_to_rdf_ray.stages.analytics import topk_per_group

    ds = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = topk_per_group(ds, key_col="o_custkey", sort_col="o_totalprice",
                         tiebreak_col="o_orderkey", k=2).to_pandas()
    out["o_totalprice"] = _r(out["o_totalprice"], 2)
    return (out[["o_custkey", "o_orderkey", "o_totalprice", "rank"]]
            .sort_values(["o_custkey", "rank"]).reset_index(drop=True))


def _lineitem_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT distributed quantiles (median / p95 of extendedprice per
    returnflag) without a sort: histogram-locate + exact value-counts of
    the target bins only (stages/analytics.py::group_quantiles_exact)."""
    from text_to_rdf_ray.stages.analytics import group_quantiles_exact

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_returnflag", "l_extendedprice"])
    out = group_quantiles_exact(ds, key_col="l_returnflag",
                                value_col="l_extendedprice", qs=[0.5, 0.95])
    out = out.rename(columns={"q_0.5": "q_50", "q_0.95": "q_95"})
    out["n"] = out["n"].astype("int64")
    out["q_50"] = _r(out["q_50"], 2)
    out["q_95"] = _r(out["q_95"], 2)
    return (out[["l_returnflag", "n", "q_50", "q_95"]]
            .sort_values("l_returnflag").reset_index(drop=True))


def _corpus_clean_pipeline(sf_dir: str) -> pd.DataFrame:
    """Composite training-data cleaning pipeline: exact dedup -> English
    language-ID -> quality/length filter -> token stats.  Every step is the
    library operator; the oracle composes the same logic in SQL."""
    from text_to_rdf_ray.kernels.textstats import lang_id, token_count_ws
    from text_to_rdf_ray.stages.dedup import exact_dedup

    deduped = exact_dedup(_documents(sf_dir))

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_tok = [], []
        for i, t in zip(ids, texts):
            if lang_id(t) != "en":
                continue
            n = token_count_ws(t)
            if n < 20:
                continue
            out_id.append(i)
            out_tok.append(n)
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()),
             "n_tokens": pa.array(out_tok, pa.int64())}
        )

    return (
        deduped.map_batches(fn, batch_format="pyarrow").to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )


def _docs_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic per-source subsample (stages/curation.py::
    stratified_sample — Knuth-hash rank, batch-local top-k combiner)."""
    from text_to_rdf_ray.stages.curation import stratified_sample

    ds = _documents(sf_dir).select_columns(["doc_id", "source"])
    out = stratified_sample(ds, key_col="source", id_col="doc_id",
                            n_per_group=20).to_pandas()
    out["sample_rank"] = out["sample_rank"].astype("int64")
    return (out[["source", "doc_id", "sample_rank"]]
            .sort_values(["source", "sample_rank"]).reset_index(drop=True))


def _docs_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """Token-budget sequence packing by distributed prefix sum
    (stages/curation.py::pack_sequences; n_chars stands in for the token
    count — the packing math is identical)."""
    from text_to_rdf_ray.stages.curation import pack_sequences

    ds = _documents(sf_dir).select_columns(["doc_id", "n_chars"])
    out = pack_sequences(ds, id_col="doc_id", token_col="n_chars",
                         budget=2000).to_pandas()
    out["seq_id"] = out["seq_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _docs_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Per-document top-3 TF-IDF terms (stages/curation.py::tfidf_top_terms
    — exploded term table joined to the df aggregate, topk_per_group
    combiner)."""
    from text_to_rdf_ray.stages.curation import tfidf_top_terms

    out = tfidf_top_terms(_documents(sf_dir), k=3).to_pandas()
    out["tfidf"] = _r(out["tfidf"], 6)
    for c in ("tf", "df", "rank"):
        out[c] = out[c].astype("int64")
    return (out[["doc_id", "term", "tf", "df", "tfidf", "rank"]]
            .sort_values(["doc_id", "rank"]).reset_index(drop=True))


def _docs_repetition_stats(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality fractions (stages/curation.py::
    repetition_stats — pure per-document map, no shuffle)."""
    from text_to_rdf_ray.stages.curation import repetition_stats

    ds = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = repetition_stats(ds).to_pandas()
    for c in ("top_word_frac", "top_bigram_frac", "dup_5gram_frac"):
        out[c] = _r(out[c], 6)
    out["n_words"] = out["n_words"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _docs_passage_dedup(sf_dir: str) -> pd.DataFrame:
    """Passage-level exact dedup, first-(doc_id, idx)-wins
    (stages/curation.py::passage_dedup — 128-bit-hash keyed exchange,
    vectorized groupby-transform reduce)."""
    from text_to_rdf_ray.stages.curation import passage_dedup

    ds = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = passage_dedup(ds, window=32).to_pandas()
    for c in ("doc_id", "passage_idx", "n_words"):
        out[c] = out[c].astype("int64")
    out["keep"] = out["keep"].astype(bool)
    return (out.sort_values(["doc_id", "passage_idx"])
            .reset_index(drop=True))


def _lineitem_distinct_orders_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct orders via a mergeable HyperLogLog sketch
    (stages/analytics.py::approx_distinct — per-batch 4 KB register
    partials, elementwise-max merge, NO shuffle) alongside the exact
    count; the DuckDB oracle replays the sketch bit-for-bit (Knuth hash,
    integer rank cascade) so even the approximation is hash-verified."""
    from text_to_rdf_ray.stages.analytics import approx_distinct
    from text_to_rdf_ray.stages.exchange import exchange_agg

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey"])
    est = approx_distinct(li, col="l_orderkey", p=12)
    n_exact = exchange_agg(li, ["l_orderkey"]).count()
    return pd.DataFrame({"n_exact": pd.array([n_exact], dtype="int64"),
                         "hll_estimate": [round(est, 4)]})


def _events_hourly_unique_users(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per tumbling hour via a per-window
    mergeable HLL sketch (stages/analytics.py::windowed_approx_distinct
    — per-(window,bucket) max-rank exchange, <= 2^p rows of state per
    window) alongside the exact count; the oracle replays both, the
    sketch bit-for-bit in its grouped form."""
    from text_to_rdf_ray.stages.analytics import windowed_approx_distinct
    from text_to_rdf_ray.stages.exchange import exchange_agg

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "user_id"])
    est = windowed_approx_distinct(ev, ts_col="ts", id_col="user_id",
                                   width_us=3_600_000_000, p=12).to_pandas()

    def win(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        import numpy as np

        wins = ts_us.to_numpy(zero_copy_only=False) // 3_600_000_000
        return pa.table({"window_id": pa.array(wins, pa.int64()),
                         "user_id": batch.column("user_id")})

    exact = (exchange_agg(ev.map_batches(win, batch_format="pyarrow"),
                          ["window_id", "user_id"])
             .to_pandas().groupby("window_id").size()
             .rename("n_exact").reset_index())
    out = est.merge(exact, on="window_id", how="left")
    out["hll_estimate"] = _r(out["hll_estimate"], 4)
    out["window_id"] = out["window_id"].astype("int64")
    out["n_exact"] = out["n_exact"].astype("int64")
    return (out[["window_id", "n_exact", "hll_estimate"]]
            .sort_values("window_id").reset_index(drop=True))


def _hll_window_sql(p: int = 12, width_us: int = 3_600_000_000) -> str:
    """Grouped form of ``_hll_sql``: the same splitmix64 chain / integer
    rank cascade / estimator, GROUPed BY tumbling window, with the exact
    per-window distinct alongside."""
    m = 1 << p
    low = 64 - p
    cases = "\n".join(
        f"                WHEN v >= {1 << k} THEN {low - k}"
        for k in range(low - 1, -1, -1))
    alpha = 0.7213 / (1.0 + 1.079 / m)

    def mul64(zcol: str, b: int) -> str:
        bh, bl = b >> 32, b & 0xFFFFFFFF
        return (f"CAST(((((CAST({zcol} AS HUGEINT) % 4294967296) * {bh})"
                f" % 4294967296) * 4294967296"
                f" + CAST({zcol} AS HUGEINT) * {bl})"
                f" % 18446744073709551616 AS UBIGINT)")

    return f"""
        WITH base AS (
          SELECT epoch_us(ts) // {width_us} AS window_id, user_id
          FROM events),
        s1 AS (
          SELECT window_id,
                 CAST((CAST(user_id AS HUGEINT) + 11400714819323198485)
                      % 18446744073709551616 AS UBIGINT) AS z
          FROM base),
        x1 AS (SELECT window_id, xor(z, z >> 30) AS z FROM s1),
        s2 AS (SELECT window_id, {mul64('z', 0xBF58476D1CE4E5B9)} AS z FROM x1),
        x2 AS (SELECT window_id, xor(z, z >> 27) AS z FROM s2),
        s3 AS (SELECT window_id, {mul64('z', 0x94D049BB133111EB)} AS z FROM x2),
        h AS (SELECT window_id, CAST(xor(z, z >> 31) AS HUGEINT) AS hv FROM s3),
        parts AS (
          SELECT window_id,
                 CAST(hv // {1 << low} AS BIGINT) AS bucket,
                 CAST(hv % {1 << low} AS BIGINT) AS v
          FROM h),
        ranked AS (
          SELECT window_id, bucket,
                 CASE WHEN v = 0 THEN {low + 1}
{cases}
                 END AS r
          FROM parts),
        regs AS (SELECT window_id, bucket, max(r) AS r
                 FROM ranked GROUP BY window_id, bucket),
        stats AS (
          SELECT window_id, sum(power(2.0, -r)) AS s_nz,
                 count(*) AS n_nz
          FROM regs GROUP BY window_id),
        est AS (
          SELECT window_id, s_nz + ({m} - n_nz) AS s, {m} - n_nz AS zeros
          FROM stats),
        final AS (
          SELECT window_id,
                 CASE WHEN (CAST({alpha!r} AS DOUBLE) * {m} * {m} / s)
                        <= {2.5 * m} AND zeros > 0
                      THEN {m} * ln({m} / zeros)
                      ELSE CAST({alpha!r} AS DOUBLE) * {m} * {m} / s
                 END AS e
          FROM est),
        exact AS (SELECT window_id, count(DISTINCT user_id) AS n_exact
                  FROM base GROUP BY window_id)
        SELECT f.window_id, CAST(x.n_exact AS BIGINT) AS n_exact,
               round(f.e, 4) AS hll_estimate
        FROM final f JOIN exact x USING (window_id)
        ORDER BY f.window_id
    """


def _hll_sql(p: int = 12) -> str:
    """DuckDB replay of the HyperLogLog sketch over lineitem.l_orderkey
    (same splitmix64 hash, integer rank cascade, estimator +
    linear-count correction) — now expressed on the factored
    _hll_chain_sql so the sketch machinery exists once."""
    return f"""
        WITH {_hll_chain_sql("lineitem", "l_orderkey", p, "")}
        SELECT (SELECT count(DISTINCT l_orderkey) FROM lineitem)
                 AS n_exact,
               round(e, 4) AS hll_estimate
        FROM final
    """


def _hll_chain_sql(table: str, col: str, p: int, prefix: str) -> str:
    """CTE fragment replaying one full HLL sketch of ``table.col``:
    yields ``{prefix}allregs(bucket, r)`` (zero-filled registers) and
    ``{prefix}final(e)`` (estimate with linear-count correction) —
    the _hll_sql machinery factored so several sketches can compose in
    one query (union = per-bucket greatest)."""
    m = 1 << p
    low = 64 - p
    cases = "\n".join(
        f"                WHEN v >= {1 << k} THEN {low - k}"
        for k in range(low - 1, -1, -1))
    alpha = 0.7213 / (1.0 + 1.079 / m)

    def mul64(zcol: str, b: int) -> str:
        bh, bl = b >> 32, b & 0xFFFFFFFF
        return (f"CAST(((((CAST({zcol} AS HUGEINT) % 4294967296) * {bh})"
                f" % 4294967296) * 4294967296"
                f" + CAST({zcol} AS HUGEINT) * {bl})"
                f" % 18446744073709551616 AS UBIGINT)")

    q = prefix
    return f"""
        {q}s1 AS (
          SELECT CAST((CAST({col} AS HUGEINT) + 11400714819323198485)
                      % 18446744073709551616 AS UBIGINT) AS z
          FROM {table}),
        {q}x1 AS (SELECT xor(z, z >> 30) AS z FROM {q}s1),
        {q}s2 AS (SELECT {mul64('z', 0xBF58476D1CE4E5B9)} AS z FROM {q}x1),
        {q}x2 AS (SELECT xor(z, z >> 27) AS z FROM {q}s2),
        {q}s3 AS (SELECT {mul64('z', 0x94D049BB133111EB)} AS z FROM {q}x2),
        {q}h AS (SELECT CAST(xor(z, z >> 31) AS HUGEINT) AS hv FROM {q}s3),
        {q}parts AS (
          SELECT CAST(hv // {1 << low} AS BIGINT) AS bucket,
                 CAST(hv % {1 << low} AS BIGINT) AS v
          FROM {q}h),
        {q}ranked AS (
          SELECT bucket,
                 CASE WHEN v = 0 THEN {low + 1}
{cases}
                 END AS r
          FROM {q}parts),
        {q}regs AS (SELECT bucket, max(r) AS r FROM {q}ranked
                    GROUP BY bucket),
        {q}allregs AS (
          SELECT t.bucket, coalesce({q}regs.r, 0) AS r
          FROM (SELECT unnest(range(0, {m})) AS bucket) t
          LEFT JOIN {q}regs USING (bucket)),
        {q}est AS (
          SELECT sum(power(2.0, -r)) AS s,
                 sum(CASE WHEN r = 0 THEN 1 ELSE 0 END) AS zeros
          FROM {q}allregs),
        {q}final AS (
          SELECT CASE WHEN (CAST({alpha!r} AS DOUBLE) * {m} * {m} / s)
                        <= {2.5 * m} AND zeros > 0
                      THEN {m} * ln({m} / zeros)
                      ELSE CAST({alpha!r} AS DOUBLE) * {m} * {m} / s
                 END AS e
          FROM {q}est)"""


def _hll_union_est_sql(pa_: str, pb: str, p: int, prefix: str) -> str:
    """CTE fragment: the union sketch of two ``*allregs`` relations
    (per-bucket greatest — the HLL merge identity) + its estimate."""
    m = 1 << p
    alpha = 0.7213 / (1.0 + 1.079 / m)
    q = prefix
    return f"""
        {q}allregs AS (
          SELECT a.bucket, greatest(a.r, b.r) AS r
          FROM {pa_}allregs a JOIN {pb}allregs b USING (bucket)),
        {q}est AS (
          SELECT sum(power(2.0, -r)) AS s,
                 sum(CASE WHEN r = 0 THEN 1 ELSE 0 END) AS zeros
          FROM {q}allregs),
        {q}final AS (
          SELECT CASE WHEN (CAST({alpha!r} AS DOUBLE) * {m} * {m} / s)
                        <= {2.5 * m} AND zeros > 0
                      THEN {m} * ln({m} / zeros)
                      ELSE CAST({alpha!r} AS DOUBLE) * {m} * {m} / s
                 END AS e
          FROM {q}est)"""


def _orders_hll_join_estimate(sf_dir: str) -> pd.DataFrame:
    """Sketch-based join planning (stages/analytics.py::
    hll_join_estimate): distinct o_custkey / c_custkey / union /
    intersection estimates from two 4 KB HLL sketches — the broadcast-
    vs-shuffle decision input, zero shuffle.  The oracle replays both
    sketches bit-for-bit plus the register-wise-greatest union."""
    from text_to_rdf_ray.stages.analytics import hll_join_estimate

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_custkey"])
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey"])
    out = hll_join_estimate(orders, cust, left_col="o_custkey",
                            right_col="c_custkey", p=12).to_pandas()
    for c in out.columns:
        out[c] = _r(out[c], 4)
    return out[["est_left", "est_right", "est_union",
                "est_intersect"]].reset_index(drop=True)


def _orders_semi_rich_custs(sf_dir: str) -> pd.DataFrame:
    """Broadcast semi-join: orders of customers with acctbal > 9000
    (stages/joins.py::semi_join_filter — sorted-key-array broadcast +
    vectorized np.isin; no shuffle touches the fact table)."""
    from text_to_rdf_ray.stages.joins import semi_join_filter

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_acctbal"])

    def rich(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bal > 9000.0))

    keys = cust.map_batches(rich, batch_format="pyarrow")
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    out = semi_join_filter(orders, keys, key_col="o_custkey",
                           keys_col="c_custkey").to_pandas()
    out["o_totalprice"] = _r(out["o_totalprice"], 2)
    for c in ("o_orderkey", "o_custkey"):
        out[c] = out[c].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _orders_anti_bloom(sf_dir: str) -> pd.DataFrame:
    """Bloom anti-join: orders whose customer does NOT have acctbal > 9000
    (stages/joins.py::semi_join_bloom — the exact-result scale path past
    the broadcast budget: word-OR'd bitmap exchange + survivors-only
    verify exchange; n_bits kept small here on purpose so false
    positives exercise the verify)."""
    from text_to_rdf_ray.stages.joins import semi_join_bloom

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_acctbal"])

    def rich(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bal > 9000.0))

    keys = cust.map_batches(rich, batch_format="pyarrow")
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    out = semi_join_bloom(orders, keys, key_col="o_custkey",
                          keys_col="c_custkey", anti=True,
                          n_bits=1 << 10).to_pandas()
    out["o_totalprice"] = _r(out["o_totalprice"], 2)
    for c in ("o_orderkey", "o_custkey"):
        out[c] = out[c].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _docs_dup_ngram_frac(sf_dir: str) -> pd.DataFrame:
    """Corpus-level duplicate 5-gram fraction per document (cross-doc
    repetition signal) — stages/curation.py::dup_ngram_fraction: 128-bit
    gram-hash exchange for global counts, doc-keyed partial reduce,
    exchange_join back to per-doc totals."""
    from text_to_rdf_ray.stages.curation import dup_ngram_fraction

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = dup_ngram_fraction(docs, n=5).to_pandas()
    if out.empty or "doc_id" not in out.columns:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "n_grams": pd.Series(dtype="int64"),
                             "n_dup": pd.Series(dtype="int64"),
                             "dup_frac": pd.Series(dtype="float64")})
    return (out[["doc_id", "n_grams", "n_dup", "dup_frac"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_hybrid_rerank(sf_dir: str) -> pd.DataFrame:
    """Hybrid retrieval capstone: BM25 top-50 lexical candidates
    (stages/retrieval.py::bm25_topk) reranked by embedding cosine to
    the rank-1 candidate (::rerank_by_embedding, query-by-example) —
    candidates bounded by construction, vectors fetched by a broadcast
    pure-map filter.  Oracle chains the BM25 SQL replay into a
    list_cosine_similarity rerank."""
    from text_to_rdf_ray.stages.retrieval import (bm25_topk,
                                                  rerank_by_embedding)

    cand = (bm25_topk(_documents(sf_dir).select_columns(
        ["doc_id", "text"]), _BM25_QUERIES, k=50).to_pandas())
    out = rerank_by_embedding(cand, _embeddings(sf_dir), k=10)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["rerank"] = out["rerank"].astype("int64")
    out["cos"] = _r(out["cos"], 6)
    return (out[["query_id", "doc_id", "cos", "rerank"]]
            .sort_values(["query_id", "rerank"]).reset_index(drop=True))


def _docs_rerank_rbo(sf_dir: str) -> pd.DataFrame:
    """Truncated rank-biased overlap (Webber 2010, p=0.9, depth 10)
    between the BM25 ranking and the hybrid embedding rerank — the
    ranking-drift eval: RBO@10 = Σ_matched 0.1·Σ_{d=max(ra,rb)}^{10}
    0.9^(d-1)/d.  Both inputs are bounded funnel outputs, so this is
    driver math by construction.  Oracle replays both rankings and the
    same tail-weight algebra."""
    bm = _docs_bm25_topk(sf_dir)
    bm = bm[bm["rank"] <= 10][["query_id", "doc_id", "rank"]]
    hy = _docs_hybrid_rerank(sf_dir)[["query_id", "doc_id", "rerank"]]
    dd = np.arange(1, 11, dtype=np.float64)
    wd = np.power(0.9, dd - 1.0) / dd
    tail = np.cumsum(wd[::-1])[::-1]  # tail[m-1] = sum_{d=m..10} w_d
    m = bm.merge(hy, on=["query_id", "doc_id"])
    m["mx"] = m[["rank", "rerank"]].max(axis=1).astype(int)
    rows = []
    for qid in sorted(bm["query_id"].unique()):
        sub = m[m.query_id == qid]
        rbo = float((0.1 * tail[sub["mx"].to_numpy() - 1]).sum())
        rows.append((qid, len(sub), round(rbo, 6)))
    return pd.DataFrame(rows, columns=["query_id", "overlap10", "rbo"])


def _docs_class_terms(sf_dir: str) -> pd.DataFrame:
    """Top-10 class-indicative terms per language by chi-square document
    presence (stages/curation.py::class_term_chi2) — integer-exact
    contingency counts, float chi2 with identical expression shapes."""
    from text_to_rdf_ray.stages.curation import class_term_chi2

    docs = _documents(sf_dir).select_columns(["doc_id", "text", "lang"])
    out = class_term_chi2(docs, class_col="lang", k=10).to_pandas()
    out = out.rename(columns={"cls": "lang"})
    out["chi2"] = _r(out["chi2"], 6)
    out["rank"] = out["rank"].astype("int64")
    return (out[["lang", "term", "chi2", "rank"]]
            .sort_values(["lang", "rank"]).reset_index(drop=True))


def _docs_source_divergence(sf_dir: str) -> pd.DataFrame:
    """Per-source Jensen-Shannon divergence vs the corpus term
    distribution (stages/curation.py::js_divergence_by_group) — the
    domain-drift signal.  Absent-term mass folds to q·ln2 in closed
    form, so every sum ranges over the source's own terms; oracle
    replays the identical algebra."""
    from text_to_rdf_ray.stages.curation import js_divergence_by_group

    docs = _documents(sf_dir).select_columns(["text", "source"])
    out = js_divergence_by_group(docs, group_col="source")
    out["js"] = _r(out["js"], 6)
    out["n_terms"] = out["n_terms"].astype("int64")
    return (out[["source", "n_terms", "js"]]
            .sort_values("source").reset_index(drop=True))


def _docs_nb_classify(sf_dir: str) -> pd.DataFrame:
    """Multinomial Naive Bayes language ID (stages/curation.py::
    nb_train/nb_classify): integer-exact counts trained on doc_id % 10
    != 0, add-one-smoothed log scores on the held-out % 10 == 0 slice;
    unseen-(term,class) contributions are ln(1)=0 so the scoring join
    is inner and candidate-proportional.  Oracle replays the full
    train+score chain."""
    from text_to_rdf_ray.stages.curation import nb_classify, nb_train

    docs = _documents(sf_dir).select_columns(["doc_id", "text", "lang"])

    def mod_sel(keep_zero: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % 10 == 0) if keep_zero else (ids % 10 != 0)
            return t.filter(pa.array(m))
        return fn

    train = docs.map_batches(mod_sel(False), batch_format="pyarrow")
    test = docs.map_batches(mod_sel(True), batch_format="pyarrow")
    model, cs, vocab = nb_train(train, class_col="lang")
    out = nb_classify(test, model, cs, vocab).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["score"] = _r(out["score"], 6)
    return (out[["doc_id", "pred_class", "score"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_nb_confusion(sf_dir: str) -> pd.DataFrame:
    """Classifier-eval confusion matrix over the NB held-out slice:
    (actual, pred, n) — the prediction chain of _docs_nb_classify
    joined back to gold labels with one doc-keyed exchange_join and
    counted with one exchange_agg."""
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    pred = _docs_nb_classify(sf_dir)[["doc_id", "pred_class"]]
    gold = _documents(sf_dir).select_columns(["doc_id", "lang"])
    j = exchange_join(
        gold, rd.from_pandas(pred), on="doc_id", num_partitions=8,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("lang", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("pred_class", pa.string())]))
    cnt = exchange_agg(
        j.map_batches(
            lambda t: pa.table({"actual": t.column("lang"),
                                "pred": t.column("pred_class"),
                                "n": pa.array(np.ones(t.num_rows,
                                                      np.int64))}),
            batch_format="pyarrow"),
        ["actual", "pred"], [("n", "sum", "n")],
        num_partitions=8).to_pandas()
    cnt["n"] = cnt["n"].astype("int64")
    return (cnt[["actual", "pred", "n"]]
            .sort_values(["actual", "pred"]).reset_index(drop=True))


def _docs_text_roundtrip(sf_dir: str) -> pd.DataFrame:
    """Plain text-lines source: one TSV-ish line per document written as
    the side artifact, read back with ray.data.read_text and parsed
    vectorized; DuckDB independently parses the SAME file with read_csv
    — two parsers, one artifact (the csv/jsonl roundtrip pattern)."""
    docs = _documents(sf_dir).select_columns(["doc_id", "text"]) \
        .to_pandas().sort_values("doc_id")
    clean = (docs["text"].fillna("")
             .str.replace("\\", " ", regex=False)
             .str.replace("\t", " ", regex=False)
             .str.replace("\n", " ", regex=False)
             .str.replace("\r", " ", regex=False))
    d = os.path.join(_SIDE, "docs_text_roundtrip")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "lines.txt")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        for did, txt in zip(docs["doc_id"], clean):
            f.write(f"{did}\t{txt}\n")
    os.replace(tmp, path)

    lines = rd.read_text(path)

    def parse(t: pa.Table) -> pa.Table:
        ids, lens = [], []
        for line in t.column("text").to_pylist():
            did, _, payload = line.partition("\t")
            ids.append(int(did))
            lens.append(len(payload))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "line_chars": pa.array(
                             np.asarray(lens, np.int64), pa.int64())})

    out = lines.map_batches(parse, batch_format="pyarrow").to_pandas()
    return (out.sort_values("doc_id").reset_index(drop=True))


def _docs_cdc_chunks(sf_dir: str) -> pd.DataFrame:
    """Content-defined chunking dedup (stages/dedup.py::cdc_chunks):
    Rabin-Karp window-hash boundaries over UTF-8 bytes, 128-bit chunk
    hashes through one exchange.  Oracle: the raw window-hash stream is
    the side table (doc_fingerprints pattern); SQL replays boundary
    selection, BLOB slicing, and first-occurrence dedup on actual
    chunk bytes."""
    from text_to_rdf_ray.kernels.minhash import window_hashes
    from text_to_rdf_ray.stages.dedup import cdc_chunks

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def win_rows(batch: pa.Table) -> pa.Table:
        ids, poss, hs_out = [], [], []
        for did, txt in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
            hs = window_hashes(txt or "", 16)
            if hs is None:
                continue
            ids.extend([did] * len(hs))
            poss.extend(range(len(hs)))
            hs_out.append(hs.view(np.int64))
        h = (np.concatenate(hs_out) if hs_out
             else np.array([], np.int64))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "pos": pa.array(np.asarray(poss, np.int64), pa.int64()),
            "h": pa.array(h, pa.int64())})

    win = docs.map_batches(win_rows, batch_format="pyarrow").to_pandas()
    _side_write("docs_cdc_chunks", "win.parquet",
                win.sort_values(["doc_id", "pos"]).reset_index(drop=True))

    out = cdc_chunks(docs).to_pandas()
    for c in ("doc_id", "chunk_idx", "start", "length"):
        out[c] = out[c].astype("int64")
    out["is_dup"] = out["is_dup"].astype(bool)
    return (out[["doc_id", "chunk_idx", "start", "length", "is_dup"]]
            .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True))


def _docs_dup_spans(sf_dir: str) -> pd.DataFrame:
    """Exact duplicated-substring spans (Lee et al. 2022 span-level
    training-data dedup) — stages/curation.py::dup_spans: gram-hash
    exchange marks >= 2-occurrence 5-grams, doc-keyed exchange merges
    overlapping/touching windows into maximal token spans."""
    from text_to_rdf_ray.stages.curation import dup_spans

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = dup_spans(docs, n=5).to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "span_start": pd.Series(dtype="int64"),
                             "span_end": pd.Series(dtype="int64")})
    for c in ("doc_id", "span_start", "span_end"):
        out[c] = out[c].astype("int64")
    return (out[["doc_id", "span_start", "span_end"]]
            .sort_values(["doc_id", "span_start"]).reset_index(drop=True))


def _docs_ngram_novelty(sf_dir: str) -> pd.DataFrame:
    """Per-doc distinct-5-gram novelty rate (first corpus occurrence by
    doc_id = crawl order) — stages/curation.py::ngram_novelty: per-batch
    distinct combiner, gram-hash exchange resolves corpus-min doc, doc-
    keyed exchange_agg + exchange_join back to all docs."""
    from text_to_rdf_ray.stages.curation import ngram_novelty

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = ngram_novelty(docs, n=5).to_pandas()
    for c in ("doc_id", "n_distinct", "n_novel"):
        out[c] = out[c].astype("int64")
    return (out[["doc_id", "n_distinct", "n_novel", "novelty"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_inverted_index(sf_dir: str) -> pd.DataFrame:
    """Inverted-index build: (term, chunk_seq, df, postings) rows with
    sorted distinct doc-id posting lists CHUNKED at 16 ids per row (small
    on purpose so the oracle exercises multi-chunk terms; production
    default is 65536 — bounds the largest cell under stop-word skew).
    stages/curation.py::inverted_index — term-hash exchange,
    per-partition vectorized reduce."""
    from text_to_rdf_ray.stages.curation import inverted_index

    ds = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = inverted_index(ds, chunk_ids=16).to_pandas()
    out["df"] = out["df"].astype("int64")
    out["chunk_seq"] = out["chunk_seq"].astype("int64")
    return (out[["term", "chunk_seq", "df", "postings"]]
            .sort_values(["term", "chunk_seq"]).reset_index(drop=True))


def _docs_source_quality_cap(sf_dir: str) -> pd.DataFrame:
    """Per-domain quality cap — the standard web-corpus curation step
    (keep at most k best documents per source/domain, e.g. RefinedWeb /
    Dolma per-domain caps): composite quality score (textstats_stage::
    add_quality, explicit formula for oracle parity) ranked per source by
    analytics.py::topk_per_group (per-batch top-k combiner, one hash
    exchange on source — no full sort)."""
    from text_to_rdf_ray.stages.analytics import topk_per_group
    from text_to_rdf_ray.stages.textstats_stage import add_quality

    docs = _documents(sf_dir).select_columns(["doc_id", "source", "text"])
    scored = add_quality(docs, keep_cols=("source",)).select_columns(
        ["source", "doc_id", "quality"])
    out = topk_per_group(scored, key_col="source", sort_col="quality",
                         tiebreak_col="doc_id", k=20).to_pandas()
    out["quality"] = _r(out["quality"], 6)
    out["rank"] = out["rank"].astype("int64")
    return (out[["source", "doc_id", "quality", "rank"]]
            .sort_values(["source", "rank"]).reset_index(drop=True))


def _docs_kn_perplexity(sf_dir: str) -> pd.DataFrame:
    """Interpolated Kneser-Ney bigram perplexity (stages/curation.py::
    kn_perplexity, D=0.75, add-one continuation floor): same
    every-20th-doc reference and broadcast-model shape as
    docs_lm_perplexity, real absolute-discount smoothing."""
    from text_to_rdf_ray.stages.curation import kn_perplexity

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def ref_filter(t, pa=pa):
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 20 == 0))

    ref = docs.map_batches(ref_filter, batch_format="pyarrow")
    out = kn_perplexity(docs, ref).to_pandas()
    out["avg_nll"] = _r(out["avg_nll"], 6)
    out["ppl"] = _r(out["ppl"], 6)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return (out[["doc_id", "n_tokens", "avg_nll", "ppl"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_extractive_summary(sf_dir: str) -> pd.DataFrame:
    """Segment-level TextRank extractive summaries (stages/
    curation.py::extractive_summary): 8-token segments, Jaccard
    edges, 4 quantized damped iterations, top-2 per doc — doc-local,
    one pure map pass."""
    from text_to_rdf_ray.stages.curation import extractive_summary

    out = extractive_summary(
        _documents(sf_dir).select_columns(["doc_id", "text"]),
        segment_tokens=8, top_k=2, iterations=4).to_pandas()
    for c in ("doc_id", "segment", "rank"):
        out[c] = out[c].astype("int64")
    return (out[["doc_id", "segment", "score", "rank"]]
            .sort_values(["doc_id", "rank"]).reset_index(drop=True))


def _summary_sql(iterations: int = 4, top_k: int = 2,
                 seg: int = 8) -> str:
    """DuckDB replay of _docs_extractive_summary: fixed-window
    segments, Jaccard edges, unrolled grouped power iteration (the
    textrank shape partitioned by doc)."""
    steps = []
    prev = "it0"
    for i in range(1, iterations + 1):
        steps.append(f"""
            it{i} AS (SELECT n1.doc_id, n1.seg,
                             round((1.0 - 0.85) / nd.n
                                   + 0.85 * coalesce(x.s, 0), 9) AS pi
                      FROM nodes n1 JOIN nd USING (doc_id)
                      LEFT JOIN (
                        SELECT e.doc_id, e.dst AS seg,
                               sum(e.wt * (p.pi / w.wsum)) AS s
                        FROM edges e
                        JOIN {prev} p ON p.doc_id = e.doc_id
                                     AND p.seg = e.src
                        JOIN ws w ON w.doc_id = e.doc_id
                                 AND w.src = e.src
                        GROUP BY e.doc_id, e.dst) x
                        ON x.doc_id = n1.doc_id AND x.seg = n1.seg)""")
        prev = f"it{i}"
    return f"""
        WITH dtok AS (
          SELECT doc_id, list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS w
          FROM documents),
        dpos AS (SELECT doc_id, unnest(w) AS term,
                        generate_subscripts(w, 1) AS i
                 FROM dtok),
        segt AS (SELECT DISTINCT doc_id,
                        CAST((i - 1) // {seg} AS BIGINT) AS seg, term
                 FROM dpos),
        ssize AS (SELECT doc_id, seg, count(*) AS sz
                  FROM segt GROUP BY 1, 2),
        inter AS (SELECT a.doc_id, a.seg AS s1, b.seg AS s2,
                         count(*) AS ic
                  FROM segt a JOIN segt b
                    ON a.doc_id = b.doc_id AND a.term = b.term
                   AND a.seg < b.seg
                  GROUP BY 1, 2, 3),
        e0 AS (SELECT i.doc_id, i.s1, i.s2,
                      CAST(i.ic AS DOUBLE)
                      / (x.sz + y.sz - i.ic) AS wt
               FROM inter i
               JOIN ssize x ON x.doc_id = i.doc_id AND x.seg = i.s1
               JOIN ssize y ON y.doc_id = i.doc_id AND y.seg = i.s2),
        edges AS MATERIALIZED (
          SELECT doc_id, s1 AS src, s2 AS dst, wt FROM e0
          UNION ALL SELECT doc_id, s2, s1, wt FROM e0),
        nodes AS MATERIALIZED (SELECT doc_id, seg FROM ssize),
        nd AS MATERIALIZED (SELECT doc_id, count(*) AS n
                            FROM nodes GROUP BY 1),
        ws AS MATERIALIZED (SELECT doc_id, src, sum(wt) AS wsum
                            FROM edges GROUP BY 1, 2),
        it0 AS (SELECT nodes.doc_id, nodes.seg,
                       round(1.0 / nd.n, 9) AS pi
                FROM nodes JOIN nd USING (doc_id)),
        {",".join(steps)},
        rk AS (SELECT doc_id, seg, pi,
                      row_number() OVER (PARTITION BY doc_id
                          ORDER BY pi DESC, seg ASC) AS rn
               FROM {prev})
        SELECT doc_id, seg AS segment, pi AS score,
               CAST(rn AS BIGINT) AS "rank"
        FROM rk WHERE rn <= {top_k} ORDER BY doc_id, "rank"
    """


def _docs_gopher_rules(sf_dir: str) -> pd.DataFrame:
    """Gopher-style quality gate bundle (stages/curation.py::
    gopher_rules): token-count / mean-word-length / duplicate-bigram
    heuristics with per-rule flags + conjunctive keep, statistics
    rounded 6dp before the threshold compares."""
    from text_to_rdf_ray.stages.curation import gopher_rules

    out = gopher_rules(
        _documents(sf_dir).select_columns(["doc_id", "text"]),
        min_tokens=30).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    for c in ("pass_len", "pass_word_len", "pass_rep", "keep"):
        out[c] = out[c].astype(bool)
    return (out.sort_values("doc_id").reset_index(drop=True))


def _docs_lm_perplexity(sf_dir: str) -> pd.DataFrame:
    """Bigram-LM perplexity scoring (CCNet/Gopher-style quality filter):
    reference = every 20th document; counts broadcast once via ray.put,
    corpus side a pure map (stages/curation.py::lm_perplexity)."""
    from text_to_rdf_ray.stages.curation import lm_perplexity

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def ref_filter(t, pa=pa):
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 20 == 0))

    ref = docs.map_batches(ref_filter, batch_format="pyarrow")
    out = lm_perplexity(docs, ref).to_pandas()
    out["avg_nll"] = _r(out["avg_nll"], 6)
    out["ppl"] = _r(out["ppl"], 6)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return (out[["doc_id", "n_tokens", "avg_nll", "ppl"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_ppl_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet-style perplexity tertiles: the lm_perplexity scores (rounded
    to 6dp on BOTH sides so the bucket comparisons see identical
    doubles) bucketed head/middle/tail by exact global tertile bounds
    (analytics.py::quantile_bucket over a constant group) — the
    composition CCNet uses to keep 'head' web text."""
    from text_to_rdf_ray.stages.analytics import quantile_bucket
    from text_to_rdf_ray.stages.curation import lm_perplexity

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def ref_filter(t, pa=pa):
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 20 == 0))

    ppl = lm_perplexity(docs, docs.map_batches(ref_filter,
                                               batch_format="pyarrow"))

    def prep(t: pa.Table) -> pa.Table:
        p = t.column("ppl").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "ppl": pa.array(_r(p, 6), pa.float64()),
            "g": pa.array(np.zeros(len(t), np.int64), pa.int64()),
        })

    b = quantile_bucket(ppl.map_batches(prep, batch_format="pyarrow"),
                        key_col="g", value_col="ppl", n_buckets=3)
    names = np.array(["head", "middle", "tail"])

    def label(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "ppl": batch["ppl"],
            "bucket": names[batch["bucket"].to_numpy(dtype=np.int64) - 1],
        })

    out = b.map_batches(label, batch_format="pandas").to_pandas()
    return (out[["doc_id", "ppl", "bucket"]]
            .sort_values("doc_id").reset_index(drop=True))


def _custs_no_big_orders(sf_dir: str) -> pd.DataFrame:
    """Distributed EXCEPT (shuffle set op — the non-broadcast anti form):
    customer keys with no order above 400k (stages/analytics.py::
    set_op_rows — per-batch distinct combiner both sides, one hash
    exchange, per-partition merge-indicator reduce)."""
    import pyarrow.compute as pc

    from text_to_rdf_ray.stages.analytics import set_op_rows

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda t: pa.table({"c_custkey": t.filter(
            pc.greater(t.column("o_totalprice"), pa.scalar(400000.0))
        ).column("o_custkey")}),
        batch_format="pyarrow")
    out = set_op_rows(cust, orders, cols=["c_custkey"],
                      op="except").to_pandas()
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


def _docs_curate_pipeline(sf_dir: str) -> pd.DataFrame:
    """Capstone end-to-end curation chain, every stage the library
    operator, all in one streaming composition: exact dedup -> English
    lang-ID + length >= 20 -> composite quality >= 0.5 -> benchmark
    8-gram decontamination (bench = doc_id % 97) -> bigram-LM perplexity
    <= 40 (ref = doc_id % 20) -> token-budget sequence packing.  Output:
    (doc_id, n_tokens, seq_id) of the packed survivors."""
    import pyarrow.compute as pc

    from text_to_rdf_ray.kernels.textstats import lang_id, token_count_ws
    from text_to_rdf_ray.stages.curation import (
        decontaminate,
        lm_perplexity,
        pack_sequences,
    )
    from text_to_rdf_ray.stages.dedup import exact_dedup
    from text_to_rdf_ray.stages.textstats_stage import add_quality

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def clean_fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_tx = [], []
        for i, t in zip(ids, texts):
            if lang_id(t) == "en" and token_count_ws(t) >= 20:
                out_id.append(i)
                out_tx.append(t)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "text": pa.array(out_tx, pa.string())})

    cleaned = exact_dedup(docs).map_batches(clean_fn, batch_format="pyarrow")

    def hq_filter(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("quality"), pa.scalar(0.5))
        f = t.filter(keep)
        return pa.table({"doc_id": f.column("doc_id"),
                         "text": f.column("text")})

    hq = add_quality(cleaned, keep_cols=("text",)).map_batches(
        hq_filter, batch_format="pyarrow")

    def mod_filter(m):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % m == 0))
        return fn

    bench = docs.map_batches(mod_filter(97), batch_format="pyarrow")
    dec = decontaminate(hq, bench, keep_cols=("text",))

    def not_contam(t: pa.Table) -> pa.Table:
        f = t.filter(pc.invert(t.column("contaminated")))
        return pa.table({"doc_id": f.column("doc_id"),
                         "text": f.column("text")})

    survivors = dec.map_batches(not_contam, batch_format="pyarrow")
    ref = docs.map_batches(mod_filter(20), batch_format="pyarrow")

    def ppl_filter(t: pa.Table) -> pa.Table:
        f = t.filter(pc.less_equal(t.column("ppl"), pa.scalar(40.0)))
        return pa.table({"doc_id": f.column("doc_id"),
                         "n_tokens": f.column("n_tokens")})

    kept = lm_perplexity(survivors, ref).map_batches(
        ppl_filter, batch_format="pyarrow")
    out = pack_sequences(kept, id_col="doc_id", token_col="n_tokens",
                         budget=2000).to_pandas()
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["seq_id"] = out["seq_id"].astype("int64")
    return (out[["doc_id", "n_tokens", "seq_id"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Exact phi-heavy-hitter terms (phi=0.032) with exact counts and
    (count desc, term asc) rank.  stages/curation.py::heavy_hitters —
    Misra-Gries per-batch summaries (bounded exchange) -> sound candidate
    cut from the run's own decrement total -> broadcast exact verify
    pass."""
    from text_to_rdf_ray.stages.curation import heavy_hitters

    ds = _documents(sf_dir).select_columns(["text"])
    out = heavy_hitters(ds, phi=0.032).to_pandas()
    out["cnt"] = out["cnt"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    return out[["term", "cnt", "rank"]].reset_index(drop=True)


def _graph_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank over the supplier->customer edge graph (distinct edges from
    lineitem ⋈ orders; stages/graph.py::pagerank — stationary-partition
    BSP power iteration, exchange join for the edge build)."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import _project, pagerank

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        _project(li, [("l_orderkey", "okey"), ("l_suppkey", "supp")]),
        _project(orders, [("o_orderkey", "okey"), ("o_custkey", "cust")]),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()), ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))

    def to_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": "S" + batch["supp"].astype(str),
            "dst": "C" + batch["cust"].astype(str),
        }).drop_duplicates()

    from text_to_rdf_ray.stages.exchange import exchange_agg

    edges = exchange_agg(
        joined.map_batches(to_edges, batch_format="pandas", batch_size=65536),
        ["src", "dst"])
    # 3 iterations: enough to differentiate hub ranks at bench scale while
    # keeping the per-iteration barrier cost (executor-run-dominated at toy
    # scale, like canonicalize_distributed) inside the correctness-gate
    # budget; the operator itself takes any iteration count.
    out = pagerank(edges, iterations=3, damping=0.85,
                   num_partitions=8).to_pandas()
    out["rank"] = _r(out["rank"], 9)
    return out.sort_values("node").reset_index(drop=True)


def _pagerank_sql(iterations: int = 5, damping: float = 0.85) -> str:
    """DuckDB replay of _graph_pagerank: the same distinct supplier->
    customer edges, then an unrolled power-iteration CTE chain."""
    prev = "it0"
    steps = []
    for i in range(1, iterations + 1):
        steps.append(f"""
            it{i} AS (
              SELECT nd.node,
                     (1 - {damping}) / nn.c
                     + {damping} * coalesce(x.s, 0) AS r
              FROM nodes nd CROSS JOIN nn
              LEFT JOIN (SELECT e.dst AS node, sum(p.r / o.od) AS s
                         FROM edges e
                         JOIN {prev} p ON e.src = p.node
                         JOIN outdeg o ON e.src = o.src
                         GROUP BY e.dst) x USING (node))""")
        prev = f"it{i}"
    return f"""
        WITH edges AS (
          SELECT DISTINCT 'S' || CAST(l_suppkey AS VARCHAR) AS src,
                          'C' || CAST(o_custkey AS VARCHAR) AS dst
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        nodes AS (SELECT src AS node FROM edges
                  UNION SELECT dst FROM edges),
        nn AS (SELECT count(*) AS c FROM nodes),
        outdeg AS (SELECT src, count(*) AS od FROM edges GROUP BY src),
        it0 AS (SELECT node, 1.0 / nn.c AS r FROM nodes CROSS JOIN nn),
        {",".join(steps)}
        SELECT node, round(r, 9) AS "rank" FROM {prev} ORDER BY node
    """


def _textrank_sql(iterations: int = 5, damping: float = 0.85,
                  window: int = 2, top_k: int = 20) -> str:
    """DuckDB replay of _docs_textrank: the same window-2 word
    co-occurrence graph, then an unrolled WEIGHTED power-iteration
    chain (contribution w_ij / W_j — the _pagerank_sql shape plus
    edge weights)."""
    prev = "it0"
    steps = []
    for i in range(1, iterations + 1):
        steps.append(f"""
            it{i} AS (
              SELECT nd.node,
                     (1 - {damping}) / nn.c
                     + {damping} * coalesce(x.s, 0) AS r
              FROM nodes nd CROSS JOIN nn
              LEFT JOIN (SELECT e.dst AS node,
                                sum(p.r * e.w / o.ws) AS s
                         FROM edges e
                         JOIN {prev} p ON e.src = p.node
                         JOIN ows o ON e.src = o.src
                         GROUP BY e.dst) x USING (node))""")
        prev = f"it{i}"
    return f"""
        WITH d AS (SELECT doc_id,
                          list_filter(str_split(lower(text), ' '),
                                      x -> x <> '') AS toks
                   FROM documents),
        pos AS (SELECT doc_id, unnest(toks) AS term,
                       generate_subscripts(toks, 1) AS i
                FROM d),
        pr AS (SELECT least(a.term, b.term) AS u,
                      greatest(a.term, b.term) AS v
               FROM pos a JOIN pos b
                 ON a.doc_id = b.doc_id AND b.i > a.i
                AND b.i - a.i <= {window} AND a.term <> b.term),
        wt AS (SELECT u, v, CAST(count(*) AS DOUBLE) AS w
               FROM pr GROUP BY u, v),
        edges AS (SELECT u AS src, v AS dst, w FROM wt
                  UNION ALL SELECT v, u, w FROM wt),
        ows AS (SELECT src, sum(w) AS ws FROM edges GROUP BY src),
        nodes AS (SELECT DISTINCT src AS node FROM edges),
        nn AS (SELECT count(*) AS c FROM nodes),
        it0 AS (SELECT node, 1.0 / nn.c AS r FROM nodes CROSS JOIN nn),
        {",".join(steps)},
        rk AS (SELECT node AS word, round(r, 9) AS score,
                      row_number() OVER (ORDER BY round(r, 9) DESC,
                                         node ASC) AS rnk
               FROM {prev})
        SELECT word, score, CAST(rnk AS BIGINT) AS "rank"
        FROM rk WHERE rnk <= {top_k} ORDER BY "rank"
    """


def _betweenness_sql(n_seeds: int = 5, k: int = 4) -> str:
    """DuckDB replay of _graph_betweenness_parts: same symmetrized
    co-purchase edges + smallest-node seeds, unrolled forward sigma
    levels (anti-joined against visited) and backward Brandes
    dependency quantized to int64 NANO-UNITS per level (the engine
    contract — integer-exact final sums)."""
    fwd = []
    vis_prev = "vis0"
    for i in range(1, k + 1):
        fwd.append(f"""
            lvl{i} AS (SELECT l.seed, e.dst AS node,
                              sum(l.sigma) AS sigma
                       FROM lvl{i - 1} l JOIN edges e ON e.src = l.node
                       LEFT JOIN {vis_prev} x
                         ON x.seed = l.seed AND x.node = e.dst
                       WHERE x.node IS NULL
                       GROUP BY l.seed, e.dst),
            vis{i} AS (SELECT * FROM {vis_prev}
                       UNION ALL SELECT seed, node FROM lvl{i})""")
        vis_prev = f"vis{i}"
    bwd = [f"dep{k} AS (SELECT seed, node, sigma, "
           f"CAST(0 AS BIGINT) AS dep_n FROM lvl{k})"]
    for i in range(k - 1, 0, -1):
        bwd.append(f"""
            dep{i} AS (
              SELECT l.seed, l.node, l.sigma,
                     CAST(round(coalesce(x.s, 0) * 1e9, 0) AS BIGINT)
                         AS dep_n
              FROM lvl{i} l LEFT JOIN (
                SELECT l2.seed, l2.node,
                       sum(l2.sigma * (1.0 + d.dep_n / 1000000000.0)
                           / d.sigma) AS s
                FROM lvl{i} l2 JOIN edges e ON e.src = l2.node
                JOIN dep{i + 1} d
                  ON d.seed = l2.seed AND d.node = e.dst
                GROUP BY l2.seed, l2.node) x
                ON x.seed = l.seed AND x.node = l.node)""")
    union = " UNION ALL ".join(
        f"SELECT node, dep_n FROM dep{i}" for i in range(1, k + 1))
    return f"""
        WITH inst AS (
          SELECT least(a.l_partkey, b.l_partkey) AS u,
                 greatest(a.l_partkey, b.l_partkey) AS v
          FROM lineitem a JOIN lineitem b
            ON a.l_orderkey = b.l_orderkey
           AND a.l_partkey < b.l_partkey),
        e AS (SELECT DISTINCT u, v FROM inst),
        edges AS (SELECT u AS src, v AS dst FROM e
                  UNION ALL SELECT v, u FROM e),
        nodes AS (SELECT DISTINCT src AS node FROM edges),
        seeds AS (SELECT node AS seed FROM
                    (SELECT node, row_number() OVER (ORDER BY node)
                         AS rn FROM nodes)
                  WHERE rn <= {n_seeds}),
        lvl0 AS (SELECT seed, seed AS node, CAST(1 AS BIGINT) AS sigma
                 FROM seeds),
        vis0 AS (SELECT seed, node FROM lvl0),
        {",".join(fwd)},
        {",".join(bwd)}
        SELECT node, CAST(sum(dep_n) AS BIGINT) AS bc_nano,
               CAST(sum(dep_n) AS BIGINT) / 1000000000.0 AS bc
        FROM ({union}) GROUP BY node ORDER BY node
    """


def _pca_power_sql(iterations: int = 12) -> str:
    """DuckDB replay of _embeddings_pca_scores: unnested moments ->
    9dp-quantized mean/cov -> unrolled power iterations (each iterate
    re-quantized 9dp) -> 6dp projection."""
    steps = []
    prev = "v0"
    for i in range(1, iterations + 1):
        # norm via a window aggregate so each CTE is referenced ONCE
        # (a separate norm CTE would double-reference w{{i}} and DuckDB
        # inlines CTEs -> 2^iterations re-evaluations)
        steps.append(f"""
            w{i} AS (SELECT c.i AS dim, sum(c.c * v.val) AS w
                     FROM cov c JOIN {prev} v ON v.dim = c.j
                     GROUP BY c.i),
            v{i} AS (SELECT dim,
                            round(w / sqrt(sum(w * w) OVER ()), 9)
                                AS val
                     FROM w{i})""")
        prev = f"v{i}"
    return f"""
        WITH u AS MATERIALIZED (SELECT vec_id,
                          generate_subscripts(embedding, 1) - 1 AS dim,
                          CAST(unnest(embedding) AS DOUBLE) AS val
                   FROM embeddings),
        nn AS (SELECT count(*) AS n FROM embeddings),
        dd AS (SELECT max(dim) + 1 AS d FROM u),
        mean AS MATERIALIZED (SELECT dim, round(sum(val) / nn.n, 9) AS m
                 FROM u CROSS JOIN nn GROUP BY dim, nn.n),
        cov AS MATERIALIZED (SELECT a.dim AS i, b.dim AS j,
                       round(sum(a.val * b.val) / nn.n
                             - ma.m * mb.m, 9) AS c
                FROM u a JOIN u b USING (vec_id) CROSS JOIN nn
                JOIN mean ma ON ma.dim = a.dim
                JOIN mean mb ON mb.dim = b.dim
                GROUP BY a.dim, b.dim, nn.n, ma.m, mb.m),
        v0 AS (SELECT dim, round(1.0 / sqrt(d), 9) AS val
               FROM mean CROSS JOIN dd),
        {",".join(steps)}
        SELECT u.vec_id,
               round(sum((u.val - m.m) * v.val), 6) AS pc1
        FROM u JOIN mean m USING (dim) JOIN {prev} v USING (dim)
        GROUP BY u.vec_id ORDER BY u.vec_id
    """


def _docs_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark 8-gram decontamination (stages/curation.py::decontaminate
    — distinct-combined benchmark gram set broadcast once via ray.put;
    corpus side a pure map).  Benchmark = docs with doc_id % 97 == 0
    (deterministic stand-in for a held-out eval set)."""
    from text_to_rdf_ray.stages.curation import decontaminate

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def bench_filter(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 97 == 0))

    bench = docs.map_batches(bench_filter, batch_format="pyarrow")
    out = decontaminate(docs, bench, n=8).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["contam_grams"] = out["contam_grams"].astype("int64")
    out["contaminated"] = out["contaminated"].astype(bool)
    return out.sort_values("doc_id").reset_index(drop=True)


def _kg_llm_mode(sf_dir: str) -> pd.DataFrame:
    """ST1/ST2 LLM-mode path: actor-pool extraction with instructor
    retries over a deterministic stand-in client.  The per-url instructor
    output documents are dumped as a JSON-LD side table (replayed
    driver-side — the client is deterministic, so the actor-pool run and
    the replay produce identical documents); the DuckDB oracle re-derives
    the WebNLG flatten from the JSON in SQL."""
    import json as _json

    from text_to_rdf_ray.functions.instructor import extract_with_retry
    from text_to_rdf_ray.sources.fixtures import gold_case
    from text_to_rdf_ray.stages.llm_extract import (
        deterministic_client_factory,
        llm_extract_pipeline,
    )

    rows = []
    for i in range(100):
        text, _ = gold_case(i)
        rows.append({"url": f"https://llm.test/{i}", "text": text})
    out = llm_extract_pipeline(rd.from_items(rows)).to_pandas()

    client = deterministic_client_factory()
    side, docs = [], []
    for r in rows:
        result = extract_with_retry(client, r["text"])
        doc = result.document if result.ok else None
        if doc is not None:
            docs.append(doc)
        side.append(
            {
                "url": r["url"],
                "jsonld": _json.dumps(doc, sort_keys=True) if doc is not None else "{}",
                "attempts": np.int32(len(result.attempts)),
                "ok": result.ok,
            }
        )
    _side_write("kg_llm_mode", "doc.parquet", pd.DataFrame(side))
    _side_write("kg_llm_mode", "predmap.parquet", _harvest_pred_keys(docs))
    return out.sort_values(["url", "subj", "pred", "obj"]).reset_index(drop=True)


def _eval_webnlg(sf_dir: str) -> pd.DataFrame:
    """Distributed evaluation of the extractor on the WebNLG fixture corpus
    (predicted vs gold via tagged groupby — SURVEY.md J6/A4/A5)."""
    from text_to_rdf_ray.kernels.extractor import extract_document
    from text_to_rdf_ray.pipelines.evaluate import evaluate_datasets
    from text_to_rdf_ray.sources.corpora import webnlg_dataset, webnlg_gold_dataset

    def extract(batch: pa.Table) -> pa.Table:
        rows = {"case_id": [], "subj": [], "pred": [], "obj": []}
        for cid, text in zip(batch.column("case_id").to_pylist(),
                             batch.column("raw_text").to_pylist()):
            for t in extract_document(text).triples:
                if t.nested_in:
                    continue
                rows["case_id"].append(cid)
                rows["subj"].append(t.subj_slug)
                rows["pred"].append(t.pred)
                rows["obj"].append(t.obj)
        return pa.table({k: pa.array(v, pa.string()) for k, v in rows.items()})

    pred = webnlg_dataset().map_batches(extract, batch_format="pyarrow").materialize()
    gold = webnlg_gold_dataset().materialize()
    _side_write("eval_webnlg", "pred.parquet",
                pred.to_pandas().sort_values(["case_id", "subj", "pred", "obj"]))
    _side_write("eval_webnlg", "gold.parquet",
                gold.to_pandas().sort_values(["case_id", "subj", "pred", "obj"]))
    return _metrics_df(evaluate_datasets(pred, gold))


def _eval_docred(sf_dir: str) -> pd.DataFrame:
    """Distributed evaluation on the DocRED fixture corpus."""
    from text_to_rdf_ray.kernels.extractor import extract_document
    from text_to_rdf_ray.pipelines.evaluate import evaluate_datasets
    from text_to_rdf_ray.sources.corpora import docred_dataset, docred_gold_dataset

    def extract(batch: pa.Table) -> pa.Table:
        rows = {"case_id": [], "subj": [], "pred": [], "obj": []}
        for cid, text in zip(batch.column("case_id").to_pylist(),
                             batch.column("raw_text").to_pylist()):
            for t in extract_document(text).triples:
                rows["case_id"].append(cid)
                rows["subj"].append(t.subj_lower)
                rows["pred"].append(t.pred)
                rows["obj"].append(t.obj)
        return pa.table({k: pa.array(v, pa.string()) for k, v in rows.items()})

    pred = docred_dataset().map_batches(extract, batch_format="pyarrow").materialize()
    gold = docred_gold_dataset().materialize()
    _side_write("eval_docred", "pred.parquet",
                pred.to_pandas().sort_values(["case_id", "subj", "pred", "obj"]))
    _side_write("eval_docred", "gold.parquet",
                gold.to_pandas().sort_values(["case_id", "subj", "pred", "obj"]))
    return _metrics_df(evaluate_datasets(pred, gold))


# -------------------------------------------------- split / mix / lag window


#: exact cumulative uint64 thresholds for the 0.9/0.05/0.05 split — shared
#: by the Ray operator (via split_thresholds) and the DuckDB oracle literal
_SPLIT_FRACS = [("train", 0.9), ("val", 0.05), ("test", 0.05)]
#: per-source keep weights for the mixing query (src1 dropped entirely,
#: src0 halved, src2 quartered, everything else kept whole)
_MIX_WEIGHTS = {"src0": 0.5, "src1": 0.0, "src2": 0.25}


def _split_thr() -> list[int]:
    """Exact integer thresholds for _SPLIT_FRACS (shared with the oracle)."""
    from text_to_rdf_ray.stages.curation import split_thresholds

    return [t for _, t in split_thresholds(_SPLIT_FRACS)]


def _mix_thr(source: str) -> int:
    """Exact integer keep-threshold for a _MIX_WEIGHTS source."""
    return min(int(_MIX_WEIGHTS[source] * 2.0**64), 2**64 - 1)


def _ppr_sql(iterations: int = 3) -> str:
    """Unrolled replay of stages/graph.py::personalized_pagerank over
    the directed supplier→customer graph, seeds = suppliers ≡ 0 (mod 7):
    per iteration one contribution sum, one dangling scalar, one
    full-outer seed merge — the same float expression shapes, rounded to
    6dp at the end."""
    its = []
    for t in range(1, iterations + 1):
        p = t - 1
        its.append(f"""
        c{t} AS (
          SELECT e.dst AS node, sum(0.85 * r.r / o.outdeg) AS c
          FROM r{p} r JOIN e0 e ON e.src = r.node
          JOIN od o ON o.src = e.src
          GROUP BY 1),
        d{t} AS (
          SELECT coalesce(sum(r.r), 0.0) AS dang
          FROM r{p} r LEFT JOIN od o ON o.src = r.node
          WHERE o.src IS NULL),
        r{t} AS (
          SELECT coalesce(s.node, c.node) AS node,
                 coalesce(s.m, 0.0)
                   * ((1 - CAST(0.85 AS DOUBLE))
                      + 0.85 * (SELECT dang FROM d{t}))
                   + coalesce(c.c, 0.0) AS r
          FROM sm s FULL OUTER JOIN c{t} c ON c.node = s.node)""")
    return f"""
        WITH e0 AS (
          SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src,
                          CAST(1000000 + o_custkey AS BIGINT) AS dst
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        od AS (SELECT src, CAST(count(*) AS DOUBLE) AS outdeg
               FROM e0 GROUP BY 1),
        seeds AS (SELECT CAST(s_suppkey AS BIGINT) AS node FROM supplier
                  WHERE s_suppkey % 7 = 0),
        sm AS (SELECT node,
                      1.0 / (SELECT CAST(count(*) AS DOUBLE) FROM seeds)
                        AS m
               FROM seeds),
        r0 AS (SELECT node, m AS r FROM sm),
        {",".join(its)}
        SELECT node, round(r, 6) AS rank FROM r{iterations}
        ORDER BY node
    """


def _quant_codes_sql() -> str:
    """Shared CTE chain: scalar-quantization codes replayed from the raw
    embeddings (stages/knn.py::quantization_range/quantize_embeddings —
    identical float64 expression order)."""
    return """
        u AS (SELECT vec_id, embedding,
                     unnest(range(1, len(embedding) + 1)) AS i
              FROM embeddings),
        x AS (SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim,
                     CAST(embedding[i] AS DOUBLE) AS v
              FROM u),
        mm AS (SELECT dim, min(v) AS mn, max(v) AS mx FROM x GROUP BY dim),
        codes AS (
          SELECT vec_id, dim,
                 CASE WHEN mx > mn
                      THEN CAST(floor((v - mn) / (mx - mn) * 255.0 + 0.5)
                                AS BIGINT)
                      ELSE 0 END AS code
          FROM x JOIN mm USING (dim))"""


def _logreg_sql(iterations: int = 3, lr: float = 0.5) -> str:
    """Unrolled replay of stages/analytics.py::logreg_train on the
    events features (value/100, hour/10 -> purchase?): per iteration
    one gradient-sum scan + one O(d) weight update, identical float
    expression shapes (left-assoc logit, (lr*g)/n update)."""
    its = ["w0 AS (SELECT CAST(0.0 AS DOUBLE) AS w0,"
           " CAST(0.0 AS DOUBLE) AS w1, CAST(0.0 AS DOUBLE) AS w2)"]
    for t in range(1, iterations + 1):
        p = t - 1
        z = (f"((SELECT w0 FROM w{p}) + (SELECT w1 FROM w{p}) * x1"
             f" + (SELECT w2 FROM w{p}) * x2)")
        e = f"(1.0 / (1.0 + exp(-{z})) - y)"
        its.append(f"""
        g{t} AS (
          SELECT CAST(count(*) AS DOUBLE) AS n,
                 sum({e}) AS g0, sum(x1 * {e}) AS g1,
                 sum(x2 * {e}) AS g2
          FROM f),
        w{t} AS (
          SELECT (SELECT w0 FROM w{p}) - {lr} * g0 / n AS w0,
                 (SELECT w1 FROM w{p}) - {lr} * g1 / n AS w1,
                 (SELECT w2 FROM w{p}) - {lr} * g2 / n AS w2
          FROM g{t})""")
    return f"""
        WITH f AS (
          SELECT CAST(value / 100.0 AS DOUBLE) AS x1,
                 CAST(extract(hour FROM ts) / 10.0 AS DOUBLE) AS x2,
                 CASE WHEN event_type = 'purchase'
                      THEN CAST(1.0 AS DOUBLE)
                      ELSE CAST(0.0 AS DOUBLE) END AS y
          FROM events WHERE value IS NOT NULL),
        {",".join(its)}
        SELECT round(w0, 6) AS w_0, round(w1, 6) AS w_1,
               round(w2, 6) AS w_2,
               (SELECT CAST(count(*) AS BIGINT) FROM f) AS n
        FROM w{iterations}
    """


def _lpa_sql(iterations: int = 3) -> str:
    """Unrolled replay of stages/graph.py::label_propagation over the
    undirected supplier↔customer graph: per round one neighbor-label
    vote count + one (count DESC, lbl ASC) winner pick."""
    its = []
    for t in range(1, iterations + 1):
        p = t - 1
        its.append(f"""
        c{t} AS (
          SELECT e.node, l.lbl, count(*) AS c
          FROM ed e JOIN l{p} l ON l.node = e.nbr GROUP BY 1, 2),
        l{t} AS (
          SELECT node, lbl FROM (
            SELECT node, lbl,
                   row_number() OVER (PARTITION BY node
                                      ORDER BY c DESC, lbl) AS rn
            FROM c{t}) WHERE rn = 1)""")
    return f"""
        WITH e0 AS (
          SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src,
                          CAST(1000000 + o_custkey AS BIGINT) AS dst
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        ed AS (SELECT src AS node, dst AS nbr FROM e0
               UNION SELECT dst, src FROM e0),
        l0 AS (SELECT DISTINCT node, node AS lbl FROM ed),
        {",".join(its)}
        SELECT node, lbl FROM l{iterations} ORDER BY node
    """


def _modularity_sql(iterations: int = 3) -> str:
    """Replay of stages/graph.py::modularity over the 3-round-LPA
    assignment: the _lpa_sql CTE chain feeding per-community intra-edge
    and degree-sum counts, q_term with the identical float expression
    shapes (x*x, never pow)."""
    its = []
    for t in range(1, iterations + 1):
        p = t - 1
        its.append(f"""
        c{t} AS (
          SELECT e.node, l.lbl, count(*) AS c
          FROM ed e JOIN l{p} l ON l.node = e.nbr GROUP BY 1, 2),
        l{t} AS (
          SELECT node, lbl FROM (
            SELECT node, lbl,
                   row_number() OVER (PARTITION BY node
                                      ORDER BY c DESC, lbl) AS rn
            FROM c{t}) WHERE rn = 1)""")
    n = iterations
    return f"""
        WITH e0 AS (
          SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src,
                          CAST(1000000 + o_custkey AS BIGINT) AS dst
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        ed AS (SELECT src AS node, dst AS nbr FROM e0
               UNION SELECT dst, src FROM e0),
        l0 AS (SELECT DISTINCT node, node AS lbl FROM ed),
        {",".join(its)},
        m AS (SELECT count(*) AS m FROM e0),
        intra AS (
          SELECT la.lbl AS lbl, count(*) AS intra_edges
          FROM e0 e
          JOIN l{n} la ON la.node = e.src
          JOIN l{n} lb ON lb.node = e.dst
          WHERE la.lbl = lb.lbl GROUP BY 1),
        deg AS (SELECT node, count(*) AS deg FROM ed GROUP BY node),
        stats AS (
          SELECT l.lbl AS lbl, CAST(count(*) AS BIGINT) AS n_nodes,
                 CAST(sum(d.deg) AS BIGINT) AS deg_sum
          FROM l{n} l JOIN deg d ON d.node = l.node GROUP BY 1)
        SELECT s.lbl, s.n_nodes,
               CAST(coalesce(i.intra_edges, 0) AS BIGINT) AS intra_edges,
               s.deg_sum,
               round(coalesce(i.intra_edges, 0) / ((SELECT m FROM m) * 1.0)
                     - (s.deg_sum / (2.0 * (SELECT m FROM m)))
                       * (s.deg_sum / (2.0 * (SELECT m FROM m))),
                     6) AS q_term
        FROM stats s LEFT JOIN intra i ON i.lbl = s.lbl
        ORDER BY s.lbl
    """


def _mmr_sql(k: int = 5, n_candidates: int = 20,
             lam: float = 0.7, mu: float = 0.3) -> str:
    """Unrolled replay of stages/retrieval.py::mmr_rerank: top-N cosine
    candidates for the vec_id-0 query, then k greedy steps each picking
    argmax(round(lam·rel − mu·max_sim_to_selected, 6)) with ties to the
    smaller vec_id.  Every cosine is rounded to 6dp before any score —
    the engine-independence convention the hybrid rerank established."""
    steps = []
    for t in range(2, k + 1):
        p = t - 1
        steps.append(f"""
        m{t} AS (
          SELECT c.vec_id, c.rel,
                 round({lam} * c.rel - {mu} * max(x.s), 6) AS score
          FROM cand c
          JOIN sim x ON x.va = c.vec_id
               AND x.vb IN (SELECT vec_id FROM sel{p})
          WHERE c.vec_id NOT IN (SELECT vec_id FROM sel{p})
          GROUP BY c.vec_id, c.rel),
        s{t} AS (SELECT vec_id, rel, {t} AS pick FROM m{t}
                 ORDER BY score DESC, vec_id LIMIT 1),
        sel{t} AS (SELECT * FROM sel{p} UNION ALL SELECT * FROM s{t})""")
    return f"""
        WITH cand0 AS (
          SELECT e.vec_id AS vec_id,
                 round(list_cosine_similarity(
                     CAST(e.embedding AS DOUBLE[]),
                     CAST(q.embedding AS DOUBLE[])), 6) AS rel
          FROM embeddings e, embeddings q
          WHERE q.vec_id = 0 AND e.vec_id <> 0),
        cand AS (SELECT vec_id, rel FROM cand0
                 ORDER BY rel DESC, vec_id LIMIT {n_candidates}),
        sim AS (
          SELECT a.vec_id AS va, b.vec_id AS vb,
                 round(list_cosine_similarity(
                     CAST(ea.embedding AS DOUBLE[]),
                     CAST(eb.embedding AS DOUBLE[])), 6) AS s
          FROM cand a JOIN cand b ON a.vec_id <> b.vec_id
          JOIN embeddings ea ON ea.vec_id = a.vec_id
          JOIN embeddings eb ON eb.vec_id = b.vec_id),
        s1 AS (SELECT vec_id, rel, 1 AS pick FROM (
                 SELECT vec_id, rel, round({lam} * rel, 6) AS score
                 FROM cand)
               ORDER BY score DESC, vec_id LIMIT 1),
        sel1 AS (SELECT * FROM s1),
        {",".join(steps)}
        SELECT CAST(pick AS BIGINT) AS pick, vec_id, rel
        FROM sel{k} ORDER BY pick
    """


def _hits_sql(iterations: int = 3) -> str:
    """Unrolled replay of stages/graph.py::hits over the directed
    supplier→customer graph: per iteration one hub-push sum + L1
    normalize, one auth-push sum + L1 normalize — identical float
    expression shapes, rounded to 6dp at the end."""
    its = []
    for t in range(1, iterations + 1):
        p = t - 1
        its.append(f"""
        a{t}r AS (
          SELECT e.dst AS node, sum(h.s) AS s
          FROM h{p} h JOIN e0 e ON e.src = h.node GROUP BY 1),
        a{t} AS (
          SELECT node, s / (SELECT sum(s) FROM a{t}r) AS s FROM a{t}r),
        h{t}r AS (
          SELECT e.src AS node, sum(a.s) AS s
          FROM a{t} a JOIN e0 e ON e.dst = a.node GROUP BY 1),
        h{t} AS (
          SELECT node, s / (SELECT sum(s) FROM h{t}r) AS s FROM h{t}r)""")
    return f"""
        WITH e0 AS (
          SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src,
                          CAST(1000000 + o_custkey AS BIGINT) AS dst
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        h0 AS (SELECT DISTINCT src AS node, CAST(1.0 AS DOUBLE) AS s
               FROM e0),
        {",".join(its)}
        SELECT coalesce(h.node, a.node) AS node,
               round(coalesce(h.s, 0.0), 6) AS hub,
               round(coalesce(a.s, 0.0), 6) AS auth
        FROM h{iterations} h
        FULL OUTER JOIN a{iterations} a ON a.node = h.node
        ORDER BY node
    """


def _random_walk_sql(steps: int = 4, seed: int = 42) -> str:
    """Unrolled-step replay of stages/graph.py::random_walks over the
    supplier↔customer graph: one _sm64_sql chain per step (namespaced
    CTEs), neighbor = row_number position matching hv % degree."""
    parts: list[str] = []
    selects = ["SELECT start, CAST(0 AS BIGINT) AS step, node FROM w0"]
    for t in range(steps):
        parts.append(_sm64_sql(
            f"w{t}", f"(node * 1000003 + {t * 7919 + seed})",
            ["start", "node"], prefix=f"rw{t}"))
        parts.append(f"""
        w{t + 1} AS (
          SELECT h.start, a.nbr AS node
          FROM rw{t}h h JOIN adj a
            ON a.node = h.node
           AND a.pos = CAST(h.hv % a.deg AS BIGINT))""")
        selects.append(
            f"SELECT start, CAST({t + 1} AS BIGINT), node FROM w{t + 1}")
    return f"""
        WITH e0 AS (
          SELECT DISTINCT l_suppkey AS src, 1000000 + o_custkey AS dst
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        edges AS (SELECT src, dst FROM e0
                  UNION ALL SELECT dst, src FROM e0),
        adj AS (
          SELECT src AS node, dst AS nbr,
                 row_number() OVER (PARTITION BY src ORDER BY dst) - 1
                   AS pos,
                 count(*) OVER (PARTITION BY src) AS deg
          FROM edges),
        w0 AS (SELECT CAST(s_suppkey AS BIGINT) AS start,
                      CAST(s_suppkey AS BIGINT) AS node FROM supplier),
        {",".join(parts)}
        {" UNION ALL ".join(selects)}
        ORDER BY start, step
    """


def _sm64_sql(table: str, id_col: str, keep: list[str],
              prefix: str = "") -> str:
    """CTE chain replaying stages/analytics.py::splitmix64 over ``table``:
    yields a relation ``{prefix}h(<keep...>, hv HUGEINT)`` with hv =
    splitmix64(id) (mod-2^64 multiplies split into 32-bit halves — a
    64x64 product overflows DuckDB's signed HUGEINT).  Same chain as
    _hll_sql, kept per-row instead of folded into registers.  ``prefix``
    namespaces the CTEs so several chains can coexist in one query
    (e.g. one per unrolled random-walk step)."""
    cols = ", ".join(keep)
    p = prefix

    def mul64(zcol: str, b: int) -> str:
        bh, bl = b >> 32, b & 0xFFFFFFFF
        return (f"CAST(((((CAST({zcol} AS HUGEINT) % 4294967296) * {bh})"
                f" % 4294967296) * 4294967296"
                f" + CAST({zcol} AS HUGEINT) * {bl})"
                f" % 18446744073709551616 AS UBIGINT)")

    return f"""
        {p}s1 AS (
          SELECT {cols},
                 CAST((CAST({id_col} AS HUGEINT) + 11400714819323198485)
                      % 18446744073709551616 AS UBIGINT) AS z
          FROM {table}),
        {p}x1 AS (SELECT {cols}, xor(z, z >> 30) AS z FROM {p}s1),
        {p}s2 AS (SELECT {cols}, {mul64('z', 0xBF58476D1CE4E5B9)} AS z
                  FROM {p}x1),
        {p}x2 AS (SELECT {cols}, xor(z, z >> 27) AS z FROM {p}s2),
        {p}s3 AS (SELECT {cols}, {mul64('z', 0x94D049BB133111EB)} AS z
                  FROM {p}x2),
        {p}h AS (SELECT {cols}, CAST(xor(z, z >> 31) AS HUGEINT) AS hv
                 FROM {p}s3)"""


def _bootstrap_sql(replicates: int = 32) -> str:
    """DuckDB replay of _events_bootstrap_means: splitmix64 over
    id*B+b, the SAME Poisson(1) inverse-CDF thresholds (repr of the
    module constants — identical doubles), grouped weighted sums."""
    from text_to_rdf_ray.stages.analytics import POISSON1_CUM

    case = " ".join(f"WHEN u < {POISSON1_CUM[k]!r} THEN {k}"
                    for k in range(9))
    B = replicates
    return f"""
        WITH e AS (SELECT event_id, value FROM events
                   WHERE value IS NOT NULL),
        reps AS (SELECT unnest(generate_series(0, {B - 1})) AS b),
        pairs AS (SELECT e.event_id * {B} + reps.b AS k,
                         reps.b AS b, e.value AS value
                  FROM e CROSS JOIN reps),
        {_sm64_sql("pairs", "k", ["b", "value"])},
        w AS (SELECT b, value,
                     CAST(hv AS DOUBLE) / 18446744073709551616.0 AS u
              FROM h),
        wk AS (SELECT b, value, CASE {case} ELSE 9 END AS wt FROM w)
        SELECT b AS replicate, CAST(sum(wt) AS BIGINT) AS w_sum,
               round(sum(wt * value), 6) AS wx_sum,
               round(sum(wt * value) / sum(wt), 6) AS mean
        FROM wk GROUP BY b ORDER BY replicate
    """


def _markov_stationary_sql(iterations: int = 20) -> str:
    """DuckDB replay of _events_markov_stationary: lag-window
    transition counts, exact n/rowsum matrix, unrolled 9dp-quantized
    power iterations (single-reference CTEs, shared scans
    MATERIALIZED — the pca_power_scores lesson).  Replays the engine's
    documented SUB-STOCHASTIC semantics: terminal states have no p
    rows, so mass reaching them evaporates (no renormalization on
    either side — see windows.py::markov_stationary)."""
    steps = []
    prev = "it0"
    for i in range(1, iterations + 1):
        steps.append(f"""
            it{i} AS (SELECT st.s AS state,
                             round(coalesce(x.v, 0), 9) AS pi
                      FROM states st LEFT JOIN (
                        SELECT p.t AS state,
                               sum(prv.pi * p.pr) AS v
                        FROM p JOIN {prev} prv ON prv.state = p.f
                        GROUP BY p.t) x ON x.state = st.s)""")
        prev = f"it{i}"
    return f"""
        WITH x AS (SELECT user_id, event_type,
                          lag(event_type) OVER (
                              PARTITION BY user_id
                              ORDER BY ts, event_id) AS prev
                   FROM events),
        cnt AS MATERIALIZED (
          SELECT prev AS f, event_type AS t,
                 CAST(count(*) AS DOUBLE) AS n
          FROM x WHERE prev IS NOT NULL GROUP BY 1, 2),
        rt AS (SELECT f, sum(n) AS tot FROM cnt GROUP BY 1),
        p AS MATERIALIZED (
          SELECT cnt.f, cnt.t, cnt.n / rt.tot AS pr
          FROM cnt JOIN rt USING (f)),
        states AS MATERIALIZED (
          SELECT DISTINCT s FROM (SELECT f AS s FROM cnt
                                  UNION SELECT t FROM cnt)),
        ns AS (SELECT count(*) AS n_states FROM states),
        it0 AS (SELECT states.s AS state,
                       round(1.0 / ns.n_states, 9) AS pi
                FROM states CROSS JOIN ns),
        {",".join(steps)}
        SELECT state, pi FROM {prev} ORDER BY state
    """


def _docs_hash_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test assignment (stages/curation.py
    hash_split): split = pure function of splitmix64(doc_id) vs exact
    integer thresholds — zero shuffle, stable under corpus growth."""
    from text_to_rdf_ray.stages.curation import hash_split

    out = (hash_split(_documents(sf_dir).select_columns(["doc_id", "source"]),
                      id_col="doc_id", fractions=_SPLIT_FRACS)
           .select_columns(["doc_id", "split"]).to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _docs_mix_sources(sf_dir: str) -> pd.DataFrame:
    """Weighted source mixing (stages/curation.py mix_sources): keep each
    doc iff splitmix64(doc_id) < weight[source] * 2^64 — deterministic
    Dolma-style corpus re-weighting, pure per-batch filter."""
    from text_to_rdf_ray.stages.curation import mix_sources

    out = (mix_sources(_documents(sf_dir).select_columns(["doc_id", "source"]),
                       weights=_MIX_WEIGHTS, id_col="doc_id")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _events_value_delta(sf_dir: str) -> pd.DataFrame:
    """Per-user LAG delta (stages/windows.py lag_delta): value change
    since the user's previous event, ordered by (ts, event_id)."""
    from text_to_rdf_ray.stages.windows import lag_delta

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id", "value"])
    out = lag_delta(ev, key_col="user_id", ts_col="ts",
                    order_col="event_id", value_col="value").to_pandas()
    out["delta"] = _r(out["delta"], 6)
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "user_id", "value", "delta", "has_prev"]]
            .sort_values("event_id").reset_index(drop=True))


#: offset for the planted "incoming batch" ids in docs_dedup_against
_DEDUPX_OFFSET = 1_000_000


def _docs_dedup_against(sf_dir: str) -> pd.DataFrame:
    """Cross-corpus incremental dedup (stages/dedup.py dedup_against):
    an incoming batch — every 5th doc an exact copy of the corpus, the
    rest word-reversed (near-zero shingle overlap) — filtered against
    the full documents table at exact Jaccard >= 0.8 with a df<=50
    stop-shingle guard; the oracle replays shingling, df filter,
    intersection counting, and best-match ranking relationally."""
    from text_to_rdf_ray.stages.dedup import dedup_against

    ref = _documents(sf_dir).select_columns(["doc_id", "text"])

    def planted(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        txts = batch.column("text").to_pylist()
        out = []
        for i, t in zip(ids, txts):
            out.append(t if i % 5 == 0
                       else " ".join(reversed((t or "").split())))
        return pa.table({
            "doc_id": pa.array([i + _DEDUPX_OFFSET for i in ids], pa.int64()),
            "text": pa.array(out, pa.string()),
        })

    new = ref.map_batches(planted, batch_format="pyarrow")
    out = dedup_against(new, ref, threshold=0.8, shingle_words=3,
                        max_df=50).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["ref_id"] = out["ref_id"].astype("int64")
    return (out[["doc_id", "is_dup", "ref_id", "jaccard"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_line_dedup(sf_dir: str) -> pd.DataFrame:
    """Line-level boilerplate removal (stages/curation.py line_dedup,
    the MassiveText/RefinedWeb repeated-line rule): the synthetic docs
    have no newlines, so a deterministic wrapper plants multi-line text
    — 6-word body chunks plus boilerplate lines (cookie banner on even
    ids, newsletter plug on ids % 3 == 0, a universal footer) — then
    drops every line present in >= 10 distinct docs.  The planted input
    is dumped as an oracle side table and DuckDB replays split / df /
    rebuild relationally."""
    from text_to_rdf_ray.stages.curation import line_dedup

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def planted(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        txts = batch.column("text").to_pylist()
        out = []
        for i, t in zip(ids, txts):
            words = (t or "").split()
            lines = []
            if i % 2 == 0:
                lines.append("accept all cookies to continue")
            lines.extend(" ".join(words[j:j + 6])
                         for j in range(0, len(words), 6))
            if i % 3 == 0:
                lines.append("subscribe to our weekly newsletter")
            lines.append("all rights reserved worldwide")
            out.append("\n".join(lines))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})

    planted_ds = docs.map_batches(planted, batch_format="pyarrow")
    _side_write("docs_line_dedup", "input.parquet", planted_ds.to_pandas())
    out = line_dedup(planted_ds, min_df=10).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_lines"] = out["n_lines"].astype("int64")
    out["n_removed"] = out["n_removed"].astype("int64")
    return (out[["doc_id", "n_lines", "n_removed", "text_clean"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Efraimidis-Spirakis weighted sampling without replacement
    (stages/curation.py weighted_sample): k=100 docs weighted by n_chars
    — deterministic (no RNG state), key = ln(u)/w replayed in SQL."""
    from text_to_rdf_ray.stages.curation import weighted_sample

    out = (weighted_sample(
        _documents(sf_dir).select_columns(["doc_id", "n_chars"]),
        id_col="doc_id", weight_col="n_chars", k=100)
        .to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return (out[["doc_id", "n_chars", "es_key", "sample_rank"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_shuffle(sf_dir: str) -> pd.DataFrame:
    """Deterministic epoch shuffle (stages/curation.py shuffle_rows):
    global position = rank of splitmix64(doc_id) — identical at any
    parallelism, SQL-replayable as ROW_NUMBER over the hash."""
    from text_to_rdf_ray.stages.curation import shuffle_rows

    out = shuffle_rows(_documents(sf_dir).select_columns(["doc_id"]),
                       id_col="doc_id").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["shuffle_pos"] = out["shuffle_pos"].astype("int64")
    return (out[["doc_id", "shuffle_pos"]]
            .sort_values("doc_id").reset_index(drop=True))


def _events_user_value_trend(sf_dir: str) -> pd.DataFrame:
    """Per-user linear value drift over time (stages/analytics.py
    group_ols): slope/intercept of value vs epoch-day from decomposable
    sums — one partial row per key per batch, one hash exchange."""
    from text_to_rdf_ray.stages.analytics import group_ols

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])

    def day_x(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        x = (ts // 86_400_000_000).astype(np.float64)
        return pa.table({"user_id": batch.column("user_id"),
                         "x": pa.array(x, pa.float64()),
                         "y": batch.column("value").cast(pa.float64())})

    out = group_ols(ev.map_batches(day_x, batch_format="pyarrow"),
                    key_col="user_id", x_col="x", y_col="y").to_pandas()
    out["n"] = out["n"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return (out[["user_id", "n", "slope", "intercept"]]
            .sort_values("user_id").reset_index(drop=True))


def _custs_orders_full(sf_dir: str) -> pd.DataFrame:
    """Full outer join (stages/exchange.py exchange_join how=full_outer):
    high-balance customers vs per-customer big-order counts — left-only,
    right-only, and matched regions all present; keys coalesced from the
    matching side, sentinel fills keep the schema NULL-free."""
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_acctbal"])
    cust = cust.filter(expr="c_acctbal > 5000")
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_custkey", "o_totalprice"])
    orders = orders.filter(expr="o_totalprice > 300000")

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": batch.column("o_custkey")})

    big = exchange_agg(orders.map_batches(tag, batch_format="pyarrow"),
                       "c_custkey",
                       [("c_custkey", "count", "n_big")])
    joined = exchange_join(
        cust, big, on="c_custkey", how="full_outer",
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_acctbal", pa.float64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("n_big", pa.int64())]))

    out = joined.to_pandas()
    out["acctbal"] = _r(out["c_acctbal"].fillna(-1.0), 2)
    out["n_big"] = out["n_big"].fillna(0).astype("int64")
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return (out[["c_custkey", "acctbal", "n_big"]]
            .sort_values("c_custkey").reset_index(drop=True))


def _docs_vocab(sf_dir: str) -> pd.DataFrame:
    """Top-20 corpus vocabulary, token_id = rank under (count desc,
    term asc) — per-batch Counter partials -> one term-keyed
    exchange_agg sum -> constant-key topk_per_group funnel
    (stages/curation.py::build_vocab); the full vocabulary is never
    collected on the driver."""
    from text_to_rdf_ray.stages.curation import build_vocab

    out = (build_vocab(_documents(sf_dir).select_columns(["text"]),
                       max_vocab=20).to_pandas()
           .sort_values("token_id").reset_index(drop=True))
    out["count"] = out["count"].astype("int64")
    out["token_id"] = out["token_id"].astype("int64")
    return out[["term", "count", "token_id"]]


def _docs_vocab_encode(sf_dir: str) -> pd.DataFrame:
    """Fixed-vocabulary token encoding (the tokenizer step of a training
    pipeline): build_vocab(max_vocab=20, which BINDS on the
    31-term synthetic vocabulary so real OOV ids appear) collected once (bounded BY
    CONSTRUCTION), broadcast via ray.put, corpus side a pure map with a
    vectorized Series.map over the flat token stream; OOV -> id 0
    (stages/curation.py::encode_with_vocab)."""
    from text_to_rdf_ray.stages.curation import build_vocab, encode_with_vocab

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    vocab = build_vocab(docs, max_vocab=20).to_pandas()
    out = encode_with_vocab(docs, vocab).to_pandas()
    for c in ("doc_id", "n_tokens", "n_oov"):
        out[c] = out[c].astype("int64")
    return (out[["doc_id", "n_tokens", "n_oov", "ids_csv"]]
            .sort_values("doc_id").reset_index(drop=True))


_BM25_QUERIES = {
    "q1": ["hash", "join", "table"],
    "q2": ["window", "agg", "stream"],
    "q3": ["vector", "scan", "dup"],
}


def _docs_bm25_topk(sf_dir: str) -> pd.DataFrame:
    """BM25 top-15 docs per query (stages/retrieval.py::bm25_topk):
    bounded query-vocab df pass -> broadcast idf/avgdl -> pure-map
    scoring -> topk_per_group funnel.  Scores rounded to 6dp BEFORE
    ranking so the order is engine-independent."""
    from text_to_rdf_ray.stages.retrieval import bm25_topk

    out = (bm25_topk(_documents(sf_dir).select_columns(["doc_id", "text"]),
                     _BM25_QUERIES, k=15).to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    return (out[["query_id", "doc_id", "score", "rank"]]
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


def _docs_ndcg(sf_dir: str) -> pd.DataFrame:
    """Binary-relevance NDCG@10 of the BM25 top-15 ranking (stages/
    retrieval.py::binary_ndcg): relevance = doc contains >= 2 DISTINCT
    query terms (deterministic lexical qrels — fully replayable), the
    per-query total-relevant count R is computed distributed, and
    every gain term is rounded to 9dp before summing so the SQL
    replay is bit-equal regardless of summation order."""
    from text_to_rdf_ray.stages.retrieval import binary_ndcg, bm25_topk

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    ranking = bm25_topk(docs, _BM25_QUERIES, k=15).to_pandas()
    ranking["doc_id"] = ranking["doc_id"].astype("int64")
    ranking["rank"] = ranking["rank"].astype("int64")
    out = binary_ndcg(docs, _BM25_QUERIES, ranking, k=10, min_terms=2)
    for c in ("n_rel_total", "n_rel_ranked"):
        out[c] = out[c].astype("int64")
    return out.sort_values("query_id").reset_index(drop=True)


def _docs_retrieval_eval(sf_dir: str) -> pd.DataFrame:
    """MRR / precision@10 / recall@10 of the BM25 ranking against the
    shared lexical qrels (stages/retrieval.py::retrieval_eval — same
    relevance rule as docs_ndcg, so the eval legs agree)."""
    from text_to_rdf_ray.stages.retrieval import bm25_topk, retrieval_eval

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    ranking = bm25_topk(docs, _BM25_QUERIES, k=15).to_pandas()
    ranking["doc_id"] = ranking["doc_id"].astype("int64")
    ranking["rank"] = ranking["rank"].astype("int64")
    out = retrieval_eval(docs, _BM25_QUERIES, ranking, k=10, min_terms=2)
    for c in ("n_rel_total", "n_rel_ranked", "first_rel_rank"):
        out[c] = out[c].astype("int64")
    return out.sort_values("query_id").reset_index(drop=True)


def _docs_textrank(sf_dir: str) -> pd.DataFrame:
    """TextRank keywords (stages/curation.py::textrank_keywords):
    distributed co-occurrence pair counting (window 2) -> one
    term-pair exchange -> bounded driver weighted power iteration
    (5 rounds, d=0.85), scores rounded 9dp before the top-20 rank."""
    from text_to_rdf_ray.stages.curation import textrank_keywords

    out = textrank_keywords(
        _documents(sf_dir).select_columns(["text"]),
        window=2, iterations=5, damping=0.85, top_k=20)
    out["rank"] = out["rank"].astype("int64")
    return (out[["word", "score", "rank"]]
            .sort_values("rank").reset_index(drop=True))


def _events_seasonal(sf_dir: str) -> pd.DataFrame:
    """Classical additive seasonal decomposition of the hourly event
    count series (stages/windows.py::seasonal_decompose): distributed
    combiner count -> time-bounded driver 2x24 centered-MA trend,
    per-hour-of-day seasonal index, remainder (all 6dp-rounded at the
    same points the SQL replay rounds)."""
    from text_to_rdf_ray.stages.windows import seasonal_decompose

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts"])
    out = seasonal_decompose(ev, period=24)
    out["window_id"] = out["window_id"].astype("int64")
    out["cnt"] = out["cnt"].astype("int64")
    return out.sort_values("window_id").reset_index(drop=True)


def _docs_bm25_prf(sf_dir: str) -> pd.DataFrame:
    """Rocchio pseudo-relevance-feedback BM25 (stages/retrieval.py::
    bm25_prf): pass-1 top-5 docs feed 3 tf-x-idf expansion terms per
    query (weight 0.5, selection ranked on round(tf*idf,6) desc /
    term asc), then a weighted re-rank — all feedback intermediates
    vocabulary/fb-bounded, corpus never shuffled."""
    from text_to_rdf_ray.stages.retrieval import bm25_prf

    out = (bm25_prf(_documents(sf_dir).select_columns(["doc_id", "text"]),
                    _BM25_QUERIES, k=10, fb_docs=5, fb_terms=3,
                    beta=0.5).to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    return (out[["query_id", "doc_id", "score", "rank"]]
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


def _revenue_by_part_type(sf_dir: str) -> pd.DataFrame:
    """Dimension enrichment via map-side join (stages/joins.py::
    broadcast_join — part table broadcast once via ray.put, lineitem
    streams with NO shuffle), then a p_type-keyed exchange_agg revenue
    sum.  Revenue parts pre-rounded per row so the sum is
    order-independent across engines."""
    from text_to_rdf_ray.stages.exchange import exchange_agg
    from text_to_rdf_ray.stages.joins import broadcast_join

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])
    part = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_type"])

    def rev(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "p_partkey": batch.column("l_partkey"),
            "rev": pa.array(np.round(ep * (1.0 - dc), 2), pa.float64()),
        })

    joined = broadcast_join(li.map_batches(rev, batch_format="pyarrow"),
                            part, on="p_partkey")
    out = exchange_agg(joined, "p_type",
                       [("rev", "sum", "revenue"),
                        ("rev", "count", "n_items")]).to_pandas()
    out["revenue"] = _r(out["revenue"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    return (out[["p_type", "revenue", "n_items"]]
            .sort_values("p_type").reset_index(drop=True))


def _kg_ntriples_roundtrip(sf_dir: str) -> pd.DataFrame:
    """N-Triples sink -> source round-trip (pipelines/kg.py::
    write_ntriples / sources/ntriples.py::read_ntriples, the reference's
    graph serialization — src/formatter.rs): a deterministic triples
    table with planted escape-relevant literals (newline, CR, quote,
    backslash) is written as .nt shards, read back with the streaming
    regex parser, and the oracle re-parses the SAME shard files in
    DuckDB (read_text + regexp_extract + the escape inversion done
    relationally) — two independent parsers over one serialization."""
    import shutil

    from text_to_rdf_ray.pipelines.kg import write_ntriples
    from text_to_rdf_ray.sources.ntriples import read_ntriples

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def to_triples(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        txts = batch.column("text").to_pylist()
        subj, pred, obj, ot = [], [], [], []
        for i, t in zip(ids, txts):
            subj.append(f"doc {i}")
            pred.append("note")
            obj.append(f'l1\nl2\r"q{i}" \\ {(t or "")[:12]}')
            ot.append(False)
            subj.append(f"doc {i}")
            pred.append("about")
            obj.append(f"topic {i % 7}")
            ot.append(True)
        return pa.table({"subj": pa.array(subj, pa.string()),
                         "pred": pa.array(pred, pa.string()),
                         "obj": pa.array(obj, pa.string()),
                         "obj_type": pa.array(ot, pa.bool_())})

    out_dir = os.path.join(_SIDE, "kg_ntriples_roundtrip", "nt")
    shutil.rmtree(out_dir, ignore_errors=True)
    write_ntriples(docs.map_batches(to_triples, batch_format="pyarrow"),
                   out_dir)
    out = read_ntriples(out_dir).to_pandas()
    return (out[["subj_uri", "pred_uri", "obj", "obj_is_uri"]]
            .sort_values(["subj_uri", "pred_uri", "obj"])
            .reset_index(drop=True))


def _docs_jsonl_roundtrip(sf_dir: str) -> pd.DataFrame:
    """JSONL sink -> source round-trip over Ray Data's NATIVE
    write_json / read_json (the interchange format every crawl corpus
    ships in): documents with planted escape-relevant text (newline,
    tab, quote, backslash, non-ASCII) are written as newline-delimited
    .json shards and read back; the oracle re-parses the SAME shard
    files with DuckDB's independent JSON reader — two parsers over one
    serialization, matching the kg_ntriples_roundtrip pattern."""
    import shutil

    docs = _documents(sf_dir).select_columns(["doc_id", "source", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype(str)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"].astype(str),
            "text": ('l1\nl2\t"q' + i + '" \\ café 中 '
                     + b["text"].astype(str).str[:40]),
        })

    out_dir = os.path.join(_SIDE, "docs_jsonl_roundtrip", "jsonl")
    shutil.rmtree(out_dir, ignore_errors=True)
    docs.map_batches(plant, batch_format="pandas").write_json(out_dir)
    out = rd.read_json(out_dir).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out[["doc_id", "source", "text"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_csv_roundtrip(sf_dir: str) -> pd.DataFrame:
    """CSV sink -> source round-trip over Ray Data's NATIVE write_csv /
    read_csv with quoting-relevant planted text (commas, double quotes,
    embedded newline) — the third interchange format after JSONL and
    N-Triples; the oracle re-parses the SAME shards with DuckDB's
    independent RFC-4180 reader."""
    import shutil

    docs = _documents(sf_dir).select_columns(["doc_id", "source", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype(str)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"].astype(str),
            "text": ('a,b "q' + i + '" nl\nend ; '
                     + b["text"].astype(str).str[:40]),
        })

    out_dir = os.path.join(_SIDE, "docs_csv_roundtrip", "csv")
    shutil.rmtree(out_dir, ignore_errors=True)
    docs.map_batches(plant, batch_format="pandas").write_csv(out_dir)
    out = rd.read_csv(out_dir).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out[["doc_id", "source", "text"]]
            .sort_values("doc_id").reset_index(drop=True))


def _parts_copurchase(sf_dir: str) -> pd.DataFrame:
    """Co-purchase graph projection (the bipartite order↔part table
    projected onto part–part edges) via the shared
    stages/graph.py::common_neighbors operator: distinct (order, part)
    rows, hub-order degree cap (max_wedge_degree=10,000, counted as
    commonnb_capped_*; never fires on TPC-H-shaped data where orders
    have ≤7 lineitems — the SQL replays the cap anyway), self
    exchange_join on the order, pair count, weight >= 2 — the item-item
    edge list a recommender trains on."""
    from text_to_rdf_ray.stages.graph import common_neighbors

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    out = common_neighbors(
        li, a_col="l_partkey", z_col="l_orderkey", min_common=2,
        max_wedge_degree=10_000,
        out_a="part_a", out_b="part_b", out_count="weight").to_pandas()
    out["weight"] = out["weight"].astype("int64")
    return (out[["part_a", "part_b", "weight"]]
            .sort_values(["part_a", "part_b"]).reset_index(drop=True))


def _events_type_hour_pivot(sf_dir: str) -> pd.DataFrame:
    """Wide hourly aggregation (stages/analytics.py::pivot_agg): one row
    per epoch-hour, one summed-value column per event_type.  Per-row
    2dp pre-round keeps the sums order-independent across engines."""
    from text_to_rdf_ray.stages.analytics import pivot_agg

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table({
            "hour": pa.array(ts // 3_600_000_000, pa.int64()),
            "event_type": batch.column("event_type"),
            "value": pa.array(np.round(v, 2), pa.float64()),
        })

    out = pivot_agg(ev.map_batches(prep, batch_format="pyarrow"),
                    index_col="hour", pivot_col="event_type",
                    value_col="value").to_pandas()
    cols = [c for c in out.columns if c != "hour"]
    for c in cols:
        out[c] = _r(out[c], 2)
    out["hour"] = out["hour"].astype("int64")
    return (out[["hour"] + sorted(cols)]
            .sort_values("hour").reset_index(drop=True))


def _events_upsert_state(sf_dir: str) -> pd.DataFrame:
    """Latest-wins state table from an event log (stages/joins.py::
    upsert_merge — the lakehouse MERGE step): base = events with
    event_id %% 3 != 0, updates = the rest; per user keep the greatest
    (ts, update-wins, event_id)."""
    from text_to_rdf_ray.stages.joins import upsert_merge

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id",
                                  "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id"),
            "ts_us": pa.array(ts, pa.int64()),
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
            "value": batch.column("value"),
        })

    p = ev.map_batches(prep, batch_format="pyarrow")

    def side(keep_updates: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("event_id").to_numpy(zero_copy_only=False)
            m = (ids % 3 == 0) if keep_updates else (ids % 3 != 0)
            return t.filter(pa.array(m))
        return f

    base = p.map_batches(side(False), batch_format="pyarrow")
    upd = p.map_batches(side(True), batch_format="pyarrow")
    out = upsert_merge(base, upd, key_col="user_id", order_col="ts_us",
                       tiebreak_col="event_id").to_pandas()
    for c in ("user_id", "ts_us", "event_id"):
        out[c] = out[c].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["user_id", "ts_us", "event_id", "event_type", "value"]]
            .sort_values("user_id").reset_index(drop=True))


def _events_value_pct_rank(sf_dir: str) -> pd.DataFrame:
    """Global percentile-rank transform (stages/analytics.py::
    percentile_rank): value-frequency exchange + bounded broadcast +
    vectorized searchsorted per batch."""
    from text_to_rdf_ray.stages.analytics import percentile_rank

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    out = percentile_rank(ev, value_col="value").to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["value"] = _r(out["value"], 6)
    out["pct_rank"] = _r(out["pct_rank"], 9)
    return (out[["event_id", "value", "pct_rank"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_range_sorted(sf_dir: str) -> pd.DataFrame:
    """Distributed total sort with exact global positions
    (stages/analytics.py::range_sort — sample-based range partitioning,
    per-partition vectorized sort, prefix-summed offsets)."""
    from text_to_rdf_ray.stages.analytics import range_sort

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    out = range_sort(ev, key_col="value",
                     tiebreak_col="event_id").to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["global_pos"] = out["global_pos"].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "value", "global_pos"]]
            .sort_values("event_id").reset_index(drop=True))


def _orders_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Version diff of a keyed table (stages/analytics.py::table_diff —
    payload-free (key, fingerprint) exchange + one full-outer
    exchange_join): new version = orders with keys %% 7 == 0 dropped,
    prices bumped 10%% where key %% 5 == 0, and mirrored keys
    (key + 10^9) appended."""
    from text_to_rdf_ray.stages.analytics import table_diff

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_totalprice",
                                      "o_orderstatus"])

    def mutate(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        s = batch.column("o_orderstatus").to_pylist()
        keep = k % 7 != 0
        kk, pp = k[keep], p[keep].copy()
        ss = [x for x, m in zip(s, keep) if m]
        bump = kk % 5 == 0
        pp[bump] = np.round(pp[bump] * 1.1, 2)
        add = kk % 11 == 0
        return pa.table({
            "o_orderkey": pa.array(
                np.concatenate([kk, kk[add] + 1_000_000_000]), pa.int64()),
            "o_totalprice": pa.array(
                np.concatenate([pp, pp[add]]), pa.float64()),
            "o_orderstatus": pa.array(
                ss + [x for x, m in zip(ss, add) if m], pa.string()),
        })

    new = orders.map_batches(mutate, batch_format="pyarrow")
    out = table_diff(orders, new, key_col="o_orderkey",
                     compare_cols=["o_totalprice", "o_orderstatus"])
    df = out.to_pandas()
    df["o_orderkey"] = df["o_orderkey"].astype("int64")
    return (df[["o_orderkey", "status"]]
            .sort_values("o_orderkey").reset_index(drop=True))


def _docs_tokenize_pipeline(sf_dir: str) -> pd.DataFrame:
    """Capstone tokenizer chain: build_vocab(20) -> encode_with_vocab ->
    pack_sequences(budget=500) as ONE streaming composition — the
    tokenizer-training + encoding + sequence-packing steps of a training
    pipeline, each the standalone-oracled operator."""
    from text_to_rdf_ray.stages.curation import (
        build_vocab, encode_with_vocab, pack_sequences)

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    vocab = build_vocab(docs, max_vocab=20).to_pandas()
    enc = encode_with_vocab(docs, vocab)
    out = pack_sequences(enc, id_col="doc_id", token_col="n_tokens",
                         budget=500).to_pandas()
    for c in ("doc_id", "n_tokens", "seq_id"):
        out[c] = out[c].astype("int64")
    return (out[["doc_id", "n_tokens", "seq_id"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_normalize_text(sf_dir: str) -> pd.DataFrame:
    """Unicode cleaning pass (stages/curation.py::normalize_text): the
    synthetic docs are already clean ASCII, so a deterministic wrapper
    plants mess — decomposed accents (e + combining acute) on ids %% 3
    == 0, tab/newline runs on even ids, padded ends everywhere — dumps
    the planted input as an oracle side table, and DuckDB replays
    nfc_normalize + lower + regexp_replace + trim."""
    from text_to_rdf_ray.stages.curation import normalize_text

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        txts = batch.column("text").to_pylist()
        out = []
        for i, t in zip(ids, txts):
            t = t or ""
            if i % 3 == 0:
                t = "café " + t  # NFC-combinable pair
            if i % 2 == 0:
                t = t.replace(" ", "\t \n", 1).upper()
            out.append("  " + t + "  ")
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})

    planted = docs.map_batches(plant, batch_format="pyarrow").materialize()
    _side_write("docs_normalize_text", "input.parquet", planted.to_pandas())
    out = normalize_text(planted).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out[["doc_id", "text_norm", "changed"]]
            .sort_values("doc_id").reset_index(drop=True))


def _events_user_skew(sf_dir: str) -> pd.DataFrame:
    """Key-distribution diagnostics (stages/analytics.py::
    key_skew_stats): top-10 heaviest user_ids with count, share, and
    corpus totals — driver collect bounded by top_n + partitions."""
    from text_to_rdf_ray.stages.analytics import key_skew_stats

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id"])
    out = key_skew_stats(ev, key_col="user_id", top_n=10)
    for c in ("user_id", "cnt", "rank", "n_rows", "n_keys"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "cnt", "rank", "share", "n_rows", "n_keys"]]
            .sort_values("rank").reset_index(drop=True))


def _events_value_mad(sf_dir: str) -> pd.DataFrame:
    """Robust per-type dispersion (stages/analytics.py::group_mad):
    exact median + MAD via the histogram-locate quantile passes, robust
    outlier counts at z=3."""
    from text_to_rdf_ray.stages.analytics import group_mad

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    out = group_mad(ev, key_col="event_type", value_col="value")
    out["n"] = out["n"].astype("int64")
    out["n_outliers"] = out["n_outliers"].astype("int64")
    out["median"] = _r(out["median"], 6)
    out["mad"] = _r(out["mad"], 6)
    return (out[["event_type", "n", "median", "mad", "n_outliers"]]
            .sort_values("event_type").reset_index(drop=True))


def _docs_bm25_topk_join(sf_dir: str) -> pd.DataFrame:
    """Join-mode BM25 (stages/retrieval.py::bm25_topk_join — the
    many-queries regime: query-vocab-pruned doc explode, term-keyed
    exchange_join, packed-key score sum).  Same ranking contract and
    oracle as docs_bm25_topk; parity-tested against the broadcast
    form."""
    from text_to_rdf_ray.stages.retrieval import bm25_topk_join

    qrows = [(qid, t) for qid, ts in sorted(_BM25_QUERIES.items())
             for t in ts]
    qds = rd.from_pandas(pd.DataFrame(qrows, columns=["query_id", "term"]))
    out = (bm25_topk_join(
        _documents(sf_dir).select_columns(["doc_id", "text"]), qds, k=15)
        .to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    return (out[["query_id", "doc_id", "score", "rank"]]
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


_BPE_STATE: dict = {}


def _bpe_run(sf_dir: str):
    """Run bpe_train once per sf_dir and share the (merges, segmentation)
    result between the two BPE queries (same driver process)."""
    if _BPE_STATE.get("dir") != sf_dir:
        from text_to_rdf_ray.stages.bpe import bpe_train

        merges, words = bpe_train(
            _documents(sf_dir).select_columns(["text"]), n_merges=6)
        _BPE_STATE.update(dir=sf_dir, merges=merges,
                          words=words.to_pandas())
    return _BPE_STATE["merges"], _BPE_STATE["words"]


def _docs_bpe_merges(sf_dir: str) -> pd.DataFrame:
    """First 6 learned BPE merges (stages/bpe.py::bpe_train): distributed
    word-count state, per-iteration vectorized pair-count partials ->
    pair-keyed exchange_agg -> constant-key top-1 funnel; ties
    (count desc, pair asc)."""
    merges, _ = _bpe_run(sf_dir)
    out = merges.copy()
    out["rank"] = out["rank"].astype("int64")
    out["pair_cnt"] = out["pair_cnt"].astype("int64")
    return (out[["rank", "left", "right", "merged", "pair_cnt"]]
            .sort_values("rank").reset_index(drop=True))


def _docs_bpe_fertility(sf_dir: str) -> pd.DataFrame:
    """Tokenizer fertility metrics for the learned 6-merge BPE
    (stages/bpe.py::bpe_train): tokens per word occurrence and chars
    per token over the corpus word distribution — THE
    tokenizer-quality readout (a fertility near 1 means whole-word
    tokens; chars/token tracks compression).  Integer-exact sums,
    two rounded divisions."""
    _, words = _bpe_run(sf_dir)
    # tokens = space-separated symbols; a standalone '</w>' marker is
    # not a token (a FUSED 'x</w>' is -- GPT-2-style end-of-word)
    nt = words["sym"].map(
        lambda s: len([p for p in s.split(" ")
                       if p and p != "</w>"]))
    cnt = words["cnt"].astype("int64")
    word_occ = int(cnt.sum())
    tok_occ = int((cnt * nt).sum())
    char_occ = int((cnt * words["word"].str.len()).sum())
    return pd.DataFrame([{
        "n_distinct_words": np.int64(len(words)),
        "word_occurrences": np.int64(word_occ),
        "token_occurrences": np.int64(tok_occ),
        "fertility": round(tok_occ / word_occ, 6),
        "chars_per_token": round(char_occ / tok_occ, 6)}])


def _docs_zipf_fit(sf_dir: str) -> pd.DataFrame:
    """Zipf's-law OLS over the top-100 term frequencies (stages/
    curation.py::zipf_fit — build_vocab's funneled top-k + a
    closed-form driver fit)."""
    from text_to_rdf_ray.stages.curation import zipf_fit

    out = zipf_fit(_documents(sf_dir).select_columns(["text"]),
                   top_k=100)
    out["n_terms"] = out["n_terms"].astype("int64")
    return out.reset_index(drop=True)


def _docs_heaps_fit(sf_dir: str) -> pd.DataFrame:
    """Heaps'-law vocabulary-growth fit (stages/curation.py::
    heaps_fit): per-term first-doc exchange + per-bucket token
    counts, log-log OLS over 10 doc-id-ordered prefixes."""
    from text_to_rdf_ray.stages.curation import heaps_fit

    out = heaps_fit(
        _documents(sf_dir).select_columns(["doc_id", "text"]),
        n_buckets=10)
    out["n_buckets"] = out["n_buckets"].astype("int64")
    return out.reset_index(drop=True)


def _docs_bigram_entropy(sf_dir: str) -> pd.DataFrame:
    """Corpus entropy rate (stages/curation.py::bigram_entropy):
    unigram/bigram entropies by the sum-n-ln-n identity, conditional
    next-token entropy by the chain rule, bigram perplexity bound."""
    from text_to_rdf_ray.stages.curation import bigram_entropy

    out = bigram_entropy(_documents(sf_dir).select_columns(["text"]))
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_bigrams"] = out["n_bigrams"].astype("int64")
    return out.reset_index(drop=True)


def _docs_bpe_segment(sf_dir: str) -> pd.DataFrame:
    """Final word segmentation after the 6 merges (stages/bpe.py::
    bpe_train) — double-space replace invariant makes the distributed
    apply EXACTLY canonical greedy BPE, replayed bit-for-bit by the
    unrolled SQL."""
    _, words = _bpe_run(sf_dir)
    out = words.copy()
    out["cnt"] = out["cnt"].astype("int64")
    return (out[["word", "cnt", "sym"]]
            .sort_values("word").reset_index(drop=True))


def _bpe_sql(n: int, select: str) -> str:
    """Unrolled-CTE DuckDB replay of bpe_train (stages/bpe.py): per
    iteration, adjacent-pair counts over the double-space symbol strings,
    (cnt desc, pair asc) top-1, and the same single-pass replace."""
    parts = ["""w0 AS (
        SELECT word, cnt,
               '  ' || array_to_string(str_split(word, ''), '  ')
                    || '  </w>  ' AS sym
        FROM (SELECT term AS word, count(*) AS cnt FROM (
                SELECT unnest(list_filter(str_split(lower(text), ' '),
                                          x -> x <> '')) AS term
                FROM documents) GROUP BY term))"""]
    for i in range(1, n + 1):
        parts.append(f"""p{i} AS (
        SELECT l[i] || ' ' || l[i+1] AS pair, sum(cnt) AS cnt
        FROM (SELECT cnt, str_split(trim(sym), '  ') AS l FROM w{i - 1}) t,
             unnest(range(1, len(l))) AS r(i)
        GROUP BY pair)""")
        parts.append(f"""best{i} AS (
        SELECT pair, cnt FROM p{i} ORDER BY cnt DESC, pair ASC LIMIT 1)""")
        parts.append(f"""w{i} AS (
        SELECT word, w.cnt,
               replace(sym, ' ' || replace(b.pair, ' ', '  ') || ' ',
                            ' ' || replace(b.pair, ' ', '') || ' ') AS sym
        FROM w{i - 1} w CROSS JOIN best{i} b)""")
    return "WITH " + ",\n".join(parts) + "\n" + select


# ---------------------------------------------------------------- contract


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: sf documents wrapped
    into the pages schema + deterministic fixture pages, through the full
    KG construction pipeline.  Returns the canonical triples Dataset."""
    from text_to_rdf_ray.pipelines.kg import build_triples
    from text_to_rdf_ray.sources.fixtures import kb_records, wrap_html

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "url": pa.array([f"https://testdata.local/doc/{i}" for i in ids], pa.string()),
                "warc_ts": pa.array([1704067200_000000 + i for i in ids], pa.timestamp("us")),
                "html": pa.array([wrap_html(f"doc {i}", t) for i, t in zip(ids, texts)], pa.binary()),
                "lang": pa.array(["en"] * len(ids), pa.string()),
            }
        )

    sf_pages = docs.map_batches(to_pages, batch_format="pyarrow")
    fixture_pages = rd.read_parquet(_fixture_pages_dir(1000),
                                    columns=["url", "warc_ts", "html", "lang"])
    pages = sf_pages.union(fixture_pages)
    return build_triples(pages, kb_records=kb_records())


def _events_funnel(sf_dir: str) -> pd.DataFrame:
    """Ordered funnel signup -> view -> purchase with strictly-after,
    earliest-qualifying-event semantics (stages/windows.py::funnel —
    one user-hash exchange, vectorized per-partition frontier merges)."""
    from text_to_rdf_ray.stages.windows import funnel

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_type"])
    out = funnel(ev, steps=["signup", "view", "purchase"]).to_pandas()
    if out.empty or "step" not in out.columns:
        return pd.DataFrame({"step": pd.Series(dtype="int64"),
                             "step_name": pd.Series(dtype=str),
                             "n_users": pd.Series(dtype="int64")})
    out["step"] = out["step"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return (out[["step", "step_name", "n_users"]]
            .sort_values("step").reset_index(drop=True))


def _events_retention(sf_dir: str) -> pd.DataFrame:
    """Daily cohort retention over events (stages/windows.py::retention
    — distinct-activity exchange, per-user min-day cohort, one join,
    combiner-fronted (cohort, offset) count)."""
    from text_to_rdf_ray.stages.windows import retention

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    out = retention(ev, max_offset=30).to_pandas()
    if out.empty or "cohort_day" not in out.columns:
        return pd.DataFrame({"cohort_day": pd.Series(dtype="int64"),
                             "day_offset": pd.Series(dtype="int64"),
                             "n_users": pd.Series(dtype="int64")})
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return (out[["cohort_day", "day_offset", "n_users"]]
            .sort_values(["cohort_day", "day_offset"])
            .reset_index(drop=True))


def _events_value_hour_corr(sf_dir: str) -> pd.DataFrame:
    """Per-event-type Pearson correlation of value vs hour-of-day —
    stages/analytics.py::group_corr (decomposable sufficient statistics,
    one partial row per key per batch, one hash exchange)."""
    from text_to_rdf_ray.stages.analytics import group_corr

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts", "value"])

    def hod(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        x = ((ts // 3_600_000_000) % 24).astype(np.float64)
        return pa.table({"event_type": batch.column("event_type"),
                         "x": pa.array(x, pa.float64()),
                         "y": batch.column("value").cast(pa.float64())})

    out = group_corr(ev.map_batches(hod, batch_format="pyarrow"),
                     key_col="event_type", x_col="x", y_col="y").to_pandas()
    if out.empty or "event_type" not in out.columns:
        return pd.DataFrame({"event_type": pd.Series(dtype=str),
                             "n": pd.Series(dtype="int64"),
                             "corr": pd.Series(dtype="float64")})
    out["n"] = out["n"].astype("int64")
    return (out[["event_type", "n", "corr"]]
            .sort_values("event_type").reset_index(drop=True))


def _events_winsorized_value(sf_dir: str) -> pd.DataFrame:
    """Per-event-type winsorized mean of value (clipped to the exact
    [p5, p95] group quantiles) — stages/analytics.py::winsorized_mean:
    histogram-locate quantiles (no global sort) feeding one partial-sums
    hash exchange."""
    from text_to_rdf_ray.stages.analytics import winsorized_mean

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    out = winsorized_mean(ev, key_col="event_type", value_col="value",
                          q_lo=0.05, q_hi=0.95).to_pandas()
    if out.empty or "event_type" not in out.columns:
        return pd.DataFrame({"event_type": pd.Series(dtype=str),
                             "n": pd.Series(dtype="int64"),
                             "w_mean": pd.Series(dtype="float64")})
    out["n"] = out["n"].astype("int64")
    return (out[["event_type", "n", "w_mean"]]
            .sort_values("event_type").reset_index(drop=True))


def _orders_price_buckets(sf_dir: str) -> pd.DataFrame:
    """Within-group quantile-bucket assignment (quartiles of totalprice
    per order status) — stages/analytics.py::quantile_bucket: exact
    histogram-locate bounds broadcast into one streaming pass."""
    from text_to_rdf_ray.stages.analytics import quantile_bucket

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    out = quantile_bucket(orders, key_col="o_orderstatus",
                          value_col="o_totalprice", n_buckets=4).to_pandas()
    if out.empty or "o_orderkey" not in out.columns:
        return pd.DataFrame({"o_orderkey": pd.Series(dtype="int64"),
                             "o_orderstatus": pd.Series(dtype=str),
                             "o_totalprice": pd.Series(dtype="float64"),
                             "bucket": pd.Series(dtype="int64")})
    return (out[["o_orderkey", "o_orderstatus", "o_totalprice", "bucket"]]
            .sort_values("o_orderkey").reset_index(drop=True))


def _events_zscore_value(sf_dir: str) -> pd.DataFrame:
    """Per-event-type z-score standardization of value — stages/
    analytics.py::group_zscore: one partial-sums exchange for the
    per-group constants (rounded to 6 dp so the SQL replay applies
    bit-identical mean/std), then a streaming apply pass."""
    from text_to_rdf_ray.stages.analytics import group_zscore

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    out = group_zscore(ev, key_col="event_type", value_col="value").to_pandas()
    if out.empty or "event_id" not in out.columns:
        return pd.DataFrame({"event_id": pd.Series(dtype="int64"),
                             "event_type": pd.Series(dtype=str),
                             "value": pd.Series(dtype="float64"),
                             "z": pd.Series(dtype="float64")})
    return (out[["event_id", "event_type", "value", "z"]]
            .sort_values("event_id").reset_index(drop=True))


def _docs_dominant_lang(sf_dir: str) -> pd.DataFrame:
    """Dominant language per source domain — stages/analytics.py::
    group_mode: (key, value) counts via exchange_agg, top-1 per key with
    ascending-value tiebreak (integer/string exact, fully SQL-replayable)."""
    from text_to_rdf_ray.stages.analytics import group_mode

    docs = _documents(sf_dir).select_columns(["source", "lang"])
    out = group_mode(docs, key_col="source", value_col="lang").to_pandas()
    if out.empty or "source" not in out.columns:
        return pd.DataFrame({"source": pd.Series(dtype=str),
                             "lang": pd.Series(dtype=str),
                             "n": pd.Series(dtype="int64")})
    out["n"] = out["n"].astype("int64")
    return (out[["source", "lang", "n"]]
            .sort_values("source").reset_index(drop=True))


def _docs_pmi_pairs(sf_dir: str) -> pd.DataFrame:
    """Within-document term-pair PMI (collocation mining) — stages/
    curation.py::pmi_pairs: df reduce + broadcast vocabulary + packed-key
    pair counting with per-batch np.unique combiner, one hash exchange."""
    from text_to_rdf_ray.stages.curation import pmi_pairs

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = pmi_pairs(docs, min_df=5, min_pair=5).to_pandas()
    if out.empty or "term_a" not in out.columns:
        return pd.DataFrame({"term_a": pd.Series(dtype=str),
                             "term_b": pd.Series(dtype=str),
                             "n_ab": pd.Series(dtype="int64"),
                             "pmi": pd.Series(dtype="float64")})
    out["n_ab"] = out["n_ab"].astype("int64")
    return (out[["term_a", "term_b", "n_ab", "pmi"]]
            .sort_values(["term_a", "term_b"]).reset_index(drop=True))


def _graph_components_parts(sf_dir: str) -> pd.DataFrame:
    """Connected components of the strong part co-occurrence graph
    (parts sharing >= 2 orders), via the stationary-partition BSP engine
    (stages/bsp.py::connected_components_bsp — Hash-to-Min pointer
    jumping, O(log diameter) rounds).  component = min part id in the
    component; isolated parts (no qualifying edge) are absent."""
    from text_to_rdf_ray.stages.bsp import connected_components_bsp
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "pk2": t.column("l_partkey")}),
        batch_format="pyarrow")
    pairs = exchange_join(
        li, right, on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("pk2", pa.int64())]))

    def lt(t: pa.Table) -> pa.Table:
        a = t.column("l_partkey").to_numpy(zero_copy_only=False)
        b = t.column("pk2").to_numpy(zero_copy_only=False)
        k = a < b
        return pa.table({"u": pa.array(a[k], pa.int64()),
                         "v": pa.array(b[k], pa.int64())})

    counted = exchange_agg(pairs.map_batches(lt, batch_format="pyarrow"),
                           ["u", "v"], [("u", "count", "c")])

    def strong_sym(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f = t.filter(pc.greater_equal(t.column("c"), pa.scalar(2)))
        u = f.column("u").combine_chunks()
        v = f.column("v").combine_chunks()
        return pa.table({"src": pa.concat_arrays([u, v]),
                         "dst": pa.concat_arrays([v, u])})

    und = counted.map_batches(strong_sym, batch_format="pyarrow")
    labels, _rounds = connected_components_bsp(und, num_parts=8)
    out = labels.to_pandas()
    if out.empty or "name_id" not in out.columns:
        return pd.DataFrame({"l_partkey": pd.Series(dtype="int64"),
                             "component": pd.Series(dtype="int64")})
    out = out.rename(columns={"name_id": "l_partkey"})
    out["l_partkey"] = out["l_partkey"].astype("int64")
    out["component"] = out["component"].astype("int64")
    return (out[["l_partkey", "component"]]
            .sort_values("l_partkey").reset_index(drop=True))


def _kmeans_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distributed Lloyd k-means (k=8, 5 iterations, deterministic
    lowest-id init) over the embeddings table — stages/knn.py::
    kmeans_lloyd.  The oracle reads the final centroids side table and
    replays only the assignment argmin (per-vec squared-L2, ties to the
    lowest cluster id); the iteration loop itself is pure streaming
    passes + O(k*d) driver reduces, not SQL-expressible state."""
    from text_to_rdf_ray.stages.knn import kmeans_lloyd

    emb = _embeddings(sf_dir)
    assign, cent = kmeans_lloyd(emb, id_col="vec_id", emb_col="embedding",
                                k=8, iters=5)
    k, d = cent.shape
    _side_write("kmeans_embeddings", "centroids.parquet", pd.DataFrame({
        "cluster": np.repeat(np.arange(k, dtype=np.int64), d),
        "dim": np.tile(np.arange(d, dtype=np.int64), k),
        "val": cent.ravel(),
    }))
    out = assign.to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["cluster"] = out["cluster"].astype("int64")
    out["dist"] = _r(out["dist"], 6)
    return (out[["vec_id", "cluster", "dist"]]
            .sort_values("vec_id").reset_index(drop=True))


def _graph_triangles_parts(sf_dir: str) -> pd.DataFrame:
    """Exact per-node triangle counts over the part co-occurrence graph
    (parts appearing in the same order are connected).  Edge construction
    is a self exchange_join of lineitem on l_orderkey; counting is
    stages/graph.py::triangle_count — degree orientation + wedge join +
    closing-edge join, every step a plain-task hash exchange."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import triangle_count

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "pk2": t.column("l_partkey")}),
        batch_format="pyarrow")
    pairs = exchange_join(
        li, right, on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("pk2", pa.int64())]))

    def lt(t: pa.Table) -> pa.Table:
        a = t.column("l_partkey").to_numpy(zero_copy_only=False)
        b = t.column("pk2").to_numpy(zero_copy_only=False)
        k = a < b
        return pa.table({"src": pa.array(a[k], pa.int64()),
                         "dst": pa.array(b[k], pa.int64())})

    out = triangle_count(
        pairs.map_batches(lt, batch_format="pyarrow")).to_pandas()
    if out.empty or "node" not in out.columns:
        return pd.DataFrame({"l_partkey": pd.Series(dtype="int64"),
                             "n_tri": pd.Series(dtype="int64")})
    out = out.rename(columns={"node": "l_partkey"})
    out["l_partkey"] = out["l_partkey"].astype("int64")
    out["n_tri"] = out["n_tri"].astype("int64")
    return (out[["l_partkey", "n_tri"]]
            .sort_values("l_partkey").reset_index(drop=True))


def _events_skew_join(sf_dir: str) -> pd.DataFrame:
    """Skew-resilient salted join (stages/joins.py::skew_join): a planted
    viral key (~70% of events share k=0) joined LEFT OUTER to an
    even-keys-only dimension derived from range(0,1000,2).  The count
    pass flags k=0 heavy; its rows spread over ``replicate`` salts while
    the dimension's hot row is replicated once per salt — light keys and
    left-unmatched odd keys take the ordinary single-salt path."""
    from text_to_rdf_ray.stages.joins import skew_join

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id"])

    def keyed(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        k = np.where(eid % 10 < 7, 0, eid % 1000).astype(np.int64)
        return pa.table({"event_id": pa.array(eid, pa.int64()),
                         "k": pa.array(k, pa.int64())})

    dim = pd.DataFrame({"k": np.arange(0, 1000, 2, dtype=np.int64)})
    dim["dimv"] = dim["k"] * 3 + 1
    out = skew_join(
        ev.map_batches(keyed, batch_format="pyarrow"),
        rd.from_pandas(dim).repartition(2),
        on="k", how="left_outer", heavy_threshold=500, replicate=8,
        left_schema=pa.schema([("event_id", pa.int64()),
                               ("k", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("dimv", pa.int64())]),
    ).to_pandas()
    out["dimv"] = out["dimv"].fillna(-1).astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["k"] = out["k"].astype("int64")
    return (out[["event_id", "k", "dimv"]]
            .sort_values("event_id").reset_index(drop=True))


def _docs_token_budget_mix(sf_dir: str) -> pd.DataFrame:
    """Exact per-source token-budget mixture (stages/curation.py::
    token_budget_mix over analytics.grouped_prefix_sum): keep each
    source's docs in splitmix64(doc_id) order while the source's
    cumulative chars stay under 4000 — the mixture-recipe-as-token-counts
    op; the oracle replays the hash chain + SUM OVER window."""
    from text_to_rdf_ray.stages.curation import token_budget_mix

    docs = _documents(sf_dir).select_columns(["doc_id", "source", "n_chars"])
    out = token_budget_mix(docs, id_col="doc_id", source_col="source",
                           weight_col="n_chars", budget=4000).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    out["tokens_before"] = out["tokens_before"].astype("int64")
    return (out[["doc_id", "source", "n_chars", "tokens_before"]]
            .sort_values("doc_id").reset_index(drop=True))


def _revenue_by_nation_year(sf_dir: str) -> pd.DataFrame:
    """Three-table star-join pipeline (TPC-H Q5 shape) as ONE fused lazy
    plan: lineitem ⋈ orders ⋈ customer via two chained exchange_joins
    (static schemas — no schema-probe executions, no JoinOperator actor
    pools), the tiny nation dimension attached map-side
    (joins.py::broadcast_join), and the final grouped revenue via
    exchange_agg.  BUILDING segment only, revenue rounded per item."""
    from text_to_rdf_ray.stages.exchange import (exchange_agg, exchange_join,
                                                 join_out_schema)
    from text_to_rdf_ray.stages.joins import broadcast_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(batch: pa.Table) -> pa.Table:
        p = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        d = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "rev": pa.array(np.round(p * (1.0 - d), 2), pa.float64()),
        })

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def okey(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").cast(pa.timestamp("us"))
        yr = pc.year(ts)
        return pa.table({"l_orderkey": batch.column("o_orderkey"),
                         "o_custkey": batch.column("o_custkey"),
                         "o_year": yr.cast(pa.int64())})

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey", "c_mktsegment"])

    def ckey(batch: pa.Table) -> pa.Table:
        seg = batch.column("c_mktsegment")
        keep = pc.equal(seg, pa.scalar("BUILDING"))
        b = batch.filter(keep)
        return pa.table({"o_custkey": b.column("c_custkey"),
                         "c_nationkey": b.column("c_nationkey")})

    li_s = pa.schema([("l_orderkey", pa.int64()), ("rev", pa.float64())])
    or_s = pa.schema([("l_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                      ("o_year", pa.int64())])
    cu_s = pa.schema([("o_custkey", pa.int64()),
                      ("c_nationkey", pa.int64())])
    j1 = exchange_join(li.map_batches(rev, batch_format="pyarrow"),
                       orders.map_batches(okey, batch_format="pyarrow"),
                       on="l_orderkey", left_schema=li_s, right_schema=or_s)
    j1_s = join_out_schema(li_s, or_s, ["l_orderkey"])
    j2 = exchange_join(j1, cust.map_batches(ckey, batch_format="pyarrow"),
                       on="o_custkey", left_schema=j1_s, right_schema=cu_s)

    nation = pd.read_parquet(os.path.join(sf_dir, "nation.parquet"),
                             columns=["n_nationkey", "n_name"]).rename(
        columns={"n_nationkey": "c_nationkey"})
    j3 = broadcast_join(j2, nation, on="c_nationkey")
    agg = exchange_agg(j3, ["n_name", "o_year"],
                       [("rev", "sum", "revenue"),
                        ("rev", "count", "n_items")])
    out = agg.to_pandas()
    out["revenue"] = _r(out["revenue"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    out["o_year"] = out["o_year"].astype("int64")
    return (out[["n_name", "o_year", "revenue", "n_items"]]
            .sort_values(["n_name", "o_year"]).reset_index(drop=True))


def _docs_url_dedup(sf_dir: str) -> pd.DataFrame:
    """Canonical-URL dedup (stages/curation.py::url_dedup — the first
    dedup pass of every web crawl): URLs planted deterministically with
    the messiness the canonicalizer must erase (upper-case scheme/host,
    www., trailing slash, utm_ params), dumped as an oracle side table;
    the SQL replays component surgery, param filter/sort, and the
    min-id winner window."""
    from text_to_rdf_ray.stages.curation import url_dedup

    docs = _documents(sf_dir).select_columns(["doc_id", "source"])

    def planted(batch: pd.DataFrame) -> pd.DataFrame:
        i = batch["doc_id"].to_numpy()
        src = batch["source"].astype(str)
        scheme = pd.Series(
            np.where(i % 3 == 0, "HTTP", "https"), index=batch.index)
        host = pd.Series(
            np.where(i % 2 == 0,
                     "WWW." + src.str.capitalize() + ".Example.COM",
                     src + ".example.com"), index=batch.index)
        path = ("/page/" + pd.Series(i % 40, index=batch.index).astype(str)
                + pd.Series(np.where(i % 4 == 0, "/", ""),
                            index=batch.index))
        ref = pd.Series(i % 5, index=batch.index).astype(str)
        query = pd.Series(
            np.where(i % 2 == 0, "?utm_source=rss&ref=" + ref,
                     "?ref=" + ref), index=batch.index)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "url": scheme + "://" + host + path + query,
        })

    planted_ds = docs.map_batches(planted, batch_format="pandas")
    _side_write("docs_url_dedup", "input.parquet", planted_ds.to_pandas())
    out = url_dedup(planted_ds, id_col="doc_id", url_col="url").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out[["doc_id", "url", "canon_url", "is_kept"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_pii_redact(sf_dir: str) -> pd.DataFrame:
    """PII redaction (stages/curation.py::redact_pii — the Dolma/CCNet
    compliance pass): emails/IPv4s/phones planted deterministically by
    doc_id residue, the planted input dumped as an oracle side table,
    and DuckDB replays the SAME RE2-compatible patterns as chained
    regexp_replace + regexp_extract_all counts in the same order."""
    from text_to_rdf_ray.stages.curation import redact_pii

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        i = batch["doc_id"].to_numpy()
        pre = pd.Series([""] * len(batch), index=batch.index)
        em = ("contact user" + pd.Series(i, index=batch.index).astype(str)
              + "@mail" + pd.Series(i % 7, index=batch.index).astype(str)
              + ".example.org ")
        ip = ("from 10." + pd.Series(i % 256, index=batch.index).astype(str)
              + "." + pd.Series((i * 7) % 256, index=batch.index).astype(str)
              + "." + pd.Series(i % 200, index=batch.index).astype(str) + " ")
        ph = ("call +1 415-555-"
              + pd.Series(i % 10000, index=batch.index).astype(str)
              .str.zfill(4) + " ")
        pre = pre.where(i % 3 != 0, pre + em)
        pre = pre.where(i % 4 != 0, pre + ip)
        pre = pre.where(i % 5 != 0, pre + ph)
        return pd.DataFrame({"doc_id": batch["doc_id"].astype("int64"),
                             "text": pre + batch["text"].astype(str)})

    planted_ds = docs.map_batches(plant, batch_format="pandas")
    _side_write("docs_pii_redact", "input.parquet", planted_ds.to_pandas())
    out = redact_pii(planted_ds).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["red_prefix"] = out["text_redacted"].str[:100]
    return (out[["doc_id", "n_email", "n_ipv4", "n_phone", "has_pii",
                 "red_prefix"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_phrase_search(sf_dir: str) -> pd.DataFrame:
    """Exact phrase query (stages/retrieval.py::phrase_search): every
    occurrence of the consecutive tokens "table value" — positional
    candidates via the slot-count trick, ONE exchange, zero joins.  SQL
    replays slots as per-position UNION ALL branches + HAVING count =
    k."""
    from text_to_rdf_ray.stages.retrieval import phrase_search

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = phrase_search(docs, ["table", "value"]).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["start_pos"] = out["start_pos"].astype("int64")
    return (out[["doc_id", "start_pos"]]
            .sort_values(["doc_id", "start_pos"]).reset_index(drop=True))


def _embeddings_cov_moments(sf_dir: str) -> pd.DataFrame:
    """Distributed covariance/PCA moment pass (stages/knn.py::
    embedding_moments): n, per-dim sums and upper-triangle Σx_i·x_j as
    rows — one BLAS matmul per batch, d² shuffle rows per batch.  The
    eigendecomposition consumer (embedding_pca) is numpy-vs-numpy
    pytest-verified; this query oracles the distributed part, with the
    SQL recomputing every moment from unnested embeddings."""
    from text_to_rdf_ray.stages.knn import embedding_moments

    out = embedding_moments(_embeddings(sf_dir)).to_pandas()
    out["i"] = out["i"].astype("int64")
    out["j"] = out["j"].astype("int64")
    out["s"] = _r(out["s"], 6)
    return (out[["i", "j", "s"]]
            .sort_values(["i", "j"]).reset_index(drop=True))


def _embeddings_pca_scores(sf_dir: str) -> pd.DataFrame:
    """Power-iteration PC1 projection (stages/knn.py::
    pca_power_scores, 12 iterations): mean/cov quantized 9dp from the
    distributed moment pass, every iterate re-quantized 9dp, scores
    6dp — the unrolled SQL replays the identical vector."""
    from text_to_rdf_ray.stages.knn import pca_power_scores

    out = pca_power_scores(_embeddings(sf_dir), iterations=12).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    return (out[["vec_id", "pc1"]]
            .sort_values("vec_id").reset_index(drop=True))


def _events_logreg(sf_dir: str) -> pd.DataFrame:
    """Distributed full-batch GD logistic regression (stages/
    analytics.py::logreg_train): 3 iterations, one partial-gradient row
    per batch per pass, O(d) iteration state.  Oracle: unrolled
    iterations with the same float shapes."""
    from text_to_rdf_ray.stages.analytics import logreg_train

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"])

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["value"])
        return pd.DataFrame({
            "x1": b["value"].to_numpy(np.float64) / 100.0,
            "x2": b["ts"].dt.hour.to_numpy(np.float64) / 10.0,
            "y": (b["event_type"] == "purchase").to_numpy(np.float64)})

    out = logreg_train(ev.map_batches(feats, batch_format="pandas"),
                       ["x1", "x2"], "y", iterations=3, lr=0.5)
    for c in ("w_0", "w_1", "w_2"):
        out[c] = _r(out[c], 6)
    out["n"] = out["n"].astype("int64")
    return out[["w_0", "w_1", "w_2", "n"]].reset_index(drop=True)


def _events_decayed_sum(sf_dir: str) -> pd.DataFrame:
    """Per-user exponentially time-decayed value sum as of 2024-02-01
    (stages/windows.py::decayed_sum) — order-free weighted fold, one
    exchange.  Oracle replays the decay expression per event."""
    from text_to_rdf_ray.stages.windows import decayed_sum

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    as_of = pd.Timestamp("2024-02-01").value // 1000  # µs
    out = decayed_sum(ev, key_col="user_id", ts_col="ts",
                      value_col="value", as_of_us=as_of,
                      half_life_s=86400.0).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["decayed_sum"] = _r(out["decayed_sum"], 6)
    return (out[["user_id", "decayed_sum"]]
            .sort_values("user_id").reset_index(drop=True))


def _events_schema_evolution(sf_dir: str) -> pd.DataFrame:
    """Schema-evolution read (stages/lakehouse.py::read_evolved): two
    writer generations of the events table — v1 lacks props/schema_ver,
    v2 adds schema_ver — unioned with typed-null padding and normalized
    column order.  Oracle: DuckDB's independent
    read_parquet(union_by_name=true)."""
    from text_to_rdf_ray.stages.lakehouse import read_evolved

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"))         .to_pandas()
    v1 = ev[ev["event_id"] % 2 == 0][
        ["event_id", "event_type", "value"]].reset_index(drop=True)
    v2 = ev[ev["event_id"] % 2 == 1][
        ["event_id", "event_type", "value", "props"]].copy()
    v2["schema_ver"] = np.int64(2)
    p1 = _side_write("events_schema_evolution", "v1.parquet", v1)
    p2 = _side_write("events_schema_evolution", "v2.parquet",
                     v2.reset_index(drop=True))
    out = read_evolved([p1, p2]).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    return (out[["event_id", "event_type", "value", "props",
                 "schema_ver"]]
            .sort_values("event_id").reset_index(drop=True))


def _orders_planned_join(sf_dir: str) -> pd.DataFrame:
    """Cost-based join (stages/joins.py::planned_join): HLL sketches
    pick broadcast for the small customer side before any row moves —
    plan invisible to the oracle (plain JOIN), decision observable via
    plannedjoin_* counters."""
    from text_to_rdf_ray.stages.joins import planned_join

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_name"])
    orders = orders.map_batches(
        lambda b: pd.DataFrame({"custkey": b["o_custkey"],
                                "o_orderkey": b["o_orderkey"]}),
        batch_format="pandas")
    cust = cust.map_batches(
        lambda b: pd.DataFrame({"custkey": b["c_custkey"],
                                "c_name": b["c_name"]}),
        batch_format="pandas")
    out = planned_join(orders, cust, on="custkey").to_pandas()
    for c in ("custkey", "o_orderkey"):
        out[c] = out[c].astype("int64")
    return (out[["o_orderkey", "custkey", "c_name"]]
            .sort_values(["o_orderkey"]).reset_index(drop=True))


def _events_melt_pivot(sf_dir: str) -> pd.DataFrame:
    """Round-trip reshaping: the hour×type pivot melted back to long
    form (stages/analytics.py::melt) must equal the direct GROUP BY —
    melt(pivot(x)) == groupby(x), the algebraic identity the oracle
    checks."""
    from text_to_rdf_ray.stages.analytics import melt

    piv = _events_type_hour_pivot(sf_dir)
    vcols = [c for c in piv.columns if c != "hour"]
    long = melt(rd.from_pandas(piv), id_cols=["hour"],
                value_cols=vcols, var_name="event_type",
                value_name="v").to_pandas()
    long["hour"] = long["hour"].astype("int64")
    long["event_type"] = long["event_type"].str.replace(
        "event_type_", "", n=1, regex=False)
    long["v"] = _r(long["v"], 6)
    return (long[["hour", "event_type", "v"]]
            .sort_values(["hour", "event_type"]).reset_index(drop=True))


def _events_scaled_value(sf_dir: str) -> pd.DataFrame:
    """Per-type min-max feature scaling (stages/analytics.py::
    minmax_scale): O(groups) fence exchange + broadcast pure map.
    Oracle: window min/max replay."""
    from text_to_rdf_ray.stages.analytics import minmax_scale

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    out = minmax_scale(ev, key_col="event_type",
                       value_col="value").to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["scaled"] = _r(out["scaled"], 6)
    return (out[["event_id", "event_type", "scaled"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_target_encoding(sf_dir: str) -> pd.DataFrame:
    """Leave-one-out target encoding (stages/analytics.py::
    target_encode_loo) of event_type against value — the leakage-safe
    categorical encoder.  Oracle: window sum/count replay."""
    from text_to_rdf_ray.stages.analytics import target_encode_loo

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    out = target_encode_loo(ev, key_col="event_type",
                            target_col="value").to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["te"] = _r(out["te"], 6)
    return (out[["event_id", "event_type", "te"]]
            .sort_values("event_id").reset_index(drop=True))


def _revenue_by_nation_ivm(sf_dir: str) -> pd.DataFrame:
    """Incremental view maintenance (stages/analytics.py::
    merge_agg_states): the revenue-by-nation view maintained as a BASE
    state (orders % 7 != 0) merged with a DELTA state (% 7 == 0) —
    merge touches only O(nations) state rows, never the base facts.
    Oracle: full recompute over base+delta (merge == rebuild)."""
    from text_to_rdf_ray.stages.analytics import merge_agg_states
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_nationkey"])

    def rev(b: pd.DataFrame) -> pd.DataFrame:
        r = (b["l_extendedprice"] * (1 - b["l_discount"])).round(2)
        return pd.DataFrame({"okey": b["l_orderkey"], "rev": r})

    def state_for(keep_zero: bool) -> "rd.Dataset":
        def sel(b: pd.DataFrame) -> pd.DataFrame:
            m = (b["o_orderkey"] % 7 == 0) if keep_zero else                 (b["o_orderkey"] % 7 != 0)
            return pd.DataFrame({
                "okey": b.loc[m, "o_orderkey"],
                "custkey": b.loc[m, "o_custkey"]})

        j1 = exchange_join(
            li.map_batches(rev, batch_format="pandas"),
            orders.map_batches(sel, batch_format="pandas"),
            on="okey", num_partitions=16,
            left_schema=pa.schema([("okey", pa.int64()),
                                   ("rev", pa.float64())]),
            right_schema=pa.schema([("okey", pa.int64()),
                                    ("custkey", pa.int64())]))
        j2 = exchange_join(
            j1.map_batches(lambda b: pd.DataFrame(
                {"custkey": b["custkey"], "rev": b["rev"]}),
                batch_format="pandas"),
            cust.map_batches(lambda b: pd.DataFrame(
                {"custkey": b["c_custkey"],
                 "nation": b["c_nationkey"]}), batch_format="pandas"),
            on="custkey", num_partitions=16,
            left_schema=pa.schema([("custkey", pa.int64()),
                                   ("rev", pa.float64())]),
            right_schema=pa.schema([("custkey", pa.int64()),
                                    ("nation", pa.int64())]))
        return exchange_agg(
            j2.map_batches(lambda b: pd.DataFrame(
                {"nation": b["nation"], "rev": b["rev"],
                 "n": np.ones(len(b), np.int64)}),
                batch_format="pandas"),
            "nation", [("rev", "sum", "rev"), ("n", "sum", "n")],
            num_partitions=8)

    base = state_for(False).materialize()
    delta = state_for(True).materialize()
    merged = merge_agg_states([base, delta], "nation",
                              [("rev", "sum"), ("n", "count")],
                              num_partitions=8).to_pandas()
    merged["nation"] = merged["nation"].astype("int64")
    merged["n"] = merged["n"].astype("int64")
    merged["rev"] = _r(merged["rev"], 2)
    return (merged[["nation", "rev", "n"]]
            .sort_values("nation").reset_index(drop=True))


def _events_ab_ttest(sf_dir: str) -> pd.DataFrame:
    """Welch's two-sample t-test (stages/analytics.py::welch_ttest) on
    event value, arms = user_id parity — one moment-partial row per
    batch, six-number driver algebra.  Oracle replays the identical
    moment expressions."""
    from text_to_rdf_ray.stages.analytics import welch_ttest

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "value"])
    ev = ev.map_batches(
        lambda b: pd.DataFrame({"arm": (b["user_id"] % 2).astype("int64"),
                                "value": b["value"]}),
        batch_format="pandas")
    out = welch_ttest(ev, group_col="arm", value_col="value",
                      group_a=0, group_b=1)
    for c in ("mean_a", "mean_b", "var_a", "var_b", "t_stat", "df"):
        out[c] = _r(out[c], 6)
    for c in ("n_a", "n_b"):
        out[c] = out[c].astype("int64")
    return out[["n_a", "n_b", "mean_a", "mean_b", "var_a", "var_b",
                "t_stat", "df"]].reset_index(drop=True)


def _events_corr_matrix(sf_dir: str) -> pd.DataFrame:
    """One-pass Pearson correlation matrix (stages/analytics.py::
    corr_matrix) over (value, hour-of-day, ISO day-of-week) — one
    partial-moment row per batch through a single-key exchange, O(1)
    shuffle volume.  Small-magnitude derived columns by design: the
    moment formula loses mean²/var digits on offset-heavy columns
    (docstring note).  SQL replays the same raw moments + algebra."""
    from text_to_rdf_ray.stages.analytics import corr_matrix

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "value"])

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "value": b["value"].astype(float),
            "hod": b["ts"].dt.hour.astype(float),
            "dow": (b["ts"].dt.dayofweek + 1).astype(float)})

    out = corr_matrix(ev.map_batches(derive, batch_format="pandas"),
                      ["value", "hod", "dow"]).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["corr"] = _r(out["corr"], 6)
    return (out[["col_a", "col_b", "n", "corr"]]
            .sort_values(["col_a", "col_b"]).reset_index(drop=True))


def _graph_khop_reach(sf_dir: str) -> pd.DataFrame:
    """BFS reachability (stages/analytics.py::khop_reach): every node
    within 2 hops of every-5th supplier over the undirected supplier↔
    customer graph, labelled with first-reach level — iterative
    frontier ⋈ edges + EXCEPT-visited, edge table exchanged once.
    Oracle: bounded recursive CTE + min(level)."""
    from text_to_rdf_ray.stages.analytics import khop_reach
    from text_to_rdf_ray.stages.exchange import exchange_join

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        s = b["supp"].astype("int64")
        c = b["cust"].astype("int64") + 1_000_000
        return pd.DataFrame({"src": pd.concat([s, c], ignore_index=True),
                             "dst": pd.concat([c, s], ignore_index=True)})

    edges = joined.map_batches(both_dirs, batch_format="pandas")
    seeds = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey"]).map_batches(
        lambda b: pd.DataFrame(
            {"node": b.loc[b["s_suppkey"] % 5 == 0,
                           "s_suppkey"].astype("int64")}),
        batch_format="pandas")
    out = khop_reach(edges, seeds, k=2).to_pandas()
    out["node"] = out["node"].astype("int64")
    out["level"] = out["level"].astype("int64")
    return (out[["node", "level"]]
            .sort_values("node").reset_index(drop=True))


def _events_compact_scan(sf_dir: str) -> pd.DataFrame:
    """Small-file compaction (stages/lakehouse.py::compact_files — the
    OPTIMIZE half clustered_write leaves open): 24 clustered files merge
    into adjacent-range groups (one distributed task each), the manifest
    swaps atomically, and the pruned range scan still answers exactly —
    oracle is the plain filter, layout invisible."""
    import shutil

    from text_to_rdf_ray.stages.lakehouse import (clustered_write,
                                                  compact_files,
                                                  pruned_read)

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "value"])
    path = os.path.join(_SIDE, "events_compact_scan", "tab")
    shutil.rmtree(path, ignore_errors=True)
    clustered_write(ev, path, key_col="value", num_files=24)
    compact_files(path, key_col="value", target_rows=2500)
    out = pruned_read(path, key_col="value", lo=50.0, hi=120.0).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "value"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_zorder_scan(sf_dir: str) -> pd.DataFrame:
    """Z-order clustered scan (stages/lakehouse.py::zorder_write /
    zorder_read — the OPTIMIZE ZORDER feature): events Morton-clustered
    on (user_id, value), then a BOTH-dimension range predicate served
    by per-column zone maps (the unit test asserts pruning fires on
    either dimension alone).  Oracle: plain SQL range filter — the
    layout must be invisible."""
    import shutil

    from text_to_rdf_ray.stages.lakehouse import zorder_read, zorder_write

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "value"])
    path = os.path.join(_SIDE, "events_zorder_scan", "ztab")
    shutil.rmtree(path, ignore_errors=True)
    zorder_write(ev, path, cols=["user_id", "value"], num_files=16)
    # predicate chosen non-empty at every sf (Ray drops the schema of a
    # fully-empty Dataset at to_pandas — the typed-empty path is covered
    # by the unit test instead)
    out = zorder_read(path, preds={"user_id": (3.0, 9.0),
                                   "value": (10.0, 60.0)}).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "user_id", "value"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_table_checksum(sf_dir: str) -> pd.DataFrame:
    """Order-independent table checksum (stages/analytics.py::
    table_checksum): Σ splitmix64(splitmix64(event_id) + user_id) mod
    2⁶⁴ in 16-bit lanes — the anti-entropy audit primitive.  The SQL
    replays both hash chains (namespaced _sm64_sql) and the lane
    recombination exactly."""
    from text_to_rdf_ray.stages.analytics import table_checksum

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id"])
    out = table_checksum(ev, id_col="event_id",
                         mix_col="user_id").to_pandas()
    out["n_rows"] = out["n_rows"].astype("int64")
    return out[["n_rows", "checksum"]].reset_index(drop=True)


def _events_iqr_outliers(sf_dir: str) -> pd.DataFrame:
    """Tukey-fence anomaly gate (stages/analytics.py::iqr_outliers):
    per-event-type Q1/Q3 via the exact-quantile histogram machinery,
    fences broadcast, vectorized flagging; summarized per type.
    Oracle: quantile_cont fences + count_if with the same op order."""
    from text_to_rdf_ray.stages.analytics import iqr_outliers
    from text_to_rdf_ray.stages.exchange import exchange_agg

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    flagged = iqr_outliers(ev, key_col="event_type", value_col="value")

    def to_counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "n_rows": np.ones(len(b), dtype=np.int64),
            "n_outliers": b["is_outlier"].to_numpy().astype(np.int64)})

    out = exchange_agg(
        flagged.map_batches(to_counts, batch_format="pandas"),
        "event_type", [("n_rows", "sum", "n_rows"),
                       ("n_outliers", "sum", "n_outliers")]).to_pandas()
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_outliers"] = out["n_outliers"].astype("int64")
    return (out[["event_type", "n_rows", "n_outliers"]]
            .sort_values("event_type").reset_index(drop=True))


def _events_transition_matrix(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transitions (stages/windows.py::
    transition_matrix): per-user consecutive event-type pairs ordered by
    (ts, event_id), row-normalized probabilities.  Oracle: lag window +
    count / windowed sum."""
    from text_to_rdf_ray.stages.windows import transition_matrix

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_type",
                                  "event_id"])
    out = transition_matrix(ev).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["prob"] = _r(out["prob"], 6)
    return (out[["state_from", "state_to", "n", "prob"]]
            .sort_values(["state_from", "state_to"])
            .reset_index(drop=True))


def _events_ewma(sf_dir: str) -> pd.DataFrame:
    """Per-user EWMA (stages/windows.py::ewma, α=0.3): the streaming
    smoother evaluated as the literal recurrence y_t = α·x_t +
    (1-α)·y_{t-1} — one rounded multiply-pair + add per element, so the
    recursive-CTE oracle reproduces every float bit (rounding to 6dp is
    belt-and-braces, not a tolerance)."""
    from text_to_rdf_ray.stages.windows import ewma

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value", "event_id"])
    out = ewma(ev, alpha=0.3).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["ewma"] = _r(out["ewma"], 6)
    return (out[["user_id", "event_id", "ewma"]]
            .sort_values(["user_id", "event_id"]).reset_index(drop=True))


def _docs_quality_classifier(sf_dir: str) -> pd.DataFrame:
    """Hashed linear quality classifier (stages/curation.py::
    hashed_classifier_score): hashing-trick buckets + splitmix64-derived
    integer weights, exact order-independent int64 accumulation, sigmoid
    score.  The distinct-token → FNV-base-hash vocab is the side table
    (the string hash is the single golden step, as in doc_fingerprints);
    bucketing, weight derivation, sums and sigmoid are all replayed in
    SQL."""
    from text_to_rdf_ray.kernels.minhash import _hash_shingles
    from text_to_rdf_ray.stages.exchange import exchange_agg
    from text_to_rdf_ray.stages.curation import (_CLF_TOKEN_RE,
                                                 hashed_classifier_score)

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])

    def tok(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"token": [
            t for txt in b["text"]
            for t in _CLF_TOKEN_RE.findall((txt or "").lower())]})

    vocab = (exchange_agg(docs.map_batches(tok, batch_format="pandas"),
                          ["token"])
             .to_pandas().sort_values("token").reset_index(drop=True))
    vocab["h_base"] = _hash_shingles(vocab["token"].tolist()).astype(np.uint64)
    _side_write("docs_quality_classifier", "vocab.parquet", vocab)

    out = hashed_classifier_score(docs, dim=512, seed=1234).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["clf_score"] = _r(out["clf_score"], 6)
    return (out[["doc_id", "clf_n_tokens", "clf_raw", "clf_score",
                 "clf_keep"]]
            .sort_values("doc_id").reset_index(drop=True))


def _events_resample_fill(sf_dir: str) -> pd.DataFrame:
    """Time-series densification (stages/windows.py::resample_fill):
    per-user hourly value sums with ZERO-filled rows for every silent
    hour between a user's first and last event — combiner, one key-hash
    exchange, vectorized np.repeat/arange span fill.  Oracle replays
    with generate_series over each user's [min, max] hour."""
    from text_to_rdf_ray.stages.windows import resample_fill

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    out = resample_fill(ev).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["window_id"] = out["window_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["sum_value"] = _r(out["sum_value"], 6)
    return (out[["user_id", "window_id", "n", "sum_value"]]
            .sort_values(["user_id", "window_id"]).reset_index(drop=True))


def _orders_dq_check(sf_dir: str) -> pd.DataFrame:
    """Data-quality gate (stages/analytics.py::dq_check): four dbt-style
    rules over orders with violations PLANTED deterministically from
    o_orderkey residues (dup keys, dangling fks, nulled dates) so every
    rule actually fires; the SQL replays the same mutation CTE and
    counts per rule."""
    from text_to_rdf_ray.stages.analytics import dq_check

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        ok = b["o_orderkey"].to_numpy()
        return pd.DataFrame({
            "o_orderkey": np.where(ok % 103 == 0, ok - 1, ok),
            "o_custkey": np.where(ok % 97 == 0,
                                  b["o_custkey"].to_numpy() + 9_999_999,
                                  b["o_custkey"].to_numpy()),
            "o_totalprice": b["o_totalprice"].to_numpy(),
            "o_orderdate": b["o_orderdate"].where(
                pd.Series(ok % 101 != 0, index=b.index)),
        })

    out = dq_check(
        orders.map_batches(plant, batch_format="pandas"),
        [("date_not_null", "not_null", "o_orderdate"),
         ("fk_custkey", "fk", "o_custkey", cust, "c_custkey"),
         ("orderkey_unique", "unique", "o_orderkey"),
         ("price_range", "range", "o_totalprice", 1000.0, 300000.0)],
    ).to_pandas()
    return (out[["rule", "n_checked", "n_violations"]]
            .sort_values("rule").reset_index(drop=True))


def _events_profile(sf_dir: str) -> pd.DataFrame:
    """Column profiler (stages/analytics.py::profile_table): per-column
    row/null/EXACT-distinct counts + numeric min/max/sum + string
    min/max over four events columns — the ingest-time table audit.
    Stats pass ships one partial row per (column, batch); distinct pass
    ships per-batch-distinct (column, value) pairs only."""
    from text_to_rdf_ray.stages.analytics import profile_table

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "value", "event_type"])
    out = profile_table(
        ev, columns=["event_id", "user_id", "value", "event_type"])
    out["sum_num"] = _r(out["sum_num"], 2)
    return out.reset_index(drop=True)


def _events_user_types(sf_dir: str) -> pd.DataFrame:
    """Distributed array_agg (stages/analytics.py::group_collect): per
    user, the sorted distinct event types joined by ',' plus their
    count — one hash exchange, one vectorized grouped join per
    partition (never one Python call per key)."""
    from text_to_rdf_ray.stages.analytics import group_collect

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])
    out = group_collect(ev, key_col="user_id", value_col="event_type",
                        distinct=True, sep=",").to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n_values"] = out["n_values"].astype("int64")
    return (out[["user_id", "n_values", "values"]]
            .sort_values("user_id").reset_index(drop=True))


def _graph_degree_hist(sf_dir: str) -> pd.DataFrame:
    """Out-degree distribution of the supplier→customer graph: distinct
    edges via exchange_join + exchange_agg, per-src degree and the
    degree histogram via two chained exchange_aggs (no per-key Python
    anywhere; the histogram is |distinct degrees| rows)."""
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])

    def lkey(batch: pa.Table) -> pa.Table:
        return pa.table({"okey": batch.column("l_orderkey"),
                         "supp": batch.column("l_suppkey")})

    def okey(batch: pa.Table) -> pa.Table:
        return pa.table({"okey": batch.column("o_orderkey"),
                         "cust": batch.column("o_custkey")})

    joined = exchange_join(
        li.map_batches(lkey, batch_format="pyarrow"),
        orders.map_batches(okey, batch_format="pyarrow"),
        on="okey",
        left_schema=pa.schema([("okey", pa.int64()), ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()), ("cust", pa.int64())]),
    )

    def to_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["supp", "cust"]].drop_duplicates()

    edges = exchange_agg(
        joined.map_batches(to_edges, batch_format="pandas",
                           batch_size=65536),
        ["supp", "cust"])
    deg = exchange_agg(edges, "supp", [("cust", "count", "degree")])
    hist = exchange_agg(deg, "degree", [("supp", "count", "n_nodes")])
    out = hist.to_pandas()
    out["degree"] = out["degree"].astype("int64")
    out["n_nodes"] = out["n_nodes"].astype("int64")
    return (out[["degree", "n_nodes"]]
            .sort_values("degree").reset_index(drop=True))


def _docs_rag_chunks(sf_dir: str) -> pd.DataFrame:
    """Sliding-window passage extraction (stages/curation.py::rag_chunks):
    40-word windows at stride 30 over whitespace words; emits offsets +
    boundary words per chunk (text never re-shipped).  Oracle replays
    the window arithmetic with generate_series over the split word
    list."""
    from text_to_rdf_ray.stages.curation import rag_chunks

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    out = rag_chunks(docs, id_col="doc_id", text_col="text",
                     window=40, stride=30).to_pandas()
    return (out[["doc_id", "chunk_idx", "start_word", "n_words",
                 "first_word", "last_word"]]
            .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True))


def _events_clustered_scan(sf_dir: str) -> pd.DataFrame:
    """Zone-map data skipping (stages/lakehouse.py): range-cluster events
    by value into 16 Parquet files with a per-file min/max manifest, then
    a pruned read of value ∈ [10, 20] that opens ONLY the overlapping
    files (prunedscan_files_read / _total counters; the skip itself is
    asserted in tests/test_joins_analytics.py)."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, pruned_read

    path = os.path.join(_TMP, "lakehouse", "events_by_value")
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    clustered_write(ev, path, key_col="value", num_files=16)
    out = pruned_read(path, key_col="value", lo=10.0, hi=20.0).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "value"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_point_lookup(sf_dir: str) -> pd.DataFrame:
    """Bloom-filter point lookup (stages/lakehouse.py::point_lookup):
    events clustered by value (so event_id is scattered randomly across
    files) with per-file Blooms over event_id; looking up four ids opens
    only the Bloom-hit files (~1 true file per id + fp).  The pruning is
    asserted in tests; the result set must equal a plain IN filter."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, point_lookup

    path = os.path.join(_TMP, "lakehouse", "events_bloom")
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "value"])
    clustered_write(ev, path, key_col="value", num_files=16,
                    bloom_col="event_id")
    ids = [1, 250, 999, 4242]
    out = point_lookup(path, col="event_id", values=ids).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "user_id", "value"]]
            .sort_values("event_id").reset_index(drop=True))


def _kg_cooccur_edges(sf_dir: str) -> pd.DataFrame:
    """KG graph materialization: entity co-occurrence edges — subjects
    sharing a page, weighted by distinct co-occurring pages (the edge
    table entity-embedding trainers consume).  Distinct (url, subj_slug)
    via exchange_agg, one self exchange_join on url, pair filter a < b,
    exchange_agg count.  The canonical per-page entity table is dumped
    as a side table; the SQL replays distinct → self-join → count."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    pages = read_pages(_fixture_pages_dir(1000))
    triples = build_triples(pages, kb_records=kb_records())
    ents = triples.map_batches(
        lambda t: pa.table({"url": t.column("url"),
                            "subj_slug": t.column("subj_slug")}),
        batch_format="pyarrow")
    _side_write("kg_cooccur_edges", "page_entities.parquet",
                ents.to_pandas().sort_values(["url", "subj_slug"]))
    d = exchange_agg(ents, ["url", "subj_slug"]).materialize()
    s = pa.schema([("url", pa.string()), ("subj_slug", pa.string())])
    pairs = exchange_join(
        d, d.map_batches(
            lambda t: pa.table({"url": t.column("url"),
                                "slug_b": t.column("subj_slug")}),
            batch_format="pyarrow"),
        on="url", left_schema=s,
        right_schema=pa.schema([("url", pa.string()),
                                ("slug_b", pa.string())]))

    def lt(t: pa.Table) -> pa.Table:
        keep = pc.less(t.column("subj_slug"), t.column("slug_b"))
        f = t.filter(keep)
        return pa.table({"src": f.column("subj_slug"),
                         "dst": f.column("slug_b")})

    out = exchange_agg(
        pairs.map_batches(lt, batch_format="pyarrow"),
        ["src", "dst"], [("dst", "count", "weight")]).to_pandas()
    out["weight"] = out["weight"].astype("int64")
    return (out[["src", "dst", "weight"]]
            .sort_values(["src", "dst"]).reset_index(drop=True))


def _kg_provenance(sf_dir: str) -> pd.DataFrame:
    """Triple provenance (KG product feature): per canonical (subj_slug,
    pred, obj), the sorted distinct source pages joined by '|' plus
    their count — composite-key group_collect over the pre-dedup linked
    triples (dumped as the side table; SQL replays distinct →
    string_agg)."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.analytics import group_collect

    pages = read_pages(_fixture_pages_dir(1000))
    linked = build_triples(pages, kb_records=kb_records(), dedup=False)
    t = linked.map_batches(
        lambda b: pa.table({"subj_slug": b.column("subj_slug"),
                            "pred": b.column("pred"),
                            "obj": b.column("obj"),
                            "url": b.column("url")}),
        batch_format="pyarrow").materialize()
    _side_write("kg_provenance", "linked.parquet",
                t.to_pandas().sort_values(
                    ["subj_slug", "pred", "obj", "url"]))
    out = group_collect(t, key_col=["subj_slug", "pred", "obj"],
                        value_col="url", sep="|").to_pandas()
    out["n_values"] = out["n_values"].astype("int64")
    return (out[["subj_slug", "pred", "obj", "n_values", "values"]]
            .sort_values(["subj_slug", "pred", "obj"])
            .reset_index(drop=True))


def _docs_cluster_prf(sf_dir: str) -> pd.DataFrame:
    """Clustering-quality evaluation (stages/kgops.py::clustering_prf):
    pairwise P/R/F1 of the MinHash near-dup clustering against the
    exact-duplicate truth (docs sharing identical text) — the
    entity-resolution metric computed from Σ C(n,2) over cluster sizes
    and contingency cells, never materialized pairs.  The pred
    assignment is the side table; gold derives from documents.text in
    SQL."""
    from text_to_rdf_ray.stages.dedup import minhash_dedup
    from text_to_rdf_ray.stages.kgops import clustering_prf

    docs = _documents(sf_dir).select_columns(["doc_id", "text"])
    pred = minhash_dedup(docs).materialize()
    _side_write("docs_cluster_prf", "pred.parquet",
                pred.to_pandas().sort_values("doc_id"))
    gold = docs.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                                "cluster": b["text"].astype(str)}),
        batch_format="pandas")
    out = clustering_prf(
        pred, gold, node_col="doc_id",
        pred_col="canonical_id", gold_col="cluster").to_pandas()
    for c in ("precision", "recall", "f1"):
        out[c] = _r(out[c], 6)
    for c in ("pred_pairs", "gold_pairs", "both_pairs"):
        out[c] = out[c].astype("int64")
    return out[["pred_pairs", "gold_pairs", "both_pairs",
                "precision", "recall", "f1"]].reset_index(drop=True)


def _kg_subject_lookup(sf_dir: str) -> pd.DataFrame:
    """Bucket-pruned KG point lookup (pipelines/kg.py::subject_lookup):
    the graph is written subject-bucketed (run_partitioned
    subject_buckets=8) and the lookup recomputes the FNV bucket and
    opens ONLY that bucket's files (counters prove it; the unit test
    asserts files_read << files_total).  The subject with the most
    triples is chosen deterministically and dumped as a side row; the
    oracle re-reads the SAME hive-partitioned graph with DuckDB and
    applies the plain subject filter — the pruning must be invisible."""
    import shutil

    from text_to_rdf_ray.pipelines.kg import run_partitioned, subject_lookup
    from text_to_rdf_ray.sources.fixtures import kb_records

    out_dir = os.path.join(_SIDE, "kg_subject_lookup", "graph")
    shutil.rmtree(out_dir, ignore_errors=True)
    run_partitioned(_fixture_pages_dir(1000), out_dir, partitions=2,
                    kb_records=kb_records(), subject_buckets=8,
                    resume=False)
    import glob as _glob

    tri_files = sorted(_glob.glob(
        os.path.join(out_dir, "**", "*.parquet"), recursive=True))
    allt = rd.read_parquet(tri_files).select_columns(["subj"]).to_pandas()
    counts = allt["subj"].value_counts()
    top = counts[counts == counts.max()].index.min()  # ties: lexicographic
    _side_write("kg_subject_lookup", "chosen.parquet",
                pd.DataFrame({"subj": [top]}))
    out = subject_lookup(out_dir, top, subject_buckets=8).to_pandas()
    return (out[["subj", "pred", "obj"]]
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))


def _kg_incremental_update(sf_dir: str) -> pd.DataFrame:
    """Incremental KG maintenance: the nightly-crawl delta path — base
    triples (80% of pages by url hash) merged with delta triples (the
    other 20%) through the canonical salted (s,p,o) dedup, no full
    rebuild.  canonicalize=False on both sides because surface
    canonicalization is corpus-dependent (re-canonicalization is the
    documented cost of the incremental path); the unit test asserts
    merge == full rebuild under the same flags.  Oracle: DISTINCT over
    the union of the two dumped claim sets."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.canonicalize import dedup_triples

    pages = read_pages(_fixture_pages_dir(1000))

    def part_filter(keep_delta: bool):
        from text_to_rdf_ray.kernels.minhash import _hash_shingles

        def fn(t: pa.Table) -> pa.Table:
            h = _hash_shingles(t.column("url").to_pylist())
            is_delta = (h % np.uint64(5)) == 0
            keep = is_delta if keep_delta else ~is_delta
            return t.filter(pa.array(keep))
        return fn

    sides = {}
    for name, keep_delta in (("base", False), ("delta", True)):
        tri = build_triples(pages.map_batches(part_filter(keep_delta),
                                              batch_format="pyarrow"),
                            kb_records=kb_records(),
                            canonicalize=False, dedup=False)
        tri = tri.map_batches(
            lambda t: pa.table({"subj": t.column("subj"),
                                "pred": t.column("pred"),
                                "obj": t.column("obj"),
                                "url": t.column("url"),
                                "chunk_id": t.column("chunk_id"),
                                "span_start": t.column("span_start"),
                                "span_end": t.column("span_end")}),
            batch_format="pyarrow").materialize()
        _side_write("kg_incremental_update", f"{name}.parquet",
                    tri.to_pandas().sort_values(["subj", "pred", "obj",
                                                 "url"]))
        sides[name] = tri
    merged = dedup_triples(sides["base"].union(sides["delta"]))
    out = merged.to_pandas()
    return (out[["subj", "pred", "obj"]]
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))


def _kg_domain_violations(sf_dir: str) -> pd.DataFrame:
    """SHACL-lite domain/range validation (stages/kgops.py::
    domain_range_check) over the derived triple table with PLANTED
    violations (suppkey % 10 == 0 points located_in at a region —
    range_wrong; custkey % 13 == 0 at a nonexistent nation —
    range_missing).  Oracle replays the mutation and both checks."""
    from text_to_rdf_ray.stages.kgops import domain_range_check

    def rel(table, cols, fmt):
        ds = rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                             columns=cols, override_num_blocks=2)
        return ds.map_batches(fmt, batch_format="pandas")

    def supp(b):
        obj = np.where(b["s_suppkey"] % 10 == 0,
                       "region_" + (b["s_suppkey"] % 5).astype(str),
                       "nation_" + b["s_nationkey"].astype(str))
        return pd.DataFrame({
            "subj": "supplier_" + b["s_suppkey"].astype(str),
            "pred": "located_in", "obj": obj})

    def cust(b):
        obj = np.where(b["c_custkey"] % 13 == 0, "nation_999999",
                       "nation_" + b["c_nationkey"].astype(str))
        return pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "located_in", "obj": obj})

    def nat(b):
        return pd.DataFrame({
            "subj": "nation_" + b["n_nationkey"].astype(str),
            "pred": "part_of",
            "obj": "region_" + b["n_regionkey"].astype(str)})

    triples = (rel("supplier", ["s_suppkey", "s_nationkey"], supp)
               .union(rel("customer", ["c_custkey", "c_nationkey"], cust))
               .union(rel("nation", ["n_nationkey", "n_regionkey"], nat)))

    def ty(table, cols, prefix, tname):
        def fmt(b, c=cols[0]):
            return pd.DataFrame({"entity": prefix + b[c].astype(str),
                                 "type": tname})
        return rel(table, cols, fmt)

    types = (ty("supplier", ["s_suppkey"], "supplier_", "Supplier")
             .union(ty("customer", ["c_custkey"], "customer_", "Customer"))
             .union(ty("nation", ["n_nationkey"], "nation_", "Nation"))
             .union(ty("region", ["r_regionkey"], "region_", "Region")))

    rules = [("located_in", None, "Nation"),
             ("part_of", "Nation", "Region")]
    out = domain_range_check(triples, types, rules).to_pandas()
    return (out[["subj", "pred", "obj", "reason"]]
            .sort_values(["subj", "pred", "obj", "reason"])
            .reset_index(drop=True))


def _kg_predicate_stats(sf_dir: str) -> pd.DataFrame:
    """Per-predicate planner cardinalities (stages/kgops.py::
    predicate_stats) over the derived TPC-H triple table — the stats a
    BGP optimizer orders patterns by.  Oracle derives the same triples
    in SQL and counts distinct endpoints."""
    from text_to_rdf_ray.stages.kgops import predicate_stats

    def rel(table, cols, fmt):
        ds = rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                             columns=cols, override_num_blocks=2)
        return ds.map_batches(fmt, batch_format="pandas")

    def supp(b):
        return pd.DataFrame({
            "subj": "supplier_" + b["s_suppkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["s_nationkey"].astype(str)})

    def cust(b):
        return pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["c_nationkey"].astype(str)})

    def nat(b):
        part = pd.DataFrame({
            "subj": "nation_" + b["n_nationkey"].astype(str),
            "pred": "part_of",
            "obj": "region_" + b["n_regionkey"].astype(str)})
        named = pd.DataFrame({
            "subj": "nation_" + b["n_nationkey"].astype(str),
            "pred": "named", "obj": b["n_name"].astype(str)})
        return pd.concat([part, named], ignore_index=True)

    def reg(b):
        return pd.DataFrame({
            "subj": "region_" + b["r_regionkey"].astype(str),
            "pred": "named", "obj": b["r_name"].astype(str)})

    triples = (rel("supplier", ["s_suppkey", "s_nationkey"], supp)
               .union(rel("customer", ["c_custkey", "c_nationkey"], cust))
               .union(rel("nation",
                          ["n_nationkey", "n_regionkey", "n_name"], nat))
               .union(rel("region", ["r_regionkey", "r_name"], reg)))
    return predicate_stats(triples)


def _tpch_triples(sf_dir: str) -> rd.Dataset:
    """Shared TPC-H-derived triple table for the SPARQL-family queries
    (bgp_match / bgp_construct): supplier/customer located_in nation,
    nation part_of region, nation/region named literals — derives
    identically from the TPC-H views in SQL, so no side table.
    Materialized ONCE: every pattern scans it, and re-executing the
    4-way union lineage per pattern multiplies the read tasks by the
    pattern count."""
    def rel(table, cols, fmt):
        ds = rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                             columns=cols, override_num_blocks=2)
        return ds.map_batches(fmt, batch_format="pandas")

    def supp(b):
        return pd.DataFrame({
            "subj": "supplier_" + b["s_suppkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["s_nationkey"].astype(str)})

    def cust(b):
        return pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["c_nationkey"].astype(str)})

    def nat(b):
        part = pd.DataFrame({
            "subj": "nation_" + b["n_nationkey"].astype(str),
            "pred": "part_of",
            "obj": "region_" + b["n_regionkey"].astype(str)})
        named = pd.DataFrame({
            "subj": "nation_" + b["n_nationkey"].astype(str),
            "pred": "named", "obj": b["n_name"].astype(str)})
        return pd.concat([part, named], ignore_index=True)

    def reg(b):
        return pd.DataFrame({
            "subj": "region_" + b["r_regionkey"].astype(str),
            "pred": "named", "obj": b["r_name"].astype(str)})

    return (rel("supplier", ["s_suppkey", "s_nationkey"], supp)
            .union(rel("customer", ["c_custkey", "c_nationkey"], cust))
            .union(rel("nation",
                       ["n_nationkey", "n_name", "n_regionkey"], nat))
            .union(rel("region", ["r_regionkey", "r_name"], reg))
            .materialize())


def _kg_bgp_match(sf_dir: str) -> pd.DataFrame:
    """SPARQL-style basic-graph-pattern query (stages/kgops.py::
    bgp_match): entities located in a nation of region EUROPE plus the
    nation's literal name — four patterns chained through shared-
    variable exchange_joins in ONE fused plan, most-selective pattern
    first.  Triple table: :func:`_tpch_triples`."""
    from text_to_rdf_ray.stages.kgops import bgp_match

    out = bgp_match(_tpch_triples(sf_dir), [
        ("?r", "named", "EUROPE"),
        ("?n", "part_of", "?r"),
        ("?e", "located_in", "?n"),
        ("?n", "named", "?nname"),
    ]).to_pandas()
    return (out[["e", "n", "r", "nname"]]
            .sort_values(["e", "n"]).reset_index(drop=True))


def _kg_entity_fusion(sf_dir: str) -> pd.DataFrame:
    """Truth-discovery fusion (stages/kgops.py::majority_vote): per
    (subj_slug, pred) the object asserted by the most source pages wins,
    ties toward the smaller object — run over the PRE-dedup linked
    triples (the claim multiset), dumped as the side table; the SQL
    replays count → row_number winner."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.kgops import majority_vote

    pages = read_pages(_fixture_pages_dir(1000))
    linked = build_triples(pages, kb_records=kb_records(), dedup=False)
    claims = linked.map_batches(
        lambda b: pa.table({"subj_slug": b.column("subj_slug"),
                            "pred": b.column("pred"),
                            "obj": b.column("obj")}),
        batch_format="pyarrow").materialize()
    _side_write("kg_entity_fusion", "claims.parquet",
                claims.to_pandas().sort_values(["subj_slug", "pred", "obj"]))
    out = majority_vote(claims, key_cols=["subj_slug", "pred"],
                        value_col="obj").to_pandas()
    out["support"] = out["support"].astype("int64")
    out["n_claims"] = out["n_claims"].astype("int64")
    return (out[["subj_slug", "pred", "obj", "support", "n_claims"]]
            .sort_values(["subj_slug", "pred"]).reset_index(drop=True))


#: schema.org subclass slice covering the extractor's entity kinds
#: (kernels/entities.py mirrors the reference EntityType enum); shared
#: verbatim by the Ray query and the oracle's recursive-CTE VALUES list
#: — the closure computation itself is what the SQL replays.
_SCHEMA_ONTOLOGY: list[tuple[str, str]] = [
    ("Person", "Thing"),
    ("Organization", "Thing"),
    ("EducationalOrganization", "Organization"),
    ("EducationalOrganization", "CivicStructure"),
    ("Airport", "CivicStructure"),
    ("CivicStructure", "Place"),
    ("Place", "Thing"),
    ("Country", "AdministrativeArea"),
    ("AdministrativeArea", "Place"),
    ("Event", "Thing"),
    ("Award", "Thing"),
]


def _kg_type_infer(sf_dir: str) -> pd.DataFrame:
    """RDFS-style type inference (stages/kgops.py::type_inference): each
    extracted entity gains every supertype of its asserted kind under a
    schema.org subclass DAG (incl. multiple inheritance:
    EducationalOrganization ⊂ Organization AND CivicStructure).  The
    asserted (subj_slug, subj_type) pairs are the side table; the SQL
    recomputes the closure with a recursive CTE and the asserted-wins
    min(inferred) rule."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.kgops import type_inference

    pages = read_pages(_fixture_pages_dir(1000))
    triples = build_triples(pages, kb_records=kb_records())
    asserted = triples.map_batches(
        lambda b: pa.table({"entity": b.column("subj_slug"),
                            "type": b.column("subj_type")}),
        batch_format="pyarrow").materialize()
    _side_write("kg_type_infer", "asserted.parquet",
                asserted.to_pandas().sort_values(["entity", "type"]))
    out = type_inference(asserted, _SCHEMA_ONTOLOGY).to_pandas()
    return (out[["entity", "type", "inferred"]]
            .sort_values(["entity", "type"]).reset_index(drop=True))


def _graph_personalized_pagerank(sf_dir: str) -> pd.DataFrame:
    """Personalized PageRank (stages/graph.py::personalized_pagerank):
    random walk with restart to the seed suppliers (≡ 0 mod 7) over the
    DIRECTED supplier→customer graph — customers are dangling, so the
    dangling-mass redirect to seeds is exercised (Σrank = 1).  Oracle:
    3 unrolled iterations with the same float expression shapes."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import personalized_pagerank

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    edges = joined.map_batches(
        lambda b: pd.DataFrame({
            "src": b["supp"].astype("int64"),
            "dst": b["cust"].astype("int64") + 1_000_000}),
        batch_format="pandas")
    seeds = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey"]).map_batches(
        lambda b: pd.DataFrame({"node": b.loc[
            b["s_suppkey"] % 7 == 0, "s_suppkey"].astype("int64")}),
        batch_format="pandas")
    out = personalized_pagerank(edges, seeds, iterations=3,
                                damping=0.85).to_pandas()
    out["node"] = out["node"].astype("int64")
    out["rank"] = _r(out["rank"], 6)
    return (out[["node", "rank"]]
            .sort_values("node").reset_index(drop=True))


def _graph_scc(sf_dir: str) -> pd.DataFrame:
    """Strongly connected components (stages/graph.py::scc — driver
    Tarjan tier here; the distributed FW-BW coloring tier is forced and
    Tarjan-parity-tested in tests/test_graph.py) over a directed cyclic
    graph: nation→supplier (suppkey % 4 == 0), supplier→customer
    (sampled), customer→nation.  comp = min member id.  Oracle:
    recursive-CTE mutual reachability."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import scc

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    sc_edges = joined.map_batches(
        lambda b: pd.DataFrame({
            "src": b.loc[(b["supp"] + b["cust"]) % 3 == 0,
                         "supp"].astype("int64"),
            "dst": b.loc[(b["supp"] + b["cust"]) % 3 == 0,
                         "cust"].astype("int64") + 1_000_000}),
        batch_format="pandas")
    ns_edges = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: pd.DataFrame({
            "src": b.loc[b["s_suppkey"] % 4 == 0,
                         "s_nationkey"].astype("int64") + 2_000_000,
            "dst": b.loc[b["s_suppkey"] % 4 == 0,
                         "s_suppkey"].astype("int64")}),
        batch_format="pandas")
    cn_edges = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).map_batches(
        lambda b: pd.DataFrame({
            "src": b["c_custkey"].astype("int64") + 1_000_000,
            "dst": b["c_nationkey"].astype("int64") + 2_000_000}),
        batch_format="pandas")
    out = scc(sc_edges.union(ns_edges).union(cn_edges)).to_pandas()
    for c in ("node", "comp"):
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _graph_assortativity(sf_dir: str) -> pd.DataFrame:
    """Degree assortativity of the undirected supplier↔customer graph:
    Pearson r of (deg(node), deg(nbr)) over both edge orientations —
    degrees via exchange_agg, two chained exchange_joins attach them to
    the edge list, and the correlation is the one-pass moment fold of
    stages/analytics.py::corr_matrix.  Oracle replays the same moment
    algebra."""
    from text_to_rdf_ray.stages.analytics import corr_matrix
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    e0 = exchange_agg(joined.map_batches(
        lambda b: pd.DataFrame({
            "src": b["supp"].astype("int64"),
            "dst": b["cust"].astype("int64") + 1_000_000}),
        batch_format="pandas"), ["src", "dst"])
    und = e0.map_batches(
        lambda t: pa.table({
            "node": pa.concat_arrays([
                t.column("src").cast(pa.int64()).combine_chunks(),
                t.column("dst").cast(pa.int64()).combine_chunks()]),
            "nbr": pa.concat_arrays([
                t.column("dst").cast(pa.int64()).combine_chunks(),
                t.column("src").cast(pa.int64()).combine_chunks()])}),
        batch_format="pyarrow").materialize()
    deg = exchange_agg(und.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "one": pa.array(np.ones(t.num_rows,
                                                    np.int64))}),
        batch_format="pyarrow"),
        "node", [("one", "sum", "deg")], num_partitions=16)
    dschema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])
    j1 = exchange_join(
        und, deg, on="node", num_partitions=16,
        left_schema=pa.schema([("node", pa.int64()),
                               ("nbr", pa.int64())]),
        right_schema=dschema).map_batches(
        lambda t: pa.table({"node": t.column("nbr"),
                            "dx": t.column("deg")}),
        batch_format="pyarrow")
    j2 = exchange_join(
        j1, deg.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "dy": t.column("deg")}),
            batch_format="pyarrow"),
        on="node", num_partitions=16,
        left_schema=pa.schema([("node", pa.int64()),
                               ("dx", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("dy", pa.int64())]))
    pairs = j2.map_batches(
        lambda t: pa.table({
            "dx": pa.array(t.column("dx").to_numpy(
                zero_copy_only=False).astype(np.float64)),
            "dy": pa.array(t.column("dy").to_numpy(
                zero_copy_only=False).astype(np.float64))}),
        batch_format="pyarrow")
    out = corr_matrix(pairs, ["dx", "dy"]).to_pandas()
    out["corr"] = _r(out["corr"], 6)
    out["n"] = out["n"].astype("int64")
    return (out[["col_a", "col_b", "n", "corr"]]
            .sort_values(["col_a", "col_b"]).reset_index(drop=True))


def _graph_lpa(sf_dir: str) -> pd.DataFrame:
    """Synchronous majority-vote label propagation (stages/graph.py::
    label_propagation) over the undirected supplier↔customer graph —
    3 rounds, ties to the smaller label.  Oracle: unrolled rounds."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import label_propagation

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    edges = joined.map_batches(
        lambda b: pd.DataFrame({
            "src": b["supp"].astype("int64"),
            "dst": b["cust"].astype("int64") + 1_000_000}),
        batch_format="pandas")
    out = label_propagation(edges, iterations=3).to_pandas()
    for c in ("node", "lbl"):
        out[c] = out[c].astype("int64")
    return out[["node", "lbl"]].sort_values("node").reset_index(drop=True)


def _graph_hits(sf_dir: str) -> pd.DataFrame:
    """HITS hubs/authorities (stages/graph.py::hits, L1-normalized) over
    the directed supplier→customer graph (customers offset by 1,000,000
    — pure authorities, suppliers pure hubs, so both push directions are
    exercised).  Oracle: 3 unrolled iterations, same float shapes."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import hits

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    edges = joined.map_batches(
        lambda b: pd.DataFrame({
            "src": b["supp"].astype("int64"),
            "dst": b["cust"].astype("int64") + 1_000_000}),
        batch_format="pandas")
    out = hits(edges, iterations=3).to_pandas()
    out["node"] = out["node"].astype("int64")
    out["hub"] = _r(out["hub"], 6)
    out["auth"] = _r(out["auth"], 6)
    return (out[["node", "hub", "auth"]]
            .sort_values("node").reset_index(drop=True))


def _graph_random_walks(sf_dir: str) -> pd.DataFrame:
    """Deterministic DeepWalk corpus (stages/graph.py::random_walks):
    4-step walks from every supplier over the undirected supplier↔
    customer co-transaction graph (customer nodes offset by 1,000,000).
    The neighbor choice is splitmix64(node·1000003 + step·7919 + 42)
    mod degree over the (src,dst)-sorted adjacency — the oracle unrolls
    the four steps with one _sm64_sql chain each and row_number
    adjacency positions."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import random_walks

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        s = b["supp"].astype("int64")
        c = b["cust"].astype("int64") + 1_000_000
        return pd.DataFrame({"src": pd.concat([s, c], ignore_index=True),
                             "dst": pd.concat([c, s], ignore_index=True)})

    edges = joined.map_batches(both_dirs, batch_format="pandas")
    starts = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey"]).map_batches(
        lambda b: pd.DataFrame({"node": b["s_suppkey"].astype("int64")}),
        batch_format="pandas")
    out = random_walks(edges, starts, walk_len=4, seed=42).to_pandas()
    for c in ("start", "step", "node"):
        out[c] = out[c].astype("int64")
    return (out[["start", "step", "node"]]
            .sort_values(["start", "step"]).reset_index(drop=True))


def _events_cdc_state(sf_dir: str) -> pd.DataFrame:
    """CDC changelog apply (stages/joins.py::cdc_apply): snapshot = even
    event_ids; changelog = ids ≡ 0,1 (mod 4) with op 'D'/'U' by
    (id//4) parity and value+1000 — winning tombstones remove keys,
    changelog upserts beat base rows at equal ts.  Oracle replays
    union → row_number winner → tombstone filter."""
    from text_to_rdf_ray.stages.joins import cdc_apply

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts", "value"])

    def base_f(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["event_id"] % 2 == 0]

    def chg_f(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["event_id"] % 4 < 2].copy()
        b["value"] = b["value"] + 1000.0
        b["op"] = np.where((b["event_id"] // 4) % 2 == 0, "D", "U")
        return b

    out = cdc_apply(
        ev.map_batches(base_f, batch_format="pandas"),
        ev.map_batches(chg_f, batch_format="pandas"),
        key_col="event_id", order_col="ts", tiebreak_col="value",
    ).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["value"] = _r(out["value"], 6)
    return (out[["event_id", "user_id", "ts", "value"]]
            .sort_values("event_id").reset_index(drop=True))


def _graph_common_neighbors(sf_dir: str) -> pd.DataFrame:
    """Co-occurrence similarity (common-neighbor counts): supplier pairs
    sharing ≥ 3 distinct customers in the supplier→customer graph, via
    the shared stages/graph.py::common_neighbors operator — distinct
    edges, hub-customer degree cap (max_wedge_degree=10,000, counted as
    commonnb_capped_z / commonnb_capped_wedges; the SQL replays the cap
    in its z-degree CTE so the oracle stays exact even if it fires),
    self exchange_join on the customer, pair count, threshold."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import common_neighbors

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(
            lambda t: pa.table({"okey": t.column("l_orderkey"),
                                "supp": t.column("l_suppkey")}),
            batch_format="pyarrow"),
        orders.map_batches(
            lambda t: pa.table({"okey": t.column("o_orderkey"),
                                "cust": t.column("o_custkey")}),
            batch_format="pyarrow"),
        on="okey",
        left_schema=pa.schema([("okey", pa.int64()), ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()), ("cust", pa.int64())]))
    out = common_neighbors(
        joined, a_col="supp", z_col="cust", min_common=3,
        max_wedge_degree=10_000,
        out_a="supp_a", out_b="supp_b", out_count="common").to_pandas()
    for c in ("supp_a", "supp_b", "common"):
        out[c] = out[c].astype("int64")
    return (out[["supp_a", "supp_b", "common"]]
            .sort_values(["supp_a", "supp_b"]).reset_index(drop=True))


def _kg_negative_samples(sf_dir: str) -> pd.DataFrame:
    """TransE-style negative sampling (stages/graph.py::negative_samples)
    over the canonical fixture triples: k=2 corrupted objects per
    positive, drawn via splitmix64(content_hash + j) mod |vocab| from
    the sorted distinct-object vocabulary.  The side table carries the
    triples + content hash; the SQL replays the vocabulary index and
    the splitmix64 draw."""
    from text_to_rdf_ray.kernels.minhash import _hash_shingles
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.graph import negative_samples

    pages = read_pages(_fixture_pages_dir(1000))
    triples = build_triples(pages, kb_records=kb_records()).map_batches(
        lambda b: pa.table({"subj_slug": b.column("subj_slug"),
                            "pred": b.column("pred"),
                            "obj": b.column("obj")}),
        batch_format="pyarrow").materialize()
    side = triples.to_pandas()
    key = (side["subj_slug"].astype(str) + "\x1f"
           + side["pred"].astype(str) + "\x1f" + side["obj"].astype(str))
    side["h_base"] = _hash_shingles(key.tolist()).astype(np.uint64)
    _side_write("kg_negative_samples", "triples.parquet",
                side.sort_values(["subj_slug", "pred", "obj"]))
    out = negative_samples(triples, subj_col="subj_slug", pred_col="pred",
                           obj_col="obj", k=2).to_pandas()
    out["neg_j"] = out["neg_j"].astype("int64")
    return (out[["subj_slug", "pred", "obj", "neg_j", "obj_neg"]]
            .sort_values(["subj_slug", "pred", "obj", "neg_j"])
            .reset_index(drop=True))


def _events_watermark_late(sf_dir: str) -> pd.DataFrame:
    """Streaming watermark replay (stages/windows.py::watermark_filter
    over analytics.prefix_max): events arriving (event_id order) with
    event time > 72h behind the high-watermark are flagged late — the
    pane-closing rule of a streaming window, computed as a two-pass
    distributed scan (range sort + O(blocks) driver partials)."""
    from text_to_rdf_ray.stages.windows import watermark_filter

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts"])
    out = watermark_filter(ev, ts_col="ts", arrival_col="event_id",
                           lateness_us=72 * 3600 * 1_000_000).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["is_late"] = out["is_late"].astype("int64")
    return (out[["event_id", "is_late"]]
            .sort_values("event_id").reset_index(drop=True))


def _orders_clustered_join(sf_dir: str) -> pd.DataFrame:
    """Shuffle-free co-clustered join (stages/lakehouse.py::
    clustered_join): orders and customer both range-clustered on the
    customer key, then joined by zone-map overlap — one task per orders
    file, ZERO exchange (the reuse-one-partitioning-key payoff)."""
    from text_to_rdf_ray.stages.lakehouse import clustered_join, clustered_write

    pa_dir = os.path.join(_TMP, "lakehouse", "orders_by_cust")
    pb_dir = os.path.join(_TMP, "lakehouse", "customer_by_key")
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_name"])
    clustered_write(orders, pa_dir, key_col="o_custkey", num_files=12)
    clustered_write(cust, pb_dir, key_col="c_custkey", num_files=8)
    out = clustered_join(pa_dir, pb_dir, key_col_a="o_custkey",
                         key_col_b="c_custkey").to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    out["o_custkey"] = out["o_custkey"].astype("int64")
    out["o_totalprice"] = _r(out["o_totalprice"], 2)
    return (out[["o_orderkey", "o_custkey", "c_name", "o_totalprice"]]
            .sort_values("o_orderkey").reset_index(drop=True))


def _events_interval_pairs(sf_dir: str) -> pd.DataFrame:
    """Bounded-window stream-stream self join (stages/joins.py::
    interval_self_join): per user, all event pairs within 24h — one
    key-hash exchange, searchsorted spans + repeat/take pair
    materialization per partition (O(output), no per-key Ray task)."""
    from text_to_rdf_ray.stages.joins import interval_self_join

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts"])
    out = interval_self_join(
        ev, key_col="user_id", ts_col="ts", id_col="event_id",
        window_us=24 * 3600 * 1_000_000).to_pandas()
    for c in ("user_id", "id_a", "id_b", "dt_us"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "id_a", "id_b", "dt_us"]]
            .sort_values(["user_id", "id_a", "id_b"])
            .reset_index(drop=True))


def _events_interval_coverage(sf_dir: str) -> pd.DataFrame:
    """Per-user union-of-intervals coverage (stages/windows.py::
    interval_coverage): each event opens a 30-min interval; overlapping
    intervals merge; emits islands + covered microseconds per user."""
    from text_to_rdf_ray.stages.windows import interval_coverage

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    out = interval_coverage(ev, dur_us=1_800_000_000).to_pandas()
    for c in ("user_id", "n_islands", "covered_us"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "n_islands", "covered_us"]]
            .sort_values("user_id").reset_index(drop=True))


def _events_debounce(sf_dir: str) -> pd.DataFrame:
    """Burst-start filter (stages/windows.py::debounce): keep only events
    whose gap since the previous event of the same (user, type) exceeds
    5 minutes — alert-storm suppression."""
    from text_to_rdf_ray.stages.windows import debounce

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "event_id", "ts"])
    out = debounce(ev, gap_us=300_000_000).to_pandas()
    out["ts_us"] = out["ts"].values.astype("datetime64[us]").astype("int64")
    for c in ("user_id", "event_id", "ts_us"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "event_type", "event_id", "ts_us"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_scd2(sf_dir: str) -> pd.DataFrame:
    """SCD-type-2 history build (stages/windows.py::scd2_history):
    per-user event_type change compression into validity ranges;
    valid_to_us = -1 marks the open row."""
    from text_to_rdf_ray.stages.windows import scd2_history

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "event_id", "ts"])
    out = scd2_history(ev).to_pandas()
    for c in ("user_id", "valid_from_us", "valid_to_us"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "event_type", "valid_from_us", "valid_to_us"]]
            .sort_values(["user_id", "valid_from_us", "valid_to_us"])
            .reset_index(drop=True))


def _events_user_paths(sf_dir: str) -> pd.DataFrame:
    """Ordered grouped concatenation (stages/windows.py::grouped_path):
    per-user '>' -joined journey of the first 20 event types — pyarrow
    hash-list + binary_join, no Python call per key."""
    from text_to_rdf_ray.stages.windows import grouped_path

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "event_id", "ts"])
    out = grouped_path(ev, max_n=20).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return (out[["user_id", "path", "n"]]
            .sort_values("user_id").reset_index(drop=True))


def _events_cms_user_counts(sf_dir: str) -> pd.DataFrame:
    """Count-min sketch (stages/analytics.py::cms_build/cms_estimate):
    4x32 integer registers of user event counts, probed for every user —
    est >= exact always, with collisions at this width.  The register
    exchange is bounded at depth*width rows per batch; the oracle
    replays the full sketch bit-exactly (integer registers)."""
    from text_to_rdf_ray.stages.analytics import cms_build, cms_estimate
    from text_to_rdf_ray.stages.exchange import exchange_agg

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id"])
    regs = cms_build(ev, key_col="user_id", depth=4, width=32)

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column(
            "one", pa.array(np.ones(len(t), np.int64)))

    exact = exchange_agg(ev.map_batches(ones, batch_format="pyarrow"),
                         "user_id",
                         [("one", "sum", "exact_cnt")]).to_pandas()
    est = cms_estimate(regs, exact["user_id"].to_numpy(np.int64),
                       depth=4, width=32)
    out = exact.merge(est.rename(columns={"key": "user_id"}), on="user_id")
    for c in ("user_id", "est", "exact_cnt"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "est", "exact_cnt"]]
            .sort_values("user_id").reset_index(drop=True))


def _orders_skyline(sf_dir: str) -> pd.DataFrame:
    """2-D Pareto frontier (stages/analytics.py::skyline_2d): orders
    maximizing o_totalprice while minimizing order date — per-batch
    local-skyline combiner, one tiny final pass; exchange volume is the
    local frontier sizes, never the table."""
    from text_to_rdf_ray.stages.analytics import skyline_2d

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_totalprice", "o_orderdate"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "price": t.column("o_totalprice"),
            "date_us": t.column("o_orderdate").cast(
                pa.timestamp("us")).cast(pa.int64())})

    out = skyline_2d(orders.map_batches(prep, batch_format="pyarrow"),
                     x_col="price", y_col="date_us").to_pandas()
    out["price"] = _r(out["price"], 2)
    out["date_us"] = out["date_us"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return (out[["price", "date_us", "n"]]
            .sort_values("price").reset_index(drop=True))


def _graph_clustering_coeff(sf_dir: str) -> pd.DataFrame:
    """Local clustering coefficient over the part co-occurrence graph
    (stages/graph.py::clustering_coeff): one dedup exchange feeds BOTH
    the degree reduce and the degree-oriented triangle count; coeff =
    2*tri / (deg*(deg-1)) computed identically here and in the oracle."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import clustering_coeff

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "pk2": t.column("l_partkey")}),
        batch_format="pyarrow")
    pairs = exchange_join(
        li, right, on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("pk2", pa.int64())]))

    def lt(t: pa.Table) -> pa.Table:
        a = t.column("l_partkey").to_numpy(zero_copy_only=False)
        b = t.column("pk2").to_numpy(zero_copy_only=False)
        k = a < b
        return pa.table({"src": pa.array(a[k], pa.int64()),
                         "dst": pa.array(b[k], pa.int64())})

    out = clustering_coeff(
        pairs.map_batches(lt, batch_format="pyarrow")).to_pandas()
    for c in ("node", "deg", "n_tri"):
        out[c] = out[c].astype("int64")
    deg = out["deg"].to_numpy(np.float64)
    tri = out["n_tri"].to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(deg < 2, 0.0, 2.0 * tri / (deg * (deg - 1)))
    out["coeff"] = _r(pd.Series(coeff), 6)
    out = out.rename(columns={"node": "l_partkey"})
    return (out[["l_partkey", "deg", "n_tri", "coeff"]]
            .sort_values("l_partkey").reset_index(drop=True))


def _graph_sssp_parts(sf_dir: str) -> pd.DataFrame:
    """Weighted single-source shortest paths (stages/graph.py::sssp,
    frontier-limited Bellman-Ford) over the part co-occurrence graph
    with deterministic integer weights w = 1 + (u+v) % 7, source = the
    smallest partkey in lineitem.  Oracle: 8 unrolled relaxation rounds
    (converged rounds are no-ops)."""
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join
    from text_to_rdf_ray.stages.graph import sssp

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "pk2": t.column("l_partkey")}),
        batch_format="pyarrow")
    pairs = exchange_join(
        li, right, on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("pk2", pa.int64())]))

    def lt(t: pa.Table) -> pa.Table:
        a = t.column("l_partkey").to_numpy(zero_copy_only=False)
        b = t.column("pk2").to_numpy(zero_copy_only=False)
        k = a < b
        return pa.table({"u": pa.array(a[k], pa.int64()),
                         "v": pa.array(b[k], pa.int64())})

    e = exchange_agg(pairs.map_batches(lt, batch_format="pyarrow"),
                     ["u", "v"])

    def sym(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        w = 1 + (u + v) % 7
        return pa.table({
            "s": pa.array(np.concatenate([u, v]), pa.int64()),
            "t": pa.array(np.concatenate([v, u]), pa.int64()),
            "w": pa.array(np.concatenate([w, w]), pa.int64())})

    # bounded scalar: per-batch mins -> driver min (n_batches rows)
    mins = li.map_batches(
        lambda t: pa.table({"m": pa.array(
            [int(t.column("l_partkey").to_numpy(
                zero_copy_only=False).min())] if len(t) else [],
            pa.int64())}),
        batch_format="pyarrow").to_pandas()
    source = int(mins["m"].min())

    out = sssp(e.map_batches(sym, batch_format="pyarrow"), source,
               src="s", dst="t", w="w", max_iters=8).to_pandas()
    out = out.rename(columns={"node": "l_partkey"})
    for c in ("l_partkey", "dist"):
        out[c] = out[c].astype("int64")
    return (out[["l_partkey", "dist"]]
            .sort_values("l_partkey").reset_index(drop=True))


def _sssp_sql(n_rounds: int = 8) -> str:
    """Bounded-unroll Bellman-Ford replay for _graph_sssp_parts."""
    parts = ["""
        WITH inst AS (
          SELECT least(a.l_partkey, b.l_partkey) AS u,
                 greatest(a.l_partkey, b.l_partkey) AS v
          FROM lineitem a JOIN lineitem b
            ON a.l_orderkey = b.l_orderkey
           AND a.l_partkey < b.l_partkey),
        e AS (SELECT DISTINCT u, v FROM inst),
        sym AS (SELECT u AS s, v AS t, 1 + (u + v) % 7 AS w FROM e
                UNION ALL
                SELECT v, u, 1 + (u + v) % 7 FROM e),
        d0 AS (SELECT (SELECT min(l_partkey) FROM lineitem) AS node,
                      0 AS d)"""]
    for i in range(n_rounds):
        parts.append(f""",
        d{i + 1} AS (SELECT node, min(d) AS d FROM (
            SELECT node, d FROM d{i}
            UNION ALL
            SELECT s.t AS node, d{i}.d + s.w AS d
            FROM d{i} JOIN sym s ON s.s = d{i}.node) GROUP BY node)""")
    parts.append(f"""
        SELECT node AS l_partkey, CAST(d AS BIGINT) AS dist
        FROM d{n_rounds} ORDER BY node""")
    return "".join(parts)


def _parts_sorted_neighborhood(sf_dir: str) -> pd.DataFrame:
    """Sorted-neighborhood ER blocking (stages/dedup.py::
    sorted_neighborhood_pairs, window=3): one range sort, each sorted
    block's pairs over its rows plus the next window-1 ids, exactly-once
    pair emission.  Oracle: row_number self-join."""
    from text_to_rdf_ray.stages.dedup import sorted_neighborhood_pairs

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_partkey", "p_name"])
    out = sorted_neighborhood_pairs(parts, key_col="p_name",
                                    id_col="p_partkey",
                                    window=3).to_pandas()
    out = out.rename(columns={"id_a": "pk_a", "id_b": "pk_b"})
    for c in ("pk_a", "pk_b", "dist"):
        out[c] = out[c].astype("int64")
    return (out[["pk_a", "pk_b", "dist"]]
            .sort_values(["pk_a", "pk_b", "dist"]).reset_index(drop=True))


def _parts_editdist_pairs(sf_dir: str) -> pd.DataFrame:
    """Exact edit-distance <= 1 self-join on part names (stages/dedup.py::
    editdist_join — symmetric-delete/FastSS blocking, complete by
    construction, vectorized verify).  Oracle: DuckDB's independent
    levenshtein over the length-banded cross join."""
    from text_to_rdf_ray.stages.dedup import editdist_join

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_partkey", "p_name"])
    out = editdist_join(parts, id_col="p_partkey",
                        text_col="p_name").to_pandas()
    out = out.rename(columns={"id_a": "pk_a", "id_b": "pk_b"})
    for c in ("pk_a", "pk_b", "dist"):
        out[c] = out[c].astype("int64")
    return (out[["pk_a", "pk_b", "dist"]]
            .sort_values(["pk_a", "pk_b"]).reset_index(drop=True))


def _graph_kcore(sf_dir: str) -> pd.DataFrame:
    """k-core (k=10) of the supplier↔customer graph (stages/graph.py::
    kcore — iterative peel, driver numpy tier here, distributed
    degree-agg + semi-join tier above 200k edges; parity-tested).
    Node encoding supplier→2·key, customer→2·key+1 keeps the two key
    spaces disjoint.  Oracle: 6 unrolled peel rounds (peeling is
    monotone, so rounds past convergence are no-ops)."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import kcore

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(
            lambda t: pa.table({"okey": t.column("l_orderkey"),
                                "supp": t.column("l_suppkey")}),
            batch_format="pyarrow"),
        orders.map_batches(
            lambda t: pa.table({"okey": t.column("o_orderkey"),
                                "cust": t.column("o_custkey")}),
            batch_format="pyarrow"),
        on="okey",
        left_schema=pa.schema([("okey", pa.int64()), ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()), ("cust", pa.int64())]))

    def enc(t: pa.Table) -> pa.Table:
        s = t.column("supp").to_numpy(zero_copy_only=False)
        c = t.column("cust").to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(s * 2, pa.int64()),
                         "dst": pa.array(c * 2 + 1, pa.int64())})

    out = kcore(joined.map_batches(enc, batch_format="pyarrow"),
                k=10).to_pandas()
    if out.empty:
        return pd.DataFrame({"node": pd.Series(dtype="int64"),
                             "deg": pd.Series(dtype="int64")})
    out["node"] = out["node"].astype("int64")
    out["deg"] = out["deg"].astype("int64")
    return (out[["node", "deg"]]
            .sort_values("node").reset_index(drop=True))


def _kcore_sql(k: int = 10, n_rounds: int = 6) -> str:
    """Unrolled peel replay for _graph_kcore (extra rounds idempotent)."""
    parts = ["""
        ed AS (
          SELECT DISTINCT l_suppkey AS s, o_custkey AS c
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
        e0 AS (
          SELECT s * 2 AS a, c * 2 + 1 AS b FROM ed
          UNION ALL
          SELECT c * 2 + 1, s * 2 FROM ed)"""]
    prev = "e0"
    for i in range(1, n_rounds + 1):
        parts.append(f"""
        d{i} AS (SELECT a, count(*) AS dg FROM {prev} GROUP BY a),
        k{i} AS (SELECT a FROM d{i} WHERE dg >= {k}),
        e{i} AS (SELECT e.a, e.b FROM {prev} e
                 JOIN k{i} x ON e.a = x.a JOIN k{i} y ON e.b = y.a)""")
        prev = f"e{i}"
    return ("WITH " + ",".join(parts)
            + f"""
        SELECT a AS node, CAST(count(*) AS BIGINT) AS deg
        FROM {prev} GROUP BY a ORDER BY node""")


def _embeddings_unnest(sf_dir: str) -> pd.DataFrame:
    """List-column explode (stages/analytics.py::explode_list): every
    50th embedding vector unnested to (vec_id, pos, value) rows — the
    posexplode primitive, zero-copy flatten + vectorized take."""
    from text_to_rdf_ray.stages.analytics import explode_list

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 50 == 0))

    out = explode_list(emb.map_batches(pick, batch_format="pyarrow"),
                       list_col="embedding").to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["pos"] = out["pos"].astype("int64")
    out["value"] = _r(out["value"].astype("float64"), 6)
    return (out[["vec_id", "pos", "value"]]
            .sort_values(["vec_id", "pos"]).reset_index(drop=True))


def _graph_link_prediction(sf_dir: str) -> pd.DataFrame:
    """Adamic–Adar / resource-allocation link prediction (stages/graph.py
    ::link_prediction) over the supplier→customer bipartite graph:
    supplier pairs sharing ≥ 3 customers, scored Σ 1/ln(deg(z)) and
    Σ 1/deg(z) over the shared customers.  Pair sums are float, so both
    engines round to 6dp (sum order is partition-dependent)."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import link_prediction

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    edges = joined.map_batches(
        lambda b: pd.DataFrame({"src": b["supp"].astype("int64"),
                                "dst": b["cust"].astype("int64")}),
        batch_format="pandas")
    out = link_prediction(edges, min_common=3).to_pandas()
    for c in ("a", "b", "common"):
        out[c] = out[c].astype("int64")
    out["aa"] = _r(out["aa"], 6)
    out["ra"] = _r(out["ra"], 6)
    return (out[["a", "b", "common", "aa", "ra"]]
            .sort_values(["a", "b"]).reset_index(drop=True))


def _graph_modularity(sf_dir: str) -> pd.DataFrame:
    """Community quality readout (stages/graph.py::modularity) for the
    3-round LPA assignment over the undirected supplier↔customer graph:
    one row per community with INTEGER sufficient statistics
    (n_nodes, intra_edges, deg_sum — exact on any partitioning) plus the
    per-community q_term = intra/m − (deg_sum/2m)², whose sum is Newman
    Q.  Oracle: the unrolled-LPA CTE chain feeding the same counting
    joins."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import label_propagation, modularity

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))
    edges = joined.map_batches(
        lambda b: pd.DataFrame({
            "src": b["supp"].astype("int64"),
            "dst": b["cust"].astype("int64") + 1_000_000}),
        batch_format="pandas").materialize()
    labels = label_propagation(edges, iterations=3)
    out = modularity(edges, labels).to_pandas()
    for c in ("lbl", "n_nodes", "intra_edges", "deg_sum"):
        out[c] = out[c].astype("int64")
    out["q_term"] = _r(out["q_term"], 6)
    return (out[["lbl", "n_nodes", "intra_edges", "deg_sum", "q_term"]]
            .sort_values("lbl").reset_index(drop=True))


def _kg_sameas_closure(sf_dir: str) -> pd.DataFrame:
    """owl:sameAs consolidation (stages/kgops.py::sameas_closure) over
    the canonical fixture triples: planted chain sameAs assertions
    (subjects grouped in threes by sorted order — fixture scaffolding,
    driver-built from the bounded fixture subject set) resolved with the
    REAL distributed machinery (string→int64 hash, connected components,
    min-name canonical pick, two left_outer rewrite joins, distinct).
    The SQL oracle replays the grouping rule and rewrite relationally
    over the dumped triple side table."""
    from text_to_rdf_ray.pipelines.kg import build_triples, read_pages
    from text_to_rdf_ray.sources.fixtures import kb_records
    from text_to_rdf_ray.stages.kgops import sameas_closure

    pages = read_pages(_fixture_pages_dir(1000))
    triples = build_triples(pages, kb_records=kb_records()).map_batches(
        lambda b: pa.table({"subj": b.column("subj_slug"),
                            "pred": b.column("pred"),
                            "obj": b.column("obj")}),
        batch_format="pyarrow").materialize()
    side = triples.to_pandas()
    _side_write("kg_sameas_closure", "triples.parquet",
                side.sort_values(["subj", "pred", "obj"]))
    subs = sorted(side["subj"].unique())
    idx = [i for i in range(len(subs)) if i % 3 != 0]
    sameas = rd.from_pandas(pd.DataFrame(
        {"a": [subs[i] for i in idx], "b": [subs[i - 1] for i in idx]}))
    out = sameas_closure(triples, sameas).to_pandas()
    return (out[["subj", "pred", "obj"]]
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))


def _events_metadata_count(sf_dir: str) -> pd.DataFrame:
    """Metadata-only range count (stages/lakehouse.py::metadata_agg):
    events range-clustered by value into 16 zone-mapped files; counting
    value ∈ [5, 60] sums manifest row counts for fully-covered files and
    scans ONLY the boundary files (metaagg_* counters prove it)."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, metadata_agg

    path = os.path.join(_TMP, "lakehouse", "events_metacount")
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    clustered_write(ev, path, key_col="value", num_files=16)
    return metadata_agg(path, key_col="value", lo=5.0, hi=60.0)


def _docs_readability(sf_dir: str) -> pd.DataFrame:
    """Flesch reading-ease curation signal (stages/curation.py::
    readability): per-doc word/sentence/vowel-group counts via compiled
    non-overlapping regex — pure map, zero shuffle; the score is one
    per-row float expression replayed identically in SQL."""
    from text_to_rdf_ray.stages.curation import readability

    out = readability(_documents(sf_dir)).to_pandas()
    for c in ("doc_id", "words", "sentences", "syllables"):
        out[c] = out[c].astype("int64")
    out["flesch"] = _r(out["flesch"], 6)
    return (out[["doc_id", "words", "sentences", "syllables", "flesch"]]
            .sort_values("doc_id").reset_index(drop=True))


def _docs_containment_pairs(sf_dir: str) -> pd.DataFrame:
    """Asymmetric containment near-dup join (stages/dedup.py::
    containment_pairs): doc pairs where either direction's 5-gram
    containment |G_a∩G_b|/|G_a| reaches 0.5 — catches short-quoted-in-
    long inclusions Jaccard misses.  Gram text never ships (128-bit
    hashes); exact by default."""
    from text_to_rdf_ray.stages.dedup import containment_pairs

    out = containment_pairs(_documents(sf_dir), n=5, tau=0.5).to_pandas()
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64")
                             for c in ("id_a", "id_b", "inter",
                                       "n_a", "n_b")}
                            | {"c_a": pd.Series(dtype="float64"),
                               "c_b": pd.Series(dtype="float64")})
    for c in ("id_a", "id_b", "inter", "n_a", "n_b"):
        out[c] = out[c].astype("int64")
    out["c_a"] = _r(out["c_a"], 6)
    out["c_b"] = _r(out["c_b"], 6)
    return (out[["id_a", "id_b", "inter", "n_a", "n_b", "c_a", "c_b"]]
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def _events_twa(sf_dir: str) -> pd.DataFrame:
    """Per-user time-weighted average of the value signal
    (stages/windows.py::time_weighted_avg) — one key-hash exchange +
    one vectorized per-partition pass; spans close at the next event
    ordered by (ts, event_id)."""
    from text_to_rdf_ray.stages.windows import time_weighted_avg

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts", "value"])
    out = time_weighted_avg(ev).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n_spans"] = out["n_spans"].astype("int64")
    out["twa"] = _r(out["twa"], 6)
    return (out[["user_id", "n_spans", "twa"]]
            .sort_values("user_id").reset_index(drop=True))


def _events_window_topk(sf_dir: str) -> pd.DataFrame:
    """Streaming per-window top-k: tumbling hourly counts per event_type
    (stages/windows.py::tumbling_agg — per-batch combiner) feeding the
    window-keyed top-3 winner pick (stages/analytics.py::topk_per_group)
    — the 'trending now' query every event pipeline runs."""
    from text_to_rdf_ray.stages.analytics import topk_per_group
    from text_to_rdf_ray.stages.windows import tumbling_agg

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts", "value"])
    w = tumbling_agg(ev)
    top = topk_per_group(w, key_col="window_id", sort_col="n",
                         tiebreak_col="event_type", k=3)
    out = top.to_pandas()
    for c in ("window_id", "n", "rank"):
        out[c] = out[c].astype("int64")
    return (out[["window_id", "event_type", "n", "rank"]]
            .sort_values(["window_id", "rank"]).reset_index(drop=True))


def _events_survival(sf_dir: str) -> pd.DataFrame:
    """Kaplan–Meier life table (stages/windows.py::survival_table):
    per-user lifetime = last − first event; users active within 7 days
    of the corpus max are right-censored.  Integer sufficient
    statistics; factor = 1 − deaths/at_risk per day row."""
    from text_to_rdf_ray.stages.windows import survival_table

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    out = survival_table(ev)
    out["factor"] = _r(out["factor"], 6)
    return out.sort_values("day").reset_index(drop=True)


def _embeddings_mmr(sf_dir: str) -> pd.DataFrame:
    """Maximal-marginal-relevance diversified top-5
    (stages/retrieval.py::mmr_rerank, λ=0.7 μ=0.3) for the vec_id-0
    query over the embedding table: distributed cosine candidate
    generation (top-20), bounded driver greedy with every cosine and
    score rounded to 6dp before each argmax.  Oracle: 5 unrolled greedy
    steps."""
    from text_to_rdf_ray.stages.retrieval import mmr_rerank

    out = mmr_rerank(_embeddings(sf_dir), query_vec_id=0,
                     n_candidates=20, k=5, lam=0.7, mu=0.3)
    out["pick"] = out["pick"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    out["rel"] = out["rel"].astype("float64")
    return (out[["pick", "vec_id", "rel"]]
            .sort_values("pick").reset_index(drop=True))


def _docs_dsir_sample(sf_dir: str) -> pd.DataFrame:
    """DSIR importance resampling (stages/curation.py::dsir_sample):
    select 100 docs whose hashed-token distribution matches the lang-en
    target slice — hashed bag models (B=256), add-one smoothing, Gumbel
    top-k on round(score + G, 6).  The distinct-token → bucket map is
    the golden side table (FNV, like the quality classifier); the
    models, scores, Gumbel draw and ranking all replay in SQL."""
    from text_to_rdf_ray.kernels.minhash import _hash_shingles
    from text_to_rdf_ray.stages.exchange import exchange_agg
    from text_to_rdf_ray.stages.curation import _terms, dsir_sample

    docs = _documents(sf_dir).select_columns(["doc_id", "text", "lang"])

    def tok(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"term": [
            t for txt in b["text"] for t in _terms(txt or "")]})

    vocab = (exchange_agg(docs.map_batches(tok, batch_format="pandas"),
                          ["term"])
             .to_pandas().sort_values("term").reset_index(drop=True))
    vocab["bucket"] = (_hash_shingles(vocab["term"].tolist())
                       % np.uint64(256)).astype(np.int64)
    _side_write("docs_dsir_sample", "vocab.parquet", vocab)

    out = dsir_sample(docs, target_col="lang", target_value="en",
                      dim=256, k=100, seed=77).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    out["score"] = _r(out["score"], 6)
    out["gkey"] = out["gkey"].astype("float64")
    return (out[["doc_id", "n_tokens", "score", "gkey", "rank"]]
            .sort_values("rank").reset_index(drop=True))


def _parts_blocking_quality(sf_dir: str) -> pd.DataFrame:
    """ER blocking-quality readout (stages/dedup.py::blocking_quality)
    for the window-3 sorted-neighborhood blocker on part names: gold =
    exact-name pairs (Σ C(c,2), never materialized), reduction ratio vs
    C(N,2), pairs completeness over the candidates."""
    from text_to_rdf_ray.stages.dedup import (blocking_quality,
                                              sorted_neighborhood_pairs)

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_partkey", "p_name"])
    pairs = sorted_neighborhood_pairs(parts, key_col="p_name",
                                      id_col="p_partkey", window=3)
    out = blocking_quality(pairs, parts, id_col="p_partkey",
                           key_col="p_name")
    out["reduction_ratio"] = _r(out["reduction_ratio"], 6)
    out["pairs_completeness"] = _r(out["pairs_completeness"], 6)
    return out


def _kg_bgp_optional(sf_dir: str) -> pd.DataFrame:
    """SPARQL OPTIONAL (stages/kgops.py::bgp_match_optional): entities
    located in a EUROPE nation, OPTIONAL { ?e named ?ename } — only
    suppliers carry 'named' literals, so customers surface with ename
    unbound (NULL), the left-join semantics OPTIONAL defines."""
    from text_to_rdf_ray.stages.kgops import bgp_match_optional

    def rel(table, cols, fmt):
        ds = rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                             columns=cols, override_num_blocks=2)
        return ds.map_batches(fmt, batch_format="pandas")

    def supp(b):
        loc = pd.DataFrame({
            "subj": "supplier_" + b["s_suppkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["s_nationkey"].astype(str)})
        named = pd.DataFrame({
            "subj": "supplier_" + b["s_suppkey"].astype(str),
            "pred": "named", "obj": b["s_name"].astype(str)})
        return pd.concat([loc, named], ignore_index=True)

    def cust(b):
        return pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["c_nationkey"].astype(str)})

    def nat(b):
        return pd.DataFrame({
            "subj": "nation_" + b["n_nationkey"].astype(str),
            "pred": "part_of",
            "obj": "region_" + b["n_regionkey"].astype(str)})

    def reg(b):
        return pd.DataFrame({
            "subj": "region_" + b["r_regionkey"].astype(str),
            "pred": "named", "obj": b["r_name"].astype(str)})

    triples = (rel("supplier", ["s_suppkey", "s_name", "s_nationkey"],
                   supp)
               .union(rel("customer", ["c_custkey", "c_nationkey"], cust))
               .union(rel("nation", ["n_nationkey", "n_regionkey"], nat))
               .union(rel("region", ["r_regionkey", "r_name"], reg))
               .materialize())
    out = bgp_match_optional(
        triples,
        [("?r", "named", "EUROPE"),
         ("?n", "part_of", "?r"),
         ("?e", "located_in", "?n")],
        [("?e", "named", "?ename")]).to_pandas()
    out["ename"] = out["ename"].astype(object).where(
        out["ename"].notna(), None)
    return (out[["e", "n", "ename"]]
            .sort_values(["e", "n"], na_position="last")
            .reset_index(drop=True))


def _events_pattern_match(sf_dir: str) -> pd.DataFrame:
    """CEP adjacency pattern (stages/windows.py::pattern_adjacent):
    view IMMEDIATELY followed by purchase within 1h per user — the
    MATCH_RECOGNIZE primitive funnel's skip-between semantics can't
    express."""
    from text_to_rdf_ray.stages.windows import pattern_adjacent

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts",
                                  "event_type"])
    out = pattern_adjacent(ev, first="view", second="purchase",
                           max_gap_us=3_600_000_000).to_pandas()
    if out.empty or "first_id" not in out.columns:
        return pd.DataFrame({c: pd.Series(dtype="int64")
                             for c in ("user_id", "first_id",
                                       "second_id", "gap_us")})
    return (out[["user_id", "first_id", "second_id", "gap_us"]]
            .sort_values(["user_id", "first_id"]).reset_index(drop=True))


def _orders_dpp_join(sf_dir: str) -> pd.DataFrame:
    """Dynamic partition pruning (Spark DPP shape): the DIMENSION
    filter's surviving keys (rich customers of nation 1 — bounded,
    guarded) prune the FACT scan via the lakehouse Bloom/zone-map
    layout (stages/lakehouse.py::clustered_write + point_lookup, orders
    clustered AND Bloom'd on o_custkey), then a driver-side broadcast
    merge + revenue rollup.  bloomscan_* counters prove files were
    skipped; the layout must be invisible in the result."""
    from text_to_rdf_ray.stages.lakehouse import clustered_write, point_lookup

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_nationkey",
                                    "c_acctbal"])
    dim = cust.map_batches(
        lambda t: t.filter(pc.and_(
            pc.equal(t.column("c_nationkey"), pa.scalar(1)),
            pc.greater_equal(t.column("c_acctbal"),
                             pa.scalar(5000.0)))),
        batch_format="pyarrow").to_pandas()
    keys = sorted(int(k) for k in dim["c_custkey"])
    if len(keys) > 100_000:
        raise ValueError("dpp_join: dimension filter not selective "
                         f"enough to broadcast ({len(keys)} keys)")

    path = os.path.join(_TMP, "lakehouse", "orders_by_cust")
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey",
                                      "o_totalprice"])
    clustered_write(orders, path, key_col="o_custkey", num_files=16,
                    bloom_col="o_custkey")
    from text_to_rdf_ray.stages.exchange import exchange_agg

    hit = point_lookup(path, col="o_custkey", values=keys)
    agg = exchange_agg(
        hit.map_batches(
            lambda t: pa.table({
                "c_custkey": t.column("o_custkey").cast(pa.int64()),
                "one": pa.array(np.ones(t.num_rows, np.int64)),
                "o_totalprice": t.column("o_totalprice")}),
            batch_format="pyarrow"),
        "c_custkey", [("one", "sum", "n_orders"),
                      ("o_totalprice", "sum", "revenue")],
        num_partitions=16).to_pandas()  # <= |keys| rows by construction
    if agg.empty:
        return pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                             "n_orders": pd.Series(dtype="int64"),
                             "revenue": pd.Series(dtype="float64")})
    agg["c_custkey"] = agg["c_custkey"].astype("int64")
    agg["n_orders"] = agg["n_orders"].astype("int64")
    agg["revenue"] = _r(agg["revenue"], 2)
    return (agg[["c_custkey", "n_orders", "revenue"]]
            .sort_values("c_custkey").reset_index(drop=True))


def _events_time_travel(sf_dir: str) -> pd.DataFrame:
    """Iceberg-lite time travel (stages/lakehouse.py::commit_version /
    read_version): v1 = a third of events, v2 = append the rest, v3 =
    OVERWRITE with the value>=10 slice — then read all three versions
    back (v1/v2 still intact after the overwrite) and report
    (version, n_rows, sum_value).  The oracle recomputes each
    version's contents from the base table: the log layout must be
    invisible."""
    import shutil

    from text_to_rdf_ray.stages.lakehouse import commit_version, read_version

    path = os.path.join(_TMP, "lakehouse", "events_versions")
    shutil.rmtree(path, ignore_errors=True)
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])

    def third(t: pa.Table, want: bool) -> pa.Table:
        ids = t.column("event_id").to_numpy(zero_copy_only=False)
        mod = pa.array(ids % 3 == 0)
        return t.filter(mod if want else pc.invert(mod))

    commit_version(ev.map_batches(lambda t: third(t, True),
                                  batch_format="pyarrow"), path)
    commit_version(ev.map_batches(lambda t: third(t, False),
                                  batch_format="pyarrow"), path,
                   mode="append")
    commit_version(ev.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("value"),
                                            pa.scalar(10.0))),
        batch_format="pyarrow"), path, mode="overwrite")

    rows = []
    for v in (1, 2, 3):
        ds = read_version(path, v)
        part = ds.map_batches(
            lambda t: pa.table({
                "n": pa.array([t.num_rows], pa.int64()),
                "s": pa.array([float(pc.sum(t.column("value"))
                               .as_py() or 0.0)], pa.float64())}),
            batch_format="pyarrow").to_pandas()
        rows.append((v, int(part["n"].sum()),
                     float(_r(pd.Series([part["s"].sum()]), 2)[0])))
    return pd.DataFrame(rows, columns=["version", "n_rows",
                                       "sum_value"])


def _docs_auc(sf_dir: str) -> pd.DataFrame:
    """Distributed ROC AUC (stages/analytics.py::auc_score — sort-free
    Mann–Whitney U over the per-score count table, integer-exact until
    the final division): how well doc length separates English docs."""
    from text_to_rdf_ray.stages.analytics import auc_score

    docs = _documents(sf_dir).map_batches(
        lambda b: pd.DataFrame({
            "score": b["n_chars"].astype("int64"),
            "label": (b["lang"] == "en").astype("int64")}),
        batch_format="pandas")
    out = auc_score(docs, score_col="score", label_col="label")
    out["auc"] = _r(out["auc"], 6)
    return out


def _events_psi_drift(sf_dir: str) -> pd.DataFrame:
    """PSI drift report (stages/analytics.py::psi_bins): value
    distribution of 'view' vs 'purchase' events over 10 equal-width
    bins of [0, 500) — integer bin counts + per-bin psi_term,
    PSI = Σ psi_term."""
    from text_to_rdf_ray.stages.analytics import psi_bins

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    out = psi_bins(ev, value_col="value", group_col="event_type",
                   a_value="view", b_value="purchase",
                   lo=0.0, hi=500.0, bins=10)
    out["psi_term"] = _r(out["psi_term"], 6)
    return out.sort_values("bin").reset_index(drop=True)


def _events_calibration(sf_dir: str) -> pd.DataFrame:
    """Reliability diagram (stages/analytics.py::calibration_bins):
    sigmoid((value−250)/50) as the probabilistic score, purchase as the
    label — per score bin, predicted probability vs observed rate."""
    from text_to_rdf_ray.stages.analytics import calibration_bins

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        v = b["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "score": 1.0 / (1.0 + np.exp(-((v - 250.0) / 50.0))),
            "label": (b["event_type"] == "purchase").astype("int64")})

    out = calibration_bins(ev.map_batches(score, batch_format="pandas"),
                           score_col="score", label_col="label",
                           bins=10)
    out["frac_pos"] = _r(out["frac_pos"], 6)
    out["avg_score"] = _r(out["avg_score"], 6)
    return out.sort_values("bin").reset_index(drop=True)


def _events_burst_detect(sf_dir: str) -> pd.DataFrame:
    """Windowed burst detection (stages/windows.py::burst_detect):
    hourly event counts per type, z-scored against the trailing 6
    present windows (population mean/var over exact integer rolling
    sums) — the trending/anomaly-spike primitive.  Oracle replays the
    rolling sums with ROWS BETWEEN window frames and the identical
    float expressions."""
    from text_to_rdf_ray.stages.windows import burst_detect

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts"])
    out = burst_detect(ev, baseline=6, z_threshold=2.0).to_pandas()
    out["window_id"] = out["window_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    for c in ("base_mean", "base_var", "z"):
        out[c] = _r(out[c], 6)
    out["burst"] = out["burst"].astype(bool)
    return (out[["event_type", "window_id", "n", "base_mean", "base_var",
                 "z", "burst"]]
            .sort_values(["event_type", "window_id"])
            .reset_index(drop=True))


def _events_linear_fill(sf_dir: str) -> pd.DataFrame:
    """Linear-interpolation densification (stages/windows.py::
    resample_fill with fill='linear'): gap hours interpolate between
    their present anchors, trailing gaps carry like LOCF.  Oracle:
    the locf grid + a descending-window next-anchor and the identical
    interpolation expression."""
    from text_to_rdf_ray.stages.windows import resample_fill

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    out = resample_fill(ev, fill="linear").to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["window_id"] = out["window_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["sum_value"] = _r(out["sum_value"], 6)
    return (out[["user_id", "window_id", "n", "sum_value"]]
            .sort_values(["user_id", "window_id"]).reset_index(drop=True))


def _events_cohort_ltv(sf_dir: str) -> pd.DataFrame:
    """Cohort LTV curves (stages/windows.py::cohort_ltv): first-event
    day cohorts, purchase revenue by day-age, cumulative per-cohort
    revenue over cohort size — distributed until the time-bounded
    (cohorts x ages) grid."""
    from text_to_rdf_ray.stages.windows import cohort_ltv

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_type",
                                  "value"])
    out = cohort_ltv(ev)
    return (out.sort_values(["cohort_day", "age"])
            .reset_index(drop=True))


def _orders_assoc_rules(sf_dir: str) -> pd.DataFrame:
    """Market-basket association rules (stages/analytics.py::
    assoc_rules, depth-2 Apriori): directed part->part rules with
    support / confidence / lift over order baskets; pair counts via
    the co-purchase self exchange_join, item counts attached by two
    keyed exchange_joins."""
    from text_to_rdf_ray.stages.analytics import assoc_rules

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    out = assoc_rules(li, basket_col="l_orderkey",
                      item_col="l_partkey",
                      min_pair_count=2).to_pandas()
    for c in ("antecedent", "consequent", "n_ab"):
        out[c] = out[c].astype("int64")
    return (out[["antecedent", "consequent", "n_ab", "support",
                 "confidence", "lift"]]
            .sort_values(["antecedent", "consequent"])
            .reset_index(drop=True))


def _events_did_impact(sf_dir: str) -> pd.DataFrame:
    """Difference-in-differences impact estimate (stages/analytics.py::
    did_estimate): treated = even user_id, post = from 2024-01-16;
    four (treat, post) cells of (n, Σx, Σx²) via one combiner
    exchange, 6dp-rounded cell means/vars before differencing."""
    from text_to_rdf_ray.stages.analytics import did_estimate

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    cut_day = 19738  # 2024-01-16 as epoch days

    def flags(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        day = (t.column("ts").cast(pa.timestamp("us"))
               .cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        return pa.table({
            "treat": pa.array(uid % 2 == 0),
            "post": pa.array(day >= cut_day),
            "value": t.column("value")})

    return did_estimate(ev.map_batches(flags, batch_format="pyarrow"),
                        treat_col="treat", post_col="post",
                        value_col="value")


_ALLOWED_TRANSITIONS = [
    ("signup", "view"), ("view", "view"), ("view", "click"),
    ("click", "view"), ("click", "purchase"), ("purchase", "view"),
    ("error", "view"), ("view", "error"),
]


def _events_fsm_conformance(sf_dir: str) -> pd.DataFrame:
    """Process-model conformance audit (stages/windows.py::
    fsm_conformance): per-user transition sequences scored against a
    fixed allowed-transition whitelist — one key exchange, key-local
    counts."""
    from text_to_rdf_ray.stages.windows import fsm_conformance

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_type",
                                  "event_id"])
    out = fsm_conformance(ev, _ALLOWED_TRANSITIONS).to_pandas()
    for c in ("user_id", "n_steps", "n_violations"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "n_steps", "n_violations", "conformance"]]
            .sort_values("user_id").reset_index(drop=True))


def _custs_rfm_segments(sf_dir: str) -> pd.DataFrame:
    """RFM segmentation (stages/analytics.py::rfm_segments): exact
    NTILE quintiles over the customer dimension, ties on custkey —
    bit-identical to the SQL window."""
    from text_to_rdf_ray.stages.analytics import rfm_segments

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_custkey", "o_orderdate",
                                      "o_totalprice"])
    return rfm_segments(orders).reset_index(drop=True)


def _parts_abc_classes(sf_dir: str) -> pd.DataFrame:
    """ABC / Pareto analysis of part revenue (stages/analytics.py::
    abc_analysis): lineitem revenue per part (2dp pre-round), ranked
    cumulative share, 80/95 class cut."""
    from text_to_rdf_ray.stages.analytics import abc_analysis

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        ep = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = t.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "rev": pa.array(np.round(ep * (1.0 - dc), 2),
                            pa.float64())})

    out = abc_analysis(li.map_batches(rev, batch_format="pyarrow"),
                       key_col="l_partkey", value_col="rev")
    return (out.rename(columns={"key": "l_partkey"})
            .sort_values("l_partkey").reset_index(drop=True))


def _embeddings_triplets(sf_dir: str) -> pd.DataFrame:
    """Hard-example triplet mining (stages/knn.py::triplet_mining):
    hardest positive / hardest negative per anchor by 6dp-rounded
    cosine with min-id tiebreaks — the knn_bruteforce broadcast
    pattern, two matmuls per batch."""
    from text_to_rdf_ray.stages.knn import triplet_mining

    out = triplet_mining(_embeddings(sf_dir)).to_pandas()
    for c in ("vec_id", "pos_id", "neg_id"):
        out[c] = out[c].astype("int64")
    return (out[["vec_id", "pos_id", "neg_id", "pos_sim", "neg_sim",
                 "margin"]]
            .sort_values("vec_id").reset_index(drop=True))


def _events_user_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-user behavioral entropy over event types (stages/
    analytics.py::group_entropy): H = ln(N) - Σ n ln n / N via two
    count exchanges, no per-key probability pass."""
    from text_to_rdf_ray.stages.analytics import group_entropy

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])
    out = group_entropy(ev, key_col="user_id",
                        cat_col="event_type").to_pandas()
    out = out.rename(columns={"key": "user_id"})
    for c in ("user_id", "n", "n_cats"):
        out[c] = out[c].astype("int64")
    return (out[["user_id", "n", "n_cats", "entropy"]]
            .sort_values("user_id").reset_index(drop=True))


def _parts_revenue_gini(sf_dir: str) -> pd.DataFrame:
    """Revenue concentration Gini over parts (stages/analytics.py::
    gini_coefficient) — same 2dp revenue derivation as
    parts_abc_classes, ranked ascending with key tiebreak."""
    from text_to_rdf_ray.stages.analytics import gini_coefficient

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        ep = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = t.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "rev": pa.array(np.round(ep * (1.0 - dc), 2),
                            pa.float64())})

    out = gini_coefficient(li.map_batches(rev, batch_format="pyarrow"),
                           key_col="l_partkey", value_col="rev")
    out["n_keys"] = out["n_keys"].astype("int64")
    return out.reset_index(drop=True)


def _events_power_analysis(sf_dir: str) -> pd.DataFrame:
    """A/B sample-size calculation for the event value metric
    (stages/analytics.py::power_analysis, MDE 0.5 absolute,
    alpha 0.05 / power 0.80 normal approximation)."""
    from text_to_rdf_ray.stages.analytics import power_analysis

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    out = power_analysis(ev, value_col="value", mde_abs=0.5)
    out["n"] = out["n"].astype("int64")
    out["n_per_arm"] = out["n_per_arm"].astype("int64")
    return out.reset_index(drop=True)


def _events_dau_wau(sf_dir: str) -> pd.DataFrame:
    """DAU/WAU/stickiness per day (stages/windows.py::dau_wau): exact
    trailing-7-day distinct actives via constant-factor pair
    replication — no windowed distinct union ever materializes."""
    from text_to_rdf_ray.stages.windows import dau_wau

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    out = dau_wau(ev).to_pandas()
    for c in ("day", "dau", "wau"):
        out[c] = out[c].astype("int64")
    return (out[["day", "dau", "wau", "stickiness"]]
            .sort_values("day").reset_index(drop=True))


def _events_locf_fill(sf_dir: str) -> pd.DataFrame:
    """LOCF densification (stages/windows.py::resample_fill with
    fill='locf'): per-user hourly grid where silent hours carry the
    last present hour's sum_value forward (n stays 0) — the sensor /
    price-series imputation rule.  Oracle: generate_series grid + a
    running max-present-window carry join."""
    from text_to_rdf_ray.stages.windows import resample_fill

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    out = resample_fill(ev, fill="locf").to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["window_id"] = out["window_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["sum_value"] = _r(out["sum_value"], 6)
    return (out[["user_id", "window_id", "n", "sum_value"]]
            .sort_values(["user_id", "window_id"]).reset_index(drop=True))


def _events_holt_trend(sf_dir: str) -> pd.DataFrame:
    """Per-user Holt double exponential smoothing (stages/windows.py::
    double_smooth, α=0.5 β=0.3): level + trend recurrences evaluated as
    the literal expressions, one fused numpy pass per sequence position
    — the recursive-CTE oracle reproduces every float bit (6dp rounding
    is belt-and-braces, as with events_ewma)."""
    from text_to_rdf_ray.stages.windows import double_smooth

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value", "event_id"])
    out = double_smooth(ev, alpha=0.5, beta=0.3).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["level"] = _r(out["level"], 6)
    out["trend"] = _r(out["trend"], 6)
    return (out[["user_id", "event_id", "level", "trend"]]
            .sort_values(["user_id", "event_id"]).reset_index(drop=True))


def _kg_property_path(sf_dir: str) -> pd.DataFrame:
    """SPARQL property path p{1,3} (stages/kgops.py::property_path) over
    a derived order-succession graph: each order points at the
    customer's next order (next_order), plus placed_by distractor
    triples that must be pruned by the predicate filter.  Output: all
    (src, dst, min hops ≤ 3) pairs.  Oracle: lead() edge derivation +
    bounded recursive CTE."""
    from text_to_rdf_ray.stages.exchange import keyed_apply
    from text_to_rdf_ray.stages.kgops import property_path

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])

    def next_edges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderkey"], kind="mergesort")
        nxt = g.groupby("o_custkey", sort=False)["o_orderkey"].shift(-1)
        m = nxt.notna()
        return pd.DataFrame({
            "subj": "order_" + g.loc[m, "o_orderkey"].astype(str),
            "pred": "next_order",
            "obj": "order_" + nxt[m].astype("int64").astype(str)})

    edges = keyed_apply(orders, "o_custkey", next_edges, num_partitions=32)
    distract = orders.map_batches(
        lambda b: pd.DataFrame({
            "subj": "order_" + b["o_orderkey"].astype(str),
            "pred": "placed_by",
            "obj": "customer_" + b["o_custkey"].astype(str)}),
        batch_format="pandas")
    out = property_path(edges.union(distract), "next_order",
                        max_hops=3).to_pandas()
    out["hops"] = out["hops"].astype("int64")
    return (out[["src", "dst", "hops"]]
            .sort_values(["src", "dst"]).reset_index(drop=True))


def _kg_cardinality_violations(sf_dir: str) -> pd.DataFrame:
    """OWL functional-property audit (stages/kgops.py::
    cardinality_check): located_in declared single-valued; violations
    PLANTED for custkey % 11 == 0 (second nation), duplicate
    assertions of the SAME object planted for custkey % 7 == 0 (must
    NOT violate), multi-valued 'likes' triples as unaudited
    distractors.  Oracle replays the mutation + HAVING count(DISTINCT
    obj) > 1."""
    from text_to_rdf_ray.stages.kgops import cardinality_check

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_nationkey"])

    def triples(b: pd.DataFrame) -> pd.DataFrame:
        ck = b["c_custkey"].to_numpy(np.int64)
        nk = b["c_nationkey"].to_numpy(np.int64)
        base = pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "located_in",
            "obj": "nation_" + b["c_nationkey"].astype(str)})
        dup = base[ck % 7 == 0]
        extra = pd.DataFrame({
            "subj": "customer_" + pd.Series(ck[ck % 11 == 0]).astype(str),
            "pred": "located_in",
            "obj": "nation_" + pd.Series((nk[ck % 11 == 0] + 1) % 25)
                   .astype(str)})
        likes_a = pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "likes",
            "obj": "part_" + pd.Series(ck % 50).astype(str)})
        likes_b = pd.DataFrame({
            "subj": "customer_" + b["c_custkey"].astype(str),
            "pred": "likes",
            "obj": "part_" + pd.Series((ck + 1) % 50).astype(str)})
        return pd.concat([base, dup, extra, likes_a, likes_b],
                         ignore_index=True)

    out = cardinality_check(
        cust.map_batches(triples, batch_format="pandas"),
        ["located_in"]).to_pandas()
    out["n_objects"] = out["n_objects"].astype("int64")
    return (out[["subj", "pred", "n_objects"]]
            .sort_values(["subj", "pred"]).reset_index(drop=True))


def _events_sampled_quantiles(sf_dir: str) -> pd.DataFrame:
    """Quantile estimation by deterministic hash-threshold sampling
    (stages/analytics.py::sampled_quantiles, rate=0.25): keep rows with
    splitmix64(event_id) < 2^62, exact quantiles of the sample — the
    mergeable, order-independent alternative to GK/t-digest whose SQL
    replay is bit-exact rather than within-tolerance."""
    from text_to_rdf_ray.stages.analytics import sampled_quantiles

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    out = sampled_quantiles(ev, id_col="event_id", key_col="event_type",
                            value_col="value", rate=0.25,
                            qs=[0.5, 0.95])
    out = out.rename(columns={"q_0.5": "q_50", "q_0.95": "q_95"})
    out["n"] = out["n"].astype("int64")
    out["q_50"] = _r(out["q_50"], 6)
    out["q_95"] = _r(out["q_95"], 6)
    return (out[["event_type", "n", "q_50", "q_95"]]
            .sort_values("event_type").reset_index(drop=True))


def _docs_wordlist_screen(sf_dir: str) -> pd.DataFrame:
    """C4-style blocklist screen (stages/curation.py::wordlist_screen):
    per-doc blocked-token fraction over space-split lowercase tokens,
    keep iff fraction < 2% — the cheap lexical gate before model
    scorers.  Oracle: list_filter over string_split replays the token
    and hit counts exactly."""
    from text_to_rdf_ray.stages.curation import wordlist_screen

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = wordlist_screen(
        docs, ["the", "and", "quick", "lazy"], max_frac=0.02).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_blocked"] = out["n_blocked"].astype("int64")
    out["blocked_frac"] = _r(out["blocked_frac"], 6)
    out["keep"] = out["keep"].astype(bool)
    return (out[["doc_id", "n_tokens", "n_blocked", "blocked_frac",
                 "keep"]]
            .sort_values("doc_id").reset_index(drop=True))


def _graph_closeness(sf_dir: str) -> pd.DataFrame:
    """Landmark closeness centrality (stages/graph.py::
    closeness_from_seeds on multi_source_bfs): per-seed BFS levels with
    tracked provenance over the supplier↔customer bipartite graph,
    seeds = every-5th supplier, k=2; closeness = n_reached / sum of
    first-reach levels.  Oracle: seed-tracked bounded recursive CTE +
    min(level) + the identical ratio."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import closeness_from_seeds

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        s = b["supp"].astype("int64")
        c = b["cust"].astype("int64") + 1_000_000
        return pd.DataFrame({"src": pd.concat([s, c], ignore_index=True),
                             "dst": pd.concat([c, s], ignore_index=True)})

    edges = joined.map_batches(both_dirs, batch_format="pandas")
    seeds = [int(x) for x in pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey"]).column("s_suppkey").to_pylist()
        if x % 5 == 0]
    out = closeness_from_seeds(edges, seeds, k=2,
                               num_partitions=16).to_pandas()
    out["seed"] = out["seed"].astype("int64")
    out["n_reached"] = out["n_reached"].astype("int64")
    out["sum_dist"] = out["sum_dist"].astype("int64")
    out["closeness"] = _r(out["closeness"], 6)
    return (out[["seed", "n_reached", "sum_dist", "closeness"]]
            .sort_values("seed").reset_index(drop=True))


def _events_rate_limit(sf_dir: str) -> pd.DataFrame:
    """Per-user streaming throttle (stages/windows.py::rate_limit):
    keep only the first 3 events per (user, hour) in (ts, event_id)
    order — the abusive-client / inference-cap sampler.  Oracle:
    row_number() over the identical partition and order."""
    from text_to_rdf_ray.stages.windows import rate_limit

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts"])
    out = rate_limit(ev, max_per_window=3).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["window_id"] = out["window_id"].astype("int64")
    return (out[["event_id", "user_id", "window_id"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_autocorr(sf_dir: str) -> pd.DataFrame:
    """Per-type autocorrelation of the hourly count series at row lags
    1..3 (stages/windows.py::autocorr) — the seasonality readout for
    lag-feature selection.  Present windows only (burst_detect
    convention); acf_k = Σ d_t d_{t-k} / Σ d_t² with d mean-centered
    (integer sums → the mean is float-exact, so 6dp absorbs only the
    Σd² accumulation order).  Oracle: lag() window replay."""
    from text_to_rdf_ray.stages.windows import autocorr

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts"])
    out = autocorr(ev, lags=(1, 2, 3)).to_pandas()
    out["lag"] = out["lag"].astype("int64")
    out["n_windows"] = out["n_windows"].astype("int64")
    out["acf"] = _r(out["acf"], 6)
    return (out[["event_type", "lag", "n_windows", "acf"]]
            .sort_values(["event_type", "lag"]).reset_index(drop=True))


def _events_delete_vectors(sf_dir: str) -> pd.DataFrame:
    """Iceberg-v2-style positional deletes (stages/lakehouse.py::
    positional_delete / read_with_deletes): data files stay immutable;
    a bounded broadcast key set becomes per-file deletion vectors
    (row positions), and the masked scan hides exactly those rows.
    Oracle: the plain anti-filter — the DV layout must be invisible."""
    import shutil

    from text_to_rdf_ray.stages.lakehouse import (positional_delete,
                                                  read_with_deletes)

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id"])
    path = os.path.join(_SIDE, "events_delete_vectors", "tab")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    ev.repartition(8).write_parquet(path)
    keys = [int(x) for x in pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id"]).column("event_id").to_pylist()
        if x % 7 == 0]
    positional_delete(path, "event_id", keys)
    out = read_with_deletes(path).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return (out[["event_id", "user_id"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_benford(sf_dir: str) -> pd.DataFrame:
    """Benford's-law first-digit audit per event type
    (stages/analytics.py::benford_audit): integer-cents fix, first
    significant digit by integer division, Benford-expected counts and
    chi-square terms.  Oracle: the identical cents/digit/expectation
    arithmetic (floor before the BIGINT cast — DuckDB CAST rounds)."""
    from text_to_rdf_ray.stages.analytics import benford_audit

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    out = benford_audit(ev).to_pandas()
    out["digit"] = out["digit"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["expected_n"] = _r(out["expected_n"], 6)
    out["chi2_term"] = _r(out["chi2_term"], 6)
    return (out[["event_type", "digit", "n", "expected_n", "chi2_term"]]
            .sort_values(["event_type", "digit"]).reset_index(drop=True))


def _events_kanon(sf_dir: str) -> pd.DataFrame:
    """k-anonymity / l-diversity audit (stages/curation.py::kanon_audit)
    over the (event_type, hour-of-day) quasi-identifier with user_id as
    the sensitive attribute, k=5 / l=2 — the privacy gate on
    user-derived training records.  Oracle: GROUP BY the same quasi
    columns with count(*) / count(DISTINCT)."""
    from text_to_rdf_ray.stages.curation import kanon_audit

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts", "user_id"])

    def add_hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "hour": b["ts"].dt.hour.astype("int64"),
                             "user_id": b["user_id"]})

    out = kanon_audit(ev.map_batches(add_hour, batch_format="pandas"),
                      quasi_cols=["event_type", "hour"],
                      sensitive_col="user_id", k=5, l=2).to_pandas()
    out["hour"] = out["hour"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["n_sensitive"] = out["n_sensitive"].astype("int64")
    out["k_violation"] = out["k_violation"].astype(bool)
    out["l_violation"] = out["l_violation"].astype(bool)
    return (out[["event_type", "hour", "n", "n_sensitive",
                 "k_violation", "l_violation"]]
            .sort_values(["event_type", "hour"]).reset_index(drop=True))


def _dedup_semdedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup semantic dedup (stages/dedup.py::semdedup): k-means
    (k=8, 5 iters, deterministic lowest-id init) then within-cluster
    drop of every vector whose 6dp-rounded cosine to a LOWER-id member
    exceeds 0.95.  Planted exact duplicates (id+offset, same bytes —
    identical centroid distances, so both engines cluster them with
    their originals) guarantee the drop path fires.  Oracle: assignment
    argmin replayed from the centroid side table (kmeans_embeddings
    pattern), then the same first-wins rule as a within-cluster
    self-join."""
    from text_to_rdf_ray.stages.dedup import semdedup
    from text_to_rdf_ray.stages.knn import kmeans_lloyd

    emb = _embeddings(sf_dir).select_columns(["vec_id", "embedding"])

    def planted(batch: pa.Table) -> pa.Table:
        return pa.table({
            "vec_id": pc.add(batch.column("vec_id"),
                             pa.scalar(_EMB_DUP_OFFSET)),
            "embedding": batch.column("embedding")})

    aug = emb.union(emb.map_batches(planted, batch_format="pyarrow"))
    assign, cent = kmeans_lloyd(aug, id_col="vec_id",
                                emb_col="embedding", k=8, iters=5)
    k, d = cent.shape
    _side_write("dedup_semdedup", "centroids.parquet", pd.DataFrame({
        "cluster": np.repeat(np.arange(k, dtype=np.int64), d),
        "dim": np.tile(np.arange(d, dtype=np.int64), k),
        "val": cent.ravel()}))
    out = semdedup(aug, assignments=assign, tau=0.95).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["cluster"] = out["cluster"].astype("int64")
    out["keep"] = out["keep"].astype(bool)
    return (out[["vec_id", "cluster", "keep"]]
            .sort_values("vec_id").reset_index(drop=True))


def _graph_neighbor_agg(sf_dir: str) -> pd.DataFrame:
    """One GraphSAGE-style mean-aggregation round (stages/graph.py::
    neighbor_agg) over a deterministic synthetic 2-out-regular graph on
    the embedding ids (v -> (7v+3) mod n and v -> (13v+5) mod n):
    per-destination per-dimension mean of in-neighbor embeddings.
    Oracle: unnest + join + sum/count per (dst, dim)."""
    from text_to_rdf_ray.stages.graph import neighbor_agg

    emb = _embeddings(sf_dir).select_columns(["vec_id", "embedding"])
    n = emb.count()

    def mk_edges(t: pa.Table) -> pa.Table:
        v = t.column("vec_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "src": pa.array(np.concatenate([v, v]), pa.int64()),
            "dst": pa.array(np.concatenate([(v * 7 + 3) % n,
                                            (v * 13 + 5) % n]), pa.int64())})

    edges = emb.map_batches(mk_edges, batch_format="pyarrow")
    out = neighbor_agg(edges, emb).to_pandas()
    out["node"] = out["node"].astype("int64")
    out["dim"] = out["dim"].astype("int64")
    out["val"] = _r(out["val"], 6)
    out["n_neighbors"] = out["n_neighbors"].astype("int64")
    return (out[["node", "dim", "val", "n_neighbors"]]
            .sort_values(["node", "dim"]).reset_index(drop=True))


def _events_vacuum_scan(sf_dir: str) -> pd.DataFrame:
    """VACUUM after an OVERWRITE (stages/lakehouse.py::vacuum_table):
    v1 = the event_id%3==0 slice, v2 = append the rest, v3 = OVERWRITE
    with the value>=10 slice; vacuum keep_last=1 drops manifests v1/v2
    and physically deletes every data file only they referenced.  The
    surviving v3 must still read back intact — the oracle recomputes
    its contents from the base table (physical deletion itself is
    pytest-asserted)."""
    import shutil

    from text_to_rdf_ray.stages.lakehouse import (commit_version,
                                                  read_version,
                                                  vacuum_table)

    path = os.path.join(_TMP, "lakehouse", "events_vacuum")
    shutil.rmtree(path, ignore_errors=True)
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])

    def third(t: pa.Table, want: bool) -> pa.Table:
        ids = t.column("event_id").to_numpy(zero_copy_only=False)
        mod = pa.array(ids % 3 == 0)
        return t.filter(mod if want else pc.invert(mod))

    commit_version(ev.map_batches(lambda t: third(t, True),
                                  batch_format="pyarrow"), path)
    commit_version(ev.map_batches(lambda t: third(t, False),
                                  batch_format="pyarrow"), path,
                   mode="append")
    commit_version(ev.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("value"),
                                            pa.scalar(10.0))),
        batch_format="pyarrow"), path, mode="overwrite")
    res = vacuum_table(path, keep_last=1)
    part = read_version(path, 3).map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "s": pa.array([float(pc.sum(t.column("value"))
                           .as_py() or 0.0)], pa.float64())}),
        batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "n_rows": pd.Series([int(part["n"].sum())], dtype="int64"),
        "sum_value": pd.Series(
            [float(_r(pd.Series([part["s"].sum()]), 2)[0])],
            dtype="float64"),
        "versions_kept": pd.Series([int(res["versions_kept"])],
                                   dtype="int64"),
        "manifests_removed": pd.Series([int(res["manifests_removed"])],
                                       dtype="int64")})


def _events_cusum(sf_dir: str) -> pd.DataFrame:
    """One-sided CUSUM changepoint scores per event type over the hourly
    count series (stages/windows.py::cusum_detect — Page 1954), ref =
    per-key mean count, kappa=0.5, h=4.  BIT-EXACT recurrence: the
    oracle is a recursive CTE stepping rn -> rn+1 with the identical
    float expression (the events_ewma construction)."""
    from text_to_rdf_ray.stages.windows import cusum_detect

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts"])
    out = cusum_detect(ev, kappa=0.5, h=4.0).to_pandas()
    out["window_id"] = out["window_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["alarm"] = out["alarm"].astype(bool)
    out["s"] = _r(out["s"], 6)
    return (out[["event_type", "window_id", "n", "s", "alarm"]]
            .sort_values(["event_type", "window_id"])
            .reset_index(drop=True))


def _events_kmv_users(sf_dir: str) -> pd.DataFrame:
    """KMV distinct-count sketch per event type (stages/analytics.py::
    kmv_distinct): the 64 smallest splitmix64(user_id) hashes; estimate
    (k-1)*2^64/h_(k) — integer-exact until the single final division,
    so the SQL replay is bit-for-bit (kth hash compared as a decimal
    string; uint64 doesn't fit the int64 lane)."""
    from text_to_rdf_ray.stages.analytics import kmv_distinct

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "user_id"])
    out = kmv_distinct(ev, key_col="event_type", id_col="user_id",
                       k=64).to_pandas()
    out["n_kept"] = out["n_kept"].astype("int64")
    out["est_distinct"] = _r(out["est_distinct"], 6)
    return (out[["event_type", "n_kept", "kth_hash", "est_distinct"]]
            .sort_values("event_type").reset_index(drop=True))


def _events_robust_z(sf_dir: str) -> pd.DataFrame:
    """Median/MAD robust z-scores per event type (stages/analytics.py::
    robust_zscore — Iglewicz-Hoaglin modified z, 0.6745): two exact-
    quantile passes, medians rounded 6dp before use so the arithmetic
    is engine-exact.  Oracle: quantile_cont twice + the identical float
    expression."""
    from text_to_rdf_ray.stages.analytics import robust_zscore

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "value"])
    out = robust_zscore(ev, key_col="event_type", value_col="value",
                        id_col="event_id", z_thresh=3.5).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["rz"] = _r(out["rz"], 6)
    out["outlier"] = out["outlier"].astype(bool)
    return (out[["event_id", "event_type", "value", "rz", "outlier"]]
            .sort_values("event_id").reset_index(drop=True))


def _graph_diameter(sf_dir: str) -> pd.DataFrame:
    """Double-sweep BFS diameter lower bound (stages/graph.py::
    diameter_double_sweep) over the supplier↔customer bipartite graph,
    levels bounded at 6.  Oracle: two chained bounded recursive CTEs
    (UNION-dedup frontier) with the same deterministic farthest pick
    (max level, ties -> min node)."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import diameter_double_sweep

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    joined = exchange_join(
        li.map_batches(lambda b: pd.DataFrame(
            {"okey": b["l_orderkey"], "supp": b["l_suppkey"]}),
            batch_format="pandas"),
        orders.map_batches(lambda b: pd.DataFrame(
            {"okey": b["o_orderkey"], "cust": b["o_custkey"]}),
            batch_format="pandas"),
        on="okey", num_partitions=16,
        left_schema=pa.schema([("okey", pa.int64()),
                               ("supp", pa.int64())]),
        right_schema=pa.schema([("okey", pa.int64()),
                                ("cust", pa.int64())]))

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        s = b["supp"].astype("int64")
        c = b["cust"].astype("int64") + 1_000_000
        return pd.DataFrame({"src": pd.concat([s, c], ignore_index=True),
                             "dst": pd.concat([c, s], ignore_index=True)})

    edges = joined.map_batches(both_dirs, batch_format="pandas")
    out = diameter_double_sweep(edges, k=6,
                                num_partitions=16).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out[["start_node", "ecc_start", "far_node", "diameter_lb"]]


def _events_version_diff(sf_dir: str) -> pd.DataFrame:
    """Snapshot diff between two committed versions (stages/lakehouse.py
    ::version_diff): v1 = the event_id%3==0 slice, v2 = OVERWRITE with
    the value>=10 slice; added = in v2 only, removed = in v1 only —
    the CDF/audit readout.  Oracle: the two anti-filters recomputed
    from the base table (the log layout must be invisible)."""
    import shutil

    from text_to_rdf_ray.stages.lakehouse import commit_version, version_diff

    path = os.path.join(_TMP, "lakehouse", "events_version_diff")
    shutil.rmtree(path, ignore_errors=True)
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])

    def third(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 3 == 0))

    commit_version(ev.map_batches(third, batch_format="pyarrow"), path)
    commit_version(ev.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("value"),
                                            pa.scalar(10.0))),
        batch_format="pyarrow"), path, mode="overwrite")
    out = version_diff(path, 1, 2, cols=["event_id", "value"]).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    return (out[["event_id", "value", "change"]]
            .sort_values(["event_id", "change"]).reset_index(drop=True))


def _kg_construct_rewrite(sf_dir: str) -> pd.DataFrame:
    """SPARQL CONSTRUCT (stages/kgops.py::bgp_construct): WHERE matches
    entities in EUROPE nations, the templates materialize the derived
    graph { ?e in_region ?r . ?r has_member ?e } — the ontology-mapping
    rewrite, DISTINCT set semantics.  Oracle: the relational join +
    two UNION branches."""
    from text_to_rdf_ray.stages.kgops import bgp_construct

    out = bgp_construct(
        _tpch_triples(sf_dir),
        [("?r", "named", "EUROPE"),
         ("?n", "part_of", "?r"),
         ("?e", "located_in", "?n")],
        [("?e", "in_region", "?r"),
         ("?r", "has_member", "?e")]).to_pandas()
    return (out[["subj", "pred", "obj"]]
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))


def _events_dp_counts(sf_dir: str) -> pd.DataFrame:
    """ε-DP Laplace-noised per-type counts (stages/curation.py::
    dp_counts, ε=1, seed=7): deterministic-seeded noise (53-bit uniform
    from splitmix64(rank+seed), exact inverse CDF) so the release — and
    the oracle — replays bit-for-bit.  Only noisy counts are emitted."""
    from text_to_rdf_ray.stages.curation import dp_counts

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type"])
    out = dp_counts(ev, key_col="event_type", epsilon=1.0, seed=7)
    out["noisy_n"] = _r(out["noisy_n"], 6)
    return (out[["event_type", "noisy_n"]]
            .sort_values("event_type").reset_index(drop=True))


def _parts_fs_links(sf_dir: str) -> pd.DataFrame:
    """Fellegi–Sunter linkage scoring (stages/dedup.py::fs_link_scores)
    over brand-blocked part pairs, compared on (p_type, p_size,
    p_name) with fixed m/u agreement probabilities; decisions by the
    (0, 2) thresholds.  Oracle: brand self-join + the identical
    log2-weight CASE sums."""
    from text_to_rdf_ray.stages.dedup import fs_link_scores

    parts = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size", "p_name"])
    out = fs_link_scores(
        parts, id_col="p_partkey", block_col="p_brand",
        fields=["p_type", "p_size", "p_name"],
        m={"p_type": 0.9, "p_size": 0.9, "p_name": 0.95},
        u={"p_type": 0.3, "p_size": 0.1, "p_name": 0.05},
        lower=0.0, upper=2.0).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["w"] = _r(out["w"], 6)
    return (out[["id_a", "id_b", "w", "decision"]]
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def _parts_reciprocal_best(sf_dir: str) -> pd.DataFrame:
    """One-to-one ER assignment (stages/dedup.py::reciprocal_best_match)
    over the same brand-blocked Fellegi-Sunter pair scores as
    parts_fs_links: a pair survives iff each part is the other's
    best-scoring counterpart (6dp-rounded scores, smaller-id
    tiebreak) — order-independent matching, so SQL-replayable."""
    from text_to_rdf_ray.stages.dedup import (fs_link_scores,
                                              reciprocal_best_match)

    parts = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size", "p_name"])
    scored = fs_link_scores(
        parts, id_col="p_partkey", block_col="p_brand",
        fields=["p_type", "p_size", "p_name"],
        m={"p_type": 0.9, "p_size": 0.9, "p_name": 0.95},
        u={"p_type": 0.3, "p_size": 0.1, "p_name": 0.05},
        lower=0.0, upper=2.0)
    out = reciprocal_best_match(scored, round_dp=6).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["score"] = _r(out["score"], 6)
    return (out[["id_a", "id_b", "score"]]
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def _graph_betweenness_parts(sf_dir: str) -> pd.DataFrame:
    """Truncated 4-hop Brandes betweenness (stages/graph.py::
    betweenness_from_seeds) from the 5 smallest part nodes over the
    symmetrized co-purchase graph: distinct u<v pairs from a lineitem
    self exchange_join, symmetrized; per-level dependency quantized
    to int64 nano-units (integer-exact final sums — the engine
    contract replayed by the unrolled SQL)."""
    from text_to_rdf_ray.stages.exchange import exchange_agg, exchange_join
    from text_to_rdf_ray.stages.graph import betweenness_from_seeds

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "pk2": t.column("l_partkey")}),
        batch_format="pyarrow")
    pairs = exchange_join(
        li, right, on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("pk2", pa.int64())]))

    def sym(t: pa.Table) -> pa.Table:
        a = t.column("l_partkey").to_numpy(zero_copy_only=False)
        b = t.column("pk2").to_numpy(zero_copy_only=False)
        m = a != b
        return pa.table({"src": pa.array(a[m], pa.int64()),
                         "dst": pa.array(b[m], pa.int64())})

    edges = pairs.map_batches(sym, batch_format="pyarrow")
    # seeds: 5 smallest nodes — the node set is bounded by the part
    # table (a dimension), so this distinct collect is bounded
    nodes = exchange_agg(
        edges.map_batches(lambda t: t.select(["src"]),
                          batch_format="pyarrow"),
        ["src"]).to_pandas()
    seeds = sorted(int(n) for n in nodes["src"])[:5]
    # sf0.1's co-purchase graph is 2.39M distinct directed edges —
    # just over the default driver tier; the numpy BFS handles it in
    # seconds while the distributed tier pays ~20 fixed exchange
    # rounds, so raise the crossover for this bounded dimension graph
    out = betweenness_from_seeds(edges, seeds, k=4,
                                 driver_max_edges=8_000_000).to_pandas()
    out["node"] = out["node"].astype("int64")
    out["bc_nano"] = out["bc_nano"].astype("int64")
    return (out[["node", "bc_nano", "bc"]]
            .sort_values("node").reset_index(drop=True))


def _web_warc_records(sf_dir: str) -> pd.DataFrame:
    """WARC source round-trip (sources/warc.py::read_warc): 120
    deterministic WARC/1.0 pages (warcinfo + request records the
    reader must skip, Content-Length-framed payloads containing blank
    lines, planted 404s) parsed into the page table; the oracle
    re-parses the SAME shard files with read_text + string slicing
    (ASCII fixture keeps byte offsets == char offsets)."""
    from text_to_rdf_ray.sources.warc import read_warc, write_warc_fixture

    out_dir = os.path.join(_SIDE, "web_warc_records", "warc")
    paths = write_warc_fixture(out_dir, 120, shards=4)
    out = read_warc(paths).to_pandas()
    out["http_status"] = out["http_status"].astype("int64")
    return (out[["target_uri", "record_id", "http_status",
                 "content_type", "body"]]
            .sort_values("target_uri").reset_index(drop=True))


def _web_warc_pipeline(sf_dir: str) -> pd.DataFrame:
    """Webtext ingestion capstone: WARC shards (planted duplicate
    bodies + 404s) -> response/200 filter -> vectorized tag strip +
    whitespace tokenization -> global exact text dedup (min-URI
    keeper via exchange_agg) -> per-host rollup joining pre-dedup
    page counts with keeper counts/token mass.  Every stage the same
    SQL fragment as its standalone-oracled building block."""
    from text_to_rdf_ray.sources.warc import read_warc, write_warc_fixture
    from text_to_rdf_ray.stages.exchange import exchange_agg

    out_dir = os.path.join(_SIDE, "web_warc_pipeline", "warc")
    paths = write_warc_fixture(out_dir, 200, shards=4, dup_every=9)
    pages = read_warc(paths)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["http_status"] == 200]
        txt = b["body"].str.replace(r"<[^>]+>", " ", regex=True)
        toks = txt.str.split(r"[ \r\n\t]+", regex=True).map(
            lambda ws: [t for t in ws if t])
        return pd.DataFrame({
            "host": b["target_uri"].str.split("/").str[2],
            "uri": b["target_uri"],
            "text": toks.str.join(" "),
            "n_tokens": toks.str.len().astype("int64")})

    prepped = pages.map_batches(prep, batch_format="pandas")
    n_pages = exchange_agg(prepped.map_batches(
        lambda t: pa.table({"host": t.column("host"),
                            "one": pa.array(
                                np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow"),
        "host", [("one", "sum", "n_pages")]).to_pandas()
    keep = exchange_agg(prepped, "text",
                        [("uri", "min", "uri"),
                         ("n_tokens", "min", "n_tokens")])
    uniq = exchange_agg(keep.map_batches(
        lambda b: pd.DataFrame({
            "host": b["uri"].str.split("/").str[2],
            "one": np.ones(len(b), np.int64),
            "n_tokens": b["n_tokens"].astype("int64")}),
        batch_format="pandas"),
        "host", [("one", "sum", "n_unique"),
                 ("n_tokens", "sum", "total_tokens")]).to_pandas()
    out = n_pages.merge(uniq, on="host", how="left")
    for c in ("n_pages", "n_unique", "total_tokens"):
        out[c] = out[c].fillna(0).astype("int64")
    return (out[["host", "n_pages", "n_unique", "total_tokens"]]
            .sort_values("host").reset_index(drop=True))


def _kg_property_entailment(sf_dir: str) -> pd.DataFrame:
    """OWL property-characteristics entailment (stages/kgops.py::
    property_entailment): per-brand part chains (first 30 by partkey,
    a bounded dimension fixture) assert `follows` links + `peer_of`
    among the first 10; the operator materializes the symmetric
    expansion, the path-doubled transitive closure of `follows`, and
    the `precedes` inverse mirror of the CLOSED predicate; asserted
    triples stay entailed=false."""
    from text_to_rdf_ray.stages.analytics import topk_per_group
    from text_to_rdf_ray.stages.kgops import property_entailment

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_partkey", "p_brand"])
    top = topk_per_group(parts, key_col="p_brand",
                         sort_col="p_partkey",
                         tiebreak_col="p_partkey", k=30,
                         descending=False).to_pandas()  # 25 x 30 rows
    links = []
    for _brand, g in top.groupby("p_brand"):
        ids = g.sort_values("rank")["p_partkey"].tolist()
        for a, b in zip(ids, ids[1:]):
            links.append((f"part_{a}", "follows", f"part_{b}"))
        for a, b in zip(ids[:10], ids[1:10]):
            links.append((f"part_{a}", "peer_of", f"part_{b}"))
    triples = rd.from_pandas(pd.DataFrame(
        links, columns=["subj", "pred", "obj"]))
    out = property_entailment(
        triples, transitive=("follows",), symmetric=("peer_of",),
        inverse=(("follows", "precedes"),)).to_pandas()
    out["entailed"] = out["entailed"].astype(bool)
    return (out[["subj", "pred", "obj", "entailed"]]
            .sort_values(["subj", "pred", "obj"])
            .reset_index(drop=True))


def _kg_sparql_groupby(sf_dir: str) -> pd.DataFrame:
    """SPARQL SELECT-aggregate with FILTER (stages/kgops.py::bgp_match
    + a vectorized regex filter + exchange_agg):
    ``SELECT ?r (COUNT(*) AS n_suppliers) WHERE { ?s located_in ?n .
    ?n part_of ?r . FILTER(regex(?s, '^supplier_')) } GROUP BY ?r`` —
    bag semantics (distinct=False) so COUNT counts solutions."""
    from text_to_rdf_ray.stages.exchange import exchange_agg
    from text_to_rdf_ray.stages.kgops import bgp_match

    sols = bgp_match(_tpch_triples(sf_dir),
                     [("?s", "located_in", "?n"),
                      ("?n", "part_of", "?r")],
                     distinct=False)

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["s"].str.match(r"supplier_")]
        return pd.DataFrame({
            "r": b["r"].astype(str),
            "one": np.ones(len(b), np.int64)})

    out = exchange_agg(
        sols.map_batches(filt, batch_format="pandas"),
        "r", [("one", "sum", "n_suppliers")]).to_pandas()
    out["n_suppliers"] = out["n_suppliers"].astype("int64")
    return (out[["r", "n_suppliers"]]
            .sort_values("r").reset_index(drop=True))


def _events_pit_enrich(sf_dir: str) -> pd.DataFrame:
    """Point-in-time feature enrichment (stages/joins.py::
    point_in_time_join over stages/windows.py::scd2_history): per-user
    value-bucket state history (high/low runs), purchases enriched
    with the bucket version valid AT their timestamp — the
    feature-store as-of-correct join; leakage impossible by
    construction."""
    from text_to_rdf_ray.stages.joins import point_in_time_join
    from text_to_rdf_ray.stages.windows import scd2_history

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts",
                                  "event_type", "value"])

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].astype("int64"),
            "ts": b["ts"],
            "event_id": b["event_id"].astype("int64"),
            "state": np.where(
                b["value"].to_numpy(np.float64) >= 50.0,
                "high", "low")})

    dim = scd2_history(ev.map_batches(bucket, batch_format="pandas"),
                       key_col="user_id", ts_col="ts",
                       order_col="event_id", attr_col="state")
    # scd2's pandas lineage reports numpy dtypes; the asof pad needs
    # an Arrow-typed schema
    dim = dim.map_batches(
        lambda t: pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "state": t.column("state").cast(pa.string()),
            "valid_from_us": t.column("valid_from_us").cast(pa.int64()),
            "valid_to_us": t.column("valid_to_us").cast(pa.int64())}),
        batch_format="pyarrow")
    facts = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase"))
                   .select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow")
    out = point_in_time_join(facts, dim, key_col="user_id",
                             ts_col="ts").to_pandas()
    for c in ("event_id", "user_id", "ts", "valid_to_us"):
        out[c] = out[c].astype("int64")
    return (out[["event_id", "user_id", "ts", "state", "valid_to_us"]]
            .sort_values("event_id").reset_index(drop=True))


def _events_bootstrap_means(sf_dir: str) -> pd.DataFrame:
    """Poisson-bootstrap uncertainty of the mean event value
    (stages/analytics.py::poisson_bootstrap, 32 replicates): per-row
    Poisson(1) weights from splitmix64(id*B+b), one combiner pass +
    a 32-row exchange — the streaming bootstrap, no resampling
    shuffle.  Oracle replays weights row-by-row in SQL."""
    from text_to_rdf_ray.stages.analytics import poisson_bootstrap

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "value"])
    return poisson_bootstrap(ev, id_col="event_id",
                             value_col="value", replicates=32)


def _events_markov_stationary(sf_dir: str) -> pd.DataFrame:
    """Stationary distribution of the user event-type Markov chain
    (stages/windows.py::markov_stationary, 20 quantized power
    iterations over the transition_matrix counts — state-bounded
    driver tail, corpus work is the one transition-count exchange)."""
    from text_to_rdf_ray.stages.windows import markov_stationary

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_type",
                                  "event_id"])
    out = markov_stationary(ev, iterations=20)
    return (out[["state", "pi"]]
            .sort_values("state").reset_index(drop=True))


def _graph_centralization_parts(sf_dir: str) -> pd.DataFrame:
    """Freeman degree centralization of the symmetrized co-purchase
    graph (stages/graph.py::degree_centralization): integer-exact
    n*deg_max - deg_sum fold, no degree table collected."""
    from text_to_rdf_ray.stages.exchange import exchange_join
    from text_to_rdf_ray.stages.graph import degree_centralization

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "pk2": t.column("l_partkey")}),
        batch_format="pyarrow")
    pairs = exchange_join(
        li, right, on="l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_partkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("pk2", pa.int64())]))
    edges = pairs.map_batches(
        lambda t: pa.table({"src": t.column("l_partkey"),
                            "dst": t.column("pk2")}),
        batch_format="pyarrow")
    out = degree_centralization(edges)
    for c in ("n_nodes", "n_edges", "deg_max"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def _events_ohlc(sf_dir: str) -> pd.DataFrame:
    """Hourly OHLC bars per event type (stages/windows.py::ohlc_bars):
    open/close = value at the (ts, event_id)-min/max row, high/low/n —
    the metrics-rollup candle.  Oracle: row_number endpoints + plain
    min/max/count."""
    from text_to_rdf_ray.stages.windows import ohlc_bars

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "ts", "value"])
    out = ohlc_bars(ev).to_pandas()
    out["window_id"] = out["window_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return (out[["event_type", "window_id", "open", "high", "low",
                 "close", "n"]]
            .sort_values(["event_type", "window_id"])
            .reset_index(drop=True))


def _docs_weighted_len_quantiles(sf_dir: str) -> pd.DataFrame:
    """Token-weighted type-1 length quantiles per source
    (stages/analytics.py::weighted_quantile, q = 0.5 / 0.9): the
    "median doc length by token mass" readout — integer weights keep
    the cumulative-sum boundary engine-exact.  Oracle: window cumsum
    over the same (value-sorted) order + the first-hit rule."""
    from text_to_rdf_ray.stages.analytics import weighted_quantile

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["source", "text", "n_chars"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        toks = (b["text"].str.split(" ")
                .map(lambda ws: sum(1 for w in ws if w)))
        return pd.DataFrame({"source": b["source"],
                             "n_chars": b["n_chars"].astype("int64"),
                             "n_tokens": toks.astype("int64")})

    out = weighted_quantile(
        docs.map_batches(prep, batch_format="pandas"),
        key_col="source", value_col="n_chars", weight_col="n_tokens",
        qs=(0.5, 0.9)).to_pandas()
    out["n_chars"] = out["n_chars"].astype("int64")
    out["cum_weight"] = out["cum_weight"].astype("int64")
    out["total_weight"] = out["total_weight"].astype("int64")
    return (out[["source", "q", "n_chars", "cum_weight", "total_weight"]]
            .sort_values(["source", "q"]).reset_index(drop=True))


def _orders_f2_custkey(sf_dir: str) -> pd.DataFrame:
    """AMS F2 self-join-size sketch on orders.o_custkey
    (stages/analytics.py::f2_moment, k=8): per-sketch s_r = Σ ±1 row
    signs (integer-exact), est = s², mean over sketches beside the
    exact Σ c² — the join-planner heaviness readout.  Oracle: 8
    splitmix chains (one per estimator) via a range cross join."""
    from text_to_rdf_ray.stages.analytics import f2_moment

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_custkey"])
    out = f2_moment(orders, id_col="o_custkey", k=8)
    mean_est = float(out["est"].to_numpy(np.float64).mean())
    # exact self-join size distributed: sum over keys of c² via one
    # count exchange + a per-batch square-and-sum fold
    from text_to_rdf_ray.stages.exchange import exchange_agg
    cnt = exchange_agg(
        orders.map_batches(
            lambda t: pa.table({
                "k": t.column("o_custkey"),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        "k", [("one", "sum", "c")])
    sq = cnt.map_batches(
        lambda t: pa.table({"s2": pa.array(
            [int((t.column("c").to_numpy(zero_copy_only=False).astype(
                np.int64) ** 2).sum())], pa.int64())}),
        batch_format="pyarrow").to_pandas()
    exact = int(sq["s2"].sum())
    out = out.copy()
    out["r"] = out["r"].astype("int64")
    out["s"] = out["s"].astype("int64")
    out["est"] = out["est"].astype("int64")
    out["mean_est"] = _r(pd.Series([mean_est] * len(out)), 6)
    out["exact_f2"] = np.int64(exact)
    return out[["r", "s", "est", "mean_est", "exact_f2"]]


def _events_rolling_median(sf_dir: str) -> pd.DataFrame:
    """Per-user 5-row rolling MEDIAN (stages/windows.py::rolling_median)
    — the despike smoother a rolling mean can't be.  Oracle:
    quantile_cont(0.5) OVER ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
    in the identical (ts, event_id) order."""
    from text_to_rdf_ray.stages.windows import rolling_median

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts", "value"])
    out = rolling_median(ev, window_rows=5).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["rolling_med"] = _r(out["rolling_med"], 6)
    return (out[["user_id", "event_id", "value", "rolling_med"]]
            .sort_values("event_id").reset_index(drop=True))


def _docs_rrf_fuse(sf_dir: str) -> pd.DataFrame:
    """Reciprocal-rank fusion (stages/retrieval.py::rrf_fuse, k=60) of
    the BM25 top-10 and the hybrid embedding rerank top-10 — the
    zero-training lexical+dense fusion.  Both inputs are funnel
    outputs, so fusion is bounded driver math (the rbo contract).
    Oracle: both rankings replayed (the docs_rerank_rbo chain) + the
    same 1/(60+rank) sums."""
    from text_to_rdf_ray.stages.retrieval import rrf_fuse

    bm = _docs_bm25_topk(sf_dir)
    bm = bm[bm["rank"] <= 10][["query_id", "doc_id", "rank"]]
    hy = _docs_hybrid_rerank(sf_dir)[["query_id", "doc_id", "rerank"]]
    out = rrf_fuse([bm, hy], rank_cols=["rank", "rerank"],
                   k=60, top_n=10)
    out["rrf_score"] = _r(out["rrf_score"], 6)
    return (out.sort_values(["query_id", "rrf_rank"])
            .reset_index(drop=True))


def _parts_er_golden(sf_dir: str) -> pd.DataFrame:
    """ER capstone: Fellegi–Sunter links (w > 2) -> connected-component
    clusters (stages/dedup.py::pairs_to_canonical) -> golden-record
    survivorship (::survivorship_merge — p_name from the newest member,
    p_type/p_size by majority, ties -> smallest).  Oracle: the weight
    CASE replay + recursive-reach CC + the identical field rules."""
    from text_to_rdf_ray.stages.dedup import (fs_link_scores,
                                              pairs_to_canonical,
                                              survivorship_merge)
    from text_to_rdf_ray.stages.exchange import exchange_join

    parts = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size", "p_name"])
    links = fs_link_scores(
        parts, id_col="p_partkey", block_col="p_brand",
        fields=["p_type", "p_size", "p_name"],
        m={"p_type": 0.9, "p_size": 0.9, "p_name": 0.95},
        u={"p_type": 0.3, "p_size": 0.1, "p_name": 0.05},
        lower=0.0, upper=2.0)
    pairs = links.map_batches(
        lambda b: b.loc[b["decision"] == "link", ["id_a", "id_b"]],
        batch_format="pandas")
    canon = pairs_to_canonical(parts, pairs, id_col="p_partkey")
    joined = exchange_join(
        parts.map_batches(
            lambda t: pa.table({
                "p_partkey": t.column("p_partkey").cast(pa.int64()),
                "p_type": t.column("p_type"),
                "p_size": t.column("p_size").cast(pa.int64()),
                "p_name": t.column("p_name")}),
            batch_format="pyarrow"),
        canon, on="p_partkey", num_partitions=16,
        left_schema=pa.schema([("p_partkey", pa.int64()),
                               ("p_type", pa.string()),
                               ("p_size", pa.int64()),
                               ("p_name", pa.string())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("canonical_id", pa.int64())]))
    out = survivorship_merge(
        joined, cluster_col="canonical_id", recency_col="p_partkey",
        latest_cols=["p_name"], majority_cols=["p_type", "p_size"],
        num_partitions=16).to_pandas()
    out["canonical_id"] = out["canonical_id"].astype("int64")
    out["n_members"] = out["n_members"].astype("int64")
    out["p_size"] = out["p_size"].astype("int64")
    return (out[["canonical_id", "n_members", "p_name", "p_type",
                 "p_size"]]
            .sort_values("canonical_id").reset_index(drop=True))


def _media_dedup(sf_dir: str) -> pd.DataFrame:
    """Content-addressed media dedup (stages/multimodal.py::
    media_exact_dedup) — the REAL (no-decoder) member of the multimodal
    family: 128-bit blake2b per binary payload, hash exchange (blob
    bytes never reshuffled), min-id winner.  Every 3rd payload is
    planted again under id+1000.  Oracle: GROUP BY the BLOB itself over
    the dumped side table — the hash layout must be invisible."""
    from text_to_rdf_ray.stages.multimodal import (make_fake_media,
                                                   media_exact_dedup)

    media = make_fake_media(200)
    ids = media.column("media_id").to_numpy(zero_copy_only=False)
    keep = ids % 3 == 0
    dup = pa.table({
        "media_id": pa.array(ids[keep] + 1000, pa.int64()),
        "payload": media.column("payload").filter(pa.array(keep)),
    })
    base = pa.table({"media_id": media.column("media_id"),
                     "payload": media.column("payload")})
    ds = rd.from_arrow(base).union(rd.from_arrow(dup))
    side = pa.concat_tables([base, dup])
    d = os.path.join(_SIDE, "media_dedup")
    os.makedirs(d, exist_ok=True)
    pq.write_table(side, os.path.join(d, "media.parquet"))
    out = media_exact_dedup(ds).to_pandas()
    out["media_id"] = out["media_id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    return (out[["media_id", "canonical_id"]]
            .sort_values("media_id").reset_index(drop=True))


def _events_chi2_type_hour(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square independence test between event type and
    hour-of-day (stages/analytics.py::chi2_independence) — the
    categorical leg of the A/B family.  Integer contingency counts;
    expected/chi2 from one fixed float expression.  Oracle: window
    marginals + the identical arithmetic."""
    from text_to_rdf_ray.stages.analytics import chi2_independence

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts"])

    def add_hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "hour": b["ts"].dt.hour.astype("int64")})

    out = chi2_independence(ev.map_batches(add_hour,
                                           batch_format="pandas"),
                            col_a="event_type", col_b="hour")
    out["expected_n"] = _r(out["expected_n"], 6)
    out["chi2_term"] = _r(out["chi2_term"], 6)
    out["dof"] = out["dof"].astype("int64")
    return (out.sort_values(["event_type", "hour"])
            .reset_index(drop=True))


def _events_best_split(sf_dir: str) -> pd.DataFrame:
    """CART decision-stump split finder (stages/analytics.py::
    best_split_gini): the hour-of-day threshold best separating event
    types by gini gain — every float one fixed expression over integer
    prefix counts, so is_best needs no rounding.  Oracle: the identical
    prefix/Σk² algebra via a threshold cross join."""
    from text_to_rdf_ray.stages.analytics import best_split_gini

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hour": b["ts"].dt.hour.astype("int64"),
                             "event_type": b["event_type"]})

    out = best_split_gini(ev.map_batches(prep, batch_format="pandas"),
                          feature_col="hour", class_col="event_type")
    out["threshold"] = out["threshold"].astype("int64")
    out["n_left"] = out["n_left"].astype("int64")
    out["n_right"] = out["n_right"].astype("int64")
    out["gain"] = _r(out["gain"], 6)
    out["is_best"] = out["is_best"].astype(bool)
    return (out.sort_values("threshold").reset_index(drop=True))


def _web_host_graph(sf_dir: str) -> pd.DataFrame:
    """Crawl outlink extraction -> host-graph projection
    (stages/curation.py::extract_links + one count exchange): href
    pulls per batch, absolute http(s) kept (relative counted), hosts
    normalized with the canonical_urls surgery; edges = (src_host,
    dst_host, n_links).  Pages are a deterministic planted side table
    (case/port/www variants + relative links); the oracle replays
    regexp_extract_all + the identical host surgery."""
    from text_to_rdf_ray.stages.curation import extract_links
    from text_to_rdf_ray.stages.exchange import exchange_agg

    rows = []
    for i in range(60):
        url = f"https://www.site{i % 7}.com/p/{i}"
        html = (
            f'<html><body><a href="https://Site{(i * 3 + 1) % 7}'
            f'.COM:443/x/{i}">a</a> '
            f'<a href="/rel/{i}">rel</a> '
            f'<a href="http://tracker{(i * 5 + 2) % 9}.net/t?id={i}">t'
            f"</a></body></html>")
        rows.append({"page_id": i, "url": url, "html": html})
    pages = pd.DataFrame(rows)
    _side_write("web_host_graph", "pages.parquet", pages)
    links = extract_links(rd.from_pandas(pages))
    out = exchange_agg(
        links.map_batches(
            lambda t: pa.table({
                "src_host": t.column("src_host"),
                "dst_host": t.column("dst_host"),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["src_host", "dst_host"], [("one", "sum", "n_links")],
        num_partitions=8).to_pandas()
    out["n_links"] = out["n_links"].astype("int64")
    return (out[["src_host", "dst_host", "n_links"]]
            .sort_values(["src_host", "dst_host"])
            .reset_index(drop=True))


def _docs_auc_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-slice ROC AUC (stages/analytics.py::auc_by_group): how well
    doc length separates English docs WITHIN each source — the sliced
    model-quality readout a global AUC hides.  Same integer
    Mann–Whitney algebra as docs_auc, per group.  Oracle: the docs_auc
    window replay with PARTITION BY source."""
    from text_to_rdf_ray.stages.analytics import auc_by_group

    docs = _documents(sf_dir).map_batches(
        lambda b: pd.DataFrame({
            "source": b["source"],
            "s": b["n_chars"].astype("float64"),
            "y": (b["lang"] == "en").astype("int64")}),
        batch_format="pandas")
    out = auc_by_group(docs, group_col="source", score_col="s",
                       label_col="y")
    out["n_pos"] = out["n_pos"].astype("int64")
    out["n_neg"] = out["n_neg"].astype("int64")
    out["u2"] = out["u2"].astype("int64")
    out["auc"] = _r(out["auc"], 6)
    return (out[["source", "n_pos", "n_neg", "u2", "auc"]]
            .sort_values("source").reset_index(drop=True))


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # KG pipeline & kernels (SURVEY.md §2 / §3)
        "kg_triples_fixture": _kg_triples_fixture,
        "kg_gold_eval": _kg_gold_eval,
        "kg_jsonld_render": _kg_jsonld_render,
        "kg_llm_mode": _kg_llm_mode,
        "eval_webnlg": _eval_webnlg,
        "eval_docred": _eval_docred,
        "stem_tokens": _stem_tokens,
        "slug_part_names": _slug_part_names,
        "chunk_counts": _chunk_counts,
        # text analysis
        "doc_token_counts": _doc_token_counts,
        "doc_langid": _doc_langid,
        "doc_quality": _doc_quality,
        "doc_fingerprints": _doc_fingerprints,
        # dedup family
        "dedup_exact_docs": _dedup_exact,
        "corpus_clean_pipeline": _corpus_clean_pipeline,
        "dedup_minhash_docs": _dedup_minhash,
        "dedup_simhash_pairs": _dedup_simhash,
        "dedup_ngram_pairs": _dedup_ngram,
        "dedup_embedding_pairs": _dedup_embedding,
        "dedup_embedding_docs": _dedup_embedding_docs,
        # similarity search
        "knn_bruteforce": _knn_bruteforce,
        "embeddings_quantize": _embeddings_quantize,
        "embeddings_rproj": _embeddings_rproj,
        "knn_quantized": _knn_quantized,
        "knn_ivf": _knn_ivf,
        "knn_ivf_exhaustive": _knn_ivf_exhaustive,
        "knn_ivf_indexed": _knn_ivf_indexed,
        "knn_lsh": _knn_lsh,
        "knn_lsh_indexed": _knn_lsh_indexed,
        "embedding_label_stats": _embedding_label_stats,
        "kmeans_embeddings": _kmeans_embeddings,
        # relational / streaming-shaped
        "agg_lineitem_pricing": _agg_lineitem_pricing,
        "join_revenue_by_nation": _join_revenue_by_nation,
        "topk_orders": _topk_orders,
        "filter_high_value_lineitems": _filter_high_value,
        "distinct_event_types": _distinct_event_types,
        "events_hourly": _events_hourly,
        "events_user_totals": _events_user_totals,
        "events_sessions": _events_sessions,
        "events_rolling_avg": _events_rolling_avg,
        "events_cube_counts": _events_cube_counts,
        "events_props_extract": _events_props_extract,
        "events_asof_attribution": _events_asof,
        "events_range_attribution": _events_range_agg,
        "events_hopping": _events_hopping,
        "events_funnel": _events_funnel,
        "events_retention": _events_retention,
        "events_value_hour_corr": _events_value_hour_corr,
        "events_winsorized_value": _events_winsorized_value,
        "events_zscore_value": _events_zscore_value,
        "orders_price_buckets": _orders_price_buckets,
        "docs_dominant_lang": _docs_dominant_lang,
        "topk_orders_per_customer": _topk_orders_per_customer,
        "lineitem_quantiles": _lineitem_quantiles,
        # curation (training-data prep)
        "docs_stratified_sample": _docs_stratified_sample,
        "docs_pack_sequences": _docs_pack_sequences,
        "docs_tfidf_top_terms": _docs_tfidf_top_terms,
        "docs_repetition_stats": _docs_repetition_stats,
        "docs_passage_dedup": _docs_passage_dedup,
        "docs_decontaminate": _docs_decontaminate,
        "graph_pagerank_suppcust": _graph_pagerank,
        "graph_triangles_parts": _graph_triangles_parts,
        "graph_components_parts": _graph_components_parts,
        "orders_semi_rich_custs": _orders_semi_rich_custs,
        "orders_anti_bloom": _orders_anti_bloom,
        "lineitem_distinct_orders_hll": _lineitem_distinct_orders_hll,
        "docs_inverted_index": _docs_inverted_index,
        "docs_dup_ngram_frac": _docs_dup_ngram_frac,
        "docs_dup_spans": _docs_dup_spans,
        "docs_cdc_chunks": _docs_cdc_chunks,
        "docs_text_roundtrip": _docs_text_roundtrip,
        "docs_nb_classify": _docs_nb_classify,
        "docs_nb_confusion": _docs_nb_confusion,
        "docs_source_divergence": _docs_source_divergence,
        "docs_class_terms": _docs_class_terms,
        "docs_hybrid_rerank": _docs_hybrid_rerank,
        "docs_rerank_rbo": _docs_rerank_rbo,
        "docs_ngram_novelty": _docs_ngram_novelty,
        "docs_heavy_hitters": _docs_heavy_hitters,
        "docs_pmi_pairs": _docs_pmi_pairs,
        "docs_source_quality_cap": _docs_source_quality_cap,
        "docs_lm_perplexity": _docs_lm_perplexity,
        "docs_curate_pipeline": _docs_curate_pipeline,
        "custs_no_big_orders": _custs_no_big_orders,
        "events_hourly_unique_users": _events_hourly_unique_users,
        "docs_hash_split": _docs_hash_split,
        "docs_mix_sources": _docs_mix_sources,
        "events_value_delta": _events_value_delta,
        "events_user_value_trend": _events_user_value_trend,
        "custs_orders_full": _custs_orders_full,
        "docs_weighted_sample": _docs_weighted_sample,
        "docs_shuffle": _docs_shuffle,
        "docs_dedup_against": _docs_dedup_against,
        "docs_line_dedup": _docs_line_dedup,
        "docs_vocab": _docs_vocab,
        "docs_vocab_encode": _docs_vocab_encode,
        "docs_bm25_topk": _docs_bm25_topk,
        "docs_bm25_topk_join": _docs_bm25_topk_join,
        "docs_ndcg": _docs_ndcg,
        "docs_retrieval_eval": _docs_retrieval_eval,
        "docs_textrank": _docs_textrank,
        "events_seasonal": _events_seasonal,
        "parts_reciprocal_best": _parts_reciprocal_best,
        "docs_bm25_prf": _docs_bm25_prf,
        "graph_betweenness_parts": _graph_betweenness_parts,
        "embeddings_pca_scores": _embeddings_pca_scores,
        "web_warc_records": _web_warc_records,
        "web_warc_pipeline": _web_warc_pipeline,
        "kg_property_entailment": _kg_property_entailment,
        "kg_sparql_groupby": _kg_sparql_groupby,
        "events_pit_enrich": _events_pit_enrich,
        "events_bootstrap_means": _events_bootstrap_means,
        "events_markov_stationary": _events_markov_stationary,
        "events_linear_fill": _events_linear_fill,
        "events_cohort_ltv": _events_cohort_ltv,
        "orders_assoc_rules": _orders_assoc_rules,
        "docs_kn_perplexity": _docs_kn_perplexity,
        "docs_extractive_summary": _docs_extractive_summary,
        "docs_gopher_rules": _docs_gopher_rules,
        "events_did_impact": _events_did_impact,
        "events_fsm_conformance": _events_fsm_conformance,
        "custs_rfm_segments": _custs_rfm_segments,
        "parts_abc_classes": _parts_abc_classes,
        "embeddings_triplets": _embeddings_triplets,
        "events_user_entropy": _events_user_entropy,
        "dedup_simhash_docs": _dedup_simhash_docs,
        "knn_recall_eval": _knn_recall_eval,
        "parts_revenue_gini": _parts_revenue_gini,
        "docs_bpe_fertility": _docs_bpe_fertility,
        "docs_zipf_fit": _docs_zipf_fit,
        "docs_heaps_fit": _docs_heaps_fit,
        "docs_bigram_entropy": _docs_bigram_entropy,
        "events_power_analysis": _events_power_analysis,
        "dedup_cluster_sizes": _dedup_cluster_sizes,
        "events_dau_wau": _events_dau_wau,
        "graph_centralization_parts": _graph_centralization_parts,
        "revenue_by_part_type": _revenue_by_part_type,
        "kg_ntriples_roundtrip": _kg_ntriples_roundtrip,
        "docs_jsonl_roundtrip": _docs_jsonl_roundtrip,
        "docs_csv_roundtrip": _docs_csv_roundtrip,
        "parts_copurchase": _parts_copurchase,
        "events_type_hour_pivot": _events_type_hour_pivot,
        "events_upsert_state": _events_upsert_state,
        "events_skew_join": _events_skew_join,
        "docs_token_budget_mix": _docs_token_budget_mix,
        "revenue_by_nation_year": _revenue_by_nation_year,
        "docs_url_dedup": _docs_url_dedup,
        "docs_pii_redact": _docs_pii_redact,
        "docs_quality_classifier": _docs_quality_classifier,
        "docs_phrase_search": _docs_phrase_search,
        "events_transition_matrix": _events_transition_matrix,
        "events_ewma": _events_ewma,
        "events_iqr_outliers": _events_iqr_outliers,
        "events_table_checksum": _events_table_checksum,
        "events_compact_scan": _events_compact_scan,
        "events_zorder_scan": _events_zorder_scan,
        "orders_hll_join_estimate": _orders_hll_join_estimate,
        "embeddings_cov_moments": _embeddings_cov_moments,
        "events_corr_matrix": _events_corr_matrix,
        "events_ab_ttest": _events_ab_ttest,
        "events_logreg": _events_logreg,
        "events_decayed_sum": _events_decayed_sum,
        "events_schema_evolution": _events_schema_evolution,
        "orders_planned_join": _orders_planned_join,
        "events_melt_pivot": _events_melt_pivot,
        "events_scaled_value": _events_scaled_value,
        "events_target_encoding": _events_target_encoding,
        "revenue_by_nation_ivm": _revenue_by_nation_ivm,
        "graph_khop_reach": _graph_khop_reach,
        "events_resample_fill": _events_resample_fill,
        "orders_dq_check": _orders_dq_check,
        "events_profile": _events_profile,
        "events_clustered_scan": _events_clustered_scan,
        "events_point_lookup": _events_point_lookup,
        "events_cdc_state": _events_cdc_state,
        "events_watermark_late": _events_watermark_late,
        "orders_clustered_join": _orders_clustered_join,
        "events_interval_pairs": _events_interval_pairs,
        "events_interval_coverage": _events_interval_coverage,
        "events_debounce": _events_debounce,
        "events_scd2": _events_scd2,
        "events_user_paths": _events_user_paths,
        "events_cms_user_counts": _events_cms_user_counts,
        "orders_skyline": _orders_skyline,
        "graph_clustering_coeff": _graph_clustering_coeff,
        "graph_sssp_parts": _graph_sssp_parts,
        "parts_editdist_pairs": _parts_editdist_pairs,
        "parts_sorted_neighborhood": _parts_sorted_neighborhood,
        "docs_ppl_buckets": _docs_ppl_buckets,
        "graph_kcore": _graph_kcore,
        "embeddings_unnest": _embeddings_unnest,
        "graph_common_neighbors": _graph_common_neighbors,
        "kg_negative_samples": _kg_negative_samples,
        "kg_cooccur_edges": _kg_cooccur_edges,
        "kg_provenance": _kg_provenance,
        "kg_bgp_match": _kg_bgp_match,
        "kg_predicate_stats": _kg_predicate_stats,
        "kg_domain_violations": _kg_domain_violations,
        "docs_cluster_prf": _docs_cluster_prf,
        "kg_subject_lookup": _kg_subject_lookup,
        "kg_incremental_update": _kg_incremental_update,
        "kg_entity_fusion": _kg_entity_fusion,
        "kg_type_infer": _kg_type_infer,
        "graph_random_walks": _graph_random_walks,
        "graph_personalized_pagerank": _graph_personalized_pagerank,
        "graph_hits": _graph_hits,
        "graph_lpa": _graph_lpa,
        "graph_assortativity": _graph_assortativity,
        "graph_scc": _graph_scc,
        "graph_link_prediction": _graph_link_prediction,
        "graph_modularity": _graph_modularity,
        "kg_sameas_closure": _kg_sameas_closure,
        "events_metadata_count": _events_metadata_count,
        "docs_readability": _docs_readability,
        "docs_containment_pairs": _docs_containment_pairs,
        "events_twa": _events_twa,
        "events_window_topk": _events_window_topk,
        "events_survival": _events_survival,
        "embeddings_mmr": _embeddings_mmr,
        "docs_dsir_sample": _docs_dsir_sample,
        "parts_blocking_quality": _parts_blocking_quality,
        "kg_bgp_optional": _kg_bgp_optional,
        "events_pattern_match": _events_pattern_match,
        "orders_dpp_join": _orders_dpp_join,
        "events_time_travel": _events_time_travel,
        "docs_auc": _docs_auc,
        "events_psi_drift": _events_psi_drift,
        "events_calibration": _events_calibration,
        "events_user_types": _events_user_types,
        "graph_degree_hist": _graph_degree_hist,
        "docs_rag_chunks": _docs_rag_chunks,
        "events_value_pct_rank": _events_value_pct_rank,
        "events_range_sorted": _events_range_sorted,
        "orders_snapshot_diff": _orders_snapshot_diff,
        "docs_tokenize_pipeline": _docs_tokenize_pipeline,
        "docs_normalize_text": _docs_normalize_text,
        "events_user_skew": _events_user_skew,
        "events_value_mad": _events_value_mad,
        "docs_bpe_merges": _docs_bpe_merges,
        "docs_bpe_segment": _docs_bpe_segment,
        "events_burst_detect": _events_burst_detect,
        "events_locf_fill": _events_locf_fill,
        "events_holt_trend": _events_holt_trend,
        "kg_property_path": _kg_property_path,
        "kg_cardinality_violations": _kg_cardinality_violations,
        "events_sampled_quantiles": _events_sampled_quantiles,
        "docs_wordlist_screen": _docs_wordlist_screen,
        "graph_closeness": _graph_closeness,
        "events_rate_limit": _events_rate_limit,
        "events_autocorr": _events_autocorr,
        "events_delete_vectors": _events_delete_vectors,
        "events_benford": _events_benford,
        "events_kanon": _events_kanon,
        "dedup_semdedup": _dedup_semdedup,
        "graph_neighbor_agg": _graph_neighbor_agg,
        "events_vacuum_scan": _events_vacuum_scan,
        "events_cusum": _events_cusum,
        "events_kmv_users": _events_kmv_users,
        "events_robust_z": _events_robust_z,
        "graph_diameter": _graph_diameter,
        "events_version_diff": _events_version_diff,
        "kg_construct_rewrite": _kg_construct_rewrite,
        "events_dp_counts": _events_dp_counts,
        "parts_fs_links": _parts_fs_links,
        "events_ohlc": _events_ohlc,
        "docs_weighted_len_quantiles": _docs_weighted_len_quantiles,
        "orders_f2_custkey": _orders_f2_custkey,
        "events_rolling_median": _events_rolling_median,
        "docs_rrf_fuse": _docs_rrf_fuse,
        "parts_er_golden": _parts_er_golden,
        "media_dedup": _media_dedup,
        "events_chi2_type_hour": _events_chi2_type_hour,
        "events_best_split": _events_best_split,
        "web_host_graph": _web_host_graph,
        "docs_auc_by_source": _docs_auc_by_source,
        # multimodal plumbing
        "media_features_fake": _media_features,
        "media_frames_fake": _media_frames,
    }


def _kg_fixture_sql() -> str:
    """DuckDB replay of the validate -> global-(s,p,o)-dedup pipeline tail
    over the pre-validate linked-triples side table (stages/kg_stages.py::
    validate_triples confidence arithmetic in the same IEEE operation
    order, then stages/canonicalize.py::dedup_triples's min-provenance
    representative via the same lexicographic field order)."""
    from text_to_rdf_ray.kernels.validation import DATE_PREDICATES, _NAME_REQUIRED_TYPES

    req = ",".join(f"'{t}'" for t in sorted(_NAME_REQUIRED_TYPES))
    dates = ",".join(f"'{p}'" for p in sorted(DATE_PREDICATES))
    src = os.path.join(_SIDE, "kg_triples_fixture", "linked.parquet")
    return f"""
      WITH src AS (SELECT * FROM read_parquet('{src}')),
      v AS (
        SELECT *,
          (subj = '' AND subj_type IN ({req})) AS subj_missing,
          (obj_type IN ({req}) AND obj = '') AS obj_missing,
          (obj_type = '') AS is_lit,
          (pred_key IN ({dates})) AS date_pred,
          (length(obj) = 10 AND substring(obj, 5, 1) = '-'
           AND substring(obj, 8, 1) = '-') AS date_ok
        FROM src),
      v2 AS (SELECT *, (is_lit AND date_pred AND NOT date_ok) AS bad_date FROM v),
      v3 AS (
        SELECT *,
          (is_lit AND obj LIKE 'http%' AND NOT contains(obj, '://')
           AND NOT bad_date) AS bad_uri
        FROM v2),
      v4 AS (
        SELECT *,
          greatest(0.0, least(1.0,
            1.0 - 0.2 * (CASE WHEN subj_missing THEN 1.0 ELSE 0.0 END)
                - 0.2 * (CASE WHEN obj_missing THEN 1.0 ELSE 0.0 END)
                - 0.05 * (CASE WHEN bad_date THEN 1.0 ELSE 0.0 END)
                - 0.1 * (CASE WHEN bad_uri THEN 1.0 ELSE 0.0 END))) AS conf_new
        FROM v3),
      v5 AS (
        SELECT *,
          (conf_new >= 0.7 AND NOT (subj_missing OR obj_missing)) AS valid_new
        FROM v4),
      ded AS (
        SELECT *, row_number() OVER (
          PARTITION BY subj, pred, obj
          ORDER BY url, chunk_id, span_start, span_end, method, nested_in,
                   subj_type, obj_type) AS rn
        FROM v5)
      SELECT url, subj, subj_slug, pred, obj, subj_type, obj_type, subj_uri,
             round(conf_new, 6) AS confidence, valid_new AS valid
      FROM ded WHERE rn = 1
      ORDER BY subj, pred, obj, url
    """


def _jsonld_flatten_ctes(query: str, id_expr: str) -> str:
    """Shared CTE block: JSON-LD docs side table -> per-node (id, rawname,
    key, value) entry rows + the (key -> stemmed predicate) map.  ``id_expr``
    is the quoted id column of doc.parquet ('"case"' or 'url')."""
    doc = os.path.join(_SIDE, query, "doc.parquet")
    pm = os.path.join(_SIDE, query, "predmap.parquet")
    return f"""
      docs AS (SELECT {id_expr} AS id, * FROM read_parquet('{doc}')),
      pm AS (SELECT key, pred FROM read_parquet('{pm}')),
      nodes AS (
        SELECT id, unnest(CAST(json_extract(jsonld::JSON, '$."@graph"') AS JSON[])) AS node
        FROM docs WHERE json_type(jsonld::JSON, '$."@graph"') = 'ARRAY'
        UNION ALL
        SELECT id, jsonld::JSON AS node
        FROM docs WHERE json_type(jsonld::JSON, '$."@graph"') IS NULL
      ),
      keyed AS (
        SELECT id, node,
               coalesce(json_extract_string(node, '$.name'), 'unknown') AS rawname,
               unnest(json_keys(node)) AS k
        FROM nodes
      ),
      entries AS (
        SELECT id, rawname, k, json_extract(node, '$."' || k || '"') AS v
        FROM keyed
        WHERE k NOT LIKE '@%' AND k <> 'name'
      ),
      web AS (
        SELECT DISTINCT id, rawname AS subject, pm.pred,
               CASE WHEN json_type(v) = 'VARCHAR' THEN json_extract_string(v, '$')
                    ELSE json_extract_string(v, '$.name') END AS obj
        FROM entries JOIN pm ON pm.key = entries.k
        WHERE json_type(v) = 'VARCHAR'
           OR (json_type(v) = 'OBJECT' AND json_type(v, '$.name') = 'VARCHAR')
      )"""


def _kg_jsonld_render_sql() -> str:
    """n_webnlg / n_docred re-derived by flattening the JSON-LD side table
    in SQL (jsonld passthrough; the counts are the oracle's subject)."""
    docred_ctes = """
      dr1 AS (
        SELECT id, replace(lower(rawname), ' ', '_') AS subject, pm.pred,
               json_extract_string(v, '$') AS obj
        FROM entries JOIN pm ON pm.key = entries.k
        WHERE json_type(v) = 'VARCHAR'),
      dr2 AS (
        SELECT id, replace(lower(rawname), ' ', '_') AS subject, pm.pred,
               json_extract_string(v, '$.name') AS obj
        FROM entries JOIN pm ON pm.key = entries.k
        WHERE json_type(v) = 'OBJECT' AND json_type(v, '$.name') = 'VARCHAR'),
      drn AS (
        SELECT id, rawname, v, unnest(json_keys(v)) AS nk
        FROM entries WHERE json_type(v) = 'OBJECT'),
      dr3 AS (
        SELECT id, replace(lower(rawname), ' ', '_') AS subject, pm.pred,
               json_extract_string(v, '$."' || nk || '"') AS obj
        FROM drn JOIN pm ON pm.key = drn.nk
        WHERE nk NOT LIKE '@%' AND nk <> 'name'
          AND json_type(v, '$."' || nk || '"') = 'VARCHAR'),
      itm AS (
        SELECT id, rawname, k, unnest(CAST(v AS JSON[])) AS item
        FROM entries WHERE json_type(v) = 'ARRAY'),
      dr4 AS (
        SELECT id, replace(lower(rawname), ' ', '_') AS subject, pm.pred,
               CASE WHEN json_type(item) = 'VARCHAR' THEN json_extract_string(item, '$')
                    ELSE json_extract_string(item, '$.name') END AS obj
        FROM itm JOIN pm ON pm.key = itm.k
        WHERE json_type(item) = 'VARCHAR'
           OR (json_type(item) = 'OBJECT' AND json_type(item, '$.name') = 'VARCHAR')),
      dred AS (
        SELECT DISTINCT id, subject, pred, obj FROM (
          SELECT * FROM dr1 UNION ALL SELECT * FROM dr2
          UNION ALL SELECT * FROM dr3 UNION ALL SELECT * FROM dr4)),
      wcount AS (SELECT id, count(*) AS n FROM web GROUP BY id),
      dcount AS (SELECT id, count(*) AS n FROM dred GROUP BY id)"""
    return f"""
      WITH {_jsonld_flatten_ctes("kg_jsonld_render", '"case"')},
      {docred_ctes}
      SELECT d.id AS "case", d.jsonld,
             CAST(coalesce(w.n, 0) AS BIGINT) AS n_webnlg,
             CAST(coalesce(c.n, 0) AS BIGINT) AS n_docred
      FROM docs d
      LEFT JOIN wcount w ON w.id = d.id
      LEFT JOIN dcount c ON c.id = d.id
      ORDER BY "case"
    """


def _kg_llm_mode_sql() -> str:
    """The LLM-mode pipeline's WebNLG flatten re-derived in SQL from the
    per-url JSON-LD side table (instructor-loop output documents)."""
    return f"""
      WITH {_jsonld_flatten_ctes("kg_llm_mode", "url")}
      SELECT w.id AS url, w.subject AS subj, w.pred, w.obj,
             CAST(d.attempts AS INTEGER) AS attempts, d.ok
      FROM web w JOIN docs d ON d.id = w.id
      WHERE d.ok
      UNION ALL
      SELECT id AS url, '' AS subj, '' AS pred, '' AS obj,
             CAST(attempts AS INTEGER) AS attempts, ok
      FROM docs WHERE NOT ok
      ORDER BY url, subj, pred, obj
    """


def _doc_fingerprints_sql() -> str:
    """Replay of the winnowing selection + SimHash bit-vote over the raw
    hash side tables (kernels/minhash.py::rolling_fingerprint selection
    semantics: keep h % 64 == 0, else the first window hash; n = distinct
    kept; simhash bit j set iff a majority of shingle hashes carry bit j,
    then shifted into int64 range)."""
    win = os.path.join(_SIDE, "doc_fingerprints", "win.parquet")
    short = os.path.join(_SIDE, "doc_fingerprints", "short.parquet")
    shingle = os.path.join(_SIDE, "doc_fingerprints", "shingle.parquet")
    return f"""
      WITH win AS (SELECT doc_id, pos, h FROM read_parquet('{win}')),
      sel AS (SELECT doc_id, h FROM win WHERE (h & 63) = 0),
      fallback AS (
        SELECT w.doc_id, w.h
        FROM (SELECT doc_id, h,
                     row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
              FROM win) w
        WHERE w.rn = 1
          AND w.doc_id NOT IN (SELECT DISTINCT doc_id FROM sel)),
      picked AS (SELECT DISTINCT doc_id, h FROM
                 (SELECT * FROM sel UNION ALL SELECT * FROM fallback)),
      nf AS (SELECT doc_id, count(*) AS n FROM picked GROUP BY doc_id
             UNION ALL
             SELECT doc_id, 1 AS n FROM read_parquet('{short}')),
      sh AS (SELECT doc_id, h FROM read_parquet('{shingle}')),
      cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
      bits AS (
        SELECT s.doc_id, j.j,
               sum(CAST((s.h >> CAST(j.j AS INTEGER)) & 1 AS BIGINT)) AS c
        FROM sh s CROSS JOIN range(64) j(j)
        GROUP BY s.doc_id, j.j),
      simv AS (
        SELECT b.doc_id,
               sum(CASE WHEN 2 * b.c - cnt.n > 0
                        THEN CAST(1::UBIGINT << CAST(b.j AS INTEGER) AS HUGEINT)
                        ELSE 0::HUGEINT END) AS u
        FROM bits b JOIN cnt USING (doc_id) GROUP BY b.doc_id)
      SELECT nf.doc_id,
             CAST(nf.n AS BIGINT) AS n_fingerprints,
             CAST(simv.u - 9223372036854775808 AS BIGINT) AS simhash
      FROM nf JOIN simv ON simv.doc_id = nf.doc_id
      ORDER BY nf.doc_id
    """


def _stopword_sql_list() -> str:
    from text_to_rdf_ray.kernels.textstats import STOPWORDS_EN

    return "(" + ",".join(f"'{w}'" for w in sorted(STOPWORDS_EN)) + ")"


def oracle_sql() -> dict[str, str]:
    return {
        # KG core: set-intersection P/R/F1 over pred/gold side tables the
        # query dumps before returning (integration_tests.rs:34-67 replay)
        "kg_gold_eval": _eval_macro_sql("kg_gold_eval", cases_file=True,
                                        micro=False),
        "eval_webnlg": _eval_macro_sql("eval_webnlg"),
        "eval_docred": _eval_macro_sql("eval_docred"),
        "kg_triples_fixture": _kg_fixture_sql(),
        "kg_jsonld_render": _kg_jsonld_render_sql(),
        "kg_llm_mode": _kg_llm_mode_sql(),
        "graph_pagerank_suppcust": _pagerank_sql(iterations=3),
        "docs_textrank": _textrank_sql(iterations=5, damping=0.85,
                                       window=2, top_k=20),
        "graph_betweenness_parts": _betweenness_sql(n_seeds=5, k=4),
        "embeddings_pca_scores": _pca_power_sql(iterations=12),
        # assignment argmin replayed from the final centroid side table;
        # squared-L2 recomputed from raw dims (independent of the Ray
        # side's matmul expansion), ties to the lowest cluster id
        "kmeans_embeddings": f"""
            WITH c AS (SELECT cluster, dim, val
                       FROM read_parquet('{os.path.join(_SIDE, "kmeans_embeddings", "centroids.parquet")}')),
            u AS (SELECT vec_id, unnest(embedding) AS ev,
                         generate_subscripts(embedding, 1) - 1 AS dim
                  FROM embeddings),
            dist AS (SELECT u.vec_id, c.cluster,
                            sum((u.ev - c.val) * (u.ev - c.val)) AS dist
                     FROM u JOIN c ON c.dim = u.dim
                     GROUP BY u.vec_id, c.cluster),
            best AS (SELECT vec_id, cluster, round(dist, 6) AS dist,
                            row_number() OVER (PARTITION BY vec_id
                                               ORDER BY dist, cluster) AS rn
                     FROM dist)
            SELECT vec_id, cluster, dist FROM best WHERE rn = 1
            ORDER BY vec_id
        """,
        # independent min-reach CC replay over the same >=2-order edges
        "graph_components_parts": """
            WITH RECURSIVE inst AS (
              SELECT least(a.l_partkey, b.l_partkey) AS u,
                     greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey < b.l_partkey),
            e2 AS (SELECT u, v FROM inst GROUP BY u, v
                   HAVING count(*) >= 2),
            edges AS (SELECT u AS src, v AS dst FROM e2
                      UNION ALL SELECT v, u FROM e2),
            nodes AS (SELECT DISTINCT src AS id FROM edges),
            reach(id, r) AS (
              SELECT id, id FROM nodes
              UNION
              SELECT e.dst, reach.r FROM reach
              JOIN edges e ON e.src = reach.id
            )
            SELECT id AS l_partkey, min(r) AS component
            FROM reach GROUP BY id ORDER BY l_partkey
        """,
        # Independent triangle replay: canonical u<v distinct edges, then
        # the classic three-way self-join (each triangle counted once as
        # u<v<w) — no reliance on the Ray side's degree orientation.
        "graph_triangles_parts": """
            WITH inst AS (
              SELECT least(a.l_partkey, b.l_partkey) AS u,
                     greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey < b.l_partkey),
            e AS (SELECT DISTINCT u, v FROM inst),
            tri AS (
              SELECT ab.u AS a, ab.v AS b, ac.v AS c
              FROM e ab
              JOIN e bc ON bc.u = ab.v
              JOIN e ac ON ac.u = ab.u AND ac.v = bc.v)
            SELECT node AS l_partkey, CAST(count(*) AS BIGINT) AS n_tri
            FROM (SELECT a AS node FROM tri
                  UNION ALL SELECT b FROM tri
                  UNION ALL SELECT c FROM tri)
            GROUP BY node ORDER BY l_partkey
        """,
        "graph_clustering_coeff": """
            -- clustering-coefficient replay (graph.clustering_coeff):
            -- triangles per node (same enumeration as
            -- graph_triangles_parts) left-joined onto degrees; coeff
            -- computed with the identical float expression
            WITH inst AS (
              SELECT least(a.l_partkey, b.l_partkey) AS u,
                     greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey < b.l_partkey),
            e AS (SELECT DISTINCT u, v FROM inst),
            deg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
                    (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
                    GROUP BY node),
            tri AS (
              SELECT ab.u AS a, ab.v AS b, ac.v AS c
              FROM e ab
              JOIN e bc ON bc.u = ab.v
              JOIN e ac ON ac.u = ab.u AND ac.v = bc.v),
            tcnt AS (SELECT node, count(*) AS n_tri
                     FROM (SELECT a AS node FROM tri
                           UNION ALL SELECT b FROM tri
                           UNION ALL SELECT c FROM tri)
                     GROUP BY node)
            SELECT deg.node AS l_partkey, deg.deg,
                   CAST(coalesce(tcnt.n_tri, 0) AS BIGINT) AS n_tri,
                   round(CASE WHEN deg.deg < 2 THEN 0.0
                         ELSE 2.0 * coalesce(tcnt.n_tri, 0)
                              / (deg.deg * (deg.deg - 1)) END, 6) AS coeff
            FROM deg LEFT JOIN tcnt USING (node)
            ORDER BY l_partkey
        """,
        "graph_sssp_parts": _sssp_sql(n_rounds=8),
        "parts_sorted_neighborhood": """
            -- window-3 sorted neighborhood over (p_name, p_partkey)
            WITH r AS (
              SELECT p_partkey,
                     row_number() OVER (ORDER BY p_name, p_partkey) AS rn
              FROM part)
            SELECT a.p_partkey AS pk_a, b.p_partkey AS pk_b,
                   CAST(b.rn - a.rn AS BIGINT) AS dist
            FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 2
            ORDER BY pk_a, pk_b, dist
        """,
        "parts_editdist_pairs": """
            -- independent ground truth: DuckDB's built-in levenshtein
            -- over the length-banded cross join (the band is implied by
            -- ed <= 1, so no recall is lost)
            SELECT a.p_partkey AS pk_a, b.p_partkey AS pk_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
            FROM part a JOIN part b
              ON a.p_partkey < b.p_partkey
             AND abs(length(a.p_name) - length(b.p_name)) <= 1
             AND levenshtein(a.p_name, b.p_name) <= 1
            ORDER BY 1, 2
        """,
        "lineitem_distinct_orders_hll": _hll_sql(),
        "events_hourly_unique_users": _hll_window_sql(),
        "orders_semi_rich_custs": """
            SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS o_totalprice
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_acctbal > 9000)
            ORDER BY o_orderkey
        """,
        "orders_anti_bloom": """
            SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS o_totalprice
            FROM orders
            WHERE o_custkey NOT IN (SELECT c_custkey FROM customer
                                    WHERE c_acctbal > 9000)
            ORDER BY o_orderkey
        """,
        "docs_inverted_index": """
            WITH terms AS (
              SELECT DISTINCT doc_id,
                     unnest(list_filter(str_split(lower(text), ' '),
                                        x -> x <> '')) AS term
              FROM documents),
            numbered AS (
              SELECT term, doc_id,
                     (row_number() OVER (PARTITION BY term ORDER BY doc_id)
                      - 1) // 16 AS chunk_seq,
                     count(*) OVER (PARTITION BY term) AS df
              FROM terms)
            SELECT term, CAST(chunk_seq AS BIGINT) AS chunk_seq,
                   CAST(max(df) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM numbered GROUP BY term, chunk_seq ORDER BY term, chunk_seq
        """,
        "docs_source_quality_cap": f"""
            -- per-source quality cap: composite quality score replayed in
            -- the same IEEE operation order as kernels/textstats.py::
            -- quality_score, top-20 per source (quality desc, doc_id asc)
            WITH w AS (
              SELECT doc_id, source, text,
                     CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                          ELSE regexp_split_to_array(trim(text), '\\s+') END
                       AS words
              FROM documents),
            f AS (
              SELECT doc_id, source, len(words) AS n_words,
                     CASE WHEN len(words) = 0 THEN 0.0 ELSE
                       list_aggregate(list_transform(words, x -> length(x)),
                                      'sum') * 1.0 / len(words) END AS mean_wl,
                     CASE WHEN len(words) = 0 THEN 0.0 ELSE
                       len(list_filter(words,
                                       x -> lower(x) IN {_stopword_sql_list()}))
                       * 1.0 / len(words) END AS stop_r,
                     CASE WHEN length(text) = 0 THEN 0.0 ELSE
                       length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))
                       * 1.0 / length(text) END AS alpha_r
              FROM w),
            q AS (
              SELECT doc_id, source,
                     CASE WHEN n_words = 0 THEN 0.0 ELSE
                       greatest(0.0, least(1.0,
                         0.4 * least(1.0, n_words / 50.0)
                         + 0.2 * (CASE WHEN mean_wl >= 3.0 AND mean_wl <= 8.0
                                       THEN 1.0 ELSE 0.5 END)
                         + 0.2 * least(1.0, 2.0 * stop_r)
                         + 0.2 * alpha_r)) END AS quality
              FROM f),
            r AS (SELECT source, doc_id, quality,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY quality DESC, doc_id ASC)
                           AS rnk
                  FROM q)
            SELECT source, doc_id, round(quality, 6) AS quality,
                   CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 20 ORDER BY source, "rank"
        """,
        "custs_no_big_orders": """
            SELECT c_custkey FROM customer
            EXCEPT
            SELECT o_custkey AS c_custkey FROM orders
            WHERE o_totalprice > 400000
            ORDER BY c_custkey
        """,
        "docs_hash_split": f"""
            WITH {_sm64_sql("documents", "doc_id", ["doc_id"])}
            SELECT doc_id,
                   CASE WHEN hv < {_split_thr()[0]} THEN 'train'
                        WHEN hv < {_split_thr()[1]} THEN 'val'
                        ELSE 'test' END AS split
            FROM h ORDER BY doc_id
        """,
        "docs_mix_sources": f"""
            WITH {_sm64_sql("documents", "doc_id", ["doc_id", "source"])}
            SELECT doc_id, source FROM h
            WHERE CASE source
                    WHEN 'src0' THEN hv < {_mix_thr("src0")}
                    WHEN 'src1' THEN hv < {_mix_thr("src1")}
                    WHEN 'src2' THEN hv < {_mix_thr("src2")}
                    ELSE TRUE END
            ORDER BY doc_id
        """,
        "docs_dedup_against": f"""
            WITH base AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []
                          ELSE regexp_split_to_array(trim(lower(text)), '\\s+')
                     END AS w
              FROM documents),
            shingle_ref AS (
              SELECT doc_id AS id,
                     CASE WHEN len(w) = 0 THEN []
                          WHEN len(w) <= 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct(
                            [array_to_string(w[i:i+2], ' ')
                             FOR i IN generate_series(1, len(w) - 2)])
                     END AS g
              FROM base),
            wnew AS (
              SELECT doc_id + {_DEDUPX_OFFSET} AS id,
                     CASE WHEN doc_id % 5 = 0 THEN w
                          ELSE list_reverse(w) END AS w
              FROM base),
            shingle_new AS (
              SELECT id,
                     CASE WHEN len(w) = 0 THEN []
                          WHEN len(w) <= 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct(
                            [array_to_string(w[i:i+2], ' ')
                             FOR i IN generate_series(1, len(w) - 2)])
                     END AS g
              FROM wnew),
            rs AS (SELECT id, unnest(g) AS s FROM shingle_ref),
            ns AS (SELECT id, unnest(g) AS s FROM shingle_new),
            dfk AS (SELECT s FROM (
                      SELECT s, count(*) AS c
                      FROM (SELECT * FROM rs UNION ALL SELECT * FROM ns)
                      GROUP BY s) WHERE c <= 50),
            rs2 AS (SELECT rs.id, rs.s FROM rs JOIN dfk USING (s)),
            ns2 AS (SELECT ns.id, ns.s FROM ns JOIN dfk USING (s)),
            na AS (SELECT id, count(*) AS n FROM ns2 GROUP BY id),
            nb AS (SELECT id, count(*) AS n FROM rs2 GROUP BY id),
            it AS (SELECT ns2.id AS nid, rs2.id AS rid, count(*) AS i
                   FROM ns2 JOIN rs2 USING (s) GROUP BY 1, 2),
            j AS (SELECT it.nid, it.rid,
                         it.i * 1.0 / (na.n + nb.n - it.i) AS jac
                  FROM it JOIN na ON na.id = it.nid
                          JOIN nb ON nb.id = it.rid),
            m AS (SELECT nid, rid, jac,
                         row_number() OVER (PARTITION BY nid
                                            ORDER BY jac DESC, rid ASC) AS rk
                  FROM j WHERE jac >= 0.8),
            best AS (SELECT nid, rid, jac FROM m WHERE rk = 1)
            SELECT g.id AS doc_id,
                   best.nid IS NOT NULL AS is_dup,
                   CAST(coalesce(best.rid, -1) AS BIGINT) AS ref_id,
                   round(coalesce(best.jac, 0.0), 6) AS jaccard
            FROM shingle_new g LEFT JOIN best ON best.nid = g.id
            ORDER BY doc_id
        """,
        "docs_line_dedup": f"""
            WITH input AS (
              SELECT * FROM read_parquet(
                '{os.path.join(_SIDE, "docs_line_dedup", "input.parquet")}')),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     generate_subscripts(string_split(text, chr(10)), 1)
                       AS idx
              FROM input),
            df AS (SELECT line, count(DISTINCT doc_id) AS df
                   FROM lines GROUP BY line)
            SELECT l.doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(coalesce(sum(CASE WHEN d.df >= 10 THEN 1 ELSE 0 END),
                                 0) AS BIGINT) AS n_removed,
                   coalesce(string_agg(CASE WHEN d.df < 10 THEN l.line END,
                                       chr(10) ORDER BY l.idx),
                            '') AS text_clean
            FROM lines l JOIN df d USING (line)
            GROUP BY l.doc_id
            ORDER BY doc_id
        """,
        "docs_vocab": """
            -- top-20 vocab (binds: 31 distinct terms), token_id = row_number over (count desc,
            -- term asc) (curation.py::build_vocab)
            WITH toks AS (
              SELECT unnest(list_filter(str_split(lower(text), ' '),
                                        x -> x <> '')) AS term
              FROM documents),
            c AS (SELECT term, count(*) AS cnt FROM toks GROUP BY term)
            SELECT term, CAST(cnt AS BIGINT) AS "count",
                   CAST(row_number() OVER (ORDER BY cnt DESC, term ASC)
                        AS BIGINT) AS token_id
            FROM c QUALIFY token_id <= 20 ORDER BY token_id
        """,
        "docs_vocab_encode": """
            -- fixed-vocab encoding, OOV -> 0
            -- (curation.py::encode_with_vocab over build_vocab(20))
            WITH d AS (SELECT doc_id,
                              list_filter(str_split(lower(text), ' '),
                                          x -> x <> '') AS toks
                       FROM documents),
            pos AS (SELECT doc_id, generate_subscripts(toks, 1) AS i,
                           unnest(toks) AS term
                    FROM d),
            c AS (SELECT term, count(*) AS cnt FROM pos GROUP BY term),
            v AS (SELECT term,
                         row_number() OVER (ORDER BY cnt DESC, term ASC)
                             AS tid
                  FROM c QUALIFY tid <= 20),
            m AS (SELECT p.doc_id, p.i, COALESCE(v.tid, 0) AS tid
                  FROM pos p LEFT JOIN v ON v.term = p.term),
            g AS (SELECT doc_id,
                         CAST(count(*) AS BIGINT) AS n_tokens,
                         CAST(count(*) FILTER (WHERE tid = 0) AS BIGINT)
                             AS n_oov,
                         string_agg(CAST(tid AS VARCHAR), ','
                                    ORDER BY i) AS ids_csv
                  FROM m GROUP BY doc_id)
            SELECT dd.doc_id, COALESCE(g.n_tokens, 0) AS n_tokens,
                   COALESCE(g.n_oov, 0) AS n_oov,
                   COALESCE(g.ids_csv, '') AS ids_csv
            FROM (SELECT doc_id FROM documents) dd
            LEFT JOIN g USING (doc_id)
            ORDER BY doc_id
        """,
        "docs_csv_roundtrip": f"""
            -- independent re-parse of the Ray-written CSV shards
            SELECT CAST(doc_id AS BIGINT) AS doc_id, source, text
            FROM read_csv('{os.path.join(_SIDE, "docs_csv_roundtrip",
                                         "csv", "*.csv")}',
                          header = true, quote = '"', escape = '"')
            ORDER BY doc_id
        """,
        "docs_jsonl_roundtrip": f"""
            -- independent re-parse of the Ray-written JSONL shards
            SELECT CAST(doc_id AS BIGINT) AS doc_id, source, text
            FROM read_json_auto(
              '{os.path.join(_SIDE, "docs_jsonl_roundtrip", "jsonl",
                             "*.json")}')
            ORDER BY doc_id
        """,
        "parts_copurchase": """
            -- co-purchase projection replay: distinct bipartite rows,
            -- hub cap (deg <= 10000, the operator's max_wedge_degree),
            -- self-join per order, pair count, weight >= 2
            WITH d AS (
              SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
            ok AS (
              SELECT l_orderkey FROM d GROUP BY 1
              HAVING count(*) <= 10000),
            dc AS (SELECT d.* FROM d JOIN ok USING (l_orderkey)),
            p AS (
              SELECT a.l_partkey AS part_a, b.l_partkey AS part_b
              FROM dc a JOIN dc b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey < b.l_partkey)
            SELECT part_a, part_b, CAST(count(*) AS BIGINT) AS weight
            FROM p GROUP BY 1, 2 HAVING count(*) >= 2
            ORDER BY 1, 2
        """,
        "kg_ntriples_roundtrip": f"""
            -- independent DuckDB parse of the .nt shards the query wrote
            -- (sources/ntriples.py regex parser vs read_text + regexp)
            WITH raw AS (SELECT content FROM read_text(
                   '{os.path.join(_SIDE, "kg_ntriples_roundtrip", "nt", "*.nt")}')),
            lines AS (SELECT unnest(str_split(content, chr(10))) AS line
                      FROM raw),
            m AS (SELECT
                    regexp_extract(line, '^<([^>]*)> <([^>]*)> (.*) \\.$', 1) AS s,
                    regexp_extract(line, '^<([^>]*)> <([^>]*)> (.*) \\.$', 2) AS p,
                    regexp_extract(line, '^<([^>]*)> <([^>]*)> (.*) \\.$', 3) AS o
                  FROM lines WHERE line <> '')
            SELECT s AS subj_uri, p AS pred_uri,
                   CASE WHEN o LIKE '<%'
                        THEN substr(o, 2, len(o) - 2)
                        ELSE array_to_string(
                               list_transform(
                                 str_split(substr(o, 2, len(o) - 2), '\\\\'),
                                 x -> replace(replace(replace(x, '\\n', chr(10)),
                                                      '\\r', chr(13)),
                                              '\\"', '"')),
                               '\\')
                   END AS obj,
                   o LIKE '<%' AS obj_is_uri
            FROM m ORDER BY subj_uri, pred_uri, obj
        """,
        "events_value_mad": """
            -- robust stats replay (stages/analytics.py::group_mad)
            WITH med AS (SELECT event_type,
                                count(*) AS n,
                                quantile_cont(value, 0.5) AS med
                         FROM events GROUP BY event_type),
            mad AS (SELECT e.event_type,
                           quantile_cont(abs(e.value - m.med), 0.5) AS mad
                    FROM events e JOIN med m USING (event_type)
                    GROUP BY e.event_type),
            outl AS (SELECT e.event_type,
                            sum(CASE WHEN abs(e.value - m.med)
                                     > 3 * 1.4826 * d.mad
                                     THEN 1 ELSE 0 END) AS n_outliers
                     FROM events e JOIN med m USING (event_type)
                     JOIN mad d USING (event_type)
                     GROUP BY e.event_type)
            SELECT m.event_type, CAST(m.n AS BIGINT) AS n,
                   round(m.med, 6) AS median, round(d.mad, 6) AS mad,
                   CAST(o.n_outliers AS BIGINT) AS n_outliers
            FROM med m JOIN mad d USING (event_type)
            JOIN outl o USING (event_type)
            ORDER BY m.event_type
        """,
        "events_user_skew": """
            -- skew diagnostics replay
            -- (stages/analytics.py::key_skew_stats)
            WITH c AS (SELECT user_id, count(*) AS cnt FROM events
                       GROUP BY user_id),
            t AS (SELECT count(*) AS n_keys, sum(cnt) AS n_rows FROM c),
            rk AS (SELECT user_id, cnt,
                          row_number() OVER (ORDER BY cnt DESC,
                                             user_id ASC) AS "rank"
                   FROM c)
            SELECT user_id, CAST(cnt AS BIGINT) AS cnt,
                   CAST("rank" AS BIGINT) AS "rank",
                   round(CAST(cnt AS DOUBLE) / t.n_rows, 9) AS share,
                   CAST(t.n_rows AS BIGINT) AS n_rows,
                   CAST(t.n_keys AS BIGINT) AS n_keys
            FROM rk CROSS JOIN t WHERE "rank" <= 10 ORDER BY "rank"
        """,
        "docs_normalize_text": f"""
            -- unicode cleaning replay over the planted side table
            -- (stages/curation.py::normalize_text)
            WITH input AS (SELECT * FROM read_parquet(
                '{os.path.join(_SIDE, "docs_normalize_text", "input.parquet")}'))
            SELECT doc_id,
                   trim(regexp_replace(nfc_normalize(lower(text)),
                                       '[ \t\n\r\f\v]+', ' ', 'g'))
                       AS text_norm,
                   trim(regexp_replace(nfc_normalize(lower(text)),
                                       '[ \t\n\r\f\v]+', ' ', 'g'))
                       <> text AS changed
            FROM input ORDER BY doc_id
        """,
        "docs_tokenize_pipeline": """
            -- full-chain replay: vocab -> encode n_tokens -> pack cumsum
            WITH d AS (SELECT doc_id,
                              list_filter(str_split(lower(text), ' '),
                                          x -> x <> '') AS toks
                       FROM documents),
            n AS (SELECT doc_id, len(toks) AS n_tokens FROM d)
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(coalesce(sum(n_tokens) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING),
                        0) // 500 AS BIGINT) AS seq_id
            FROM n ORDER BY doc_id
        """,
        "orders_snapshot_diff": """
            -- version-diff replay (stages/analytics.py::table_diff);
            -- the oracle compares VALUES where the operator compares
            -- 64-bit fingerprints (collision odds ~2^-64, documented)
            WITH old AS (SELECT o_orderkey, o_totalprice, o_orderstatus
                         FROM orders),
            kept AS (SELECT * FROM old WHERE o_orderkey % 7 <> 0),
            new AS (
              SELECT o_orderkey,
                     CASE WHEN o_orderkey % 5 = 0
                          THEN round(o_totalprice * 1.1, 2)
                          ELSE o_totalprice END AS o_totalprice,
                     o_orderstatus
              FROM kept
              UNION ALL
              SELECT o_orderkey + 1000000000,
                     CASE WHEN o_orderkey % 5 = 0
                          THEN round(o_totalprice * 1.1, 2)
                          ELSE o_totalprice END,
                     o_orderstatus
              FROM kept WHERE o_orderkey % 11 = 0)
            SELECT COALESCE(o.o_orderkey, n.o_orderkey) AS o_orderkey,
                   CASE WHEN o.o_orderkey IS NULL THEN 'added'
                        WHEN n.o_orderkey IS NULL THEN 'removed'
                        WHEN o.o_totalprice = n.o_totalprice
                             AND o.o_orderstatus = n.o_orderstatus
                             THEN 'unchanged'
                        ELSE 'changed' END AS status
            FROM old o FULL OUTER JOIN new n USING (o_orderkey)
            ORDER BY o_orderkey
        """,
        "events_range_sorted": """
            -- total-sort replay: row_number over the deterministic order
            -- (stages/analytics.py::range_sort)
            SELECT event_id, round(value, 6) AS value,
                   CAST(row_number() OVER (ORDER BY value, event_id) - 1
                        AS BIGINT) AS global_pos
            FROM events ORDER BY event_id
        """,
        "events_value_pct_rank": """
            -- percent_rank window replay
            -- (stages/analytics.py::percentile_rank)
            SELECT event_id, round(value, 6) AS value,
                   round(percent_rank() OVER (ORDER BY value), 9)
                       AS pct_rank
            FROM events ORDER BY event_id
        """,
        "events_type_hour_pivot": """
            -- pivot replay: CASE-summed wide columns
            -- (stages/analytics.py::pivot_agg)
            SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour,
                   round(sum(CASE WHEN event_type = 'click'
                                  THEN round(value, 2) ELSE 0 END), 2)
                       AS event_type_click,
                   round(sum(CASE WHEN event_type = 'error'
                                  THEN round(value, 2) ELSE 0 END), 2)
                       AS event_type_error,
                   round(sum(CASE WHEN event_type = 'purchase'
                                  THEN round(value, 2) ELSE 0 END), 2)
                       AS event_type_purchase,
                   round(sum(CASE WHEN event_type = 'signup'
                                  THEN round(value, 2) ELSE 0 END), 2)
                       AS event_type_signup,
                   round(sum(CASE WHEN event_type = 'view'
                                  THEN round(value, 2) ELSE 0 END), 2)
                       AS event_type_view
            FROM events GROUP BY hour ORDER BY hour
        """,
        "events_upsert_state": """
            -- latest-wins merge replay (stages/joins.py::upsert_merge)
            WITH t AS (
              SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                     event_id, event_type, value,
                     CASE WHEN event_id % 3 = 0 THEN 1 ELSE 0 END AS _src
              FROM events),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY ts_us DESC, _src DESC, event_id DESC)
                       AS rn
                   FROM t)
            SELECT user_id, ts_us, event_id, event_type,
                   round(value, 6) AS value
            FROM rk WHERE rn = 1 ORDER BY user_id
        """,
        "docs_pii_redact": f"""
            -- PII redaction replay (curation.py::redact_pii): the SAME
            -- RE2-safe patterns, chained in the SAME order — each
            -- category counts on the text AFTER the previous
            -- replacement, exactly like the operator
            WITH inp AS (
              SELECT doc_id, text FROM read_parquet(
                '{os.path.join(_SIDE, "docs_pii_redact", "input.parquet")}')),
            r1 AS (
              SELECT doc_id,
                len(regexp_extract_all(text,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}'))
                  AS n_email,
                regexp_replace(text,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}',
                  '[EMAIL]', 'g') AS t
              FROM inp),
            r2 AS (
              SELECT doc_id, n_email,
                len(regexp_extract_all(t,
                  '\\b[0-9]{{1,3}}\\.[0-9]{{1,3}}\\.[0-9]{{1,3}}\\.[0-9]{{1,3}}\\b'))
                  AS n_ipv4,
                regexp_replace(t,
                  '\\b[0-9]{{1,3}}\\.[0-9]{{1,3}}\\.[0-9]{{1,3}}\\.[0-9]{{1,3}}\\b',
                  '[IP]', 'g') AS t
              FROM r1),
            r3 AS (
              SELECT doc_id, n_email, n_ipv4,
                len(regexp_extract_all(t,
                  '\\+?[0-9][0-9 ().-]{{7,14}}[0-9]\\b')) AS n_phone,
                regexp_replace(t,
                  '\\+?[0-9][0-9 ().-]{{7,14}}[0-9]\\b',
                  '[PHONE]', 'g') AS t
              FROM r2)
            SELECT doc_id, n_email, n_ipv4, n_phone,
                   (n_email + n_ipv4 + n_phone) > 0 AS has_pii,
                   substr(t, 1, 100) AS red_prefix
            FROM r3 ORDER BY doc_id
        """,
        "docs_url_dedup": f"""
            -- canonical-URL dedup replay (curation.py::url_dedup):
            -- component surgery, tracking-param filter, sorted params,
            -- min-doc_id winner per canonical URL
            WITH u AS (
              SELECT doc_id, url FROM read_parquet(
                '{os.path.join(_SIDE, "docs_url_dedup", "input.parquet")}')),
            p AS (
              SELECT doc_id, url,
                lower(regexp_extract(url,
                  '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                CASE
                  WHEN lower(regexp_extract(url,
                      '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) = 'http'
                  THEN regexp_replace(regexp_replace(lower(regexp_extract(
                    url, '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)),
                    '^www\\.', ''), ':80$', '')
                  WHEN lower(regexp_extract(url,
                      '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) = 'https'
                  THEN regexp_replace(regexp_replace(lower(regexp_extract(
                    url, '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)),
                    '^www\\.', ''), ':443$', '')
                  ELSE regexp_replace(lower(regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)),
                    '^www\\.', '')
                END AS host,
                regexp_replace(regexp_extract(url,
                  '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*([^?#]*)', 1),
                  '/$', '') AS path,
                CASE WHEN url LIKE '%?%'
                     THEN regexp_extract(url, '\\?([^#]*)', 1)
                     ELSE '' END AS q
              FROM u),
            qp AS (
              SELECT doc_id, url, scheme, host, path,
                     list_sort(list_filter(str_split(q, '&'),
                       x -> x <> '' AND NOT starts_with(x, 'utm_')
                            AND str_split(x, '=')[1]
                                NOT IN ('fbclid', 'gclid'))) AS params
              FROM p),
            c AS (
              SELECT doc_id, url,
                     scheme || '://' || host || path ||
                     CASE WHEN len(params) > 0
                          THEN '?' || array_to_string(params, '&')
                          ELSE '' END AS canon_url
              FROM qp),
            k AS (
              SELECT doc_id, url, canon_url,
                     min(doc_id) OVER (PARTITION BY canon_url) AS keep_id
              FROM c)
            SELECT doc_id, url, canon_url,
                   (doc_id = keep_id) AS is_kept
            FROM k ORDER BY doc_id
        """,
        "revenue_by_nation_year": """
            -- three-table star join replay (chained exchange_join +
            -- broadcast nation dim + exchange_agg, one fused plan)
            SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   round(sum(round(l_extendedprice * (1 - l_discount), 2)),
                         2) AS revenue,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem
            JOIN orders   ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            JOIN nation   ON n_nationkey = c_nationkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY n_name, o_year ORDER BY n_name, o_year
        """,
        "docs_token_budget_mix": f"""
            -- per-source token budget in hash order
            -- (curation.py::token_budget_mix / analytics.py::
            -- grouped_prefix_sum): exclusive running chars < 4000
            WITH {_sm64_sql("documents", "doc_id",
                            ["doc_id", "source", "n_chars"])},
            p AS (
              SELECT doc_id, source, n_chars,
                     COALESCE(SUM(n_chars) OVER (
                       PARTITION BY source ORDER BY hv
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS tokens_before
              FROM h)
            SELECT doc_id, source, CAST(n_chars AS BIGINT) AS n_chars,
                   CAST(tokens_before AS BIGINT) AS tokens_before
            FROM p WHERE tokens_before < 4000 ORDER BY doc_id
        """,
        "events_skew_join": """
            -- salted hot-key join replay (stages/joins.py::skew_join):
            -- the salt machinery must be invisible in the result set
            WITH l AS (
              SELECT event_id,
                     CASE WHEN event_id % 10 < 7 THEN 0
                          ELSE event_id % 1000 END AS k
              FROM events),
            d AS (SELECT range AS k, range * 3 + 1 AS dimv
                  FROM range(0, 1000, 2))
            SELECT l.event_id, l.k,
                   CAST(COALESCE(d.dimv, -1) AS BIGINT) AS dimv
            FROM l LEFT JOIN d USING (k)
            ORDER BY event_id
        """,
        "events_clustered_scan": """
            -- zone-map pruned scan (stages/lakehouse.py): the manifest
            -- pruning must be invisible in the result set
            SELECT event_id, round(value, 6) AS value
            FROM events WHERE value BETWEEN 10.0 AND 20.0
            ORDER BY event_id
        """,
        "events_point_lookup": """
            -- Bloom point-lookup replay: the file skipping must be
            -- invisible in the result set
            SELECT event_id, user_id, round(value, 6) AS value
            FROM events WHERE event_id IN (1, 250, 999, 4242)
            ORDER BY event_id
        """,
        "kg_cooccur_edges": f"""
            -- entity co-occurrence edge replay (distinct -> self-join ->
            -- count over the canonical per-page entity side table)
            WITH t AS (
              SELECT DISTINCT url, subj_slug FROM read_parquet(
                '{os.path.join(_SIDE, "kg_cooccur_edges",
                               "page_entities.parquet")}'))
            SELECT a.subj_slug AS src, b.subj_slug AS dst,
                   CAST(count(*) AS BIGINT) AS weight
            FROM t a JOIN t b
              ON a.url = b.url AND a.subj_slug < b.subj_slug
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "graph_kcore": _kcore_sql(k=10, n_rounds=6),
        "embeddings_unnest": """
            -- posexplode replay (analytics.py::explode_list)
            WITH e AS (SELECT vec_id, embedding FROM embeddings
                       WHERE vec_id % 50 = 0),
            p AS (SELECT vec_id, embedding,
                         unnest(range(1, len(embedding) + 1)) AS i
                  FROM e)
            SELECT vec_id, CAST(i - 1 AS BIGINT) AS pos,
                   round(CAST(embedding[i] AS DOUBLE), 6) AS value
            FROM p ORDER BY vec_id, pos
        """,
        "docs_ppl_buckets": """
            -- CCNet tertile buckets over the same bigram-LM ppl replay
            -- as docs_lm_perplexity (both sides round ppl to 6dp BEFORE
            -- the tertile comparison)
            WITH rtok AS (
              SELECT list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS w
              FROM documents WHERE doc_id % 20 = 0),
            rpos AS (SELECT w, unnest(range(1, len(w) + 1)) AS i FROM rtok),
            runi AS (SELECT w[i] AS w1, count(*) AS c1 FROM rpos GROUP BY w1),
            rbi AS (SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS c12
                    FROM rpos WHERE i < len(w) GROUP BY w1, w2),
            v AS (SELECT count(*) + 1 AS v FROM runi),
            dtok AS (
              SELECT doc_id, list_filter(str_split(lower(text), ' '),
                                         x -> x <> '') AS w
              FROM documents),
            dpos AS (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i
                     FROM dtok),
            dbi AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM dpos WHERE i < len(w)),
            sc AS (
              SELECT d.doc_id,
                     ln((coalesce(b.c12, 0) + 1.0)
                        / (coalesce(u.c1, 0) + v.v)) AS lp
              FROM dbi d
              LEFT JOIN rbi b ON d.w1 = b.w1 AND d.w2 = b.w2
              LEFT JOIN runi u ON d.w1 = u.w1
              CROSS JOIN v),
            agg AS (SELECT doc_id, -sum(lp) / count(*) AS nll
                    FROM sc GROUP BY doc_id),
            pplr AS (
              SELECT t.doc_id,
                     round(coalesce(exp(a.nll), 1.0), 6) AS ppl
              FROM dtok t LEFT JOIN agg a USING (doc_id)),
            qb AS (SELECT quantile_cont(ppl, 1.0/3) AS q1,
                          quantile_cont(ppl, 2.0/3) AS q2 FROM pplr)
            SELECT doc_id, ppl,
                   CASE WHEN ppl > q2 THEN 'tail'
                        WHEN ppl > q1 THEN 'middle'
                        ELSE 'head' END AS bucket
            FROM pplr CROSS JOIN qb ORDER BY doc_id
        """,
        "events_interval_pairs": """
            -- interval self-join replay (joins.py::interval_self_join):
            -- each unordered within-24h pair once, as (earlier, later)
            SELECT a.user_id, a.event_id AS id_a, b.event_id AS id_b,
                   CAST(epoch_us(b.ts) - epoch_us(a.ts) AS BIGINT)
                     AS dt_us
            FROM events a JOIN events b
              ON a.user_id = b.user_id
             AND b.ts >= a.ts
             AND epoch_us(b.ts) - epoch_us(a.ts) <= 86400000000
             AND (a.ts < b.ts OR a.event_id < b.event_id)
            ORDER BY 1, 2, 3
        """,
        "events_interval_coverage": """
            -- union-of-intervals replay (windows.interval_coverage):
            -- running max end per user finds island breaks; coverage =
            -- sum over islands of (max end - min start)
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS s,
                     epoch_us(ts) + 1800000000 AS e
              FROM events),
            w AS (
              SELECT user_id, s, e,
                     max(e) OVER (PARTITION BY user_id ORDER BY s
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND 1 PRECEDING) AS pmax
              FROM e),
            i AS (
              SELECT user_id, s, e,
                     sum(CASE WHEN pmax IS NULL OR s > pmax
                         THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY s
                             ROWS UNBOUNDED PRECEDING) AS isl
              FROM w),
            p AS (SELECT user_id, isl, min(s) AS st, max(e) AS en
                  FROM i GROUP BY user_id, isl)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
                   CAST(sum(en - st) AS BIGINT) AS covered_us
            FROM p GROUP BY user_id ORDER BY user_id
        """,
        "events_debounce": """
            -- burst-start replay (windows.debounce): keep rows whose gap
            -- since the previous (user, type) event exceeds 5 minutes
            WITH x AS (
              SELECT user_id, event_type, event_id, epoch_us(ts) AS ts_us,
                     lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev
              FROM events)
            SELECT user_id, event_type, event_id,
                   CAST(ts_us AS BIGINT) AS ts_us
            FROM x WHERE prev IS NULL OR ts_us - prev > 300000000
            ORDER BY event_id
        """,
        "events_scd2": """
            -- SCD2 replay (windows.scd2_history): change rows = first or
            -- attr differs from the (ts, event_id)-ordered predecessor;
            -- valid_to = next change's ts, -1 for the open row
            WITH x AS (
              SELECT user_id, event_type, epoch_us(ts) AS ts_us,
                     lag(event_type) OVER w AS prev_attr,
                     row_number() OVER w AS rn
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            ch AS (
              SELECT user_id, event_type, ts_us, rn FROM x
              WHERE prev_attr IS NULL OR event_type <> prev_attr),
            y AS (
              SELECT user_id, event_type, ts_us AS valid_from_us,
                     coalesce(lead(ts_us) OVER (
                       PARTITION BY user_id ORDER BY rn), -1) AS valid_to_us
              FROM ch)
            SELECT user_id, event_type,
                   CAST(valid_from_us AS BIGINT) AS valid_from_us,
                   CAST(valid_to_us AS BIGINT) AS valid_to_us
            FROM y ORDER BY user_id, valid_from_us, valid_to_us
        """,
        "events_user_paths": """
            -- grouped ordered concat replay (windows.grouped_path):
            -- first 20 event types per user, '>'-joined in (ts, event_id)
            -- order
            WITH r AS (
              SELECT user_id, event_type,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events)
            SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path,
                   CAST(count(*) AS BIGINT) AS n
            FROM r WHERE rn <= 20 GROUP BY user_id ORDER BY user_id
        """,
        "events_cms_user_counts": f"""
            -- count-min sketch replay (analytics.cms_build/cms_estimate):
            -- register[i][b] = sum of counts of users with
            -- splitmix64(user*4+i) % 32 == b; est = least over the 4 rows.
            -- Integer registers, so the replay is bit-exact.
            WITH u AS (SELECT user_id, count(*) AS c FROM events
                       GROUP BY user_id),
            {_sm64_sql("u", "(user_id * 4 + 0)", ["user_id", "c"],
                       prefix="ca")},
            {_sm64_sql("u", "(user_id * 4 + 1)", ["user_id", "c"],
                       prefix="cb")},
            {_sm64_sql("u", "(user_id * 4 + 2)", ["user_id", "c"],
                       prefix="cc")},
            {_sm64_sql("u", "(user_id * 4 + 3)", ["user_id", "c"],
                       prefix="cd")},
            ba AS (SELECT user_id, c, CAST(hv % 32 AS BIGINT) AS bk
                   FROM cah),
            bb AS (SELECT user_id, c, CAST(hv % 32 AS BIGINT) AS bk
                   FROM cbh),
            bc AS (SELECT user_id, c, CAST(hv % 32 AS BIGINT) AS bk
                   FROM cch),
            bd AS (SELECT user_id, c, CAST(hv % 32 AS BIGINT) AS bk
                   FROM cdh),
            ra AS (SELECT bk, sum(c) AS cnt FROM ba GROUP BY bk),
            rb AS (SELECT bk, sum(c) AS cnt FROM bb GROUP BY bk),
            rc AS (SELECT bk, sum(c) AS cnt FROM bc GROUP BY bk),
            rd AS (SELECT bk, sum(c) AS cnt FROM bd GROUP BY bk)
            SELECT ba.user_id,
                   CAST(least(ra.cnt, rb.cnt, rc.cnt, rd.cnt) AS BIGINT)
                       AS est,
                   CAST(ba.c AS BIGINT) AS exact_cnt
            FROM ba JOIN bb USING (user_id) JOIN bc USING (user_id)
                 JOIN bd USING (user_id)
                 JOIN ra ON ra.bk = ba.bk JOIN rb ON rb.bk = bb.bk
                 JOIN rc ON rc.bk = bc.bk JOIN rd ON rd.bk = bd.bk
            ORDER BY ba.user_id
        """,
        "orders_skyline": """
            -- Pareto-frontier replay (analytics.skyline_2d): keep a
            -- (price, date) point iff no strictly-higher-price point has
            -- date <= ours (prefix min over distinct prices desc) and it
            -- holds the min date within its own price group
            WITH p AS (SELECT o_totalprice AS price,
                              epoch_us(o_orderdate) AS date_us,
                              count(*) AS n
                       FROM orders GROUP BY 1, 2),
            g AS (SELECT price, min(date_us) AS gy FROM p GROUP BY price),
            c AS (SELECT price, gy,
                         min(gy) OVER (ORDER BY price DESC
                                       ROWS BETWEEN UNBOUNDED PRECEDING
                                            AND 1 PRECEDING) AS cmin
                  FROM g)
            SELECT round(p.price, 2) AS price,
                   CAST(p.date_us AS BIGINT) AS date_us,
                   CAST(p.n AS BIGINT) AS n
            FROM p JOIN c USING (price)
            WHERE (c.cmin IS NULL OR c.cmin > p.date_us)
              AND p.date_us = c.gy
            ORDER BY 1
        """,
        "orders_clustered_join": """
            -- co-clustered zone-map join replay: the shuffle-free plan
            -- must be invisible in the result set
            SELECT o_orderkey, o_custkey, c_name,
                   round(o_totalprice, 2) AS o_totalprice
            FROM orders JOIN customer ON o_custkey = c_custkey
            ORDER BY o_orderkey
        """,
        "events_watermark_late": """
            -- streaming high-watermark replay (windows.watermark_filter):
            -- late = event time > 72h behind the max event time of
            -- strictly earlier arrivals
            WITH w AS (
              SELECT event_id, epoch_us(ts) AS tsu,
                     max(epoch_us(ts)) OVER (
                       ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS hw
              FROM events)
            SELECT event_id,
                   CAST(CASE WHEN hw IS NOT NULL
                              AND tsu < hw - 259200000000
                        THEN 1 ELSE 0 END AS BIGINT) AS is_late
            FROM w ORDER BY event_id
        """,
        "events_cdc_state": """
            -- CDC apply replay (stages/joins.py::cdc_apply): union ->
            -- per-key winner (ts desc, change-beats-base, value desc) ->
            -- tombstone filter
            WITH base AS (
              SELECT event_id, user_id, ts, value FROM events
              WHERE event_id % 2 = 0),
            chg AS (
              SELECT event_id, user_id, ts, value + 1000.0 AS value,
                     CASE WHEN (event_id // 4) % 2 = 0 THEN 'D'
                          ELSE 'U' END AS op
              FROM events WHERE event_id % 4 < 2),
            u AS (
              SELECT event_id, user_id, ts, value, 0 AS src, 'U' AS op
              FROM base
              UNION ALL
              SELECT event_id, user_id, ts, value, 1, op FROM chg),
            w AS (
              SELECT *, row_number() OVER (
                PARTITION BY event_id
                ORDER BY ts DESC, src DESC, value DESC) AS rn
              FROM u)
            SELECT event_id, user_id, ts, round(value, 6) AS value
            FROM w WHERE rn = 1 AND op <> 'D'
            ORDER BY event_id
        """,
        "graph_common_neighbors": """
            -- common-neighbor counts over the distinct supplier->customer
            -- graph: hub cap (deg <= 10000, the operator's
            -- max_wedge_degree), pairs of suppliers sharing >= 3 customers
            WITH edges AS (
              SELECT DISTINCT l_suppkey AS supp, o_custkey AS cust
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            ok AS (
              SELECT cust FROM edges GROUP BY 1
              HAVING count(*) <= 10000),
            e AS (SELECT edges.* FROM edges JOIN ok USING (cust))
            SELECT a.supp AS supp_a, b.supp AS supp_b,
                   CAST(count(*) AS BIGINT) AS common
            FROM e a JOIN e b
              ON a.cust = b.cust AND a.supp < b.supp
            GROUP BY 1, 2 HAVING count(*) >= 3
            ORDER BY 1, 2
        """,
        "kg_negative_samples": f"""
            -- negative-sampling replay (stages/graph.py::negative_samples):
            -- sorted distinct-object vocabulary, splitmix64(h + j) mod n
            WITH t AS (SELECT * FROM read_parquet(
                '{os.path.join(_SIDE, "kg_negative_samples",
                               "triples.parquet")}')),
            ents AS (
              SELECT entity,
                     row_number() OVER (ORDER BY entity) - 1 AS idx
              FROM (SELECT DISTINCT obj AS entity FROM t)),
            nn AS (SELECT CAST(count(*) AS HUGEINT) AS c FROM ents),
            reps AS (
              SELECT subj_slug, pred, obj,
                     CAST(h_base AS HUGEINT)
                       + unnest(generate_series(0, 1)) AS hj,
                     unnest(generate_series(0, 1)) AS j
              FROM t),
            {_sm64_sql("reps", "hj", ["subj_slug", "pred", "obj", "j"])}
            SELECT h.subj_slug, h.pred, h.obj, CAST(h.j AS BIGINT) AS neg_j,
                   e.entity AS obj_neg
            FROM h CROSS JOIN nn JOIN ents e ON e.idx = h.hv % nn.c
            ORDER BY 1, 2, 3, 4
        """,
        "kg_provenance": f"""
            -- triple provenance replay (composite-key group_collect):
            -- distinct source pages per (subj_slug, pred, obj)
            WITH t AS (
              SELECT DISTINCT subj_slug, pred, obj, url FROM read_parquet(
                '{os.path.join(_SIDE, "kg_provenance", "linked.parquet")}'))
            SELECT subj_slug, pred, obj,
                   CAST(count(*) AS BIGINT) AS n_values,
                   string_agg(url, '|' ORDER BY url) AS "values"
            FROM t GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "docs_cluster_prf": f"""
            -- pairwise clustering P/R/F1 replay: sum-of-C(n,2) over
            -- pred sizes, gold (exact-text) sizes, contingency cells
            WITH pred AS (
              SELECT doc_id, canonical_id FROM read_parquet(
                '{os.path.join(_SIDE, "docs_cluster_prf",
                               "pred.parquet")}')),
            gold AS (SELECT doc_id, text AS cluster FROM documents),
            pp AS (
              SELECT sum(n * (n - 1) // 2) AS v FROM (
                SELECT count(*) AS n FROM pred GROUP BY canonical_id)),
            gp AS (
              SELECT sum(n * (n - 1) // 2) AS v FROM (
                SELECT count(*) AS n FROM gold GROUP BY cluster)),
            bp AS (
              SELECT sum(n * (n - 1) // 2) AS v FROM (
                SELECT count(*) AS n FROM pred JOIN gold USING (doc_id)
                GROUP BY pred.canonical_id, gold.cluster)),
            m AS (
              SELECT CAST(pp.v AS BIGINT) AS pred_pairs,
                     CAST(gp.v AS BIGINT) AS gold_pairs,
                     CAST(bp.v AS BIGINT) AS both_pairs,
                     CASE WHEN pp.v > 0 THEN bp.v / pp.v ELSE 0.0 END
                       AS p,
                     CASE WHEN gp.v > 0 THEN bp.v / gp.v ELSE 0.0 END
                       AS r
              FROM pp, gp, bp)
            SELECT pred_pairs, gold_pairs, both_pairs,
                   round(p, 6) AS precision, round(r, 6) AS recall,
                   round(CASE WHEN p + r > 0
                              THEN 2 * p * r / (p + r)
                              ELSE 0.0 END, 6) AS f1
            FROM m
        """,
        "kg_subject_lookup": f"""
            -- independent re-read of the hive-partitioned graph: plain
            -- subject filter (the bucket pruning must be invisible)
            SELECT subj, pred, obj
            FROM read_parquet(
              '{os.path.join(_SIDE, "kg_subject_lookup", "graph",
                             "**", "*.parquet")}',
              hive_partitioning = 1)
            WHERE subj = (SELECT subj FROM read_parquet(
              '{os.path.join(_SIDE, "kg_subject_lookup",
                             "chosen.parquet")}'))
            ORDER BY subj, pred, obj
        """,
        "kg_incremental_update": f"""
            -- merge replay: DISTINCT (s,p,o) over base ∪ delta
            SELECT DISTINCT subj, pred, obj FROM (
              SELECT subj, pred, obj FROM read_parquet(
                '{os.path.join(_SIDE, "kg_incremental_update",
                               "base.parquet")}')
              UNION ALL
              SELECT subj, pred, obj FROM read_parquet(
                '{os.path.join(_SIDE, "kg_incremental_update",
                               "delta.parquet")}'))
            ORDER BY subj, pred, obj
        """,
        "kg_domain_violations": """
            -- planted-violation mutation + domain/range checks
            WITH t AS (
              SELECT 'supplier_' || s_suppkey AS subj,
                     'located_in' AS pred,
                     CASE WHEN s_suppkey % 10 = 0
                          THEN 'region_' || (s_suppkey % 5)
                          ELSE 'nation_' || s_nationkey END AS obj
              FROM supplier
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     CASE WHEN c_custkey % 13 = 0 THEN 'nation_999999'
                          ELSE 'nation_' || c_nationkey END
              FROM customer
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'part_of',
                     'region_' || n_regionkey
              FROM nation),
            ty AS (
              SELECT 'supplier_' || s_suppkey AS entity,
                     'Supplier' AS type FROM supplier
              UNION ALL SELECT 'customer_' || c_custkey, 'Customer'
                FROM customer
              UNION ALL SELECT 'nation_' || n_nationkey, 'Nation'
                FROM nation
              UNION ALL SELECT 'region_' || r_regionkey, 'Region'
                FROM region),
            rules(pred, st, ot) AS (VALUES
              ('located_in', NULL, 'Nation'),
              ('part_of', 'Nation', 'Region')),
            j AS (
              SELECT t.subj, t.pred, t.obj, r.st, r.ot,
                     ts.type AS gt_s, tob.type AS gt_o
              FROM t JOIN rules r USING (pred)
              LEFT JOIN ty ts ON ts.entity = t.subj
              LEFT JOIN ty tob ON tob.entity = t.obj)
            SELECT subj, pred, obj, 'domain_missing' AS reason FROM j
            WHERE st IS NOT NULL AND gt_s IS NULL
            UNION ALL
            SELECT subj, pred, obj, 'domain_wrong' FROM j
            WHERE st IS NOT NULL AND gt_s IS NOT NULL AND gt_s <> st
            UNION ALL
            SELECT subj, pred, obj, 'range_missing' FROM j
            WHERE ot IS NOT NULL AND gt_o IS NULL
            UNION ALL
            SELECT subj, pred, obj, 'range_wrong' FROM j
            WHERE ot IS NOT NULL AND gt_o IS NOT NULL AND gt_o <> ot
            ORDER BY subj, pred, obj, reason
        """,
        "kg_predicate_stats": """
            -- planner cardinalities over the same derived triple table
            WITH t AS (
              SELECT 'supplier_' || s_suppkey AS subj,
                     'located_in' AS pred,
                     'nation_' || s_nationkey AS obj FROM supplier
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || c_nationkey FROM customer
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'part_of',
                     'region_' || n_regionkey FROM nation
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'named', n_name
              FROM nation
              UNION ALL
              SELECT 'region_' || r_regionkey, 'named', r_name
              FROM region)
            SELECT pred, CAST(count(*) AS BIGINT) AS n_triples,
                   CAST(count(DISTINCT subj) AS BIGINT) AS n_subj,
                   CAST(count(DISTINCT obj) AS BIGINT) AS n_obj
            FROM t GROUP BY pred ORDER BY pred
        """,
        "kg_bgp_match": """
            -- BGP replay (stages/kgops.py::bgp_match): the SAME derived
            -- triple table, each pattern a self-join on its shared vars
            WITH triples AS (
              SELECT 'supplier_' || s_suppkey AS subj,
                     'located_in' AS pred,
                     'nation_' || s_nationkey AS obj FROM supplier
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || c_nationkey FROM customer
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'part_of',
                     'region_' || n_regionkey FROM nation
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'named', n_name FROM nation
              UNION ALL
              SELECT 'region_' || r_regionkey, 'named', r_name FROM region)
            SELECT DISTINCT t3.subj AS e, t2.subj AS n, t1.subj AS r,
                            t4.obj AS nname
            FROM triples t1
            JOIN triples t2 ON t2.pred = 'part_of' AND t2.obj = t1.subj
            JOIN triples t3 ON t3.pred = 'located_in' AND t3.obj = t2.subj
            JOIN triples t4 ON t4.pred = 'named' AND t4.subj = t2.subj
            WHERE t1.pred = 'named' AND t1.obj = 'EUROPE'
            ORDER BY e, n
        """,
        "kg_entity_fusion": f"""
            -- majority-vote fusion replay: support counts per claim,
            -- winner = max support, ties toward the smaller object
            WITH c AS (
              SELECT subj_slug, pred, obj, CAST(count(*) AS BIGINT)
                     AS support
              FROM read_parquet(
                '{os.path.join(_SIDE, "kg_entity_fusion",
                               "claims.parquet")}')
              GROUP BY 1, 2, 3),
            w AS (
              SELECT subj_slug, pred, obj, support,
                     sum(support) OVER (PARTITION BY subj_slug, pred)
                       AS n_claims,
                     row_number() OVER (PARTITION BY subj_slug, pred
                       ORDER BY support DESC, obj) AS rn
              FROM c)
            SELECT subj_slug, pred, obj, support,
                   CAST(n_claims AS BIGINT) AS n_claims
            FROM w WHERE rn = 1 ORDER BY subj_slug, pred
        """,
        "kg_type_infer": f"""
            -- type-inference replay: recursive-CTE closure over the
            -- SAME ontology VALUES, asserted-wins via bool_and
            WITH RECURSIVE onto(cls, sup) AS (VALUES {", ".join(
                f"('{c}', '{s}')" for c, s in _SCHEMA_ONTOLOGY)}),
            clos(cls, anc) AS (
              SELECT cls, sup FROM onto
              UNION
              SELECT c.cls, o.sup FROM clos c
              JOIN onto o ON o.cls = c.anc),
            a AS (
              SELECT DISTINCT entity, "type" FROM read_parquet(
                '{os.path.join(_SIDE, "kg_type_infer",
                               "asserted.parquet")}')),
            un AS (
              SELECT entity, "type", FALSE AS inferred FROM a
              UNION ALL
              SELECT a.entity, cl.anc, TRUE FROM a
              JOIN clos cl ON cl.cls = a."type")
            SELECT entity, "type", bool_and(inferred) AS inferred
            FROM un GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "graph_random_walks": _random_walk_sql(steps=4, seed=42),
        "graph_personalized_pagerank": _ppr_sql(iterations=3),
        "graph_hits": _hits_sql(iterations=3),
        "graph_lpa": _lpa_sql(iterations=3),
        "graph_modularity": _modularity_sql(iterations=3),
        "graph_link_prediction": """
            -- Adamic-Adar / resource-allocation over shared customers:
            -- wedge join carries deg(z) once per (pair, z); pair sums
            -- rounded to 6dp on both engines (sum order undefined)
            WITH e AS (
              SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS a,
                              CAST(o_custkey AS BIGINT) AS z
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            d AS (SELECT z, count(*) AS degz FROM e GROUP BY z
                  HAVING count(*) <= 10000),
            w AS (
              SELECT e1.a AS a, e2.a AS b, d.degz AS degz
              FROM e e1
              JOIN e e2 ON e1.z = e2.z AND e1.a < e2.a
              JOIN d ON d.z = e1.z)
            SELECT a, b, CAST(count(*) AS BIGINT) AS common,
                   round(sum(1.0 / ln(degz)), 6) AS aa,
                   round(sum(1.0 / degz), 6) AS ra
            FROM w GROUP BY a, b HAVING count(*) >= 3
            ORDER BY a, b
        """,
        "kg_sameas_closure": f"""
            -- sameAs chain closure replay: subjects ranked by name,
            -- grouped in threes (the planted chain rule), canonical =
            -- class min, subjects AND entity-valued objects rewritten,
            -- distinct
            WITH t AS (SELECT subj, pred, obj FROM read_parquet(
                   '{os.path.join(_SIDE, "kg_sameas_closure",
                                  "triples.parquet")}')),
            subs AS (SELECT DISTINCT subj FROM t),
            r AS (SELECT subj,
                         row_number() OVER (ORDER BY subj) - 1 AS rn
                  FROM subs),
            map AS (SELECT subj AS name,
                           min(subj) OVER (PARTITION BY rn - (rn % 3))
                             AS canon
                    FROM r)
            SELECT DISTINCT coalesce(ms.canon, t.subj) AS subj,
                   t.pred AS pred,
                   coalesce(mo.canon, t.obj) AS obj
            FROM t
            LEFT JOIN map ms ON ms.name = t.subj
            LEFT JOIN map mo ON mo.name = t.obj
            ORDER BY subj, pred, obj
        """,
        "events_metadata_count": """
            SELECT CAST(count(*) AS BIGINT) AS n_rows
            FROM events WHERE value >= 5.0 AND value <= 60.0
        """,
        "docs_readability": """
            -- same cheap proxies: [a-z]+ runs, [.!?]+ runs, [aeiouy]+
            -- vowel groups (all floored at 1), one float expression
            WITH c AS (
              SELECT doc_id,
                greatest(len(regexp_extract_all(lower(text),
                                                '[a-z]+')), 1) AS words,
                greatest(len(regexp_extract_all(lower(text),
                                                '[.!?]+')), 1) AS sentences,
                greatest(len(regexp_extract_all(lower(text),
                                                '[aeiouy]+')), 1) AS syllables
              FROM documents)
            SELECT doc_id,
                   CAST(words AS BIGINT) AS words,
                   CAST(sentences AS BIGINT) AS sentences,
                   CAST(syllables AS BIGINT) AS syllables,
                   round(206.835 - 1.015 * (words * 1.0 / sentences)
                         - 84.6 * (syllables * 1.0 / words), 6) AS flesch
            FROM c ORDER BY doc_id
        """,
        "docs_containment_pairs": """
            -- asymmetric 5-gram containment: inter/|G_a| and inter/|G_b|,
            -- keep pairs whose max direction reaches 0.5
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id,
                     w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                     || w[i+3] || ' ' || w[i+4] AS g
              FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
                    FROM words)),
            cnt AS (SELECT doc_id, count(*) AS n FROM grams
                    GROUP BY doc_id),
            inter AS (
              SELECT g1.doc_id AS id_a, g2.doc_id AS id_b,
                     count(*) AS inter
              FROM grams g1
              JOIN grams g2 ON g1.g = g2.g AND g1.doc_id < g2.doc_id
              GROUP BY 1, 2)
            SELECT id_a, id_b, CAST(inter AS BIGINT) AS inter,
                   CAST(ca.n AS BIGINT) AS n_a,
                   CAST(cb.n AS BIGINT) AS n_b,
                   round(inter * 1.0 / ca.n, 6) AS c_a,
                   round(inter * 1.0 / cb.n, 6) AS c_b
            FROM inter
            JOIN cnt ca ON ca.doc_id = id_a
            JOIN cnt cb ON cb.doc_id = id_b
            WHERE greatest(inter * 1.0 / ca.n, inter * 1.0 / cb.n) >= 0.5
            ORDER BY id_a, id_b
        """,
        "events_twa": """
            -- per-user time-weighted average: spans close at the next
            -- event by (ts, event_id); last event opens no span
            WITH s AS (
              SELECT user_id, value, epoch_us(ts) AS t,
                     lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id) AS t2
              FROM events)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_spans,
                   round(sum(value * (t2 - t)) / sum(t2 - t), 6) AS twa
            FROM s WHERE t2 IS NOT NULL
            GROUP BY user_id HAVING sum(t2 - t) > 0
            ORDER BY user_id
        """,
        "events_window_topk": """
            -- trending-now: hourly counts per type, top-3 per window
            WITH w AS (SELECT event_type,
                              epoch_us(ts) // 3600000000 AS window_id,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2)
            SELECT window_id, event_type, n,
                   CAST(rank AS BIGINT) AS rank
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY window_id
                      ORDER BY n DESC, event_type) AS rank
                  FROM w)
            WHERE rank <= 3 ORDER BY window_id, rank
        """,
        "events_survival": """
            -- Kaplan-Meier life table: lifetime day = (last-first)//1d;
            -- users active within 7d of corpus max are right-censored
            WITH u AS (SELECT user_id, min(epoch_us(ts)) AS t0,
                              max(epoch_us(ts)) AS t1
                       FROM events GROUP BY 1),
            mx AS (SELECT max(t1) AS tmax FROM u),
            lt AS (SELECT (t1 - t0) // 86400000000 AS day,
                          CASE WHEN (SELECT tmax FROM mx) - t1
                                    < 604800000000
                               THEN 1 ELSE 0 END AS cens
                   FROM u),
            d AS (SELECT day,
                         CAST(sum(1 - cens) AS BIGINT) AS deaths,
                         CAST(sum(cens) AS BIGINT) AS censored,
                         count(*) AS leaving
                  FROM lt GROUP BY day),
            r AS (SELECT day, deaths, censored,
                         (SELECT count(*) FROM lt)
                         - coalesce(sum(leaving) OVER (
                             ORDER BY day ROWS BETWEEN UNBOUNDED
                             PRECEDING AND 1 PRECEDING), 0) AS at_risk
                  FROM d)
            SELECT day, CAST(at_risk AS BIGINT) AS at_risk,
                   deaths, censored,
                   round(1.0 - deaths * 1.0 / at_risk, 6) AS factor
            FROM r ORDER BY day
        """,
        "embeddings_mmr": _mmr_sql(k=5, n_candidates=20,
                                   lam=0.7, mu=0.3),
        "docs_dsir_sample": f"""
            -- DSIR replay: hashed bag models (bucket map = golden side
            -- table), add-one smoothing, per-doc weight sum, Gumbel
            -- top-100 on round(score + G, 6)
            WITH d AS (
              SELECT doc_id, lang,
                     list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS toks
              FROM documents),
            pos AS (SELECT doc_id, lang, unnest(toks) AS term FROM d),
            vb AS (SELECT term, bucket FROM read_parquet(
                '{os.path.join(_SIDE, "docs_dsir_sample",
                               "vocab.parquet")}')),
            tb AS (SELECT p.doc_id, p.lang, vb.bucket
                   FROM pos p JOIN vb USING (term)),
            cnt AS (SELECT bucket,
                           CAST(sum(CASE WHEN lang = 'en'
                                         THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_t,
                           count(*) AS n_a
                    FROM tb GROUP BY bucket),
            tot AS (SELECT sum(n_t) AS tt, sum(n_a) AS ta FROM cnt),
            w AS (SELECT bucket,
                         ln((n_t + 1.0)
                            / ((SELECT tt FROM tot) + 256.0))
                         - ln((n_a + 1.0)
                              / ((SELECT ta FROM tot) + 256.0)) AS w
                  FROM cnt),
            sc0 AS (SELECT t.doc_id, count(*) AS n_tokens,
                           sum(w.w) AS score
                    FROM tb t JOIN w USING (bucket)
                    GROUP BY t.doc_id),
            sc AS (SELECT dd.doc_id,
                          coalesce(sc0.n_tokens, 0) AS n_tokens,
                          coalesce(sc0.score, 0.0) AS score
                   FROM (SELECT doc_id FROM documents) dd
                   LEFT JOIN sc0 USING (doc_id)),
            {_sm64_sql("sc", "(doc_id + 77)",
                       ["doc_id", "n_tokens", "score"], prefix="g")},
            fin AS (
              SELECT doc_id, n_tokens, score,
                     round(score + (- ln(- ln(
                         CAST(hv // 2048 AS DOUBLE)
                         / 9007199254740992.0))), 6) AS gkey
              FROM gh),
            rk AS (SELECT *, row_number() OVER (
                       ORDER BY gkey DESC, doc_id) AS rank
                   FROM fin)
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   round(score, 6) AS score, gkey,
                   CAST(rank AS BIGINT) AS rank
            FROM rk WHERE rank <= 100 ORDER BY rank
        """,
        "parts_blocking_quality": """
            -- same window-3 sorted-neighborhood candidates, gold =
            -- exact-name pairs via sum C(c,2), metrics as 1.0-ratios
            WITH r AS (
              SELECT p_partkey, p_name,
                     row_number() OVER (ORDER BY p_name, p_partkey) AS rn
              FROM part),
            cand AS (
              SELECT a.p_name AS na, b.p_name AS nb
              FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 2),
            g AS (SELECT count(*) AS n FROM part),
            gold AS (SELECT sum(c * (c - 1) // 2) AS n_gold
                     FROM (SELECT count(*) AS c FROM part
                           GROUP BY p_name)),
            m AS (SELECT count(*) AS n_candidates,
                         sum(CASE WHEN na = nb THEN 1 ELSE 0 END)
                           AS n_matched
                  FROM cand)
            SELECT CAST(m.n_candidates AS BIGINT) AS n_candidates,
                   CAST(m.n_matched AS BIGINT) AS n_matched,
                   CAST(gold.n_gold AS BIGINT) AS n_gold,
                   round(1.0 - m.n_candidates * 1.0
                         / ((SELECT n FROM g)
                            * ((SELECT n FROM g) - 1) // 2), 6)
                     AS reduction_ratio,
                   round(m.n_matched * 1.0 / gold.n_gold, 6)
                     AS pairs_completeness
            FROM m, gold
        """,
        "kg_bgp_optional": """
            -- OPTIONAL = LEFT JOIN on the shared variable: customers
            -- have no 'named' literal and surface with ename NULL
            WITH t AS (
              SELECT 'supplier_' || s_suppkey AS subj, 'located_in' AS pred,
                     'nation_' || s_nationkey AS obj FROM supplier
              UNION ALL
              SELECT 'supplier_' || s_suppkey, 'named', s_name
              FROM supplier
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || c_nationkey FROM customer
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'part_of',
                     'region_' || n_regionkey FROM nation
              UNION ALL
              SELECT 'region_' || r_regionkey, 'named', r_name
              FROM region),
            req AS (
              SELECT DISTINCT le.subj AS e, le.obj AS n
              FROM t r
              JOIN t pn ON pn.pred = 'part_of' AND pn.obj = r.subj
              JOIN t le ON le.pred = 'located_in' AND le.obj = pn.subj
              WHERE r.pred = 'named' AND r.obj = 'EUROPE'),
            opt AS (SELECT subj, obj FROM t WHERE pred = 'named')
            SELECT DISTINCT req.e, req.n, opt.obj AS ename
            FROM req LEFT JOIN opt ON opt.subj = req.e
            ORDER BY e, n
        """,
        "events_pattern_match": """
            -- strict adjacency: view whose NEXT event (ts, event_id
            -- order) is a purchase within 1h
            WITH s AS (
              SELECT user_id, event_id, event_type, epoch_us(ts) AS t,
                     lead(event_id) OVER w AS nid,
                     lead(event_type) OVER w AS ntype,
                     lead(epoch_us(ts)) OVER w AS nt
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
            SELECT user_id, event_id AS first_id,
                   CAST(nid AS BIGINT) AS second_id,
                   CAST(nt - t AS BIGINT) AS gap_us
            FROM s
            WHERE event_type = 'view' AND ntype = 'purchase'
              AND nt - t <= 3600000000
            ORDER BY user_id, first_id
        """,
        "orders_dpp_join": """
            -- the pruned layout must be invisible: plain dim-filtered
            -- join + rollup
            SELECT o_custkey AS c_custkey,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   round(sum(o_totalprice), 2) AS revenue
            FROM orders JOIN customer ON c_custkey = o_custkey
            WHERE c_nationkey = 1 AND c_acctbal >= 5000.0
            GROUP BY o_custkey ORDER BY c_custkey
        """,
        "events_time_travel": """
            -- each version's contents recomputed from the base table:
            -- v1 = event_id %% 3 = 0, v2 = all, v3 = value >= 10
            SELECT 1 AS version, CAST(count(*) AS BIGINT) AS n_rows,
                   round(sum(value), 2) AS sum_value
            FROM events WHERE event_id % 3 = 0
            UNION ALL
            SELECT 2, CAST(count(*) AS BIGINT), round(sum(value), 2)
            FROM events
            UNION ALL
            SELECT 3, CAST(count(*) AS BIGINT), round(sum(value), 2)
            FROM events WHERE value >= 10.0
            ORDER BY version
        """,
        "docs_auc": """
            -- Mann-Whitney U over the per-score count table; all
            -- integers until the final division
            WITH vc AS (
              SELECT n_chars AS s,
                     sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS pos,
                     sum(CASE WHEN lang = 'en' THEN 0 ELSE 1 END) AS neg
              FROM documents GROUP BY n_chars),
            w AS (
              SELECT s, pos, neg,
                     coalesce(sum(neg) OVER (ORDER BY s
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS neg_below
              FROM vc),
            agg AS (
              SELECT CAST(sum(pos) AS BIGINT) AS n_pos,
                     CAST(sum(neg) AS BIGINT) AS n_neg,
                     CAST(sum(2 * pos * neg_below + pos * neg)
                          AS BIGINT) AS u2
              FROM w)
            SELECT n_pos, n_neg, u2,
                   round(u2 * 1.0 / (2.0 * (n_pos * n_neg)), 6) AS auc
            FROM agg
        """,
        "events_psi_drift": """
            -- PSI with add-one smoothing; bins replayed with the same
            -- float expression (v - lo)/(hi - lo)*bins floored+clipped
            WITH x AS (
              SELECT least(greatest(CAST(floor((value - 0.0)
                         / (500.0 - 0.0) * 10) AS BIGINT), 0), 9) AS bin,
                     CASE WHEN event_type = 'view' THEN 1 ELSE 0 END
                       AS in_a,
                     CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END
                       AS in_b
              FROM events
              WHERE event_type IN ('view', 'purchase')),
            cnt AS (
              SELECT b.bin,
                     CAST(coalesce(sum(x.in_a), 0) AS BIGINT) AS n_a,
                     CAST(coalesce(sum(x.in_b), 0) AS BIGINT) AS n_b
              FROM (SELECT unnest(range(0, 10)) AS bin) b
              LEFT JOIN x ON x.bin = b.bin
              GROUP BY b.bin),
            tot AS (SELECT sum(n_a) AS a_tot, sum(n_b) AS b_tot
                    FROM cnt)
            SELECT bin, n_a, n_b,
                   round(((n_a + 1.0) / ((SELECT a_tot FROM tot) + 10.0)
                          - (n_b + 1.0)
                            / ((SELECT b_tot FROM tot) + 10.0))
                         * ln(((n_a + 1.0)
                               / ((SELECT a_tot FROM tot) + 10.0))
                              / ((n_b + 1.0)
                                 / ((SELECT b_tot FROM tot) + 10.0))),
                         6) AS psi_term
            FROM cnt ORDER BY bin
        """,
        "events_calibration": """
            -- same sigmoid + bin expressions; integer counts,
            -- float folds rounded to 6dp
            WITH x AS (
              SELECT 1.0 / (1.0 + exp(-((value - 250.0) / 50.0)))
                       AS score,
                     CASE WHEN event_type = 'purchase'
                          THEN 1 ELSE 0 END AS label
              FROM events),
            b AS (
              SELECT least(greatest(CAST(floor(score * 10) AS BIGINT),
                                    0), 9) AS bin,
                     score, label
              FROM x)
            SELECT bin, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(label) AS BIGINT) AS n_pos,
                   round(sum(label) * 1.0 / count(*), 6) AS frac_pos,
                   round(sum(score) / count(*), 6) AS avg_score
            FROM b GROUP BY bin ORDER BY bin
        """,
        "events_logreg": _logreg_sql(iterations=3, lr=0.5),
        "docs_quality_classifier": f"""
            -- hashed-classifier replay: tokenize in SQL, FNV base hash
            -- from the vocab side table, bucket % dim, splitmix64
            -- weight chain, exact BIGINT sum, sigmoid
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                       AS token
              FROM documents),
            v AS (SELECT token, h_base FROM read_parquet(
              '{os.path.join(_SIDE, "docs_quality_classifier",
                             "vocab.parquet")}')),
            tb AS (
              SELECT t.doc_id, CAST(v.h_base % 512 AS BIGINT) AS bucket
              FROM tok t JOIN v USING (token)),
            {_sm64_sql("tb", "(bucket + 1234)", ["doc_id"])},
            per AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS clf_n_tokens,
                     CAST(sum(CAST(CAST(hv AS UBIGINT) >> 32 AS BIGINT)
                              - 2147483648) AS BIGINT) AS clf_raw
              FROM h GROUP BY 1),
            sc AS (
              SELECT d.doc_id,
                     COALESCE(p.clf_n_tokens, 0) AS clf_n_tokens,
                     COALESCE(p.clf_raw, 0) AS clf_raw,
                     1.0 / (1.0 + exp(-(COALESCE(p.clf_raw, 0)
                       / (greatest(COALESCE(p.clf_n_tokens, 0), 1)
                          * 2147483648.0)))) AS s
              FROM documents d LEFT JOIN per p USING (doc_id))
            SELECT doc_id, clf_n_tokens, clf_raw,
                   round(s, 6) AS clf_score, s >= 0.5 AS clf_keep
            FROM sc ORDER BY doc_id
        """,
        "events_compact_scan": """
            -- plain range filter — compaction must be invisible
            SELECT event_id, round(value, 6) AS value
            FROM events
            WHERE value BETWEEN 50.0 AND 120.0
            ORDER BY event_id
        """,
        "events_zorder_scan": """
            -- plain range filter — the z-order layout must be invisible
            SELECT event_id, user_id, round(value, 6) AS value
            FROM events
            WHERE user_id BETWEEN 3.0 AND 9.0
              AND value BETWEEN 10.0 AND 60.0
            ORDER BY event_id
        """,
        "orders_hll_join_estimate": f"""
            -- join-planning replay: two bit-exact HLL sketches + the
            -- register-wise-greatest union + inclusion-exclusion
            WITH {_hll_chain_sql("orders", "o_custkey", 12, "a")},
            {_hll_chain_sql("customer", "c_custkey", 12, "b")},
            {_hll_union_est_sql("a", "b", 12, "u")}
            SELECT round(afinal.e, 4) AS est_left,
                   round(bfinal.e, 4) AS est_right,
                   round(ufinal.e, 4) AS est_union,
                   round(greatest(0, afinal.e + bfinal.e - ufinal.e), 4)
                     AS est_intersect
            FROM afinal, bfinal, ufinal
        """,
        "events_table_checksum": f"""
            -- checksum replay: both splitmix64 chains + 16-bit lane
            -- sums + exact HUGEINT recombination mod 2^64
            WITH {_sm64_sql("events", "event_id", ["user_id"],
                            prefix="c1")},
            c2src AS (
              SELECT user_id,
                     CAST((CAST(hv AS HUGEINT) + user_id)
                          % 18446744073709551616 AS HUGEINT) AS z0
              FROM c1h),
            {_sm64_sql("c2src", "z0", ["user_id"], prefix="c2")},
            s AS (
              SELECT CAST(count(*) AS BIGINT) AS n_rows,
                     sum(CAST(CAST(hv AS UBIGINT) >> 48 AS HUGEINT))
                       AS s3,
                     sum(CAST((CAST(hv AS UBIGINT) >> 32) & 65535
                              AS HUGEINT)) AS s2,
                     sum(CAST((CAST(hv AS UBIGINT) >> 16) & 65535
                              AS HUGEINT)) AS s1,
                     sum(CAST(CAST(hv AS UBIGINT) & 65535 AS HUGEINT))
                       AS s0
              FROM c2h)
            SELECT n_rows,
                   CAST((s3 * 281474976710656 + s2 * 4294967296
                         + s1 * 65536 + s0)
                        % 18446744073709551616 AS VARCHAR) AS checksum
            FROM s
        """,
        "events_iqr_outliers": """
            -- IQR-fence replay: quantile_cont bounds, SAME op order
            -- for the fences (q1 - 1.5 * (q3 - q1))
            WITH q AS (
              SELECT event_type,
                     quantile_cont(value, 0.25) AS q1,
                     quantile_cont(value, 0.75) AS q3
              FROM events GROUP BY 1)
            SELECT e.event_type, CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count_if(
                     e.value < q.q1 - 1.5 * (q.q3 - q.q1) OR
                     e.value > q.q3 + 1.5 * (q.q3 - q.q1)) AS BIGINT)
                     AS n_outliers
            FROM events e JOIN q USING (event_type)
            GROUP BY 1 ORDER BY 1
        """,
        "events_transition_matrix": """
            -- transition-matrix replay: lag pairs + row-normalized
            -- probabilities (integer / in DuckDB is float division)
            WITH b AS (
              SELECT event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev
              FROM events)
            SELECT prev AS state_from, event_type AS state_to,
                   CAST(count(*) AS BIGINT) AS n,
                   round(count(*) / sum(count(*)) OVER
                         (PARTITION BY prev), 6) AS prob
            FROM b WHERE prev IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_burst_detect": """
            -- burst_detect replay: hourly counts, trailing-6-window
            -- rolling integer sums via ROWS BETWEEN, identical float
            -- expressions (mean = s1/6, var = s2/6 - mean^2,
            -- z = (n-mean)/sqrt(var)); warm-up rows (pos < 6) dropped
            WITH b AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2),
            w AS (
              SELECT event_type, window_id, n,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY window_id) - 1 AS pos,
                     sum(n) OVER (PARTITION BY event_type
                                  ORDER BY window_id
                                  ROWS BETWEEN 6 PRECEDING
                                  AND 1 PRECEDING) AS s1,
                     sum(n * n) OVER (PARTITION BY event_type
                                      ORDER BY window_id
                                      ROWS BETWEEN 6 PRECEDING
                                      AND 1 PRECEDING) AS s2
              FROM b),
            c AS (
              SELECT event_type, window_id, n,
                     s1 / 6.0 AS mean,
                     s2 / 6.0 - (s1 / 6.0) * (s1 / 6.0) AS var
              FROM w WHERE pos >= 6),
            z AS (
              SELECT event_type, window_id, n, mean, var,
                     CASE WHEN var > 0.0
                          THEN (n - mean) / sqrt(var) ELSE 0.0 END AS z
              FROM c)
            SELECT event_type, window_id, n,
                   round(mean, 6) AS base_mean,
                   round(var, 6) AS base_var,
                   round(z, 6) AS z,
                   (var > 0.0 AND z > 2.0) AS burst
            FROM z ORDER BY event_type, window_id
        """,
        "orders_assoc_rules": """
            -- depth-2 Apriori replay: distinct baskets, a<b pair
            -- counts >= 2, both directions, identical ratio trees
            WITH d AS (SELECT DISTINCT l_orderkey AS basket,
                                       l_partkey AS item
                       FROM lineitem),
            nb AS (SELECT count(DISTINCT basket) AS n FROM d),
            ic AS (SELECT item, count(*) AS n_item FROM d GROUP BY 1),
            pr AS (SELECT a.item AS x, b.item AS y, count(*) AS n_ab
                   FROM d a JOIN d b
                     ON a.basket = b.basket AND a.item < b.item
                   GROUP BY 1, 2),
            pf AS (SELECT * FROM pr WHERE n_ab >= 2),
            rules AS (SELECT x AS antecedent, y AS consequent, n_ab
                      FROM pf
                      UNION ALL SELECT y, x, n_ab FROM pf)
            SELECT r.antecedent, r.consequent,
                   CAST(r.n_ab AS BIGINT) AS n_ab,
                   round(CAST(r.n_ab AS DOUBLE) / nb.n, 6) AS support,
                   round(CAST(r.n_ab AS DOUBLE) / ia.n_item, 6)
                       AS confidence,
                   round((CAST(r.n_ab AS DOUBLE) / ia.n_item)
                         / (CAST(ib.n_item AS DOUBLE) / nb.n), 6)
                       AS lift
            FROM rules r
            JOIN ic ia ON ia.item = r.antecedent
            JOIN ic ib ON ib.item = r.consequent
            CROSS JOIN nb
            ORDER BY antecedent, consequent
        """,
        "events_cohort_ltv": """
            -- cohort LTV replay: min-day cohorts, purchase revenue by
            -- age, windowed cumulative, divided by cohort size
            WITH d AS (SELECT user_id,
                              epoch_us(ts) // 86400000000 AS day,
                              event_type, value
                       FROM events),
            c AS (SELECT user_id, min(day) AS cohort_day
                  FROM d GROUP BY 1),
            sizes AS (SELECT cohort_day, count(*) AS cohort_users
                      FROM c GROUP BY 1),
            p AS (SELECT c.cohort_day, d.day - c.cohort_day AS age,
                         sum(d.value) AS revenue
                  FROM d JOIN c USING (user_id)
                  WHERE d.event_type = 'purchase'
                  GROUP BY 1, 2),
            w AS (SELECT cohort_day, age, revenue,
                         sum(revenue) OVER (PARTITION BY cohort_day
                             ORDER BY age) AS cum_revenue
                  FROM p)
            SELECT w.cohort_day, w.age, round(w.revenue, 6) AS revenue,
                   round(w.cum_revenue, 6) AS cum_revenue,
                   CAST(s.cohort_users AS BIGINT) AS cohort_users,
                   round(w.cum_revenue / s.cohort_users, 6) AS ltv
            FROM w JOIN sizes s USING (cohort_day)
            ORDER BY w.cohort_day, w.age
        """,
        "events_linear_fill": """
            -- resample_fill(fill='linear') replay: the locf grid plus
            -- a DESC-window next-anchor; gaps interpolate
            -- pv + (nv - pv) * (w - pw) / (nw - pw), trailing carries
            WITH b AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     value
              FROM events),
            a AS (
              SELECT user_id, window_id, CAST(count(*) AS BIGINT) AS n,
                     sum(value) AS sum_value
              FROM b GROUP BY 1, 2),
            s AS (SELECT user_id, min(window_id) AS lo,
                         max(window_id) AS hi
                  FROM a GROUP BY 1),
            f AS (SELECT user_id,
                         unnest(generate_series(lo, hi)) AS window_id
                  FROM s),
            j AS (
              SELECT f.user_id, f.window_id, a.n, a.sum_value,
                     max(CASE WHEN a.n IS NOT NULL
                              THEN f.window_id END)
                       OVER (PARTITION BY f.user_id
                             ORDER BY f.window_id) AS pw,
                     min(CASE WHEN a.n IS NOT NULL
                              THEN f.window_id END)
                       OVER (PARTITION BY f.user_id
                             ORDER BY f.window_id DESC) AS nw
              FROM f LEFT JOIN a USING (user_id, window_id))
            SELECT j.user_id, j.window_id, COALESCE(j.n, 0) AS n,
                   round(CASE
                     WHEN j.n IS NOT NULL THEN j.sum_value
                     WHEN j.nw IS NULL THEN ap.sum_value
                     ELSE ap.sum_value
                          + (an.sum_value - ap.sum_value)
                            * ((j.window_id - j.pw)
                               / CAST(j.nw - j.pw AS DOUBLE))
                   END, 6) AS sum_value
            FROM j
            JOIN a ap ON ap.user_id = j.user_id
                     AND ap.window_id = j.pw
            LEFT JOIN a an ON an.user_id = j.user_id
                          AND an.window_id = j.nw
            ORDER BY 1, 2
        """,
        "events_locf_fill": """
            -- resample_fill(fill='locf') replay: hourly sums +
            -- generate_series grid; silent hours pull sum_value from
            -- the latest present window via a running max carry
            WITH b AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     value
              FROM events),
            a AS (
              SELECT user_id, window_id, CAST(count(*) AS BIGINT) AS n,
                     sum(value) AS sum_value
              FROM b GROUP BY 1, 2),
            s AS (SELECT user_id, min(window_id) AS lo,
                         max(window_id) AS hi
                  FROM a GROUP BY 1),
            f AS (SELECT user_id,
                         unnest(generate_series(lo, hi)) AS window_id
                  FROM s),
            j AS (
              SELECT f.user_id, f.window_id, a.n,
                     max(CASE WHEN a.n IS NOT NULL
                              THEN f.window_id END)
                       OVER (PARTITION BY f.user_id
                             ORDER BY f.window_id) AS src_w
              FROM f LEFT JOIN a USING (user_id, window_id))
            SELECT j.user_id, j.window_id, COALESCE(j.n, 0) AS n,
                   round(a2.sum_value, 6) AS sum_value
            FROM j JOIN a a2
              ON a2.user_id = j.user_id AND a2.window_id = j.src_w
            ORDER BY 1, 2
        """,
        "events_holt_trend": """
            -- Holt double-smoothing replay: identical recurrence
            -- expressions, recursive CTE stepping rn -> rn + 1
            -- (l1 = x1, b1 = 0; the l_t expression appears twice on
            -- the b_t line exactly as the operator computes it)
            WITH RECURSIVE b AS (
              SELECT user_id, event_id, value,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS rn
              FROM events),
            r(user_id, event_id, rn, l, t) AS (
              SELECT user_id, event_id, rn, value, CAST(0 AS DOUBLE)
              FROM b WHERE rn = 1
              UNION ALL
              SELECT b.user_id, b.event_id, b.rn,
                     CAST(0.5 AS DOUBLE) * b.value
                       + (1 - CAST(0.5 AS DOUBLE)) * (r.l + r.t),
                     CAST(0.3 AS DOUBLE)
                       * ((CAST(0.5 AS DOUBLE) * b.value
                           + (1 - CAST(0.5 AS DOUBLE)) * (r.l + r.t))
                          - r.l)
                       + (1 - CAST(0.3 AS DOUBLE)) * r.t
              FROM r JOIN b
                ON b.user_id = r.user_id AND b.rn = r.rn + 1)
            SELECT user_id, event_id, round(l, 6) AS "level",
                   round(t, 6) AS trend
            FROM r ORDER BY user_id, event_id
        """,
        "kg_property_path": """
            -- property_path(next_order, <=3 hops) replay: lead() edge
            -- derivation + bounded recursive expansion, min hops per
            -- pair; placed_by distractors never enter e
            WITH RECURSIVE nx AS (
              SELECT o_custkey, o_orderkey,
                     lead(o_orderkey) OVER (PARTITION BY o_custkey
                                            ORDER BY o_orderkey) AS nxt
              FROM orders),
            e AS (SELECT 'order_' || o_orderkey AS src,
                         'order_' || nxt AS dst
                  FROM nx WHERE nxt IS NOT NULL),
            r(src, dst, hops) AS (
              SELECT src, dst, 1 FROM e
              UNION ALL
              SELECT r.src, e.dst, r.hops + 1
              FROM r JOIN e ON e.src = r.dst WHERE r.hops < 3)
            SELECT src, dst, CAST(min(hops) AS BIGINT) AS hops
            FROM r GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "kg_cardinality_violations": """
            -- cardinality_check replay: same planted mutation; a
            -- duplicate assertion of the SAME object (custkey%7) must
            -- not violate, the second nation (custkey%11) must
            WITH c AS (SELECT c_custkey, c_nationkey FROM customer),
            t AS (
              SELECT 'customer_' || c_custkey AS subj,
                     'located_in' AS pred,
                     'nation_' || c_nationkey AS obj FROM c
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || c_nationkey
              FROM c WHERE c_custkey % 7 = 0
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || ((c_nationkey + 1) % 25)
              FROM c WHERE c_custkey % 11 = 0
              UNION ALL
              SELECT 'customer_' || c_custkey, 'likes',
                     'part_' || (c_custkey % 50) FROM c
              UNION ALL
              SELECT 'customer_' || c_custkey, 'likes',
                     'part_' || ((c_custkey + 1) % 50) FROM c)
            SELECT subj, pred,
                   CAST(count(DISTINCT obj) AS BIGINT) AS n_objects
            FROM t WHERE pred = 'located_in'
            GROUP BY 1, 2 HAVING count(DISTINCT obj) > 1
            ORDER BY 1, 2
        """,
        "events_sampled_quantiles": f"""
            -- sampled_quantiles replay: splitmix64(event_id) < 2^62
            -- (rate 0.25) then exact quantile_cont over the sample
            WITH {_sm64_sql("events", "event_id",
                            ["event_type", "value"], prefix="sq")}
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   round(quantile_cont(value, 0.5), 6) AS q_50,
                   round(quantile_cont(value, 0.95), 6) AS q_95
            FROM sqh WHERE hv < 4611686018427387904
            GROUP BY event_type ORDER BY event_type
        """,
        "docs_wordlist_screen": """
            -- wordlist_screen replay: space-split lowercase tokens,
            -- blocklist hits via list_filter; integer counts so the
            -- fraction division is bit-identical
            WITH t AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS w
              FROM documents),
            c AS (
              SELECT doc_id, CAST(len(w) AS BIGINT) AS n_tokens,
                     CAST(len(list_filter(w, x -> list_contains(
                       ['the', 'and', 'quick', 'lazy'], x)))
                       AS BIGINT) AS n_blocked
              FROM t)
            SELECT doc_id, n_tokens, n_blocked,
                   round(CASE WHEN n_tokens > 0
                         THEN CAST(n_blocked AS DOUBLE) / n_tokens
                         ELSE 0.0 END, 6) AS blocked_frac,
                   (CASE WHEN n_tokens > 0
                         THEN CAST(n_blocked AS DOUBLE) / n_tokens
                         ELSE 0.0 END) < 0.02 AS keep
            FROM c ORDER BY doc_id
        """,
        "graph_closeness": """
            -- closeness_from_seeds replay: seed-tracked bounded BFS
            -- (min first-reach level), then n_reached / sum_dist
            WITH RECURSIVE e0 AS (
              SELECT DISTINCT l_suppkey AS src, 1000000 + o_custkey AS dst
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            e(src, dst) AS (SELECT src, dst FROM e0
                            UNION ALL SELECT dst, src FROM e0),
            r(seed, node, lvl) AS (
              SELECT CAST(s_suppkey AS BIGINT),
                     CAST(s_suppkey AS BIGINT), 0
              FROM supplier WHERE s_suppkey % 5 = 0
              UNION ALL
              SELECT r.seed, e.dst, r.lvl + 1 FROM r
              JOIN e ON e.src = r.node WHERE r.lvl < 2),
            m AS (SELECT seed, node, min(lvl) AS level
                  FROM r GROUP BY 1, 2),
            a AS (SELECT seed,
                         CAST(sum(CASE WHEN level > 0 THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_reached,
                         CAST(sum(level) AS BIGINT) AS sum_dist
                  FROM m GROUP BY 1)
            SELECT seed, n_reached, sum_dist,
                   round(CASE WHEN sum_dist > 0
                         THEN CAST(n_reached AS DOUBLE) / sum_dist
                         ELSE 0.0 END, 6) AS closeness
            FROM a ORDER BY seed
        """,
        "events_rate_limit": """
            -- rate_limit replay: row_number over the identical
            -- (user, hour-window) partition and (ts, event_id) order
            WITH b AS (
              SELECT event_id, user_id,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     row_number() OVER (
                       PARTITION BY user_id,
                         CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       ORDER BY ts, event_id) AS rn
              FROM events)
            SELECT event_id, user_id, window_id
            FROM b WHERE rn <= 3 ORDER BY event_id
        """,
        "events_autocorr": """
            -- autocorr replay: hourly counts, mean-centered (integer
            -- sums -> the mean is float-exact), lag() products over
            -- present-window positions
            WITH b AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2),
            d AS (
              SELECT event_type, window_id,
                     n - avg(n) OVER (PARTITION BY event_type) AS d,
                     count(*) OVER (PARTITION BY event_type)
                       AS n_windows
              FROM b),
            l AS (
              SELECT event_type, n_windows, d,
                     lag(d, 1) OVER (PARTITION BY event_type
                                     ORDER BY window_id) AS d1,
                     lag(d, 2) OVER (PARTITION BY event_type
                                     ORDER BY window_id) AS d2,
                     lag(d, 3) OVER (PARTITION BY event_type
                                     ORDER BY window_id) AS d3
              FROM d),
            a AS (
              SELECT event_type,
                     CAST(max(n_windows) AS BIGINT) AS n_windows,
                     sum(d * d) AS den,
                     COALESCE(sum(d * d1), 0.0) AS num1,
                     COALESCE(sum(d * d2), 0.0) AS num2,
                     COALESCE(sum(d * d3), 0.0) AS num3
              FROM l GROUP BY 1)
            SELECT event_type, lag, n_windows, round(acf, 6) AS acf
            FROM (
              SELECT event_type, CAST(1 AS BIGINT) AS lag, n_windows,
                     CASE WHEN den > 0 THEN num1 / den ELSE 0.0 END
                       AS acf FROM a
              UNION ALL
              SELECT event_type, CAST(2 AS BIGINT), n_windows,
                     CASE WHEN den > 0 THEN num2 / den ELSE 0.0 END
              FROM a
              UNION ALL
              SELECT event_type, CAST(3 AS BIGINT), n_windows,
                     CASE WHEN den > 0 THEN num3 / den ELSE 0.0 END
              FROM a)
            ORDER BY event_type, lag
        """,
        "events_delete_vectors": """
            -- positional-delete replay: the DV layout must be
            -- invisible — plain anti-filter on the deleted key rule
            SELECT event_id, user_id FROM events
            WHERE event_id % 7 <> 0 ORDER BY event_id
        """,
        "events_benford": """
            -- benford_audit replay: integer cents (floor BEFORE the
            -- BIGINT cast — DuckDB CAST rounds), first digit from the
            -- decimal string, expected = total * log10(1 + 1/d)
            WITH c AS (
              SELECT event_type,
                     CAST(floor(value * 100) AS BIGINT) AS cents
              FROM events WHERE floor(value * 100) > 0),
            g AS (SELECT event_type,
                         CAST(substr(CAST(cents AS VARCHAR), 1, 1)
                              AS BIGINT) AS digit,
                         CAST(count(*) AS BIGINT) AS n
                  FROM c GROUP BY 1, 2),
            t AS (SELECT event_type, CAST(sum(n) AS DOUBLE) AS total
                  FROM g GROUP BY 1)
            SELECT g.event_type, g.digit, g.n,
                   round(t.total * log10(1 + 1.0 / g.digit), 6)
                     AS expected_n,
                   round((g.n - t.total * log10(1 + 1.0 / g.digit))
                         * (g.n - t.total * log10(1 + 1.0 / g.digit))
                         / (t.total * log10(1 + 1.0 / g.digit)), 6)
                     AS chi2_term
            FROM g JOIN t USING (event_type)
            ORDER BY 1, 2
        """,
        "events_kanon": """
            -- k-anonymity / l-diversity replay: equivalence classes =
            -- GROUP BY the quasi columns; violations are plain count
            -- thresholds
            WITH b AS (SELECT event_type,
                              CAST(extract(hour FROM ts) AS BIGINT)
                                AS hour,
                              user_id
                       FROM events)
            SELECT event_type, hour, CAST(count(*) AS BIGINT) AS n,
                   CAST(count(DISTINCT user_id) AS BIGINT)
                     AS n_sensitive,
                   count(*) < 5 AS k_violation,
                   count(DISTINCT user_id) < 2 AS l_violation
            FROM b GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "dedup_semdedup": f"""
            -- assignment argmin replayed from the centroid side table
            -- (the kmeans_embeddings pattern), then the SemDeDup rule:
            -- drop iff ANY lower-id same-cluster member has
            -- round(cosine, 6) > tau — non-transitive first-wins
            WITH aug AS (
              SELECT vec_id, embedding FROM embeddings
              UNION ALL
              SELECT vec_id + {_EMB_DUP_OFFSET}, embedding
              FROM embeddings),
            c AS (SELECT cluster, dim, val
                  FROM read_parquet('{os.path.join(_SIDE, "dedup_semdedup", "centroids.parquet")}')),
            u AS (SELECT vec_id, unnest(embedding) AS ev,
                         generate_subscripts(embedding, 1) - 1 AS dim
                  FROM aug),
            dist AS (SELECT u.vec_id, c.cluster,
                            sum((u.ev - c.val) * (u.ev - c.val)) AS dist
                     FROM u JOIN c ON c.dim = u.dim
                     GROUP BY u.vec_id, c.cluster),
            best AS (SELECT vec_id, cluster,
                            row_number() OVER (PARTITION BY vec_id
                                ORDER BY dist, cluster) AS rn
                     FROM dist),
            a AS (SELECT b.vec_id, b.cluster, g.embedding
                  FROM best b JOIN aug g USING (vec_id)
                  WHERE rn = 1)
            SELECT x.vec_id, x.cluster,
                   count(y.vec_id) = 0 AS keep
            FROM a x LEFT JOIN a y
              ON y.cluster = x.cluster AND y.vec_id < x.vec_id
             AND round(list_cosine_similarity(x.embedding,
                                              y.embedding), 6) > 0.95
            GROUP BY x.vec_id, x.cluster
            ORDER BY x.vec_id
        """,
        "graph_neighbor_agg": """
            -- neighbor mean replay: the same deterministic 2-out edges,
            -- unnest + join + sum/count per (dst, dim)
            WITH nn AS (SELECT count(*) AS c FROM embeddings),
            e AS (SELECT vec_id AS src, (vec_id * 7 + 3) % c AS dst
                  FROM embeddings, nn
                  UNION ALL
                  SELECT vec_id, (vec_id * 13 + 5) % c
                  FROM embeddings, nn),
            x AS (SELECT vec_id,
                         CAST(unnest(embedding) AS DOUBLE) AS v,
                         generate_subscripts(embedding, 1) - 1 AS dim
                  FROM embeddings)
            SELECT e.dst AS node, CAST(x.dim AS BIGINT) AS dim,
                   round(sum(x.v) / count(*), 6) AS val,
                   CAST(count(*) AS BIGINT) AS n_neighbors
            FROM e JOIN x ON x.vec_id = e.src
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_vacuum_scan": """
            -- post-vacuum survivor replay: v3 was the value>=10
            -- OVERWRITE; keep_last=1 keeps exactly it and removes the
            -- two older manifests
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   round(sum(value), 2) AS sum_value,
                   CAST(1 AS BIGINT) AS versions_kept,
                   CAST(2 AS BIGINT) AS manifests_removed
            FROM events WHERE value >= 10.0
        """,
        "events_cusum": """
            -- CUSUM replay: the SAME recurrence, same float ops, same
            -- order — recursive CTE stepping rn -> rn + 1 (the
            -- events_ewma construction); ref = per-key mean count
            WITH RECURSIVE g AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2),
            b AS (
              SELECT event_type, window_id, n,
                     avg(n) OVER (PARTITION BY event_type) AS ref,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY window_id) AS rn
              FROM g),
            r(event_type, window_id, n, rn, s) AS (
              SELECT event_type, window_id, n, rn,
                     greatest(0.0, (n - ref) - 0.5)
              FROM b WHERE rn = 1
              UNION ALL
              SELECT b.event_type, b.window_id, b.n, b.rn,
                     greatest(0.0, r.s + ((b.n - ref) - 0.5))
              FROM r JOIN b
                ON b.event_type = r.event_type AND b.rn = r.rn + 1)
            SELECT event_type, window_id, n, round(s, 6) AS s,
                   s > 4.0 AS alarm
            FROM r ORDER BY event_type, window_id
        """,
        "events_kmv_users": f"""
            -- KMV replay: distinct (type, user) pairs -> splitmix64 ->
            -- DISTINCT hashes -> 64 smallest per type; est =
            -- (63 * 2^64) / kth, all integer until the division
            WITH kv AS (SELECT DISTINCT event_type, user_id FROM events),
            {_sm64_sql("kv", "user_id", ["event_type"], prefix="kmv")},
            dh AS (SELECT DISTINCT event_type, hv FROM kmvh),
            rk AS (SELECT event_type, hv,
                          row_number() OVER (PARTITION BY event_type
                                             ORDER BY hv) AS rn
                   FROM dh),
            agg AS (SELECT event_type,
                           CAST(count(*) AS BIGINT) AS n_kept,
                           max(hv) AS kth
                    FROM rk WHERE rn <= 64 GROUP BY event_type)
            SELECT event_type, n_kept,
                   CAST(kth AS VARCHAR) AS kth_hash,
                   round(CASE WHEN n_kept >= 64
                         THEN (63.0 * 18446744073709551616.0)
                              / CAST(kth AS DOUBLE)
                         ELSE CAST(n_kept AS DOUBLE) END, 6)
                     AS est_distinct
            FROM agg ORDER BY event_type
        """,
        "events_robust_z": """
            -- robust-z replay: quantile_cont medians rounded 6dp
            -- before use (matches the operator), then the identical
            -- 0.6745*(x-med)/mad expression; MAD=0 -> rz=0
            WITH med AS (
              SELECT event_type,
                     round(quantile_cont(value, 0.5), 6) AS med
              FROM events GROUP BY 1),
            ad AS (SELECT e.event_type, abs(e.value - m.med) AS ad
                   FROM events e JOIN med m USING (event_type)),
            mad AS (SELECT event_type,
                           round(quantile_cont(ad, 0.5), 6) AS mad
                    FROM ad GROUP BY 1)
            SELECT e.event_id, e.event_type, e.value,
                   round(CASE WHEN m2.mad = 0 THEN 0.0
                         ELSE 0.6745 * (e.value - m.med) / m2.mad
                         END, 6) AS rz,
                   (CASE WHEN m2.mad = 0 THEN 0.0
                         ELSE abs(0.6745 * (e.value - m.med) / m2.mad)
                         END) > 3.5 AS outlier
            FROM events e
            JOIN med m USING (event_type)
            JOIN mad m2 USING (event_type)
            ORDER BY e.event_id
        """,
        "graph_diameter": """
            -- double-sweep replay: two bounded recursive BFS CTEs
            -- (UNION dedups (node, lvl) so walks never multiply);
            -- farthest pick = max first-reach level, ties -> min node
            WITH RECURSIVE e0 AS (
              SELECT DISTINCT l_suppkey AS src,
                              1000000 + o_custkey AS dst
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            e(src, dst) AS (SELECT src, dst FROM e0
                            UNION ALL SELECT dst, src FROM e0),
            n AS (SELECT CAST(min(least(src, dst)) AS BIGINT) AS start
                  FROM e),
            r1(node, lvl) AS (
              SELECT start, 0 FROM n
              UNION
              SELECT e.dst, r1.lvl + 1 FROM r1
              JOIN e ON e.src = r1.node WHERE r1.lvl < 6),
            m1 AS (SELECT node, min(lvl) AS level FROM r1 GROUP BY node),
            p1 AS (SELECT CAST(node AS BIGINT) AS node,
                          CAST(level AS BIGINT) AS level
                   FROM m1 ORDER BY level DESC, node LIMIT 1),
            r2(node, lvl) AS (
              SELECT node, CAST(0 AS BIGINT) FROM p1
              UNION
              SELECT e.dst, r2.lvl + 1 FROM r2
              JOIN e ON e.src = r2.node WHERE r2.lvl < 6),
            m2 AS (SELECT node, min(lvl) AS level FROM r2 GROUP BY node)
            SELECT (SELECT start FROM n) AS start_node,
                   (SELECT level FROM p1) AS ecc_start,
                   (SELECT node FROM p1) AS far_node,
                   CAST((SELECT max(level) FROM m2) AS BIGINT)
                     AS diameter_lb
        """,
        "events_version_diff": """
            -- version-diff replay: v1 = event_id %% 3 = 0, v2 =
            -- value >= 10 (OVERWRITE); set-semantics anti-filters
            SELECT event_id, value, 'added' AS change
            FROM events WHERE value >= 10.0 AND event_id % 3 <> 0
            UNION ALL
            SELECT event_id, value, 'removed'
            FROM events WHERE event_id % 3 = 0 AND value < 10.0
            ORDER BY event_id, change
        """,
        "kg_construct_rewrite": """
            -- CONSTRUCT replay: the same WHERE join as kg_bgp_match,
            -- then one UNION branch per template + DISTINCT (a
            -- CONSTRUCT emits a triple SET)
            WITH triples AS (
              SELECT 'supplier_' || s_suppkey AS subj,
                     'located_in' AS pred,
                     'nation_' || s_nationkey AS obj FROM supplier
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || c_nationkey FROM customer
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'part_of',
                     'region_' || n_regionkey FROM nation
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'named', n_name FROM nation
              UNION ALL
              SELECT 'region_' || r_regionkey, 'named', r_name FROM region),
            b AS (
              SELECT t3.subj AS e, t1.subj AS r
              FROM triples t1
              JOIN triples t2 ON t2.pred = 'part_of' AND t2.obj = t1.subj
              JOIN triples t3 ON t3.pred = 'located_in'
                             AND t3.obj = t2.subj
              WHERE t1.pred = 'named' AND t1.obj = 'EUROPE')
            SELECT DISTINCT subj, pred, obj FROM (
              SELECT e AS subj, 'in_region' AS pred, r AS obj FROM b
              UNION ALL
              SELECT r, 'has_member', e FROM b)
            ORDER BY subj, pred, obj
        """,
        "events_dp_counts": f"""
            -- DP-release replay: true counts -> sorted-key rank ->
            -- splitmix64(rank + 7) -> 53-bit uniform -> exact Laplace
            -- inverse CDF at epsilon = 1
            WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            ranked AS (SELECT event_type, n,
                              row_number() OVER (ORDER BY event_type)
                                - 1 AS rank
                       FROM c),
            {_sm64_sql("ranked", "(rank + 7)", ["event_type", "n"],
                       prefix="dp")},
            lap AS (
              SELECT event_type, n,
                     CAST(hv >> 11 AS DOUBLE) / 9007199254740992.0 - 0.5
                       AS t
              FROM dph)
            SELECT event_type,
                   round(n + (-(1.0 / 1.0) * sign(t)
                              * ln(1.0 - 2.0 * abs(t))), 6) AS noisy_n
            FROM lap ORDER BY event_type
        """,
        "parts_fs_links": """
            -- Fellegi-Sunter replay: brand self-join (the blocking),
            -- identical log2 m/u weight CASE per field
            WITH w AS (
              SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
                     (CASE WHEN a.p_type = b.p_type
                           THEN log2(0.9 / 0.3)
                           ELSE log2(0.1 / 0.7) END)
                   + (CASE WHEN a.p_size = b.p_size
                           THEN log2(0.9 / 0.1)
                           ELSE log2(0.1 / 0.9) END)
                   + (CASE WHEN a.p_name = b.p_name
                           THEN log2(0.95 / 0.05)
                           ELSE log2(0.05 / 0.95) END) AS w
              FROM part a JOIN part b
                ON a.p_brand = b.p_brand
               AND a.p_partkey < b.p_partkey)
            SELECT id_a, id_b, round(w, 6) AS w,
                   CASE WHEN w > 2.0 THEN 'link'
                        WHEN w < 0.0 THEN 'nonlink'
                        ELSE 'possible' END AS decision
            FROM w ORDER BY id_a, id_b
        """,
        "parts_reciprocal_best": """
            -- mutual-best replay: same FS weights as parts_fs_links,
            -- symmetrized, per-side argmax on (round(w,6) desc, dst
            -- asc), pair kept iff both directions pick it
            WITH w AS (
              SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
                     round(
                       (CASE WHEN a.p_type = b.p_type
                             THEN log2(0.9 / 0.3)
                             ELSE log2(0.1 / 0.7) END)
                     + (CASE WHEN a.p_size = b.p_size
                             THEN log2(0.9 / 0.1)
                             ELSE log2(0.1 / 0.9) END)
                     + (CASE WHEN a.p_name = b.p_name
                             THEN log2(0.95 / 0.05)
                             ELSE log2(0.05 / 0.95) END), 6) AS w
              FROM part a JOIN part b
                ON a.p_brand = b.p_brand
               AND a.p_partkey < b.p_partkey),
            sym AS (SELECT id_a AS src, id_b AS dst, w FROM w
                    UNION ALL SELECT id_b, id_a, w FROM w),
            best AS (SELECT src, dst, w,
                            row_number() OVER (PARTITION BY src
                                ORDER BY w DESC, dst ASC) AS rn
                     FROM sym)
            SELECT b1.src AS id_a, b1.dst AS id_b, b1.w AS score
            FROM best b1 JOIN best b2
              ON b1.src = b2.dst AND b1.dst = b2.src
             AND b1.rn = 1 AND b2.rn = 1
            WHERE b1.src < b1.dst
            ORDER BY id_a, id_b
        """,
        "web_warc_records": f"""
            -- independent DuckDB parse of the WARC shards the query
            -- wrote: record split on the version line, Content-Length
            -- payload slicing (ASCII fixture: chars == bytes), HTTP
            -- status/ctype/body extraction (sources/warc.py)
            WITH raw AS (SELECT content FROM read_text(
                   '{os.path.join(_SIDE, "web_warc_records", "warc", "*.warc")}')),
            recs AS (SELECT unnest(str_split(
                       content, 'WARC/1.0' || chr(13) || chr(10))) AS r
                     FROM raw),
            hp AS (SELECT r, strpos(r, chr(13) || chr(10)
                                       || chr(13) || chr(10)) AS he
                   FROM recs WHERE r <> ''),
            f AS (SELECT substr(r, 1, he - 1) AS hdr,
                         substr(r, he + 4,
                                CAST(regexp_extract(substr(r, 1, he - 1),
                                     'Content-Length: ([0-9]+)', 1)
                                     AS BIGINT)) AS payload
                  FROM hp WHERE he > 0),
            resp AS (SELECT hdr, payload,
                            strpos(payload, chr(13) || chr(10)
                                            || chr(13) || chr(10)) AS pe
                     FROM f
                     WHERE regexp_extract(hdr, 'WARC-Type: ([a-z]+)', 1)
                           = 'response')
            SELECT regexp_extract(hdr, 'WARC-Target-URI: ([^\\r\\n]+)', 1)
                       AS target_uri,
                   regexp_extract(hdr, 'WARC-Record-ID: <([^>]+)>', 1)
                       AS record_id,
                   CAST(regexp_extract(payload,
                        '^HTTP/1.1 ([0-9]+)', 1) AS BIGINT)
                       AS http_status,
                   regexp_extract(substr(payload, 1, pe - 1),
                        'Content-Type: ([^\\r\\n]+)', 1) AS content_type,
                   substr(payload, pe + 4) AS body
            FROM resp ORDER BY target_uri
        """,
        "web_warc_pipeline": f"""
            -- full webtext ingestion replay: WARC parse (same
            -- fragment as web_warc_records), 200 filter, tag strip +
            -- whitespace tokenization, min-URI text dedup, host rollup
            WITH raw AS (SELECT content FROM read_text(
                   '{os.path.join(_SIDE, "web_warc_pipeline", "warc", "*.warc")}')),
            recs AS (SELECT unnest(str_split(
                       content, 'WARC/1.0' || chr(13) || chr(10))) AS r
                     FROM raw),
            hp AS (SELECT r, strpos(r, chr(13) || chr(10)
                                       || chr(13) || chr(10)) AS he
                   FROM recs WHERE r <> ''),
            f AS (SELECT substr(r, 1, he - 1) AS hdr,
                         substr(r, he + 4,
                                CAST(regexp_extract(substr(r, 1, he - 1),
                                     'Content-Length: ([0-9]+)', 1)
                                     AS BIGINT)) AS payload
                  FROM hp WHERE he > 0),
            resp AS (SELECT hdr, payload,
                            strpos(payload, chr(13) || chr(10)
                                            || chr(13) || chr(10)) AS pe
                     FROM f
                     WHERE regexp_extract(hdr, 'WARC-Type: ([a-z]+)', 1)
                           = 'response'),
            pages AS (SELECT
                        regexp_extract(hdr,
                            'WARC-Target-URI: ([^\\r\\n]+)', 1) AS uri,
                        CAST(regexp_extract(payload,
                            '^HTTP/1.1 ([0-9]+)', 1) AS BIGINT)
                            AS status,
                        substr(payload, pe + 4) AS body
                      FROM resp),
            p2 AS (SELECT uri, split_part(uri, '/', 3) AS host,
                          list_filter(regexp_split_to_array(
                              regexp_replace(body, '<[^>]+>', ' ', 'g'),
                              '[ \\r\\n\\t]+'), x -> x <> '') AS toks
                   FROM pages WHERE status = 200),
            p3 AS (SELECT uri, host, array_to_string(toks, ' ') AS text,
                          len(toks) AS n_tokens
                   FROM p2),
            np AS (SELECT host, count(*) AS n_pages FROM p3 GROUP BY 1),
            keep AS (SELECT text, min(uri) AS uri,
                            min(n_tokens) AS n_tokens
                     FROM p3 GROUP BY text),
            uq AS (SELECT split_part(uri, '/', 3) AS host,
                          count(*) AS n_unique,
                          sum(n_tokens) AS total_tokens
                   FROM keep GROUP BY 1)
            SELECT np.host, CAST(np.n_pages AS BIGINT) AS n_pages,
                   CAST(coalesce(uq.n_unique, 0) AS BIGINT) AS n_unique,
                   CAST(coalesce(uq.total_tokens, 0) AS BIGINT)
                       AS total_tokens
            FROM np LEFT JOIN uq USING (host) ORDER BY np.host
        """,
        "events_bootstrap_means": _bootstrap_sql(replicates=32),
        "events_markov_stationary": _markov_stationary_sql(iterations=20),
        "events_pit_enrich": """
            -- PIT replay: value-bucket SCD2 ranges (the events_scd2
            -- fragment over state = value>=50), purchases joined on
            -- valid_from <= ts AND (open OR ts < valid_to)
            WITH b AS (
              SELECT user_id, event_id, ts, epoch_us(ts) AS ts_us,
                     CASE WHEN value >= 50.0 THEN 'high'
                          ELSE 'low' END AS state,
                     event_type
              FROM events),
            x AS (
              SELECT user_id, state, ts_us,
                     lag(state) OVER w AS prev_attr,
                     row_number() OVER w AS rn
              FROM b
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            ch AS (
              SELECT user_id, state, ts_us, rn FROM x
              WHERE prev_attr IS NULL OR state <> prev_attr),
            dim AS (
              SELECT user_id, state, ts_us AS valid_from_us,
                     coalesce(lead(ts_us) OVER (
                       PARTITION BY user_id ORDER BY rn), -1)
                         AS valid_to_us
              FROM ch)
            SELECT f.event_id, f.user_id,
                   CAST(f.ts_us AS BIGINT) AS ts, d.state,
                   CAST(d.valid_to_us AS BIGINT) AS valid_to_us
            FROM b f JOIN dim d
              ON d.user_id = f.user_id
             AND d.valid_from_us <= f.ts_us
             AND (d.valid_to_us = -1 OR f.ts_us < d.valid_to_us)
            WHERE f.event_type = 'purchase'
            ORDER BY f.event_id
        """,
        "kg_sparql_groupby": """
            -- SPARQL SELECT-agg replay: same derived triples, BGP
            -- join, regex FILTER, GROUP BY region
            WITH triples AS (
              SELECT 'supplier_' || s_suppkey AS subj,
                     'located_in' AS pred,
                     'nation_' || s_nationkey AS obj FROM supplier
              UNION ALL
              SELECT 'customer_' || c_custkey, 'located_in',
                     'nation_' || c_nationkey FROM customer
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'part_of',
                     'region_' || n_regionkey FROM nation
              UNION ALL
              SELECT 'nation_' || n_nationkey, 'named', n_name FROM nation
              UNION ALL
              SELECT 'region_' || r_regionkey, 'named', r_name FROM region)
            SELECT t2.obj AS r,
                   CAST(count(*) AS BIGINT) AS n_suppliers
            FROM triples t1
            JOIN triples t2 ON t2.pred = 'part_of' AND t2.subj = t1.obj
            WHERE t1.pred = 'located_in'
              AND regexp_matches(t1.subj, '^supplier_')
            GROUP BY t2.obj ORDER BY r
        """,
        "kg_property_entailment": """
            -- OWL entailment replay: same brand chains, symmetric
            -- expansion, recursive transitive closure of follows,
            -- precedes mirror of the CLOSED predicate; asserted wins
            WITH RECURSIVE ranked AS (
              SELECT p_partkey, p_brand,
                     row_number() OVER (PARTITION BY p_brand
                                        ORDER BY p_partkey) AS rn
              FROM part),
            top30 AS (SELECT * FROM ranked WHERE rn <= 30),
            fol AS (SELECT 'part_' || a.p_partkey AS s,
                           'follows' AS p,
                           'part_' || b.p_partkey AS o
                    FROM top30 a JOIN top30 b
                      ON a.p_brand = b.p_brand AND b.rn = a.rn + 1),
            peer AS (SELECT 'part_' || a.p_partkey AS s,
                            'peer_of' AS p,
                            'part_' || b.p_partkey AS o
                     FROM top30 a JOIN top30 b
                       ON a.p_brand = b.p_brand AND b.rn = a.rn + 1
                      AND a.rn <= 9),
            base AS (SELECT * FROM fol UNION ALL SELECT * FROM peer),
            fp AS (SELECT s, o FROM fol),
            clo(s, o) AS (
              SELECT s, o FROM fp
              UNION
              SELECT c.s, f.o FROM clo c JOIN fp f ON f.s = c.o),
            full_set AS (
              SELECT s, p, o FROM base
              UNION ALL SELECT o, p, s FROM base WHERE p = 'peer_of'
              UNION ALL SELECT s, 'follows', o FROM clo
              UNION ALL SELECT o, 'precedes', s FROM clo),
            fin AS (SELECT DISTINCT s, p, o FROM full_set)
            SELECT fin.s AS subj, fin.p AS pred, fin.o AS obj,
                   (b.s IS NULL) AS entailed
            FROM fin LEFT JOIN (SELECT DISTINCT s, p, o FROM base) b
              ON b.s = fin.s AND b.p = fin.p AND b.o = fin.o
            ORDER BY subj, pred, obj
        """,
        "events_ohlc": """
            -- OHLC replay: row_number endpoints over the identical
            -- (ts, event_id) order + plain min/max/count
            WITH b AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     ts, event_id, value,
                     row_number() OVER (
                       PARTITION BY event_type,
                         CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       ORDER BY ts, event_id) AS rn_a,
                     row_number() OVER (
                       PARTITION BY event_type,
                         CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       ORDER BY ts DESC, event_id DESC) AS rn_d
              FROM events),
            agg AS (SELECT event_type, window_id, max(value) AS high,
                           min(value) AS low,
                           CAST(count(*) AS BIGINT) AS n
                    FROM b GROUP BY 1, 2),
            o AS (SELECT event_type, window_id, value AS open
                  FROM b WHERE rn_a = 1),
            c AS (SELECT event_type, window_id, value AS close
                  FROM b WHERE rn_d = 1)
            SELECT a.event_type, a.window_id, o.open, a.high, a.low,
                   c.close, a.n
            FROM agg a
            JOIN o USING (event_type, window_id)
            JOIN c USING (event_type, window_id)
            ORDER BY 1, 2
        """,
        "docs_weighted_len_quantiles": """
            -- weighted type-1 quantile replay: integer token weights,
            -- window cumsum in the same value order, first row whose
            -- cumulative weight reaches q x total
            WITH d AS (
              SELECT source, n_chars,
                     CAST(len(list_filter(str_split(text, ' '),
                                          x -> x <> '')) AS BIGINT) AS w
              FROM documents),
            g AS (SELECT source, n_chars, CAST(sum(w) AS BIGINT) AS w
                  FROM d GROUP BY 1, 2),
            cw AS (SELECT source, n_chars, w,
                          sum(w) OVER (PARTITION BY source
                              ORDER BY n_chars
                              ROWS UNBOUNDED PRECEDING) AS cum,
                          sum(w) OVER (PARTITION BY source) AS tot
                   FROM g),
            q(q) AS (VALUES (0.5), (0.9)),
            hit AS (SELECT source, q.q AS q, n_chars, cum, tot,
                           row_number() OVER (PARTITION BY source, q.q
                                              ORDER BY n_chars) AS rn
                    FROM cw, q
                    WHERE CAST(cum AS DOUBLE)
                          >= q.q * CAST(tot AS DOUBLE))
            SELECT source, q, n_chars, CAST(cum AS BIGINT) AS cum_weight,
                   CAST(tot AS BIGINT) AS total_weight
            FROM hit WHERE rn = 1 ORDER BY source, q
        """,
        "orders_f2_custkey": f"""
            -- AMS F2 replay: one splitmix chain over the (custkey, r)
            -- cross join, sign = bit 0, s_r = sum of signs, est = s²,
            -- exact = sum of squared key counts
            WITH ob AS (SELECT o_custkey, i FROM orders, range(8) t(i)),
            {_sm64_sql("ob", "(o_custkey * 8 + i)", ["i"], prefix="f2")},
            sr AS (SELECT CAST(i AS BIGINT) AS r,
                          CAST(sum(CASE WHEN hv % 2 = 1 THEN 1
                                        ELSE -1 END) AS BIGINT) AS s
                   FROM f2h GROUP BY i),
            ex AS (SELECT CAST(sum(c * c) AS BIGINT) AS exact_f2
                   FROM (SELECT count(*) AS c FROM orders
                         GROUP BY o_custkey)),
            m AS (SELECT round(avg(CAST(s * s AS DOUBLE)), 6)
                    AS mean_est FROM sr)
            SELECT sr.r, sr.s, s * s AS est, m.mean_est, ex.exact_f2
            FROM sr, m, ex ORDER BY sr.r
        """,
        "events_rolling_median": """
            -- rolling-median replay: quantile_cont window over the
            -- identical (ts, event_id) order
            SELECT user_id, event_id, value,
                   round(quantile_cont(value, 0.5) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6)
                     AS rolling_med
            FROM events ORDER BY event_id
        """,
        "docs_rrf_fuse": """
            -- RRF replay: both rankings re-derived (the docs_rerank_rbo
            -- chain), then score = sum of 1/(60+rank) over the lists a
            -- doc appears in; rank on the UNROUNDED sum (<= 2 exact
            -- divisions + one commutative addition), ties -> doc asc
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc),
            cand AS (SELECT query_id, doc_id, "rank" FROM rk
                     WHERE "rank" <= 50),
            refd AS (SELECT query_id, doc_id AS ref_id FROM cand
                     WHERE "rank" = 1),
            coss AS (
              SELECT c.query_id, c.doc_id,
                     round(list_cosine_similarity(
                       CAST(er.embedding AS DOUBLE[]),
                       CAST(ec.embedding AS DOUBLE[])), 6) AS cos
              FROM cand c
              JOIN refd r ON r.query_id = c.query_id
              JOIN embeddings er ON er.vec_id = r.ref_id
              JOIN embeddings ec ON ec.vec_id = c.doc_id),
            rr AS (SELECT query_id, doc_id, cos,
                          row_number() OVER (PARTITION BY query_id
                                             ORDER BY cos DESC, doc_id)
                            AS rerank
                   FROM coss),
            u AS (
              SELECT query_id, doc_id, 1.0 / (60 + "rank") AS c
              FROM rk WHERE "rank" <= 10
              UNION ALL
              SELECT query_id, doc_id, 1.0 / (60 + rerank)
              FROM rr WHERE rerank <= 10),
            f AS (SELECT query_id, doc_id, sum(c) AS sc,
                         CAST(count(*) AS BIGINT) AS n_lists
                  FROM u GROUP BY 1, 2),
            rkf AS (SELECT *, row_number() OVER (
                        PARTITION BY query_id
                        ORDER BY sc DESC, doc_id) AS rrf_rank
                    FROM f)
            SELECT query_id, doc_id, n_lists, round(sc, 6) AS rrf_score,
                   CAST(rrf_rank AS BIGINT) AS rrf_rank
            FROM rkf WHERE rrf_rank <= 10
            ORDER BY query_id, rrf_rank
        """,
        "parts_er_golden": """
            -- ER golden-record replay: FS weights (the parts_fs_links
            -- CASE) -> links w > 2 -> recursive-reach components ->
            -- min-id canonical -> latest-name / majority-type-size
            WITH RECURSIVE w AS (
              SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
                     (CASE WHEN a.p_type = b.p_type
                           THEN log2(0.9 / 0.3)
                           ELSE log2(0.1 / 0.7) END)
                   + (CASE WHEN a.p_size = b.p_size
                           THEN log2(0.9 / 0.1)
                           ELSE log2(0.1 / 0.9) END)
                   + (CASE WHEN a.p_name = b.p_name
                           THEN log2(0.95 / 0.05)
                           ELSE log2(0.05 / 0.95) END) AS w
              FROM part a JOIN part b
                ON a.p_brand = b.p_brand
               AND a.p_partkey < b.p_partkey),
            l AS (SELECT id_a, id_b FROM w WHERE w > 2.0),
            edges AS (SELECT id_a AS src, id_b AS dst FROM l
                      UNION ALL SELECT id_b, id_a FROM l),
            nodes AS (SELECT p_partkey AS id FROM part),
            reach(id, r) AS (
              SELECT id, id FROM nodes
              UNION
              SELECT e.dst, reach.r FROM reach
              JOIN edges e ON e.src = reach.id),
            canon AS (SELECT id AS p_partkey,
                             CAST(min(r) AS BIGINT) AS canonical_id
                      FROM reach GROUP BY id),
            m AS (SELECT c.canonical_id, p.p_partkey, p.p_name,
                         p.p_type, CAST(p.p_size AS BIGINT) AS p_size
                  FROM part p JOIN canon c USING (p_partkey)),
            latest AS (
              SELECT canonical_id, p_name FROM (
                SELECT canonical_id, p_name,
                       row_number() OVER (PARTITION BY canonical_id
                                          ORDER BY p_partkey DESC) AS rn
                FROM m) WHERE rn = 1),
            majt AS (
              SELECT canonical_id, p_type FROM (
                SELECT canonical_id, p_type,
                       row_number() OVER (PARTITION BY canonical_id
                           ORDER BY count(*) DESC, p_type ASC) AS rn
                FROM m GROUP BY canonical_id, p_type) WHERE rn = 1),
            majs AS (
              SELECT canonical_id, p_size FROM (
                SELECT canonical_id, p_size,
                       row_number() OVER (PARTITION BY canonical_id
                           ORDER BY count(*) DESC, p_size ASC) AS rn
                FROM m GROUP BY canonical_id, p_size) WHERE rn = 1),
            nn AS (SELECT canonical_id,
                          CAST(count(*) AS BIGINT) AS n_members
                   FROM m GROUP BY 1)
            SELECT canonical_id, n_members, p_name, p_type, p_size
            FROM nn
            JOIN latest USING (canonical_id)
            JOIN majt USING (canonical_id)
            JOIN majs USING (canonical_id)
            ORDER BY canonical_id
        """,
        "media_dedup": f"""
            -- content-addressed dedup replay: GROUP BY the BLOB itself
            -- (the 128-bit hash layout must be invisible)
            WITH m AS (SELECT media_id, payload FROM read_parquet(
                '{os.path.join(_SIDE, "media_dedup", "media.parquet")}')),
            c AS (SELECT payload, CAST(min(media_id) AS BIGINT)
                    AS canonical_id
                  FROM m GROUP BY payload)
            SELECT m.media_id, c.canonical_id
            FROM m JOIN c USING (payload) ORDER BY media_id
        """,
        "events_chi2_type_hour": """
            -- chi2 independence replay: window marginals over the
            -- observed contingency cells, identical float expression
            WITH b AS (SELECT event_type,
                              CAST(extract(hour FROM ts) AS BIGINT)
                                AS hour
                       FROM events),
            c AS (SELECT event_type, hour,
                         CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY 1, 2),
            t AS (SELECT CAST(sum(n) AS DOUBLE) AS total,
                         CAST(count(DISTINCT event_type) AS BIGINT) AS ra,
                         CAST(count(DISTINCT hour) AS BIGINT) AS cb
                  FROM c),
            m AS (SELECT c.*,
                         CAST(sum(n) OVER (PARTITION BY event_type)
                              AS DOUBLE) AS rt,
                         CAST(sum(n) OVER (PARTITION BY hour)
                              AS DOUBLE) AS ct
                  FROM c)
            SELECT event_type, hour, n,
                   round(rt * ct / t.total, 6) AS expected_n,
                   round((n - rt * ct / t.total)
                         * (n - rt * ct / t.total)
                         / (rt * ct / t.total), 6) AS chi2_term,
                   (t.ra - 1) * (t.cb - 1) AS dof
            FROM m, t ORDER BY event_type, hour
        """,
        "events_best_split": """
            -- gini stump replay: per-threshold integer prefix class
            -- counts (cross join + filtered sums), identical gain
            -- expression over exact integers -> is_best unrounded
            WITH b AS (SELECT CAST(extract(hour FROM ts) AS BIGINT) AS f,
                              event_type AS cls
                       FROM events),
            c AS (SELECT f, cls, CAST(count(*) AS BIGINT) AS n
                  FROM b GROUP BY 1, 2),
            th AS (SELECT DISTINCT f AS t FROM c
                   WHERE f < (SELECT max(f) FROM c)),
            ks AS (SELECT DISTINCT cls FROM c),
            tot AS (SELECT cls, CAST(sum(n) AS BIGINT) AS tn
                    FROM c GROUP BY 1),
            nall AS (SELECT CAST(sum(n) AS BIGINT) AS n FROM c),
            lc AS (SELECT th.t, ks.cls,
                          CAST(coalesce(sum(c.n), 0) AS BIGINT) AS ln
                   FROM th CROSS JOIN ks
                   LEFT JOIN c ON c.cls = ks.cls AND c.f <= th.t
                   GROUP BY 1, 2),
            agg AS (SELECT lc.t,
                           CAST(sum(ln) AS BIGINT) AS nl,
                           CAST(sum(ln * ln) AS BIGINT) AS ssl,
                           CAST(sum((tot.tn - ln) * (tot.tn - ln))
                                AS BIGINT) AS ssr
                    FROM lc JOIN tot USING (cls) GROUP BY 1),
            sp AS (SELECT CAST(sum(tn * tn) AS BIGINT) AS ssp FROM tot),
            g AS (SELECT agg.t AS threshold, nl AS n_left,
                         nall.n - nl AS n_right,
                         (1.0 - CAST(sp.ssp AS DOUBLE)
                            / (CAST(nall.n AS DOUBLE)
                               * CAST(nall.n AS DOUBLE)))
                       - (CAST(nl AS DOUBLE) / nall.n)
                         * (1.0 - CAST(ssl AS DOUBLE)
                            / (CAST(nl AS DOUBLE) * CAST(nl AS DOUBLE)))
                       - (CAST(nall.n - nl AS DOUBLE) / nall.n)
                         * (1.0 - CAST(ssr AS DOUBLE)
                            / (CAST(nall.n - nl AS DOUBLE)
                               * CAST(nall.n - nl AS DOUBLE)))
                           AS gain
                  FROM agg, sp, nall)
            SELECT threshold, n_left, n_right, round(gain, 6) AS gain,
                   row_number() OVER (ORDER BY gain DESC, threshold ASC)
                     = 1 AS is_best
            FROM g ORDER BY threshold
        """,
        "web_host_graph": f"""
            -- outlink replay: regexp_extract_all on the planted pages,
            -- absolute-only filter, identical host surgery, count per
            -- (src_host, dst_host)
            WITH p AS (SELECT page_id, url, html FROM read_parquet(
                '{os.path.join(_SIDE, "web_host_graph", "pages.parquet")}')),
            l AS (SELECT page_id, url,
                         unnest(regexp_extract_all(html,
                             'href="([^"]*)"', 1)) AS dst_url
                  FROM p),
            a AS (SELECT *,
                         regexp_replace(regexp_replace(lower(
                           regexp_extract(url,
                             '^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]+)', 1)),
                           '^www\\.', ''), ':(80|443)$', '') AS src_host,
                         regexp_replace(regexp_replace(lower(
                           regexp_extract(dst_url,
                             '^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]+)', 1)),
                           '^www\\.', ''), ':(80|443)$', '') AS dst_host
                  FROM l
                  WHERE regexp_matches(dst_url, '^[hH][tT][tT][pP][sS]?://'))
            SELECT src_host, dst_host,
                   CAST(count(*) AS BIGINT) AS n_links
            FROM a GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "docs_auc_by_source": """
            -- sliced Mann-Whitney replay: the docs_auc window chain
            -- with PARTITION BY source; integers until the division
            WITH vc AS (
              SELECT source, n_chars AS s,
                     sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS pos,
                     sum(CASE WHEN lang = 'en' THEN 0 ELSE 1 END) AS neg
              FROM documents GROUP BY source, n_chars),
            w AS (
              SELECT source, s, pos, neg,
                     coalesce(sum(neg) OVER (PARTITION BY source
                         ORDER BY s
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS neg_below
              FROM vc),
            agg AS (
              SELECT source,
                     CAST(sum(pos) AS BIGINT) AS n_pos,
                     CAST(sum(neg) AS BIGINT) AS n_neg,
                     CAST(sum(2 * pos * neg_below + pos * neg)
                          AS BIGINT) AS u2
              FROM w GROUP BY source)
            SELECT source, n_pos, n_neg, u2,
                   round(CASE WHEN n_pos > 0 AND n_neg > 0
                         THEN u2 * 1.0 / (2.0 * (n_pos * n_neg))
                         ELSE 0.0 END, 6) AS auc
            FROM agg ORDER BY source
        """,
        "events_ewma": """
            -- EWMA replay: the SAME recurrence, same float ops, same
            -- order — recursive CTE stepping rn -> rn + 1
            WITH RECURSIVE b AS (
              SELECT user_id, event_id, value,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS rn
              FROM events),
            r(user_id, event_id, rn, y) AS (
              SELECT user_id, event_id, rn, value FROM b WHERE rn = 1
              UNION ALL
              SELECT b.user_id, b.event_id, b.rn,
                     CAST(0.3 AS DOUBLE) * b.value
                       + (1 - CAST(0.3 AS DOUBLE)) * r.y
              FROM r JOIN b
                ON b.user_id = r.user_id AND b.rn = r.rn + 1)
            SELECT user_id, event_id, round(y, 6) AS ewma
            FROM r ORDER BY user_id, event_id
        """,
        "docs_phrase_search": """
            -- phrase-match replay: one UNION ALL branch per phrase
            -- slot, start = token_pos - slot, HAVING count = k
            WITH l AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS w
              FROM documents),
            p AS (SELECT doc_id, w,
                         unnest(range(1, len(w) + 1)) AS i
                  FROM l),
            s AS (
              SELECT doc_id, CAST(i - 1 AS BIGINT) AS start_pos
              FROM p WHERE w[i] = 'table'
              UNION ALL
              SELECT doc_id, CAST(i - 2 AS BIGINT)
              FROM p WHERE w[i] = 'value' AND i >= 2)
            SELECT doc_id, start_pos
            FROM s GROUP BY 1, 2 HAVING count(*) = 2
            ORDER BY 1, 2
        """,
        "embeddings_cov_moments": """
            -- moment-pass replay: every (i, j) moment recomputed from
            -- unnested embeddings
            WITH u AS (
              SELECT vec_id, embedding,
                     unnest(range(1, len(embedding) + 1)) AS i
              FROM embeddings),
            x AS (SELECT vec_id, CAST(i - 1 AS BIGINT) AS i,
                         CAST(embedding[i] AS DOUBLE) AS v
                  FROM u),
            cnt AS (SELECT CAST(-1 AS BIGINT) AS i,
                           CAST(-1 AS BIGINT) AS j,
                           CAST(count(*) AS DOUBLE) AS s
                    FROM embeddings),
            firsts AS (SELECT i, CAST(-1 AS BIGINT) AS j, sum(v) AS s
                       FROM x GROUP BY i),
            secs AS (SELECT a.i AS i, b.i AS j, sum(a.v * b.v) AS s
                     FROM x a JOIN x b
                       ON a.vec_id = b.vec_id AND a.i <= b.i
                     GROUP BY 1, 2)
            SELECT i, j, round(s, 6) AS s FROM (
              SELECT * FROM cnt
              UNION ALL SELECT * FROM firsts
              UNION ALL SELECT * FROM secs)
            ORDER BY i, j
        """,
        "events_decayed_sum": """
            -- sum(value * exp(-(age_s / 86400))) per user as of
            -- 2024-02-01; age in float seconds from µs epochs
            SELECT user_id,
                   round(sum(value * exp(
                     -(((epoch_us(TIMESTAMP '2024-02-01')
                         - epoch_us(ts)) / 1000000.0) / 86400.0))), 6)
                     AS decayed_sum
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "events_melt_pivot": """
            -- melt(pivot(x)) == groupby(x) padded to the full
            -- hour x type grid (pivot fills absent cells with 0)
            WITH b AS (SELECT epoch_us(ts) // 3600000000 AS hour,
                              event_type, round(value, 2) AS v
                       FROM events),
            g AS (SELECT hour, event_type, sum(v) AS s FROM b
                  GROUP BY 1, 2),
            grid AS (SELECT h.hour, t.event_type
                     FROM (SELECT DISTINCT hour FROM b) h,
                          (SELECT DISTINCT event_type FROM b) t)
            SELECT grid.hour, grid.event_type,
                   round(coalesce(g.s, 0.0), 6) AS v
            FROM grid LEFT JOIN g USING (hour, event_type)
            ORDER BY 1, 2
        """,
        "events_scaled_value": """
            SELECT event_id, event_type,
                   round(CASE WHEN mx > mn THEN (value - mn) / (mx - mn)
                              ELSE 0.0 END, 6) AS scaled
            FROM (SELECT event_id, event_type, value,
                         min(value) OVER (PARTITION BY event_type) AS mn,
                         max(value) OVER (PARTITION BY event_type) AS mx
                  FROM events)
            ORDER BY event_id
        """,
        "events_target_encoding": """
            SELECT event_id, event_type,
                   round(CASE WHEN n > 1 THEN (s - value) / (n - 1.0)
                              ELSE NULL END, 6) AS te
            FROM (SELECT event_id, event_type, value,
                         sum(value) OVER (PARTITION BY event_type) AS s,
                         CAST(count(value) OVER (PARTITION BY event_type)
                              AS DOUBLE) AS n
                  FROM events)
            ORDER BY event_id
        """,
        "orders_planned_join": """
            -- the physical plan must be invisible: plain JOIN
            SELECT o_orderkey, o_custkey AS custkey, c_name
            FROM orders JOIN customer ON o_custkey = c_custkey
            ORDER BY o_orderkey
        """,
        "events_schema_evolution": f"""
            -- independent schema-evolution reader
            SELECT event_id, event_type, value, props, schema_ver
            FROM read_parquet(
              ['{os.path.join(_SIDE, "events_schema_evolution", "v1.parquet")}',
               '{os.path.join(_SIDE, "events_schema_evolution", "v2.parquet")}'],
              union_by_name=true)
            ORDER BY event_id
        """,
        "revenue_by_nation_ivm": """
            -- merge == rebuild: full recompute over base + delta
            SELECT CAST(c_nationkey AS BIGINT) AS nation,
                   round(sum(round(l_extendedprice * (1 - l_discount),
                                   2)), 2) AS rev,
                   CAST(count(*) AS BIGINT) AS n
            FROM lineitem
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            GROUP BY 1 ORDER BY 1
        """,
        "events_ab_ttest": """
            -- Welch t-test from raw moments, same expression shapes
            WITH m AS (
              SELECT CAST(user_id % 2 AS BIGINT) AS arm,
                     CAST(count(value) AS DOUBLE) AS n,
                     sum(value) AS s, sum(value * value) AS q
              FROM events WHERE value IS NOT NULL GROUP BY 1),
            st AS (
              SELECT arm, n, s / n AS mean,
                     (q - s * s / n) / (n - 1.0) AS var
              FROM m),
            w AS (
              SELECT a.n AS n_a, b.n AS n_b,
                     a.mean AS mean_a, b.mean AS mean_b,
                     a.var AS var_a, b.var AS var_b,
                     a.var / a.n AS se_a, b.var / b.n AS se_b
              FROM (SELECT * FROM st WHERE arm = 0) a,
                   (SELECT * FROM st WHERE arm = 1) b)
            SELECT CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
                   round(mean_a, 6) AS mean_a, round(mean_b, 6) AS mean_b,
                   round(var_a, 6) AS var_a, round(var_b, 6) AS var_b,
                   round((mean_a - mean_b) / sqrt(se_a + se_b), 6)
                     AS t_stat,
                   round(pow(se_a + se_b, 2)
                         / (pow(se_a, 2) / (n_a - 1.0)
                            + pow(se_b, 2) / (n_b - 1.0)), 6) AS df
            FROM w
        """,
        "graph_scc": """
            -- SCC via recursive-CTE mutual reachability; comp = min
            -- mutually-reachable node (self included)
            WITH RECURSIVE edges AS (
              -- subquery wrapper: under WITH RECURSIVE, DuckDB would
              -- otherwise parse this multi-branch UNION ALL as
              -- anchor + recursive step (measured: 341 vs 185 nodes)
              SELECT * FROM (
                SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src,
                       CAST(1000000 + o_custkey AS BIGINT) AS dst
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                WHERE (l_suppkey + o_custkey) % 3 = 0
                UNION ALL
                SELECT DISTINCT CAST(2000000 + s_nationkey AS BIGINT),
                       CAST(s_suppkey AS BIGINT)
                FROM supplier WHERE s_suppkey % 4 = 0
                UNION ALL
                SELECT DISTINCT CAST(1000000 + c_custkey AS BIGINT),
                       CAST(2000000 + c_nationkey AS BIGINT)
                FROM customer)),
            reach(a, b) AS (
              SELECT src, dst FROM edges
              UNION
              SELECT r.a, e.dst FROM reach r
              JOIN edges e ON e.src = r.b),
            mut AS (
              SELECT r1.a AS v, r1.b AS u
              FROM reach r1 JOIN reach r2
                ON r1.a = r2.b AND r1.b = r2.a),
            comps AS (
              SELECT v AS node, least(v, min(u)) AS comp
              FROM mut GROUP BY v),
            nodes AS (SELECT * FROM (
              SELECT DISTINCT src AS node FROM edges
              UNION SELECT DISTINCT dst FROM edges))
            SELECT n.node, coalesce(c.comp, n.node) AS comp
            FROM nodes n LEFT JOIN comps c USING (node)
            ORDER BY n.node
        """,
        "graph_assortativity": """
            -- degree assortativity: corr_matrix moment algebra over
            -- (deg(node), deg(nbr)) pairs, both orientations
            WITH e0 AS (
              SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src,
                              CAST(1000000 + o_custkey AS BIGINT) AS dst
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            ed AS (SELECT src AS node, dst AS nbr FROM e0
                   UNION ALL SELECT dst, src FROM e0),
            deg AS (SELECT node, CAST(count(*) AS DOUBLE) AS d
                    FROM ed GROUP BY node),
            p AS (SELECT dn.d AS dx, dm.d AS dy
                  FROM ed e JOIN deg dn ON dn.node = e.node
                            JOIN deg dm ON dm.node = e.nbr),
            m AS (SELECT CAST(count(*) AS DOUBLE) AS n,
                         sum(dx) AS sx, sum(dy) AS sy,
                         sum(dx * dx) AS pxx, sum(dx * dy) AS pxy,
                         sum(dy * dy) AS pyy
                  FROM p)
            SELECT 'dx' AS col_a, 'dy' AS col_b, CAST(n AS BIGINT) AS n,
                   round((n * pxy - sx * sy)
                     / sqrt((n * pxx - sx * sx) * (n * pyy - sy * sy)),
                     6) AS corr
            FROM m
        """,
        "events_corr_matrix": """
            -- corr_matrix replay: same raw moments, same algebra
            WITH b AS (
              SELECT value,
                     CAST(hour(ts) AS DOUBLE) AS hod,
                     CAST(isodow(ts) AS DOUBLE) AS dow
              FROM events
              WHERE value IS NOT NULL AND ts IS NOT NULL),
            m AS (
              SELECT CAST(count(*) AS DOUBLE) AS n,
                     sum(value) AS sv, sum(hod) AS sh, sum(dow) AS sd,
                     sum(value * value) AS pvv, sum(value * hod) AS pvh,
                     sum(value * dow) AS pvd, sum(hod * hod) AS phh,
                     sum(hod * dow) AS phd, sum(dow * dow) AS pdd
              FROM b)
            SELECT 'hod' AS col_a, 'dow' AS col_b,
                   CAST(n AS BIGINT) AS n,
                   round((n * phd - sh * sd)
                     / sqrt((n * phh - sh * sh) * (n * pdd - sd * sd)), 6)
                     AS corr FROM m
            UNION ALL
            SELECT 'value', 'dow', CAST(n AS BIGINT),
                   round((n * pvd - sv * sd)
                     / sqrt((n * pvv - sv * sv) * (n * pdd - sd * sd)), 6)
              FROM m
            UNION ALL
            SELECT 'value', 'hod', CAST(n AS BIGINT),
                   round((n * pvh - sv * sh)
                     / sqrt((n * pvv - sv * sv) * (n * phh - sh * sh)), 6)
              FROM m
            ORDER BY col_a, col_b
        """,
        "graph_khop_reach": """
            -- khop_reach replay: bounded recursive BFS, min(level)
            WITH RECURSIVE e0 AS (
              SELECT DISTINCT l_suppkey AS src, 1000000 + o_custkey AS dst
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            e(src, dst) AS (SELECT src, dst FROM e0
                            UNION ALL SELECT dst, src FROM e0),
            r(node, lvl) AS (
              SELECT CAST(s_suppkey AS BIGINT), 0 FROM supplier
              WHERE s_suppkey % 5 = 0
              UNION ALL
              SELECT e.dst, r.lvl + 1 FROM r
              JOIN e ON e.src = r.node WHERE r.lvl < 2)
            SELECT node, CAST(min(lvl) AS BIGINT) AS level
            FROM r GROUP BY 1 ORDER BY 1
        """,
        "events_resample_fill": """
            -- resample_fill replay: hourly sums + generate_series over
            -- each user's [min, max] hour window, gaps as zeros
            WITH b AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                       AS window_id,
                     value
              FROM events),
            a AS (
              SELECT user_id, window_id, CAST(count(*) AS BIGINT) AS n,
                     sum(value) AS sum_value
              FROM b GROUP BY 1, 2),
            s AS (SELECT user_id, min(window_id) AS lo,
                         max(window_id) AS hi
                  FROM a GROUP BY 1),
            f AS (SELECT user_id,
                         unnest(generate_series(lo, hi)) AS window_id
                  FROM s)
            SELECT f.user_id, f.window_id,
                   COALESCE(a.n, 0) AS n,
                   round(COALESCE(a.sum_value, 0.0), 6) AS sum_value
            FROM f LEFT JOIN a USING (user_id, window_id)
            ORDER BY 1, 2
        """,
        "orders_dq_check": """
            -- dq_check replay: same planted-violation mutation, one
            -- count branch per rule
            WITH o AS (
              SELECT CASE WHEN o_orderkey % 103 = 0
                          THEN o_orderkey - 1 ELSE o_orderkey END
                       AS o_orderkey,
                     CASE WHEN o_orderkey % 97 = 0
                          THEN o_custkey + 9999999 ELSE o_custkey END
                       AS o_custkey,
                     o_totalprice,
                     CASE WHEN o_orderkey % 101 = 0
                          THEN NULL ELSE o_orderdate END AS o_orderdate
              FROM orders)
            SELECT 'date_not_null' AS rule,
                   CAST(count(*) AS BIGINT) AS n_checked,
                   CAST(count(*) - count(o_orderdate) AS BIGINT)
                     AS n_violations
            FROM o
            UNION ALL
            SELECT 'fk_custkey', CAST(count(*) AS BIGINT),
                   CAST(count_if(o_custkey IS NOT NULL AND o_custkey
                     NOT IN (SELECT c_custkey FROM customer)) AS BIGINT)
            FROM o
            UNION ALL
            SELECT 'orderkey_unique', CAST(count(o_orderkey) AS BIGINT),
                   CAST(count(o_orderkey) - count(DISTINCT o_orderkey)
                        AS BIGINT)
            FROM o
            UNION ALL
            SELECT 'price_range', CAST(count(*) AS BIGINT),
                   CAST(count_if(o_totalprice IS NOT NULL AND
                     (o_totalprice < 1000.0 OR o_totalprice > 300000.0))
                     AS BIGINT)
            FROM o
            ORDER BY rule
        """,
        "events_profile": """
            -- column profiler replay (stages/analytics.py::profile_table):
            -- one UNION ALL branch per profiled column
            SELECT 'event_id' AS "column", CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(*) - count(event_id) AS BIGINT) AS n_nulls,
                   CAST(count(DISTINCT event_id) AS BIGINT) AS n_distinct,
                   CAST(min(event_id) AS DOUBLE) AS min_num,
                   CAST(max(event_id) AS DOUBLE) AS max_num,
                   round(CAST(sum(event_id) AS DOUBLE), 2) AS sum_num,
                   CAST(NULL AS VARCHAR) AS min_str,
                   CAST(NULL AS VARCHAR) AS max_str
            FROM events
            UNION ALL
            SELECT 'user_id', count(*), count(*) - count(user_id),
                   count(DISTINCT user_id),
                   CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE),
                   round(CAST(sum(user_id) AS DOUBLE), 2), NULL, NULL
            FROM events
            UNION ALL
            SELECT 'value', count(*), count(*) - count(value),
                   count(DISTINCT value),
                   min(value), max(value), round(sum(value), 2), NULL, NULL
            FROM events
            UNION ALL
            SELECT 'event_type', count(*), count(*) - count(event_type),
                   count(DISTINCT event_type),
                   NULL, NULL, NULL, min(event_type), max(event_type)
            FROM events
            ORDER BY "column"
        """,
        "events_user_types": """
            -- distributed array_agg replay (analytics.py::group_collect):
            -- sorted distinct event types per user
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_values,
                   string_agg(event_type, ',' ORDER BY event_type)
                     AS "values"
            FROM (SELECT DISTINCT user_id, event_type FROM events)
            GROUP BY user_id ORDER BY user_id
        """,
        "graph_degree_hist": """
            -- out-degree histogram of the distinct supplier->customer graph
            WITH edges AS (
              SELECT DISTINCT l_suppkey AS supp, o_custkey AS cust
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
            deg AS (SELECT supp, CAST(count(*) AS BIGINT) AS degree
                    FROM edges GROUP BY supp)
            SELECT degree, CAST(count(*) AS BIGINT) AS n_nodes
            FROM deg GROUP BY degree ORDER BY degree
        """,
        "docs_rag_chunks": """
            -- sliding-window chunk replay (stages/curation.py::rag_chunks):
            -- 40-word windows, stride 30; a start is emitted while the
            -- previous window hasn't reached the document end
            WITH words AS (
              SELECT doc_id,
                     regexp_split_to_array(trim(text), '\\s+') AS ws
              FROM documents WHERE trim(text) <> ''),
            w2 AS (SELECT doc_id, ws, len(ws) AS nw FROM words),
            starts AS (
              SELECT doc_id, ws, nw,
                     unnest(generate_series(0, nw - 1, 30)) AS st
              FROM w2)
            SELECT doc_id, CAST(st // 30 AS BIGINT) AS chunk_idx,
                   CAST(st AS BIGINT) AS start_word,
                   CAST(least(40, nw - st) AS BIGINT) AS n_words,
                   ws[st + 1] AS first_word,
                   ws[st + least(40, nw - st)] AS last_word
            FROM starts
            WHERE st = 0 OR st - 30 + 40 < nw
            ORDER BY doc_id, chunk_idx
        """,
        "revenue_by_part_type": """
            -- map-side dimension join replay
            -- (stages/joins.py::broadcast_join + exchange_agg)
            SELECT p_type,
                   round(sum(round(l_extendedprice * (1 - l_discount), 2)),
                         2) AS revenue,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem JOIN part ON p_partkey = l_partkey
            GROUP BY p_type ORDER BY p_type
        """,
        "docs_bpe_merges": _bpe_sql(6, 'SELECT * FROM (SELECT 1 AS "rank", str_split(pair,\' \')[1] AS "left", str_split(pair,\' \')[2] AS "right", replace(pair,\' \',\'\') AS merged, CAST(cnt AS BIGINT) AS pair_cnt FROM best1 UNION ALL SELECT 2 AS "rank", str_split(pair,\' \')[1] AS "left", str_split(pair,\' \')[2] AS "right", replace(pair,\' \',\'\') AS merged, CAST(cnt AS BIGINT) AS pair_cnt FROM best2 UNION ALL SELECT 3 AS "rank", str_split(pair,\' \')[1] AS "left", str_split(pair,\' \')[2] AS "right", replace(pair,\' \',\'\') AS merged, CAST(cnt AS BIGINT) AS pair_cnt FROM best3 UNION ALL SELECT 4 AS "rank", str_split(pair,\' \')[1] AS "left", str_split(pair,\' \')[2] AS "right", replace(pair,\' \',\'\') AS merged, CAST(cnt AS BIGINT) AS pair_cnt FROM best4 UNION ALL SELECT 5 AS "rank", str_split(pair,\' \')[1] AS "left", str_split(pair,\' \')[2] AS "right", replace(pair,\' \',\'\') AS merged, CAST(cnt AS BIGINT) AS pair_cnt FROM best5 UNION ALL SELECT 6 AS "rank", str_split(pair,\' \')[1] AS "left", str_split(pair,\' \')[2] AS "right", replace(pair,\' \',\'\') AS merged, CAST(cnt AS BIGINT) AS pair_cnt FROM best6) ORDER BY "rank"'),
        "docs_bpe_segment": _bpe_sql(6, "SELECT word, CAST(cnt AS BIGINT) AS cnt, trim(replace(sym, '  ', ' ')) AS sym FROM w6 ORDER BY word"),
        "graph_centralization_parts": """
            -- Freeman centralization replay: distinct neighbor
            -- degrees over the symmetrized co-purchase graph,
            -- identical integer fold and expression tree
            WITH inst AS (
              SELECT a.l_partkey AS u, b.l_partkey AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey <> b.l_partkey),
            e AS (SELECT DISTINCT u AS node, v AS nbr FROM inst),
            deg AS (SELECT node, count(*) AS d FROM e GROUP BY 1),
            s AS (SELECT count(*) AS n, sum(d) AS dsum,
                         max(d) AS dmax
                  FROM deg)
            SELECT CAST(n AS BIGINT) AS n_nodes,
                   CAST(dsum // 2 AS BIGINT) AS n_edges,
                   CAST(dmax AS BIGINT) AS deg_max,
                   round((n * dmax - dsum)
                         / ((n - 1.0) * (n - 2.0)), 9)
                       AS centralization
            FROM s
        """,
        "events_dau_wau": """
            -- DAU/WAU replay: distinct (day,user), 7-day replication
            -- for WAU, DAU 0 kept inside the observed range
            WITH du AS (SELECT DISTINCT
                            epoch_us(ts) // 86400000000 AS day,
                            user_id AS u
                        FROM events),
            bounds AS (SELECT min(day) AS lo, max(day) AS hi FROM du),
            dau AS (SELECT day, count(*) AS dau FROM du GROUP BY 1),
            rep AS (SELECT DISTINCT du.day + o.i AS day, du.u
                    FROM du CROSS JOIN (
                      SELECT unnest(generate_series(0, 6)) AS i) o),
            wau AS (SELECT day, count(*) AS wau FROM rep GROUP BY 1)
            SELECT w.day, coalesce(d.dau, 0) AS dau, w.wau,
                   round(coalesce(d.dau, 0) / CAST(w.wau AS DOUBLE),
                         6) AS stickiness
            FROM wau w LEFT JOIN dau d USING (day)
            CROSS JOIN bounds b
            WHERE w.day >= b.lo AND w.day <= b.hi
            ORDER BY w.day
        """,
        "events_power_analysis": """
            -- power-analysis replay: same moments, same z literals,
            -- same closed-form expression tree, ceil
            WITH s AS (SELECT count(*) AS n, sum(value) AS sx,
                              sum(value * value) AS sxx
                       FROM events WHERE value IS NOT NULL),
            m AS (SELECT n, round(sx / n, 6) AS mean,
                         round((sxx - sx * sx / n) / (n - 1), 6)
                             AS var,
                         (1.959963985 + 0.8416212336) AS z
                  FROM s)
            SELECT CAST(n AS BIGINT) AS n, mean, var,
                   0.5 AS mde_abs,
                   CAST(ceil(2.0 * z * z * var / (0.5 * 0.5))
                        AS BIGINT) AS n_per_arm
            FROM m
        """,
        "docs_bigram_entropy": """
            -- entropy-rate replay: sum n ln n identity per gram kind,
            -- chain-rule conditional, rounded where the engine rounds
            WITH d AS (SELECT list_filter(str_split(lower(text), ' '),
                                          x -> x <> '') AS w
                       FROM documents),
            uni AS (SELECT t, count(*) AS c FROM (
                      SELECT unnest(w) AS t FROM d) GROUP BY 1),
            su AS (SELECT sum(c) AS n1, sum(c * ln(c)) AS s1 FROM uni),
            pos AS (SELECT w, unnest(range(1, len(w) + 1)) AS i FROM d),
            bi AS (SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS c
                   FROM pos WHERE i < len(w) GROUP BY 1, 2),
            sb AS (SELECT sum(c) AS n2, sum(c * ln(c)) AS s2 FROM bi),
            sel AS (SELECT n1, n2,
                           round(ln(n1) - s1 / n1, 6) AS h1,
                           round(ln(n2) - s2 / n2, 6) AS h2
                    FROM su CROSS JOIN sb)
            SELECT CAST(n1 AS BIGINT) AS n_tokens,
                   CAST(n2 AS BIGINT) AS n_bigrams,
                   h1 AS h_unigram, h2 AS h_bigram,
                   round(h2 - h1, 6) AS h_conditional,
                   round(exp(round(h2 - h1, 6)), 6) AS ppl_bound
            FROM sel
        """,
        "docs_heaps_fit": """
            -- Heaps replay: first-doc per term -> bucket counts,
            -- per-bucket tokens, cumulative points, identical OLS
            WITH d AS (SELECT doc_id,
                              list_filter(str_split(lower(text), ' '),
                                          x -> x <> '') AS w
                       FROM documents),
            bounds AS (SELECT min(doc_id) AS lo, max(doc_id) AS hi
                       FROM d),
            pos AS (SELECT doc_id, unnest(w) AS term FROM d),
            ft AS (SELECT term, min(doc_id) AS fd FROM pos GROUP BY 1),
            nb AS (SELECT least((fd - b.lo) * 10
                                // (b.hi - b.lo + 1), 9) AS bucket,
                          count(*) AS new_terms
                   FROM ft CROSS JOIN bounds b GROUP BY 1),
            tk AS (SELECT least((doc_id - b.lo) * 10
                                // (b.hi - b.lo + 1), 9) AS bucket,
                          sum(len(w)) AS ntok
                   FROM d CROSS JOIN bounds b GROUP BY 1),
            f AS (SELECT bucket,
                         coalesce(new_terms, 0) AS new_terms,
                         coalesce(ntok, 0) AS ntok
                  FROM nb FULL OUTER JOIN tk USING (bucket)),
            c AS (SELECT sum(new_terms) OVER (ORDER BY bucket) AS v,
                         sum(ntok) OVER (ORDER BY bucket) AS n
                  FROM f),
            pts AS (SELECT v, n, ln(CAST(n AS DOUBLE)) AS x,
                           ln(CAST(v AS DOUBLE)) AS y
                    FROM c WHERE v > 0 AND n > 0),
            s AS (SELECT count(*) AS m, sum(x) AS sx, sum(y) AS sy,
                         sum(x * x) AS sxx, sum(x * y) AS sxy,
                         sum(y * y) AS syy,
                         min(v) = max(v) OR min(n) = max(n) AS flat
                  FROM pts)
            SELECT CAST(m AS BIGINT) AS n_buckets,
                   round((m * sxy - sx * sy)
                         / (m * sxx - sx * sx), 6) AS beta,
                   round((sy - ((m * sxy - sx * sy)
                                / (m * sxx - sx * sx)) * sx) / m, 6)
                       AS log_k,
                   round(CASE WHEN NOT flat AND (m * sxx - sx * sx)
                                   * (m * syy - sy * sy) > 0
                         THEN (m * sxy - sx * sy)
                              * (m * sxy - sx * sy)
                              / ((m * sxx - sx * sx)
                                 * (m * syy - sy * sy))
                         ELSE 1.0 END, 6) AS r2
            FROM s
        """,
        "docs_zipf_fit": """
            -- Zipf OLS replay: (count desc, term asc) ranks, identical
            -- closed-form slope/intercept/r2 trees
            WITH tc AS (SELECT term, count(*) AS c FROM (
                          SELECT unnest(list_filter(
                              str_split(lower(text), ' '),
                              x -> x <> '')) AS term
                          FROM documents) GROUP BY 1),
            rk AS (SELECT c, row_number() OVER (ORDER BY c DESC,
                                                term ASC) AS r
                   FROM tc),
            top AS (SELECT ln(CAST(r AS DOUBLE)) AS x,
                           ln(CAST(c AS DOUBLE)) AS y
                    FROM rk WHERE r <= 100),
            s AS (SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                         sum(x * x) AS sxx, sum(x * y) AS sxy,
                         sum(y * y) AS syy
                  FROM top)
            SELECT CAST(n AS BIGINT) AS n_terms,
                   round((n * sxy - sx * sy)
                         / (n * sxx - sx * sx), 6) AS slope,
                   round((sy - ((n * sxy - sx * sy)
                                / (n * sxx - sx * sx)) * sx) / n, 6)
                       AS intercept,
                   round(CASE WHEN (n * sxx - sx * sx)
                                   * (n * syy - sy * sy) > 0
                         THEN (n * sxy - sx * sy)
                              * (n * sxy - sx * sy)
                              / ((n * sxx - sx * sx)
                                 * (n * syy - sy * sy))
                         ELSE 1.0 END, 6) AS r2
            FROM s
        """,
        "docs_bpe_fertility": _bpe_sql(6, """
            SELECT CAST(count(*) AS BIGINT) AS n_distinct_words,
                   CAST(sum(cnt) AS BIGINT) AS word_occurrences,
                   CAST(sum(cnt * nt) AS BIGINT) AS token_occurrences,
                   round(CAST(sum(cnt * nt) AS DOUBLE)
                         / sum(cnt), 6) AS fertility,
                   round(CAST(sum(cnt * len(word)) AS DOUBLE)
                         / sum(cnt * nt), 6) AS chars_per_token
            FROM (SELECT word, cnt,
                         len(list_filter(str_split(sym, '  '),
                                         x -> x <> ''
                                              AND x <> '</w>')) AS nt
                  FROM w6)"""),
        "docs_bm25_topk_join": """
            -- BM25 top-15 per query, Lucene ln(1+(N-df+.5)/(df+.5)) idf,
            -- k1=1.2 b=0.75; rank on (round(score,6) desc, doc_id)
            -- (stages/retrieval.py::bm25_topk)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc)
            SELECT query_id, doc_id, score, CAST("rank" AS BIGINT) AS "rank"
            FROM rk WHERE "rank" <= 15
            ORDER BY query_id, "rank"
        """,
        "docs_rerank_rbo": """
            -- BM25 top-15 per query, Lucene ln(1+(N-df+.5)/(df+.5)) idf,
            -- k1=1.2 b=0.75; rank on (round(score,6) desc, doc_id)
            -- (stages/retrieval.py::bm25_topk)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc),
            cand AS (SELECT query_id, doc_id, "rank" FROM rk
                     WHERE "rank" <= 50),
            refd AS (SELECT query_id, doc_id AS ref_id FROM cand
                     WHERE "rank" = 1),
            coss AS (
              SELECT c.query_id, c.doc_id,
                     round(list_cosine_similarity(
                       CAST(er.embedding AS DOUBLE[]),
                       CAST(ec.embedding AS DOUBLE[])), 6) AS cos
              FROM cand c
              JOIN refd r ON r.query_id = c.query_id
              JOIN embeddings er ON er.vec_id = r.ref_id
              JOIN embeddings ec ON ec.vec_id = c.doc_id),
            rr AS (SELECT query_id, doc_id, cos,
                          row_number() OVER (PARTITION BY query_id
                                             ORDER BY cos DESC, doc_id)
                            AS rerank
                   FROM coss),
            ab AS (
              SELECT a.query_id, greatest(a."rank", b.rerank) AS mx
              FROM (SELECT query_id, doc_id, "rank" FROM rk
                    WHERE "rank" <= 10) a
              JOIN (SELECT query_id, doc_id, rerank FROM rr
                    WHERE rerank <= 10) b
                USING (query_id, doc_id)),
            dws AS (SELECT dd, pow(0.9, dd - 1) / dd AS wd
                    FROM (SELECT unnest(range(1, 11)) AS dd)),
            tails AS (SELECT dd,
                             sum(wd) OVER (ORDER BY dd
                               ROWS BETWEEN CURRENT ROW
                               AND UNBOUNDED FOLLOWING) AS ts
                      FROM dws),
            qs AS (SELECT DISTINCT query_id FROM rk WHERE "rank" <= 10),
            agg AS (
              SELECT ab.query_id,
                     CAST(count(*) AS BIGINT) AS overlap10,
                     sum(0.1 * t.ts) AS rbo
              FROM ab JOIN tails t ON t.dd = ab.mx
              GROUP BY 1)
            SELECT q.query_id,
                   coalesce(a.overlap10, 0) AS overlap10,
                   round(coalesce(a.rbo, 0.0), 6) AS rbo
            FROM qs q LEFT JOIN agg a USING (query_id)
            ORDER BY q.query_id
        """,
        "docs_hybrid_rerank": """
            -- BM25 top-15 per query, Lucene ln(1+(N-df+.5)/(df+.5)) idf,
            -- k1=1.2 b=0.75; rank on (round(score,6) desc, doc_id)
            -- (stages/retrieval.py::bm25_topk)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc),
            cand AS (SELECT query_id, doc_id, "rank" FROM rk
                     WHERE "rank" <= 50),
            refd AS (SELECT query_id, doc_id AS ref_id FROM cand
                     WHERE "rank" = 1),
            coss AS (
              SELECT c.query_id, c.doc_id,
                     round(list_cosine_similarity(
                       CAST(er.embedding AS DOUBLE[]),
                       CAST(ec.embedding AS DOUBLE[])), 6) AS cos
              FROM cand c
              JOIN refd r ON r.query_id = c.query_id
              JOIN embeddings er ON er.vec_id = r.ref_id
              JOIN embeddings ec ON ec.vec_id = c.doc_id),
            rr AS (SELECT query_id, doc_id, cos,
                          row_number() OVER (PARTITION BY query_id
                                             ORDER BY cos DESC, doc_id)
                            AS rerank
                   FROM coss)
            SELECT query_id, doc_id, cos,
                   CAST(rerank AS BIGINT) AS rerank
            FROM rr WHERE rerank <= 10 ORDER BY query_id, rerank
        """,
        "docs_bm25_topk": """
            -- BM25 top-15 per query, Lucene ln(1+(N-df+.5)/(df+.5)) idf,
            -- k1=1.2 b=0.75; rank on (round(score,6) desc, doc_id)
            -- (stages/retrieval.py::bm25_topk)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc)
            SELECT query_id, doc_id, score, CAST("rank" AS BIGINT) AS "rank"
            FROM rk WHERE "rank" <= 15
            ORDER BY query_id, "rank"
        """,
        "docs_ndcg": """
            -- NDCG@10 with binary lexical relevance (doc has >= 2
            -- DISTINCT query terms) over the BM25 top-15 ranking;
            -- gains rounded 9dp before summing, dcg/idcg/ndcg 6dp
            -- (stages/retrieval.py::binary_ndcg)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc),
            rel AS (SELECT q.query_id, p.doc_id
                    FROM (SELECT DISTINCT doc_id, term FROM tf) p
                    JOIN q USING (term)
                    GROUP BY q.query_id, p.doc_id
                    HAVING count(DISTINCT term) >= 2),
            tot AS (SELECT query_id, count(*) AS n_rel_total
                    FROM rel GROUP BY 1),
            hits AS (SELECT rk.query_id, rk."rank"
                     FROM rk JOIN rel ON rel.query_id = rk.query_id
                                     AND rel.doc_id = rk.doc_id
                     WHERE rk."rank" <= 10),
            dc AS (SELECT query_id,
                          round(sum(round(1.0 / log2("rank" + 1), 9)), 6)
                              AS dcg,
                          count(*) AS n_rel_ranked
                   FROM hits GROUP BY 1),
            ic AS (SELECT t.query_id,
                          round(sum(round(1.0 / log2(g.i + 1), 9)), 6)
                              AS idcg
                   FROM tot t,
                        unnest(generate_series(
                            1, least(t.n_rel_total, 10))) AS g(i)
                   GROUP BY 1)
            SELECT qq.query_id,
                   CAST(coalesce(tot.n_rel_total, 0) AS BIGINT)
                       AS n_rel_total,
                   CAST(coalesce(dc.n_rel_ranked, 0) AS BIGINT)
                       AS n_rel_ranked,
                   coalesce(dc.dcg, 0.0) AS dcg,
                   coalesce(ic.idcg, 0.0) AS idcg,
                   CASE WHEN coalesce(ic.idcg, 0.0) > 0
                        THEN round(coalesce(dc.dcg, 0.0) / ic.idcg, 6)
                        ELSE 0.0 END AS ndcg
            FROM (SELECT DISTINCT query_id FROM q) qq
            LEFT JOIN tot USING (query_id)
            LEFT JOIN dc USING (query_id)
            LEFT JOIN ic USING (query_id)
            ORDER BY query_id
        """,
        "docs_retrieval_eval": """
            -- MRR / P@10 / R@10 against the shared lexical qrels
            -- (doc has >= 2 DISTINCT query terms) over the BM25
            -- top-15 ranking (stages/retrieval.py::retrieval_eval)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY doc_id, term),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM pos WHERE term IN (SELECT term FROM q)
                   GROUP BY term),
            contrib AS (
              SELECT q.query_id, tf.doc_id,
                     ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * (1.2 + 1)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf USING (term) JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s),
            sc AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                   FROM contrib GROUP BY query_id, doc_id),
            rk AS (SELECT *, row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC) AS "rank"
                   FROM sc),
            rel AS (SELECT q.query_id, p.doc_id
                    FROM (SELECT DISTINCT doc_id, term FROM tf) p
                    JOIN q USING (term)
                    GROUP BY q.query_id, p.doc_id
                    HAVING count(DISTINCT term) >= 2),
            tot AS (SELECT query_id, count(*) AS n_rel_total
                    FROM rel GROUP BY 1),
            hits AS (SELECT rk.query_id, rk."rank"
                     FROM rk JOIN rel ON rel.query_id = rk.query_id
                                     AND rel.doc_id = rk.doc_id
                     WHERE rk."rank" <= 10),
            hs AS (SELECT query_id, count(*) AS n_hit,
                          min("rank") AS first_rank
                   FROM hits GROUP BY 1)
            SELECT qq.query_id,
                   CAST(coalesce(tot.n_rel_total, 0) AS BIGINT)
                       AS n_rel_total,
                   CAST(coalesce(hs.n_hit, 0) AS BIGINT) AS n_rel_ranked,
                   CAST(coalesce(hs.first_rank, 0) AS BIGINT)
                       AS first_rel_rank,
                   CASE WHEN hs.first_rank IS NOT NULL
                        THEN round(1.0 / hs.first_rank, 6)
                        ELSE 0.0 END AS mrr,
                   round(coalesce(hs.n_hit, 0) / 10.0, 6)
                       AS precision_at_k,
                   CASE WHEN coalesce(tot.n_rel_total, 0) > 0
                        THEN round(CAST(coalesce(hs.n_hit, 0) AS DOUBLE)
                                   / tot.n_rel_total, 6)
                        ELSE 0.0 END AS recall_at_k
            FROM (SELECT DISTINCT query_id FROM q) qq
            LEFT JOIN tot USING (query_id)
            LEFT JOIN hs USING (query_id)
            ORDER BY query_id
        """,
        "events_seasonal": """
            -- additive decomposition of hourly counts: 2x24 centered
            -- MA trend (half-weighted endpoints), per-phase seasonal
            -- index, remainder; rows without a full MA window dropped
            -- (stages/windows.py::seasonal_decompose)
            WITH hc AS (SELECT epoch_us(ts) // 3600000000 AS window_id,
                               count(*) AS cnt
                        FROM events GROUP BY 1),
            bounds AS (SELECT min(window_id) AS lo, max(window_id) AS hi
                       FROM hc),
            grid AS (SELECT unnest(generate_series(lo, hi)) AS window_id
                     FROM bounds),
            dense AS (SELECT g.window_id,
                             CAST(coalesce(hc.cnt, 0) AS DOUBLE) AS cnt
                      FROM grid g LEFT JOIN hc USING (window_id)),
            ma AS (SELECT window_id, cnt,
                          round((0.5 * lag(cnt, 12) OVER w
                                 + sum(cnt) OVER (ORDER BY window_id
                                     ROWS BETWEEN 11 PRECEDING
                                     AND 11 FOLLOWING)
                                 + 0.5 * lead(cnt, 12) OVER w) / 24.0,
                                6) AS trend,
                          count(*) OVER (ORDER BY window_id
                              ROWS BETWEEN 12 PRECEDING
                              AND 12 FOLLOWING) AS nfull
                   FROM dense
                   WINDOW w AS (ORDER BY window_id)),
            full_rows AS (SELECT window_id, cnt, trend,
                                 window_id % 24 AS phase,
                                 cnt - trend AS detr
                          FROM ma WHERE nfull = 25),
            si AS (SELECT phase, round(avg(detr), 6) AS seasonal
                   FROM full_rows GROUP BY 1)
            SELECT f.window_id, CAST(f.cnt AS BIGINT) AS cnt, f.trend,
                   si.seasonal,
                   round(f.detr - si.seasonal, 6) AS remainder
            FROM full_rows f JOIN si USING (phase)
            ORDER BY f.window_id
        """,
        "docs_bm25_prf": """
            -- Rocchio PRF replay: bm25 pass-1 top-5 feedback, top-3
            -- tf*idf expansion terms (anti-joined against the query,
            -- round-6dp/term-asc selection), weighted re-rank
            -- (stages/retrieval.py::bm25_prf)
            WITH q(query_id, term) AS (VALUES
              ('q1','hash'), ('q1','join'), ('q1','table'),
              ('q2','window'), ('q2','agg'), ('q2','stream'),
              ('q3','vector'), ('q3','scan'), ('q3','dup')),
            d AS (SELECT doc_id,
                         list_filter(str_split(lower(text), ' '),
                                     x -> x <> '') AS toks
                  FROM documents),
            s AS (SELECT count(*) AS n,
                         CAST(sum(len(toks)) AS DOUBLE) / count(*) AS avgdl
                  FROM d),
            pos AS (SELECT doc_id, unnest(toks) AS term FROM d),
            dl AS (SELECT doc_id, len(toks) AS dl FROM d),
            tf1 AS (SELECT doc_id, term, count(*) AS tf
                    FROM pos WHERE term IN (SELECT term FROM q)
                    GROUP BY doc_id, term),
            df1 AS (SELECT term, count(DISTINCT doc_id) AS df
                    FROM pos WHERE term IN (SELECT term FROM q)
                    GROUP BY term),
            contrib1 AS (
              SELECT q.query_id, tf1.doc_id,
                     ln(1 + (s.n - df1.df + 0.5) / (df1.df + 0.5))
                       * tf1.tf * (1.2 + 1)
                       / (tf1.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM q JOIN tf1 USING (term) JOIN df1 USING (term)
              JOIN dl ON dl.doc_id = tf1.doc_id CROSS JOIN s),
            sc1 AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                    FROM contrib1 GROUP BY query_id, doc_id),
            rk1 AS (SELECT *, row_number() OVER (
                        PARTITION BY query_id
                        ORDER BY score DESC, doc_id ASC) AS "rank"
                    FROM sc1),
            fb AS (SELECT query_id, doc_id FROM rk1 WHERE "rank" <= 5),
            fbtf AS (SELECT f.query_id, p.term, count(*) AS tf
                     FROM fb f JOIN pos p USING (doc_id)
                     GROUP BY f.query_id, p.term),
            voc AS (SELECT DISTINCT term FROM fbtf
                    UNION SELECT term FROM q),
            df2 AS (SELECT term, count(DISTINCT doc_id) AS df
                    FROM pos WHERE term IN (SELECT term FROM voc)
                    GROUP BY term),
            idf AS (SELECT term,
                           ln(1 + (s.n - df + 0.5) / (df + 0.5)) AS idf
                    FROM df2 CROSS JOIN s),
            exp AS (SELECT f.query_id, f.term,
                           row_number() OVER (PARTITION BY f.query_id
                             ORDER BY round(f.tf * i.idf, 6) DESC,
                                      f.term ASC) AS rn
                    FROM fbtf f JOIN idf i USING (term)
                    LEFT JOIN q ON q.query_id = f.query_id
                               AND q.term = f.term
                    WHERE q.term IS NULL),
            wq AS (SELECT query_id, term, 1.0 AS w FROM q
                   UNION ALL
                   SELECT query_id, term, 0.5 FROM exp WHERE rn <= 3),
            tf2 AS (SELECT doc_id, term, count(*) AS tf
                    FROM pos WHERE term IN (SELECT term FROM voc)
                    GROUP BY doc_id, term),
            contrib2 AS (
              SELECT wq.query_id, tf2.doc_id,
                     wq.w * i.idf * tf2.tf * (1.2 + 1)
                       / (tf2.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))
                       AS c
              FROM wq JOIN idf i USING (term) JOIN tf2 USING (term)
              JOIN dl ON dl.doc_id = tf2.doc_id CROSS JOIN s),
            sc2 AS (SELECT query_id, doc_id, round(sum(c), 6) AS score
                    FROM contrib2 GROUP BY query_id, doc_id),
            rk2 AS (SELECT *, row_number() OVER (
                        PARTITION BY query_id
                        ORDER BY score DESC, doc_id ASC) AS "rank"
                    FROM sc2)
            SELECT query_id, doc_id, score,
                   CAST("rank" AS BIGINT) AS "rank"
            FROM rk2 WHERE "rank" <= 10
            ORDER BY query_id, "rank"
        """,
        "docs_weighted_sample": f"""
            WITH {_sm64_sql("documents", "doc_id", ["doc_id", "n_chars"])},
            r AS (SELECT doc_id, n_chars,
                         ln((CAST(hv AS DOUBLE) + 1)
                            / 18446744073709551616.0) / n_chars AS es_key
                  FROM h WHERE n_chars > 0),
            rk AS (SELECT doc_id, n_chars, es_key,
                          row_number() OVER (ORDER BY es_key DESC,
                                             doc_id ASC) AS rnk
                   FROM r)
            SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                   round(es_key, 10) AS es_key,
                   CAST(rnk AS BIGINT) AS sample_rank
            FROM rk WHERE rnk <= 100 ORDER BY doc_id
        """,
        "docs_shuffle": f"""
            WITH {_sm64_sql("documents", "doc_id", ["doc_id"])}
            SELECT doc_id,
                   CAST(row_number() OVER (ORDER BY hv) - 1 AS BIGINT)
                       AS shuffle_pos
            FROM h ORDER BY doc_id
        """,
        "events_user_value_trend": """
            WITH e AS (SELECT user_id,
                              CAST(epoch_us(ts) // 86400000000 AS DOUBLE) AS x,
                              value AS y
                       FROM events),
            s AS (SELECT user_id, count(*) AS n,
                         sum(x) AS sx, sum(y) AS sy,
                         sum(x * x) AS sxx, sum(x * y) AS sxy
                  FROM e GROUP BY 1)
            SELECT CAST(user_id AS BIGINT) AS user_id, CAST(n AS BIGINT) AS n,
                   round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
                   round((sy - ((n * sxy - sx * sy) / (n * sxx - sx * sx)) * sx)
                         / n, 6) AS intercept
            FROM s
            WHERE n >= 2 AND (n * sxx - sx * sx) > 0
            ORDER BY user_id
        """,
        "custs_orders_full": """
            WITH l AS (SELECT c_custkey, c_acctbal FROM customer
                       WHERE c_acctbal > 5000),
                 r AS (SELECT o_custkey AS c_custkey,
                              count(*) AS n_big
                       FROM orders WHERE o_totalprice > 300000
                       GROUP BY o_custkey)
            SELECT c_custkey,
                   round(coalesce(c_acctbal, -1.0), 2) AS acctbal,
                   CAST(coalesce(n_big, 0) AS BIGINT) AS n_big
            FROM l FULL OUTER JOIN r USING (c_custkey)
            ORDER BY c_custkey
        """,
        "events_value_delta": """
            WITH w AS (
              SELECT event_id, user_id, value,
                     lag(value) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS prev
              FROM events)
            SELECT event_id, user_id, round(value, 6) AS value,
                   round(coalesce(value - prev, 0.0), 6) AS delta,
                   prev IS NOT NULL AS has_prev
            FROM w ORDER BY event_id
        """,
        "docs_curate_pipeline": f"""
            -- capstone curation chain: dedup -> langid+len -> quality
            -- -> decontaminate -> perplexity -> pack (every stage the
            -- same SQL fragment as its standalone-oracled operator)
            WITH dedup AS (SELECT min(doc_id) AS doc_id, text
                           FROM documents GROUP BY text),
            lc AS (
              SELECT doc_id, text,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('the','and','of','is','a'))) AS c_en,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('der','die','und','das','ist'))) AS c_de,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('le','la','et','les','des'))) AS c_fr,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('el','los','las','una','es'))) AS c_es
              FROM dedup),
            langed AS (
              SELECT doc_id, text FROM lc
              WHERE NOT (c_en = 0 AND c_de = 0 AND c_fr = 0 AND c_es = 0)
                AND c_en >= c_de AND c_en >= c_fr AND c_en >= c_es),
            cleaned AS (
              SELECT doc_id, text FROM langed
              WHERE CASE WHEN trim(text) = '' THEN 0
                         ELSE len(regexp_split_to_array(trim(text), '\\s+'))
                    END >= 20),
            qw AS (
              SELECT doc_id, text,
                     CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                          ELSE regexp_split_to_array(trim(text), '\\s+') END
                       AS words
              FROM cleaned),
            qf AS (
              SELECT doc_id, text, len(words) AS n_words,
                     CASE WHEN len(words) = 0 THEN 0.0 ELSE
                       list_aggregate(list_transform(words, x -> length(x)),
                                      'sum') * 1.0 / len(words) END AS mean_wl,
                     CASE WHEN len(words) = 0 THEN 0.0 ELSE
                       len(list_filter(words,
                                       x -> lower(x) IN {_stopword_sql_list()}))
                       * 1.0 / len(words) END AS stop_r,
                     CASE WHEN length(text) = 0 THEN 0.0 ELSE
                       length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))
                       * 1.0 / length(text) END AS alpha_r
              FROM qw),
            hq AS (
              SELECT doc_id, text FROM qf
              WHERE (CASE WHEN n_words = 0 THEN 0.0 ELSE
                       greatest(0.0, least(1.0,
                         0.4 * least(1.0, n_words / 50.0)
                         + 0.2 * (CASE WHEN mean_wl >= 3.0 AND mean_wl <= 8.0
                                       THEN 1.0 ELSE 0.5 END)
                         + 0.2 * least(1.0, 2.0 * stop_r)
                         + 0.2 * alpha_r)) END) >= 0.5),
            rawwords AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            bgrams AS (
              SELECT DISTINCT w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                     || w[i+3] || ' ' || w[i+4] || ' ' || w[i+5] || ' '
                     || w[i+6] || ' ' || w[i+7] AS g
              FROM (SELECT doc_id, w, unnest(range(1, len(w) - 6)) AS i
                    FROM rawwords WHERE doc_id % 97 = 0)),
            hqw AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM hq),
            contam AS (
              SELECT DISTINCT doc_id
              FROM (SELECT doc_id,
                           w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                           || w[i+3] || ' ' || w[i+4] || ' ' || w[i+5] || ' '
                           || w[i+6] || ' ' || w[i+7] AS g
                    FROM (SELECT doc_id, w, unnest(range(1, len(w) - 6)) AS i
                          FROM hqw))
              WHERE g IN (SELECT g FROM bgrams)),
            dec AS (SELECT h.doc_id, h.w FROM hqw h
                    WHERE h.doc_id NOT IN (SELECT doc_id FROM contam)),
            rtok AS (SELECT w FROM rawwords WHERE doc_id % 20 = 0),
            rpos AS (SELECT w, unnest(range(1, len(w) + 1)) AS i FROM rtok),
            runi AS (SELECT w[i] AS w1, count(*) AS c1 FROM rpos GROUP BY w1),
            rbi AS (SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS c12
                    FROM rpos WHERE i < len(w) GROUP BY w1, w2),
            v AS (SELECT count(*) + 1 AS v FROM runi),
            dpos AS (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i
                     FROM dec),
            dbi AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM dpos WHERE i < len(w)),
            sc AS (
              SELECT d.doc_id,
                     ln((coalesce(b.c12, 0) + 1.0)
                        / (coalesce(u.c1, 0) + v.v)) AS lp
              FROM dbi d
              LEFT JOIN rbi b ON d.w1 = b.w1 AND d.w2 = b.w2
              LEFT JOIN runi u ON d.w1 = u.w1
              CROSS JOIN v),
            agg AS (SELECT doc_id, -sum(lp) / count(*) AS nll
                    FROM sc GROUP BY doc_id),
            surv AS (
              SELECT t.doc_id, CAST(len(t.w) AS BIGINT) AS n_tokens
              FROM dec t LEFT JOIN agg a USING (doc_id)
              WHERE coalesce(exp(a.nll), 1.0) <= 40.0)
            SELECT doc_id, n_tokens,
                   CAST(coalesce(sum(n_tokens) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) // 2000 AS BIGINT) AS seq_id
            FROM surv ORDER BY doc_id
        """,
        "docs_extractive_summary": _summary_sql(iterations=4, top_k=2,
                                                seg=8),
        "events_user_entropy": """
            -- entropy replay: identical H = ln(N) - sum(n ln n)/N
            WITH c AS (SELECT user_id, event_type, count(*) AS n
                       FROM events GROUP BY 1, 2),
            a AS (SELECT user_id, sum(n) AS n,
                         sum(n * ln(n)) AS s,
                         count(*) AS n_cats
                  FROM c GROUP BY 1)
            SELECT user_id, CAST(n AS BIGINT) AS n,
                   CAST(n_cats AS BIGINT) AS n_cats,
                   round(ln(n) - s / n, 6) AS entropy
            FROM a ORDER BY user_id
        """,
        "embeddings_triplets": """
            -- triplet replay: pairwise cosine rounded 6dp, hardest
            -- positive = (sim asc, ib asc) rn 1 within label,
            -- hardest negative = (sim desc, ib asc) rn 1 across
            WITH u AS MATERIALIZED (
              SELECT vec_id, generate_subscripts(embedding, 1) - 1
                         AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS val
              FROM embeddings),
            nrm AS MATERIALIZED (
              SELECT vec_id, sqrt(sum(val * val)) AS nrm
              FROM u GROUP BY 1),
            lab AS MATERIALIZED (SELECT vec_id, label FROM embeddings),
            s AS MATERIALIZED (
              SELECT a.vec_id AS ia, b.vec_id AS ib,
                     round(sum(a.val * b.val) / (na.nrm * nb.nrm), 6)
                         AS sim
              FROM u a JOIN u b
                ON a.dim = b.dim AND a.vec_id <> b.vec_id
              JOIN nrm na ON na.vec_id = a.vec_id
              JOIN nrm nb ON nb.vec_id = b.vec_id
              GROUP BY a.vec_id, b.vec_id, na.nrm, nb.nrm),
            sl AS MATERIALIZED (
              SELECT s.ia, s.ib, s.sim, la.label AS lab_a,
                     lb.label AS lab_b
              FROM s JOIN lab la ON la.vec_id = s.ia
              JOIN lab lb ON lb.vec_id = s.ib),
            pos AS (SELECT ia, ib, sim,
                           row_number() OVER (PARTITION BY ia
                               ORDER BY sim ASC, ib ASC) AS rn
                    FROM sl WHERE lab_a = lab_b),
            neg AS (SELECT ia, ib, sim,
                           row_number() OVER (PARTITION BY ia
                               ORDER BY sim DESC, ib ASC) AS rn
                    FROM sl WHERE lab_a <> lab_b)
            SELECT p.ia AS vec_id, p.ib AS pos_id, n.ib AS neg_id,
                   p.sim AS pos_sim, n.sim AS neg_sim,
                   round(p.sim - n.sim, 6) AS margin
            FROM pos p JOIN neg n ON n.ia = p.ia AND n.rn = 1
            WHERE p.rn = 1 ORDER BY vec_id
        """,
        "custs_rfm_segments": """
            -- RFM replay: identical per-customer aggregates and
            -- NTILE(5) windows with custkey tiebreaks
            WITH a AS (SELECT o_custkey AS cust,
                              max(epoch_us(o_orderdate)
                                  // 86400000000) AS last_day,
                              count(*) AS n_orders,
                              round(sum(o_totalprice), 2) AS revenue
                       FROM orders GROUP BY 1),
            s AS (SELECT cust, last_day, n_orders, revenue,
                         ntile(5) OVER (ORDER BY last_day, cust)
                             AS r_score,
                         ntile(5) OVER (ORDER BY n_orders, cust)
                             AS f_score,
                         ntile(5) OVER (ORDER BY revenue, cust)
                             AS m_score
                  FROM a)
            SELECT cust, CAST(last_day AS BIGINT) AS last_day,
                   CAST(n_orders AS BIGINT) AS n_orders, revenue,
                   CAST(r_score AS BIGINT) AS r_score,
                   CAST(f_score AS BIGINT) AS f_score,
                   CAST(m_score AS BIGINT) AS m_score,
                   CAST(r_score * 100 + f_score * 10 + m_score
                        AS BIGINT) AS segment
            FROM s ORDER BY cust
        """,
        "parts_revenue_gini": """
            -- Gini replay: identical 2dp per-key revenue, ascending
            -- rank sum, identical closed-form expression
            WITH r AS (SELECT l_partkey,
                              round(l_extendedprice
                                    * (1.0 - l_discount), 2) AS rev
                       FROM lineitem),
            a AS (SELECT l_partkey AS key,
                         round(sum(rev), 2) AS v
                  FROM r GROUP BY 1),
            rk AS (SELECT v, row_number() OVER (ORDER BY v ASC,
                                                key ASC) AS i
                   FROM a),
            t AS (SELECT count(*) AS n, sum(v) AS total,
                         sum(i * v) AS s
                  FROM rk)
            SELECT CAST(n AS BIGINT) AS n_keys,
                   round(total, 2) AS total,
                   round(2.0 * s / (n * total) - (n + 1.0) / n, 9)
                       AS gini
            FROM t
        """,
        "parts_abc_classes": """
            -- ABC replay: 2dp per-key revenue, (value desc, key asc)
            -- cumulative share rounded 9dp, 80/95 cut
            WITH r AS (SELECT l_partkey,
                              round(l_extendedprice
                                    * (1.0 - l_discount), 2) AS rev
                       FROM lineitem),
            a AS (SELECT l_partkey AS key,
                         round(sum(rev), 2) AS value
                  FROM r GROUP BY 1),
            t AS (SELECT sum(value) AS total FROM a),
            w AS (SELECT a.key, a.value,
                         round(sum(a.value) OVER (
                             ORDER BY a.value DESC, a.key ASC)
                               / t.total, 9) AS cum_share
                  FROM a CROSS JOIN t)
            SELECT key AS l_partkey, value, cum_share,
                   CASE WHEN cum_share <= 0.8 THEN 'A'
                        WHEN cum_share <= 0.95 THEN 'B'
                        ELSE 'C' END AS abc_class
            FROM w ORDER BY l_partkey
        """,
        "events_fsm_conformance": """
            -- conformance replay: lag transitions vs the whitelist,
            -- per-user violation counts, round(1 - v/steps, 6)
            WITH allowed(f, t) AS (VALUES
              ('signup','view'), ('view','view'), ('view','click'),
              ('click','view'), ('click','purchase'),
              ('purchase','view'), ('error','view'), ('view','error')),
            x AS (SELECT user_id, event_type,
                         lag(event_type) OVER (
                             PARTITION BY user_id
                             ORDER BY ts, event_id) AS prev
                  FROM events),
            st AS (SELECT user_id,
                          count(*) FILTER (prev IS NOT NULL) AS n_steps,
                          count(*) FILTER (
                            prev IS NOT NULL AND a.f IS NULL)
                              AS n_violations
                   FROM x LEFT JOIN allowed a
                     ON a.f = x.prev AND a.t = x.event_type
                   GROUP BY user_id)
            SELECT user_id, CAST(n_steps AS BIGINT) AS n_steps,
                   CAST(n_violations AS BIGINT) AS n_violations,
                   round(CASE WHEN n_steps > 0
                         THEN 1.0 - CAST(n_violations AS DOUBLE)
                                    / n_steps
                         ELSE 1.0 END, 6) AS conformance
            FROM st ORDER BY user_id
        """,
        "events_did_impact": """
            -- DiD replay: identical cell stats (6dp means/vars),
            -- identical differencing and left-assoc SE expression
            WITH e AS (SELECT (user_id % 2 = 0) AS tr,
                              (epoch_us(ts) // 86400000000 >= 19738)
                                  AS po,
                              value
                       FROM events WHERE value IS NOT NULL),
            cells AS (SELECT CAST(tr AS INT) * 2 + CAST(po AS INT)
                                 AS cell,
                             count(*) AS n, sum(value) AS sx,
                             sum(value * value) AS sxx
                      FROM e GROUP BY 1),
            st AS (SELECT cell, n, round(sx / n, 6) AS mean,
                          round((sxx - sx * sx / n) / (n - 1), 6)
                              AS var
                   FROM cells),
            p AS (SELECT
                    max(CASE WHEN cell = 0 THEN n END) AS n_c_pre,
                    max(CASE WHEN cell = 1 THEN n END) AS n_c_post,
                    max(CASE WHEN cell = 2 THEN n END) AS n_t_pre,
                    max(CASE WHEN cell = 3 THEN n END) AS n_t_post,
                    max(CASE WHEN cell = 0 THEN mean END) AS m0,
                    max(CASE WHEN cell = 1 THEN mean END) AS m1,
                    max(CASE WHEN cell = 2 THEN mean END) AS m2,
                    max(CASE WHEN cell = 3 THEN mean END) AS m3,
                    max(CASE WHEN cell = 0 THEN var END) AS v0,
                    max(CASE WHEN cell = 1 THEN var END) AS v1,
                    max(CASE WHEN cell = 2 THEN var END) AS v2,
                    max(CASE WHEN cell = 3 THEN var END) AS v3
                  FROM st)
            SELECT CAST(n_c_pre AS BIGINT) AS n_c_pre,
                   CAST(n_c_post AS BIGINT) AS n_c_post,
                   CAST(n_t_pre AS BIGINT) AS n_t_pre,
                   CAST(n_t_post AS BIGINT) AS n_t_post,
                   m0 AS mean_c_pre, m1 AS mean_c_post,
                   m2 AS mean_t_pre, m3 AS mean_t_post,
                   round((m3 - m2) - (m1 - m0), 6) AS did,
                   round(sqrt(v0 / n_c_pre + v1 / n_c_post
                              + v2 / n_t_pre + v3 / n_t_post), 6)
                       AS se,
                   round(round((m3 - m2) - (m1 - m0), 6)
                         / round(sqrt(v0 / n_c_pre + v1 / n_c_post
                                      + v2 / n_t_pre + v3 / n_t_post),
                                 6), 6) AS t_stat
            FROM p
        """,
        "docs_gopher_rules": """
            -- Gopher gate replay: token/word-length/dup-bigram stats
            -- rounded 6dp before the identical threshold compares
            WITH d AS (SELECT doc_id,
                              list_filter(str_split(lower(text), ' '),
                                          x -> x <> '') AS w
                       FROM documents),
            base AS (SELECT doc_id, len(w) AS n_tokens,
                            CAST(list_sum(list_transform(
                                w, x -> len(x))) AS BIGINT) AS tot_len
                     FROM d),
            bi AS (SELECT doc_id,
                          count(*) AS n_bi,
                          count(DISTINCT (w[i], w[i+1])) AS n_dist
                   FROM (SELECT doc_id, w,
                                unnest(range(1, len(w) + 1)) AS i
                         FROM d)
                   WHERE i < len(w)
                   GROUP BY doc_id),
            s AS (SELECT b.doc_id, b.n_tokens,
                         round(CASE WHEN b.n_tokens > 0
                               THEN CAST(b.tot_len AS DOUBLE)
                                    / b.n_tokens
                               ELSE 0.0 END, 6) AS mean_word_len,
                         round(CASE WHEN coalesce(x.n_bi, 0) > 0
                               THEN 1.0 - CAST(x.n_dist AS DOUBLE)
                                          / x.n_bi
                               ELSE 0.0 END, 6) AS dup_bigram_frac
                  FROM base b LEFT JOIN bi x USING (doc_id))
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   mean_word_len, dup_bigram_frac,
                   (n_tokens >= 30 AND n_tokens <= 100000) AS pass_len,
                   (mean_word_len >= 3.0 AND mean_word_len <= 10.0)
                       AS pass_word_len,
                   (dup_bigram_frac <= 0.2) AS pass_rep,
                   ((n_tokens >= 30 AND n_tokens <= 100000)
                    AND (mean_word_len >= 3.0
                         AND mean_word_len <= 10.0)
                    AND dup_bigram_frac <= 0.2) AS keep
            FROM s ORDER BY doc_id
        """,
        "docs_kn_perplexity": """
            -- interpolated Kneser-Ney bigram replay: same every-20th
            -- reference; continuation counts N1+(w1,.) / N1+(.,w2),
            -- bigram-context-total denominator (standard KN), T bigram
            -- types, add-one continuation floor, D=0.75
            -- (curation.py::kn_perplexity)
            WITH rtok AS (
              SELECT list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS w
              FROM documents WHERE doc_id % 20 = 0),
            rpos AS (SELECT w, unnest(range(1, len(w) + 1)) AS i
                     FROM rtok),
            runi AS (SELECT w[i] AS w1, count(*) AS c1
                     FROM rpos GROUP BY w1),
            rbi AS (SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS c12
                    FROM rpos WHERE i < len(w) GROUP BY w1, w2),
            nf AS (SELECT w1, count(*) AS n1f FROM rbi GROUP BY w1),
            nb AS (SELECT w2, count(*) AS n1b FROM rbi GROUP BY w2),
            rctx AS (SELECT w1, sum(c12) AS ctx FROM rbi GROUP BY w1),
            tv AS (SELECT (SELECT count(*) FROM rbi) AS t,
                          (SELECT count(*) + 1 FROM runi) AS v),
            dtok AS (
              SELECT doc_id, list_filter(str_split(lower(text), ' '),
                                         x -> x <> '') AS w
              FROM documents),
            dpos AS (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i
                     FROM dtok),
            dbi AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM dpos WHERE i < len(w)),
            sc AS (
              SELECT d.doc_id,
                     ln(CASE
                       WHEN x.ctx IS NOT NULL
                            AND coalesce(f.n1f, 0) > 0
                       THEN (greatest(coalesce(b.c12, 0) - 0.75, 0.0)
                             + 0.75 * f.n1f
                               * ((coalesce(g.n1b, 0) + 1.0)
                                  / (tv.t + tv.v))) / x.ctx
                       ELSE (coalesce(g.n1b, 0) + 1.0)
                            / (tv.t + tv.v)
                     END) AS lp
              FROM dbi d
              LEFT JOIN rbi b ON d.w1 = b.w1 AND d.w2 = b.w2
              LEFT JOIN rctx x ON d.w1 = x.w1
              LEFT JOIN nf f ON d.w1 = f.w1
              LEFT JOIN nb g ON d.w2 = g.w2
              CROSS JOIN tv),
            agg AS (SELECT doc_id, -sum(lp) / count(*) AS nll
                    FROM sc GROUP BY doc_id)
            SELECT t.doc_id, CAST(len(t.w) AS BIGINT) AS n_tokens,
                   round(coalesce(a.nll, 0.0), 6) AS avg_nll,
                   round(coalesce(exp(a.nll), 1.0), 6) AS ppl
            FROM dtok t LEFT JOIN agg a USING (doc_id)
            ORDER BY t.doc_id
        """,
        "docs_lm_perplexity": """
            -- add-one-smoothed bigram LM trained on every 20th document,
            -- scoring all documents (curation.py::lm_perplexity)
            WITH rtok AS (
              SELECT list_filter(str_split(lower(text), ' '),
                                 x -> x <> '') AS w
              FROM documents WHERE doc_id % 20 = 0),
            rpos AS (SELECT w, unnest(range(1, len(w) + 1)) AS i FROM rtok),
            runi AS (SELECT w[i] AS w1, count(*) AS c1 FROM rpos GROUP BY w1),
            rbi AS (SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS c12
                    FROM rpos WHERE i < len(w) GROUP BY w1, w2),
            v AS (SELECT count(*) + 1 AS v FROM runi),
            dtok AS (
              SELECT doc_id, list_filter(str_split(lower(text), ' '),
                                         x -> x <> '') AS w
              FROM documents),
            dpos AS (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i
                     FROM dtok),
            dbi AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM dpos WHERE i < len(w)),
            sc AS (
              SELECT d.doc_id,
                     ln((coalesce(b.c12, 0) + 1.0)
                        / (coalesce(u.c1, 0) + v.v)) AS lp
              FROM dbi d
              LEFT JOIN rbi b ON d.w1 = b.w1 AND d.w2 = b.w2
              LEFT JOIN runi u ON d.w1 = u.w1
              CROSS JOIN v),
            agg AS (SELECT doc_id, -sum(lp) / count(*) AS nll
                    FROM sc GROUP BY doc_id)
            SELECT t.doc_id, CAST(len(t.w) AS BIGINT) AS n_tokens,
                   round(coalesce(a.nll, 0.0), 6) AS avg_nll,
                   round(coalesce(exp(a.nll), 1.0), 6) AS ppl
            FROM dtok t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id
        """,
        # Pearson r from the same sufficient statistics and the same
        # final expression (numpy and DuckDB both evaluate in float64)
        "events_value_hour_corr": """
            WITH e AS (SELECT event_type,
                              CAST(CAST(floor(epoch(ts) / 3600) AS BIGINT) % 24
                                   AS DOUBLE) AS x,
                              value AS y
                       FROM events),
            s AS (SELECT event_type, count(*) AS n,
                         sum(x) AS sx, sum(y) AS sy, sum(x * x) AS sxx,
                         sum(y * y) AS syy, sum(x * y) AS sxy
                  FROM e GROUP BY 1)
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   round((n * sxy - sx * sy)
                         / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)),
                         6) AS corr
            FROM s
            WHERE n >= 2 AND (n * sxx - sx * sx) > 0
              AND (n * syy - sy * sy) > 0
            ORDER BY event_type
        """,
        # winsorized mean: clip to the exact linear-interpolated group
        # p5/p95 (quantile_cont == numpy linear interpolation), then avg
        "events_winsorized_value": """
            WITH q AS (SELECT event_type,
                              quantile_cont(value, 0.05) AS lo,
                              quantile_cont(value, 0.95) AS hi
                       FROM events GROUP BY event_type)
            SELECT e.event_type, CAST(count(*) AS BIGINT) AS n,
                   round(avg(greatest(q.lo, least(q.hi, e.value))), 6) AS w_mean
            FROM events e JOIN q USING (event_type)
            GROUP BY e.event_type ORDER BY e.event_type
        """,
        # z-score: constants rounded to 6dp on BOTH sides, so the per-row
        # (value - m) / sd is a bit-identical IEEE op sequence
        "events_zscore_value": """
            WITH s AS (SELECT event_type, count(*) AS n, sum(value) AS s1,
                              sum(value * value) AS s2
                       FROM events GROUP BY event_type),
            m AS (SELECT event_type, round(s1 / n, 6) AS m,
                         round(sqrt(greatest(s2 / n - (s1 / n) * (s1 / n),
                                             0.0)), 6) AS sd
                  FROM s)
            SELECT e.event_id, e.event_type, e.value,
                   round(CASE WHEN m.sd > 0 THEN (e.value - m.m) / m.sd
                              ELSE 0.0 END, 6) AS z
            FROM events e JOIN m USING (event_type)
            ORDER BY event_id
        """,
        # bucket i covers (q_{(i-1)/4}, q_{i/4}]: an interpolated bound lies
        # strictly between adjacent order statistics, so v > bound is
        # engine-independent (see quantile_bucket docstring)
        "orders_price_buckets": """
            WITH q AS (SELECT o_orderstatus,
                              quantile_cont(o_totalprice, 0.25) AS b1,
                              quantile_cont(o_totalprice, 0.50) AS b2,
                              quantile_cont(o_totalprice, 0.75) AS b3
                       FROM orders GROUP BY o_orderstatus)
            SELECT o.o_orderkey, o.o_orderstatus, o.o_totalprice,
                   CAST(1 + CAST(o.o_totalprice > q.b1 AS INT)
                          + CAST(o.o_totalprice > q.b2 AS INT)
                          + CAST(o.o_totalprice > q.b3 AS INT) AS BIGINT)
                     AS bucket
            FROM orders o JOIN q USING (o_orderstatus)
            ORDER BY o_orderkey
        """,
        "docs_dominant_lang": """
            WITH c AS (SELECT source, lang, count(*) AS n
                       FROM documents GROUP BY source, lang),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY source ORDER BY n DESC, lang ASC) AS rn
                  FROM c)
            SELECT source, lang, CAST(n AS BIGINT) AS n
            FROM r WHERE rn = 1 ORDER BY source
        """,
        # cohort = per-user min activity day (epoch days, us // 86400e6
        # == floor(epoch(ts)/86400) for post-1970 timestamps)
        "events_retention": """
            WITH act AS (SELECT DISTINCT user_id,
                                CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
                         FROM events),
            cohort AS (SELECT user_id, min(day) AS cohort_day
                       FROM act GROUP BY user_id)
            SELECT c.cohort_day, a.day - c.cohort_day AS day_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM act a JOIN cohort c ON a.user_id = c.user_id
            WHERE a.day - c.cohort_day <= 30
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # step-k frontier = earliest step-k event strictly after the
        # user's step-(k-1) frontier; counts are frontier sizes
        "events_funnel": """
            WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
                   JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
                   WHERE e.event_type = 'view' GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
                   JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
                   WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT * FROM (
              SELECT 1 AS step, 'signup' AS step_name,
                     (SELECT CAST(count(*) AS BIGINT) FROM s1) AS n_users
              UNION ALL
              SELECT 2, 'view', (SELECT count(*) FROM s2)
              UNION ALL
              SELECT 3, 'purchase', (SELECT count(*) FROM s3))
            ORDER BY step
        """,
        # document-level co-occurrence PMI: distinct terms per doc,
        # unordered pairs a < b over the df>=5 vocabulary; BIGINT/BIGINT
        # division is double in DuckDB — same value as numpy int64/int64
        "docs_pmi_pairs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(str_split(lower(text), ' '),
                                        x -> x <> '')) AS t
              FROM documents),
            d AS (SELECT DISTINCT doc_id, t FROM toks),
            df AS (SELECT t, count(*) AS c FROM d GROUP BY t),
            vocab AS (SELECT t, c FROM df WHERE c >= 5),
            pairs AS (
              SELECT a.t AS term_a, b.t AS term_b, count(*) AS n_ab
              FROM d a JOIN d b ON a.doc_id = b.doc_id AND a.t < b.t
              WHERE a.t IN (SELECT t FROM vocab)
                AND b.t IN (SELECT t FROM vocab)
              GROUP BY 1, 2),
            n AS (SELECT count(*) AS nd FROM documents)
            SELECT term_a, term_b, CAST(n_ab AS BIGINT) AS n_ab,
                   round(ln((n_ab * nd) / (va.c * vb.c)), 6) AS pmi
            FROM pairs, n
            JOIN vocab va ON va.t = term_a
            JOIN vocab vb ON vb.t = term_b
            WHERE n_ab >= 5
            ORDER BY term_a, term_b
        """,
        "docs_heavy_hitters": """
            -- exact phi-heavy-hitters, phi = 0.032
            -- (curation.py::heavy_hitters: MG sketch -> exact verify)
            WITH toks AS (
              SELECT unnest(list_filter(str_split(lower(text), ' '),
                                        x -> x <> '')) AS term
              FROM documents),
            n AS (SELECT count(*) AS n FROM toks),
            c AS (SELECT term, count(*) AS cnt FROM toks GROUP BY term)
            SELECT term, CAST(cnt AS BIGINT) AS cnt,
                   CAST(row_number() OVER (ORDER BY cnt DESC, term ASC)
                        AS BIGINT) AS "rank"
            FROM c CROSS JOIN n
            WHERE cnt >= ceil(0.032 * n.n)
            ORDER BY "rank"
        """,
        "doc_fingerprints": _doc_fingerprints_sql(),
        # stems: the mapping is the raw side table (Snowball is
        # golden-parity-tested; duckdb fts can't download offline); the
        # SQL replays tokenization + distinct + coverage + ordering
        "stem_tokens": f"""
            WITH toks AS (
              SELECT DISTINCT unnest(
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   x -> x <> '')) AS token
              FROM documents)
            SELECT t.token, s.stemmed
            FROM toks t
            JOIN read_parquet('{os.path.join(_SIDE, "stem_tokens", "stems.parquet")}') s
              USING (token)
            ORDER BY t.token
        """,
        # media oracles: per-dim feature values / per-frame hashes are the
        # side-table RAW artifacts (blake2b is shared, like the other
        # hash side tables); the SQL replays the aggregation (features)
        # and the sampling decisions + timestamps (frames)
        "media_features_fake": f"""
            SELECT m.media_id, m.media_type, m.mime,
                   CAST(count(*) AS BIGINT) AS feat_dim,
                   ROUND(SUM(f.feat_val), 5) AS feat_sum
            FROM read_parquet('{os.path.join(_SIDE, "media_features_fake", "media.parquet")}') m
            JOIN read_parquet('{os.path.join(_SIDE, "media_features_fake", "feats.parquet")}') f
              USING (media_id)
            GROUP BY m.media_id, m.media_type, m.mime
            ORDER BY m.media_id
        """,
        "media_frames_fake": f"""
            WITH vids AS (
              SELECT media_id, GREATEST(duration_ms, 0) AS dur,
                     CASE WHEN GREATEST(duration_ms, 0) > 0 THEN 4 ELSE 1 END AS n
              FROM read_parquet('{os.path.join(_SIDE, "media_frames_fake", "media.parquet")}')
              WHERE media_type = 'video'),
            idx AS (
              SELECT media_id,
                     UNNEST(generate_series(0, n - 1)) AS k, dur, n
              FROM vids)
            SELECT i.media_id,
                   CAST(i.k AS INTEGER) AS frame_idx,
                   CAST((i.dur * i.k) // i.n AS INTEGER) AS ts_ms,
                   h.frame_hash
            FROM idx i
            JOIN read_parquet('{os.path.join(_SIDE, "media_frames_fake", "hashes.parquet")}') h
              ON h.media_id = i.media_id AND h.frame_idx = CAST(i.k AS INTEGER)
            ORDER BY i.media_id, frame_idx
        """,
        "doc_token_counts": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens_ws
            FROM documents ORDER BY doc_id
        """,
        "doc_langid": """
            WITH c AS (
              SELECT doc_id,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('the','and','of','is','a'))) AS c_en,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('der','die','und','das','ist'))) AS c_de,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('le','la','et','les','des'))) AS c_fr,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('el','los','las','una','es'))) AS c_es
              FROM documents)
            SELECT doc_id,
              CASE WHEN c_en = 0 AND c_de = 0 AND c_fr = 0 AND c_es = 0 THEN 'und'
                   WHEN c_en >= c_de AND c_en >= c_fr AND c_en >= c_es THEN 'en'
                   WHEN c_de >= c_fr AND c_de >= c_es THEN 'de'
                   WHEN c_fr >= c_es THEN 'fr'
                   ELSE 'es' END AS pred_lang
            FROM c ORDER BY doc_id
        """,
        "doc_quality": f"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_words,
                   round(CASE WHEN trim(text) = '' THEN 0.0 ELSE
                     len(list_filter(regexp_split_to_array(trim(text), '\\s+'),
                                     x -> lower(x) IN {_stopword_sql_list()}))
                     * 1.0 / len(regexp_split_to_array(trim(text), '\\s+')) END, 6) AS stopword_ratio,
                   round(CASE WHEN length(text) = 0 THEN 0.0 ELSE
                     length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) * 1.0 / length(text) END,
                     6) AS alpha_ratio
            FROM documents ORDER BY doc_id
        """,
        "corpus_clean_pipeline": """
            WITH dedup AS (SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text),
            c AS (
              SELECT doc_id, text,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('the','and','of','is','a'))) AS c_en,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('der','die','und','das','ist'))) AS c_de,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('le','la','et','les','des'))) AS c_fr,
                len(list_filter(str_split(lower(text), ' '), x -> x IN ('el','los','las','una','es'))) AS c_es
              FROM dedup),
            langed AS (
              SELECT doc_id, text FROM c
              WHERE NOT (c_en = 0 AND c_de = 0 AND c_fr = 0 AND c_es = 0)
                AND c_en >= c_de AND c_en >= c_fr AND c_en >= c_es)
            SELECT doc_id,
                   len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
            FROM langed
            WHERE CASE WHEN trim(text) = '' THEN 0
                       ELSE len(regexp_split_to_array(trim(text), '\\s+')) END >= 20
            ORDER BY doc_id
        """,
        "dedup_exact_docs": """
            SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text ORDER BY doc_id
        """,
        "chunk_counts": """
            -- replays chunk_text(max_chars=120, overlap=30): prefer the last
            -- sentence terminator in the window (>= step_min//2 = 45), then
            -- the last space, else a hard cut; next start = end - overlap
            WITH RECURSIVE docs2 AS (
              SELECT doc_id, text, length(text) AS n FROM documents
            ),
            st(doc_id, text, n, s, cid) AS (
              SELECT doc_id, text, n, 0, 0 FROM docs2 WHERE n > 120
              UNION ALL
              SELECT doc_id, text, n, nxt, cid + 1 FROM (
                SELECT doc_id, text, n, s, cid,
                  least(s + 120, n) AS e0,
                  substring(text, s + 1, e0 - s) AS w,
                  length(w) AS lw,
                  greatest(
                    CASE WHEN instr(reverse(w), ' .') = 0 THEN -1
                         ELSE lw - instr(reverse(w), ' .') - 1 END,
                    CASE WHEN instr(reverse(w), chr(10) || '.') = 0 THEN -1
                         ELSE lw - instr(reverse(w), chr(10) || '.') - 1 END,
                    CASE WHEN instr(reverse(w), ' !') = 0 THEN -1
                         ELSE lw - instr(reverse(w), ' !') - 1 END,
                    CASE WHEN instr(reverse(w), ' ?') = 0 THEN -1
                         ELSE lw - instr(reverse(w), ' ?') - 1 END
                  ) AS cut,
                  CASE WHEN instr(reverse(w), ' ') = 0 THEN -1
                       ELSE lw - instr(reverse(w), ' ') END AS wsp,
                  CASE WHEN e0 >= n THEN n
                       WHEN cut >= 45 THEN s + cut + 1
                       WHEN wsp >= 45 THEN s + wsp
                       ELSE e0 END AS e,
                  CASE WHEN e >= n THEN n ELSE greatest(e - 30, s + 1) END AS nxt
                FROM st
              ) WHERE e < n
            ),
            counts AS (
              SELECT doc_id, 1 AS n_chunks FROM docs2 WHERE n <= 120
              UNION ALL
              SELECT doc_id, count(*) AS n_chunks FROM st GROUP BY doc_id
            )
            SELECT doc_id, CAST(n_chunks AS BIGINT) AS n_chunks, TRUE AS covered
            FROM counts ORDER BY doc_id
        """,
        "embeddings_rproj": f"""
            -- sign matrix from the splitmix64 chain over i*997+j*131+42,
            -- then y(vec,j) = sum_i v_i * s(i,j) / sqrt(8)
            WITH grid AS (
              SELECT i.i AS i, j.j AS j,
                     CAST(i.i * 997 + j.j * 131 + 42 AS BIGINT) AS gid
              FROM (SELECT unnest(range(0, 64)) AS i) i,
                   (SELECT unnest(range(0, 8)) AS j) j),
            {{sm64}},
            signs AS (SELECT i, j,
                             CAST(1 - 2 * (hv % 2) AS DOUBLE) AS s
                      FROM gh),
            u AS (SELECT vec_id, embedding,
                         unnest(range(1, len(embedding) + 1)) AS p
                  FROM embeddings),
            x AS (SELECT vec_id, CAST(p - 1 AS BIGINT) AS i,
                         CAST(embedding[p] AS DOUBLE) AS v
                  FROM u)
            SELECT x.vec_id, g.j,
                   round(sum(x.v * g.s) / sqrt(8.0), 6) AS y
            FROM x JOIN signs g ON g.i = x.i
            GROUP BY 1, 2 ORDER BY 1, 2
        """.format(sm64=_sm64_sql("grid", "gid", ["i", "j"], prefix="g")),
        "embeddings_quantize": f"""
            WITH {_quant_codes_sql()}
            SELECT vec_id, dim, code FROM codes ORDER BY vec_id, dim
        """,
        "knn_quantized": f"""
            WITH {_quant_codes_sql()},
            s AS (SELECT q.vec_id AS qid, e.vec_id AS nid,
                         sum(q.code * e.code) AS dot
                  FROM codes q JOIN codes e USING (dim)
                  WHERE q.vec_id < {_QUERY_N} GROUP BY 1, 2),
            r AS (SELECT qid, nid, dot,
                         row_number() OVER (PARTITION BY qid
                                            ORDER BY dot DESC, nid ASC)
                           AS rnk
                  FROM s)
            SELECT qid AS query_id, nid AS neighbor_id,
                   CAST(rnk AS BIGINT) AS "rank",
                   CAST(dot AS BIGINT) AS score
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "knn_bruteforce": f"""
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < {_QUERY_N}),
                 s AS (SELECT q.qid, e.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM q CROSS JOIN embeddings e),
                 r AS (SELECT qid, nid, sim,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "dedup_simhash_pairs": f"""
            WITH h AS (SELECT doc_id, h
                       FROM read_parquet('{os.path.join(_SIDE, "dedup_simhash_pairs", "simhash.parquet")}')),
                 p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                              bit_count(xor(a.h, b.h)) AS d
                       FROM h a JOIN h b ON a.doc_id < b.doc_id)
            SELECT id_a, id_b, CAST(d AS DOUBLE) AS score
            FROM p WHERE d <= 3 ORDER BY id_a, id_b
        """,
        "dedup_simhash_docs": f"""
            -- simhash pairs (side-written hashes, exact Hamming join)
            -- -> connected components -> min-id canonical
            WITH RECURSIVE h AS (SELECT doc_id, h FROM read_parquet(
                   '{os.path.join(_SIDE, "dedup_simhash_docs", "simhash.parquet")}')),
            p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
                  FROM h a JOIN h b ON a.doc_id < b.doc_id
                  WHERE bit_count(xor(a.h, b.h)) <= 3),
            edges AS (SELECT id_a AS src, id_b AS dst FROM p
                      UNION ALL SELECT id_b, id_a FROM p),
            reach(id, r) AS (
              SELECT doc_id, doc_id FROM h
              UNION
              SELECT e.dst, reach.r FROM reach
              JOIN edges e ON e.src = reach.id)
            SELECT id AS doc_id, min(r) AS canonical_id
            FROM reach GROUP BY id ORDER BY doc_id
        """,
        "knn_recall_eval": f"""
            -- recall@10 replay: IVF ranking from THIS query's side
            -- tables (the knn_ivf fragment) vs exact brute-force,
            -- overlap counted per query
            WITH a AS (SELECT vec_id, cluster
                       FROM read_parquet('{os.path.join(_SIDE, "knn_recall_eval", "assign.parquet")}')),
                 p AS (SELECT query_id, cluster
                       FROM read_parquet('{os.path.join(_SIDE, "knn_recall_eval", "probes.parquet")}')),
                 q AS (SELECT vec_id AS qid, embedding AS qe
                       FROM embeddings WHERE vec_id < {_QUERY_N}),
                 s1 AS (SELECT p.query_id AS qid, a.vec_id AS nid,
                               list_cosine_similarity(q.qe, e.embedding)
                                   AS sim
                        FROM p JOIN a ON a.cluster = p.cluster
                               JOIN q ON q.qid = p.query_id
                               JOIN embeddings e ON e.vec_id = a.vec_id),
                 r1 AS (SELECT qid, nid,
                               row_number() OVER (PARTITION BY qid
                                   ORDER BY sim DESC, nid ASC) AS rnk
                        FROM s1),
                 ivf AS (SELECT qid, nid FROM r1 WHERE rnk <= 10),
                 s2 AS (SELECT q.qid, e.vec_id AS nid,
                               list_cosine_similarity(q.qe, e.embedding)
                                   AS sim
                        FROM q CROSS JOIN embeddings e),
                 r2 AS (SELECT qid, nid,
                               row_number() OVER (PARTITION BY qid
                                   ORDER BY sim DESC, nid ASC) AS rnk
                        FROM s2),
                 ex AS (SELECT qid, nid FROM r2 WHERE rnk <= 10),
                 ov AS (SELECT ex.qid, count(i.nid) AS n_overlap
                        FROM ex LEFT JOIN ivf i
                          ON i.qid = ex.qid AND i.nid = ex.nid
                        GROUP BY ex.qid)
            SELECT qid AS query_id,
                   CAST(n_overlap AS BIGINT) AS n_overlap,
                   round(n_overlap / 10.0, 6) AS recall
            FROM ov ORDER BY query_id
        """,
        "knn_ivf": f"""
            WITH a AS (SELECT vec_id, cluster
                       FROM read_parquet('{os.path.join(_SIDE, "knn_ivf", "assign.parquet")}')),
                 p AS (SELECT query_id, cluster
                       FROM read_parquet('{os.path.join(_SIDE, "knn_ivf", "probes.parquet")}')),
                 q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < {_QUERY_N}),
                 s AS (SELECT p.query_id AS qid, a.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM p JOIN a ON a.cluster = p.cluster
                              JOIN q ON q.qid = p.query_id
                              JOIN embeddings e ON e.vec_id = a.vec_id),
                 r AS (SELECT qid, nid, sim,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "knn_ivf_exhaustive": f"""
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < {_QUERY_N}),
                 s AS (SELECT q.qid, e.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM q CROSS JOIN embeddings e),
                 r AS (SELECT qid, nid, sim,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "knn_lsh": f"""
            WITH a AS (SELECT vec_id, bucket
                       FROM read_parquet('{os.path.join(_SIDE, "knn_lsh", "assign.parquet")}')),
                 p AS (SELECT query_id, bucket
                       FROM read_parquet('{os.path.join(_SIDE, "knn_lsh", "probes.parquet")}')),
                 q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < {_QUERY_N}),
                 s AS (SELECT p.query_id AS qid, a.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM p JOIN a ON a.bucket = p.bucket
                              JOIN q ON q.qid = p.query_id
                              JOIN embeddings e ON e.vec_id = a.vec_id),
                 r AS (SELECT qid, nid, sim,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "knn_lsh_indexed": f"""
            WITH a AS (SELECT vec_id, bucket
                       FROM read_parquet('{os.path.join(_SIDE, "knn_lsh_indexed", "assign.parquet")}')),
                 p AS (SELECT query_id, bucket
                       FROM read_parquet('{os.path.join(_SIDE, "knn_lsh_indexed", "probes.parquet")}')),
                 q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < {_QUERY_N}),
                 s AS (SELECT p.query_id AS qid, a.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM p JOIN a ON a.bucket = p.bucket
                              JOIN q ON q.qid = p.query_id
                              JOIN embeddings e ON e.vec_id = a.vec_id),
                 r AS (SELECT qid, nid, sim,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "knn_ivf_indexed": f"""
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < {_QUERY_N}),
                 s AS (SELECT q.qid, e.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM q CROSS JOIN embeddings e),
                 r AS (SELECT qid, nid, sim,
                              row_number() OVER (PARTITION BY qid
                                                 ORDER BY sim DESC, nid ASC) AS rnk
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY query_id, "rank"
        """,
        "embedding_label_stats": """
            SELECT label, CAST(count(*) AS BIGINT) AS n,
                   round(avg(sqrt(list_dot_product(embedding, embedding))), 6) AS avg_norm
            FROM embeddings GROUP BY label ORDER BY label
        """,
        "dedup_embedding_pairs": f"""
            WITH aug AS (
              SELECT vec_id, embedding FROM embeddings
              UNION ALL
              SELECT vec_id + {_EMB_DUP_OFFSET} AS vec_id,
                     [2.0 * x FOR x IN embedding] AS embedding
              FROM embeddings
            ),
            s AS (SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                         list_cosine_similarity(a.embedding, b.embedding) AS sim
                  FROM aug a JOIN aug b ON a.vec_id < b.vec_id)
            SELECT id_a, id_b, round(sim, 5) AS score
            FROM s WHERE sim >= 0.98 ORDER BY id_a, id_b
        """,
        "dedup_embedding_docs": f"""
            -- cosine pairs (same augmentation as dedup_embedding_pairs)
            -- -> connected components (recursive reach) -> min-id canonical
            WITH RECURSIVE aug AS (
              SELECT vec_id, embedding FROM embeddings
              UNION ALL
              SELECT vec_id + {_EMB_DUP_OFFSET} AS vec_id,
                     [2.0 * x FOR x IN embedding] AS embedding
              FROM embeddings
            ),
            e0 AS (SELECT a.vec_id AS id_a, b.vec_id AS id_b
                   FROM aug a JOIN aug b ON a.vec_id < b.vec_id
                   WHERE list_cosine_similarity(a.embedding, b.embedding)
                         >= 0.98),
            edges AS (SELECT id_a AS src, id_b AS dst FROM e0
                      UNION ALL SELECT id_b, id_a FROM e0),
            reach(id, r) AS (
              SELECT vec_id, vec_id FROM aug
              UNION
              SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.id
            )
            SELECT id AS vec_id, min(r) AS canonical_id
            FROM reach GROUP BY id ORDER BY vec_id
        """,
        "dedup_ngram_pairs": """
            WITH tri AS (
              SELECT doc_id,
                     CASE WHEN length(t) <= 3 THEN [t]
                          ELSE list_distinct(
                            [substring(t, i, 3) FOR i IN generate_series(1, length(t) - 2)])
                     END AS g
              FROM (SELECT doc_id, ' ' || lower(text) || ' ' AS t FROM documents)
            ),
            p AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) AS la, len(b.g) AS lb
              FROM tri a JOIN tri b ON a.doc_id < b.doc_id
            )
            SELECT id_a, id_b,
                   round(inter * 1.0 / (la + lb - inter), 6) AS score
            FROM p WHERE inter * 1.0 / (la + lb - inter) >= 0.8
            ORDER BY id_a, id_b
        """,
        "dedup_cluster_sizes": """
            WITH RECURSIVE sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) = 0 THEN []
                          WHEN len(w) <= 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct(
                            [array_to_string(w[i:i+2], ' ')
                             FOR i IN generate_series(1, len(w) - 2)])
                     END AS g
              FROM (SELECT doc_id,
                           CASE WHEN trim(text) = '' THEN []
                                ELSE regexp_split_to_array(trim(lower(text)), '\\s+')
                           END AS w
                    FROM documents)
            ),
            p AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) AS la, len(b.g) AS lb
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE len(a.g) > 0 AND len(b.g) > 0
            ),
            e0 AS (SELECT id_a, id_b FROM p
                   WHERE inter * 1.0 / (la + lb - inter) >= 0.8),
            edges AS (SELECT id_a AS src, id_b AS dst FROM e0
                      UNION ALL SELECT id_b, id_a FROM e0),
            reach(id, r) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.id
            ),
            cc AS (SELECT id, min(r) AS canonical_id FROM reach GROUP BY id),
            sz AS (SELECT canonical_id, count(*) AS size
                   FROM cc GROUP BY 1)
            SELECT size, CAST(count(*) AS BIGINT) AS n_clusters
            FROM sz GROUP BY size ORDER BY size
        """,
        "dedup_minhash_docs": """
            WITH RECURSIVE sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) = 0 THEN []
                          WHEN len(w) <= 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct(
                            [array_to_string(w[i:i+2], ' ')
                             FOR i IN generate_series(1, len(w) - 2)])
                     END AS g
              FROM (SELECT doc_id,
                           CASE WHEN trim(text) = '' THEN []
                                ELSE regexp_split_to_array(trim(lower(text)), '\\s+')
                           END AS w
                    FROM documents)
            ),
            p AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) AS la, len(b.g) AS lb
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE len(a.g) > 0 AND len(b.g) > 0
            ),
            e0 AS (SELECT id_a, id_b FROM p
                   WHERE inter * 1.0 / (la + lb - inter) >= 0.8),
            edges AS (SELECT id_a AS src, id_b AS dst FROM e0
                      UNION ALL SELECT id_b, id_a FROM e0),
            reach(id, r) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.id
            )
            SELECT id AS doc_id, min(r) AS canonical_id
            FROM reach GROUP BY id ORDER BY doc_id
        """,
        "agg_lineitem_pricing": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   CAST(count(*) AS BIGINT) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "join_revenue_by_nation": """
            SELECT n.n_name, round(sum(o.o_totalprice), 2) AS revenue,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
                          JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "topk_orders": """
            SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
        """,
        "filter_high_value_lineitems": """
            SELECT l_orderkey, l_linenumber,
                   round(l_extendedprice * (1 - l_discount), 2) AS revenue
            FROM lineitem WHERE l_quantity > 45
            ORDER BY l_orderkey, l_linenumber
        """,
        "distinct_event_types": """
            SELECT DISTINCT event_type FROM events ORDER BY event_type
        """,
        "events_hourly": """
            SELECT event_type,
                   epoch_us(date_trunc('hour', ts)) // 3600000000 AS hour_id,
                   CAST(count(*) AS BIGINT) AS n,
                   round(sum(value), 2) AS sum_value
            FROM events GROUP BY event_type, hour_id ORDER BY event_type, hour_id
        """,
        "events_props_extract": """
            SELECT event_id,
                   CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
            FROM events ORDER BY event_id
        """,
        "events_cube_counts": """
            WITH e AS (SELECT event_type,
                              CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                                AS hour, value
                       FROM events)
            SELECT CAST(0 AS BIGINT) AS gid, '(all)' AS event_type,
                   '(all)' AS hour, CAST(count(*) AS BIGINT) AS n,
                   round(sum(value), 2) AS sum_value FROM e
            UNION ALL
            SELECT 1, event_type, '(all)', count(*), round(sum(value), 2)
            FROM e GROUP BY event_type
            UNION ALL
            SELECT 2, '(all)', CAST(hour AS VARCHAR), count(*),
                   round(sum(value), 2)
            FROM e GROUP BY hour
            UNION ALL
            SELECT 3, event_type, CAST(hour AS VARCHAR), count(*),
                   round(sum(value), 2)
            FROM e GROUP BY event_type, hour
            ORDER BY gid, event_type, hour
        """,
        "events_rolling_avg": """
            SELECT user_id, event_id,
                   round(avg(value) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6)
                     AS rolling_avg,
                   CAST(coalesce(
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id),
                       -1) AS BIGINT) AS gap_us
            FROM events ORDER BY user_id, event_id
        """,
        "events_sessions": """
            WITH x AS (
              SELECT user_id, event_id, ts,
                     CASE WHEN lag(ts) OVER w IS NULL
                               OR ts - lag(ts) OVER w > INTERVAL '30 minutes'
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            y AS (
              SELECT user_id,
                     sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM x
            ),
            z AS (SELECT user_id, sid, count(*) AS n FROM y GROUP BY user_id, sid)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(max(n) AS BIGINT) AS max_session_events
            FROM z GROUP BY user_id ORDER BY user_id
        """,
        "events_user_totals": """
            SELECT user_id, round(sum(value), 2) AS total,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY user_id
            ORDER BY sum(value) DESC, user_id ASC LIMIT 10
        """,
        "slug_part_names": """
            SELECT p_partkey,
                   trim(regexp_replace(lower(p_name), '[^a-z0-9]+', '_', 'g'), '_') AS slug
            FROM part ORDER BY p_partkey
        """,
        "events_asof_attribution": """
            WITH p AS (SELECT user_id, event_id AS p_event_id, epoch_us(ts) AS ts
                       FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, event_id AS c_event_id, epoch_us(ts) AS c_ts,
                              value AS c_value
                       FROM events WHERE event_type = 'click')
            SELECT user_id, p_event_id, ts, c_event_id, round(c_value, 2) AS c_value
            FROM (
              SELECT p.user_id, p.p_event_id, p.ts, c.c_event_id, c.c_value,
                     row_number() OVER (PARTITION BY p.p_event_id
                                        ORDER BY c.c_ts DESC, c.c_event_id DESC) AS rn
              FROM p JOIN c ON c.user_id = p.user_id AND c.c_ts <= p.ts
            ) WHERE rn = 1 ORDER BY p_event_id
        """,
        "events_range_attribution": """
            WITH p AS (SELECT user_id, event_id AS p_event_id, ts
                       FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, ts AS c_ts, value AS c_value
                       FROM events WHERE event_type = 'click')
            SELECT p.user_id, p.p_event_id, epoch_us(p.ts) AS ts,
                   CAST(count(c.c_ts) AS BIGINT) AS n_matched,
                   round(coalesce(sum(c.c_value), 0), 2) AS sum_value
            FROM p LEFT JOIN c
              ON c.user_id = p.user_id
             AND c.c_ts >= p.ts - INTERVAL 1 HOUR AND c.c_ts < p.ts
            GROUP BY p.user_id, p.p_event_id, p.ts ORDER BY p_event_id
        """,
        "events_hopping": """
            WITH e AS (SELECT event_type, value, epoch_us(ts) AS us FROM events),
                 w AS (SELECT e.event_type, e.value,
                              (e.us // 900000000 - g.i) * 900000000 AS window_start
                       FROM e CROSS JOIN range(4) g(i))
            SELECT event_type, window_start, CAST(count(*) AS BIGINT) AS n,
                   round(sum(value), 2) AS sum_value
            FROM w GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "topk_orders_per_customer": """
            SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS o_totalprice,
                   CAST(rn AS BIGINT) AS rank
            FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     row_number() OVER (PARTITION BY o_custkey
                                        ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
              FROM orders
            ) WHERE rn <= 2 ORDER BY o_custkey, rank
        """,
        "lineitem_quantiles": """
            SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
                   round(quantile_cont(l_extendedprice, 0.5), 2) AS q_50,
                   round(quantile_cont(l_extendedprice, 0.95), 2) AS q_95
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "docs_stratified_sample": """
            -- Knuth multiplicative hash rank (curation.py::sample_hash):
            -- (id * 11400714819323198485) mod 2^64, smallest n per group
            WITH h AS (
              SELECT source, doc_id,
                     (CAST(doc_id AS HUGEINT) * 11400714819323198485)
                       % 18446744073709551616 AS hv
              FROM documents),
            r AS (SELECT source, doc_id,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY hv ASC) AS rnk
                  FROM h)
            SELECT source, doc_id, CAST(rnk AS BIGINT) AS sample_rank
            FROM r WHERE rnk <= 20 ORDER BY source, sample_rank
        """,
        "docs_pack_sequences": """
            -- global token prefix sum -> seq_id = tokens_before // budget
            SELECT doc_id, n_chars,
                   CAST(coalesce(sum(n_chars) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) // 2000 AS BIGINT) AS seq_id
            FROM documents ORDER BY doc_id
        """,
        "docs_tfidf_top_terms": """
            WITH terms AS (
              SELECT doc_id, term, count(*) AS tf
              FROM (SELECT doc_id,
                           unnest(list_filter(str_split(lower(text), ' '),
                                              x -> x <> '')) AS term
                    FROM documents)
              GROUP BY doc_id, term),
            dfs AS (SELECT term, count(*) AS df FROM terms GROUP BY term),
            n AS (SELECT count(*) AS n FROM documents),
            scored AS (
              SELECT t.doc_id, t.term, t.tf, d.df,
                     t.tf * (ln((n.n + 1.0) / (d.df + 1.0)) + 1.0) AS tfidf
              FROM terms t JOIN dfs d USING (term) CROSS JOIN n),
            r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                               ORDER BY tfidf DESC, term ASC) AS rnk
                  FROM scored)
            SELECT doc_id, term, CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df, round(tfidf, 6) AS tfidf,
                   CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 3 ORDER BY doc_id, "rank"
        """,
        "docs_repetition_stats": """
            -- Gopher-style repetition fractions, occurrence-weighted
            -- (curation.py::repetition_stats)
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            pos AS (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i
                    FROM words),
            wc AS (SELECT doc_id, max(c) AS topw FROM (
                     SELECT doc_id, w[i] AS t, count(*) AS c
                     FROM pos GROUP BY doc_id, t) GROUP BY doc_id),
            bg AS (SELECT doc_id, max(c) AS topb FROM (
                     SELECT doc_id, w[i] || ' ' || w[i+1] AS g, count(*) AS c
                     FROM pos WHERE i < len(w) GROUP BY doc_id, g)
                   GROUP BY doc_id),
            g5 AS (SELECT doc_id, count(*) AS total,
                          count(DISTINCT g) AS dist FROM (
                     SELECT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            || ' ' || w[i+3] || ' ' || w[i+4] AS g
                     FROM pos WHERE i + 4 <= len(w))
                   GROUP BY doc_id)
            SELECT d.doc_id, CAST(len(d.w) AS BIGINT) AS n_words,
                   round(coalesce(wc.topw / nullif(len(d.w), 0), 0.0), 6)
                     AS top_word_frac,
                   round(coalesce(bg.topb / nullif(len(d.w) - 1, 0), 0.0), 6)
                     AS top_bigram_frac,
                   round(coalesce((g5.total - g5.dist) * 1.0
                                  / nullif(g5.total, 0), 0.0), 6)
                     AS dup_5gram_frac
            FROM words d
            LEFT JOIN wc USING (doc_id) LEFT JOIN bg USING (doc_id)
            LEFT JOIN g5 USING (doc_id)
            ORDER BY d.doc_id
        """,
        "docs_passage_dedup": """
            -- passage-level exact dedup: 32-word non-overlapping windows,
            -- first (doc_id, passage_idx) wins (curation.py::passage_dedup)
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            pos AS (SELECT doc_id, w[i] AS word,
                           CAST((i - 1) // 32 AS BIGINT) AS passage_idx, i
                    FROM (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i
                          FROM words)),
            passages AS (
              SELECT doc_id, passage_idx,
                     string_agg(word, ' ' ORDER BY i) AS ptext,
                     CAST(count(*) AS BIGINT) AS n_words
              FROM pos GROUP BY doc_id, passage_idx),
            ranked AS (
              SELECT doc_id, passage_idx, n_words,
                     row_number() OVER (PARTITION BY ptext
                                        ORDER BY doc_id, passage_idx) AS rn
              FROM passages)
            SELECT doc_id, passage_idx, n_words, (rn = 1) AS keep
            FROM ranked ORDER BY doc_id, passage_idx
        """,
        "docs_dup_ngram_frac": """
            -- 5-gram occurrences; dup = gram appears >= 2 times corpus-wide
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT doc_id,
                     w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                     || ' ' || w[i+4] AS g
              FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
                    FROM words)),
            cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
            per AS (SELECT doc_id, count(*) AS n_grams,
                           sum(CASE WHEN cnt.c >= 2 THEN 1 ELSE 0 END) AS n_dup
                    FROM grams JOIN cnt USING (g) GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(per.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(coalesce(per.n_dup, 0) AS BIGINT) AS n_dup,
                   round(CASE WHEN coalesce(per.n_grams, 0) > 0
                              THEN per.n_dup / per.n_grams ELSE 0.0 END, 6)
                     AS dup_frac
            FROM documents d LEFT JOIN per USING (doc_id)
            ORDER BY d.doc_id
        """,
        "docs_nb_confusion": """
            -- full NB chain: counts on the train split, add-one scores
            -- on the held-out split, argmax with ties to smaller class
            WITH words AS (
              SELECT doc_id, lang,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            tr AS (SELECT * FROM words WHERE doc_id % 10 <> 0),
            ttok AS (SELECT lang, unnest(w) AS term FROM tr),
            model AS (SELECT lang, term, count(*) AS c FROM ttok
                      GROUP BY 1, 2),
            cstat AS (SELECT lang, count(*) AS docs FROM tr GROUP BY 1),
            ctok AS (SELECT lang, count(*) AS tokens FROM ttok GROUP BY 1),
            v AS (SELECT count(DISTINCT term) AS v FROM ttok),
            dt AS (SELECT doc_id, w FROM words WHERE doc_id % 10 = 0),
            dtf AS (SELECT doc_id, term, count(*) AS tf
                    FROM (SELECT doc_id, unnest(w) AS term FROM dt)
                    GROUP BY 1, 2),
            ntok AS (SELECT doc_id, len(w) AS n FROM dt),
            msum AS (SELECT f.doc_id, m.lang,
                            sum(f.tf * ln(m.c + 1.0)) AS m
                     FROM dtf f JOIN model m USING (term) GROUP BY 1, 2),
            fulls AS (
              SELECT n.doc_id, cs.lang,
                     ln(cs.docs / (SELECT CAST(sum(docs) AS DOUBLE)
                                   FROM cstat))
                     - n.n * ln(ct.tokens + (SELECT v FROM v))
                     + coalesce(ms.m, 0.0) AS score
              FROM ntok n CROSS JOIN cstat cs
              JOIN ctok ct ON ct.lang = cs.lang
              LEFT JOIN msum ms ON ms.doc_id = n.doc_id
                               AND ms.lang = cs.lang),
            r AS (SELECT doc_id, lang, score,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY score DESC, lang)
                           AS rnk
                  FROM fulls)
            SELECT d.lang AS actual, r.lang AS pred,
                   CAST(count(*) AS BIGINT) AS n
            FROM r JOIN documents d USING (doc_id)
            WHERE r.rnk = 1 GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "docs_class_terms": """
            -- chi2 over document-presence 2x2 cells; winners by
            -- (chi2 DESC, term ASC), zero-denominator guarded to 0
            WITH words AS (
              SELECT doc_id, lang,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            pres AS (SELECT DISTINCT doc_id, lang, unnest(w) AS term
                     FROM words),
            ct AS (SELECT lang, term, CAST(count(*) AS DOUBLE) AS a
                   FROM pres GROUP BY 1, 2),
            dfq AS (SELECT term, CAST(count(*) AS DOUBLE) AS df
                    FROM pres GROUP BY 1),
            dc AS (SELECT lang, CAST(count(*) AS DOUBLE) AS dcv
                   FROM documents GROUP BY 1),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
            cells AS (
              SELECT ct.lang, ct.term, ct.a,
                     dc.dcv - ct.a AS b, dfq.df - ct.a AS c,
                     (SELECT n FROM nn) - dc.dcv - (dfq.df - ct.a) AS d
              FROM ct JOIN dfq USING (term) JOIN dc USING (lang)),
            chi AS (
              SELECT lang, term,
                     CASE WHEN (a + b) * (c + d) * (a + c) * (b + d) > 0
                          THEN (SELECT n FROM nn)
                               * pow(a * d - b * c, 2)
                               / ((a + b) * (c + d) * (a + c) * (b + d))
                          ELSE 0.0 END AS chi2
              FROM cells),
            r AS (SELECT lang, term, chi2,
                         row_number() OVER (PARTITION BY lang
                                            ORDER BY chi2 DESC, term)
                           AS rnk
                  FROM chi)
            SELECT lang, term, round(chi2, 6) AS chi2,
                   CAST(rnk AS BIGINT) AS "rank"
            FROM r WHERE rnk <= 10 ORDER BY lang, rnk
        """,
        "docs_source_divergence": """
            -- JS(P_source, Q_corpus): absent-term mass = q*ln2 closed
            -- form, sums over the source's own terms only
            WITH words AS (
              SELECT source,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            toks AS (SELECT source, unnest(w) AS term FROM words),
            gt AS (SELECT source, term, count(*) AS c FROM toks
                   GROUP BY 1, 2),
            tgt AS (SELECT source, CAST(sum(c) AS DOUBLE) AS tg FROM gt
                    GROUP BY 1),
            ctt AS (SELECT term, sum(c) AS ct FROM gt GROUP BY 1),
            tt AS (SELECT CAST(sum(c) AS DOUBLE) AS t FROM gt),
            con AS (
              SELECT gt.source,
                     gt.c / tgt.tg AS p,
                     ctt.ct / (SELECT t FROM tt) AS q
              FROM gt JOIN tgt USING (source) JOIN ctt USING (term)),
            sums AS (
              SELECT source,
                     sum(p * ln(p / ((p + q) / 2.0))) AS s1,
                     sum(q * ln(q / ((p + q) / 2.0))) AS s2,
                     sum(q) AS qm, count(*) AS n_terms
              FROM con GROUP BY 1)
            SELECT source, CAST(n_terms AS BIGINT) AS n_terms,
                   round(0.5 * s1 + 0.5 * (s2 + ln(2) * (1 - qm)), 6)
                     AS js
            FROM sums ORDER BY source
        """,
        "docs_nb_classify": """
            -- full NB chain: counts on the train split, add-one scores
            -- on the held-out split, argmax with ties to smaller class
            WITH words AS (
              SELECT doc_id, lang,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            tr AS (SELECT * FROM words WHERE doc_id % 10 <> 0),
            ttok AS (SELECT lang, unnest(w) AS term FROM tr),
            model AS (SELECT lang, term, count(*) AS c FROM ttok
                      GROUP BY 1, 2),
            cstat AS (SELECT lang, count(*) AS docs FROM tr GROUP BY 1),
            ctok AS (SELECT lang, count(*) AS tokens FROM ttok GROUP BY 1),
            v AS (SELECT count(DISTINCT term) AS v FROM ttok),
            dt AS (SELECT doc_id, w FROM words WHERE doc_id % 10 = 0),
            dtf AS (SELECT doc_id, term, count(*) AS tf
                    FROM (SELECT doc_id, unnest(w) AS term FROM dt)
                    GROUP BY 1, 2),
            ntok AS (SELECT doc_id, len(w) AS n FROM dt),
            msum AS (SELECT f.doc_id, m.lang,
                            sum(f.tf * ln(m.c + 1.0)) AS m
                     FROM dtf f JOIN model m USING (term) GROUP BY 1, 2),
            fulls AS (
              SELECT n.doc_id, cs.lang,
                     ln(cs.docs / (SELECT CAST(sum(docs) AS DOUBLE)
                                   FROM cstat))
                     - n.n * ln(ct.tokens + (SELECT v FROM v))
                     + coalesce(ms.m, 0.0) AS score
              FROM ntok n CROSS JOIN cstat cs
              JOIN ctok ct ON ct.lang = cs.lang
              LEFT JOIN msum ms ON ms.doc_id = n.doc_id
                               AND ms.lang = cs.lang),
            r AS (SELECT doc_id, lang, score,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY score DESC, lang)
                           AS rnk
                  FROM fulls)
            SELECT doc_id, lang AS pred_class, round(score, 6) AS score
            FROM r WHERE rnk = 1 ORDER BY doc_id
        """,
        "docs_text_roundtrip": f"""
            -- independent parse of the same text-lines artifact
            SELECT CAST(column0 AS BIGINT) AS doc_id,
                   CAST(length(coalesce(column1, '')) AS BIGINT)
                     AS line_chars
            FROM read_csv(
              '{os.path.join(_SIDE, "docs_text_roundtrip", "lines.txt")}',
              delim='\t', header=false, quote='', escape='',
              columns={{'column0': 'VARCHAR', 'column1': 'VARCHAR'}})
            ORDER BY doc_id
        """,
        "docs_cdc_chunks": f"""
            -- boundaries where (h & 63) = 0 and pos > 0; chunks between
            -- consecutive cuts; dedup on actual chunk BYTES (BLOB
            -- slices), first occurrence in (doc_id, chunk_idx) order
            WITH b AS (
              SELECT doc_id, to_hex(encode(text)) AS bt,
                     octet_length(encode(text)) AS n
              FROM documents WHERE octet_length(encode(text)) > 0),
            cuts AS (
              SELECT doc_id, pos FROM read_parquet(
                '{os.path.join(_SIDE, "docs_cdc_chunks", "win.parquet")}')
              WHERE (h & 63) = 0 AND pos > 0
              UNION ALL SELECT doc_id, 0 FROM b),
            spans AS (
              SELECT c.doc_id, c.pos AS start,
                     lead(c.pos, 1, b.n) OVER (PARTITION BY c.doc_id
                                               ORDER BY c.pos) AS nxt
              FROM cuts c JOIN b USING (doc_id)),
            chunks AS (
              SELECT s.doc_id,
                     row_number() OVER (PARTITION BY s.doc_id
                                        ORDER BY s.start) - 1
                       AS chunk_idx,
                     s.start, s.nxt - s.start AS length,
                     substring(b.bt,
                               CAST(2 * s.start + 1 AS INTEGER),
                               CAST(2 * (s.nxt - s.start) AS INTEGER))
                       AS piece
              FROM spans s JOIN b USING (doc_id)),
            marked AS (
              SELECT doc_id, chunk_idx, start, length,
                     row_number() OVER (PARTITION BY piece
                                        ORDER BY doc_id, chunk_idx) > 1
                       AS is_dup
              FROM chunks)
            SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx,
                   CAST(start AS BIGINT) AS start,
                   CAST(length AS BIGINT) AS length, is_dup
            FROM marked ORDER BY doc_id, chunk_idx
        """,
        "docs_dup_spans": """
            -- merged token spans covered by corpus-duplicated 5-grams
            -- (within-doc repeats count); windows merge when they
            -- overlap OR touch (gap in start positions <= 5)
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT doc_id, i - 1 AS pos,
                     w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                     || ' ' || w[i+4] AS g
              FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
                    FROM words)),
            dup AS (SELECT g FROM grams GROUP BY g HAVING count(*) >= 2),
            hits AS (SELECT doc_id, pos FROM grams
                     WHERE g IN (SELECT g FROM dup)),
            brk AS (
              SELECT doc_id, pos,
                     CASE WHEN coalesce(pos - lag(pos) OVER (
                              PARTITION BY doc_id ORDER BY pos), 999999) > 5
                          THEN 1 ELSE 0 END AS b
              FROM hits),
            isl AS (
              SELECT doc_id, pos,
                     sum(b) OVER (PARTITION BY doc_id ORDER BY pos
                                  ROWS UNBOUNDED PRECEDING) AS gid
              FROM brk)
            SELECT doc_id, CAST(min(pos) AS BIGINT) AS span_start,
                   CAST(max(pos) + 5 AS BIGINT) AS span_end
            FROM isl GROUP BY doc_id, gid
            ORDER BY doc_id, span_start
        """,
        "docs_ngram_novelty": """
            -- distinct-5-gram novelty: gram is novel for the doc with
            -- the corpus-min doc_id among all docs containing it
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id,
                     w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                     || ' ' || w[i+4] AS g
              FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
                    FROM words)),
            firsts AS (SELECT g, min(doc_id) AS first_doc FROM grams
                       GROUP BY g),
            per AS (SELECT doc_id, count(*) AS n_distinct,
                           sum(CASE WHEN doc_id = first_doc
                                    THEN 1 ELSE 0 END) AS n_novel
                    FROM grams JOIN firsts USING (g) GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(per.n_distinct, 0) AS BIGINT) AS n_distinct,
                   CAST(coalesce(per.n_novel, 0) AS BIGINT) AS n_novel,
                   round(CASE WHEN coalesce(per.n_distinct, 0) > 0
                              THEN per.n_novel / per.n_distinct
                              ELSE 0.0 END, 6) AS novelty
            FROM documents d LEFT JOIN per USING (doc_id)
            ORDER BY d.doc_id
        """,
        "docs_decontaminate": """
            -- benchmark 8-gram overlap (curation.py::decontaminate);
            -- benchmark = docs with doc_id % 97 == 0
            WITH words AS (
              SELECT doc_id,
                     list_filter(str_split(lower(text), ' '), x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT doc_id,
                     w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3]
                     || ' ' || w[i+4] || ' ' || w[i+5] || ' ' || w[i+6]
                     || ' ' || w[i+7] AS g
              FROM (SELECT doc_id, w, unnest(range(1, len(w) - 6)) AS i
                    FROM words)),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
            hits AS (SELECT doc_id, count(DISTINCT g) AS ch
                     FROM grams WHERE g IN (SELECT g FROM bench)
                     GROUP BY doc_id)
            SELECT d.doc_id, CAST(coalesce(h.ch, 0) AS BIGINT) AS contam_grams,
                   coalesce(h.ch, 0) > 0 AS contaminated
            FROM documents d LEFT JOIN hits h USING (doc_id)
            ORDER BY d.doc_id
        """,
    }
