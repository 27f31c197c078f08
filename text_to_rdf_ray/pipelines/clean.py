"""Partitioned, resumable training-corpus cleaning pipeline.

The production layout of the corpus-clean composite (exact dedup ->
language ID -> quality/length filter -> token stats) for a 100-TB corpus:

1. ``run_clean_partitioned``: input parquet files hash into partition
   groups; each group runs the embarrassingly-parallel per-document stages
   (lang ID, quality filters, token counts, content hash) and commits its
   output atomically with a manifest (state/manifest.py) — a failed run
   resumes by skipping complete partitions.  No cross-partition exchange
   happens here, so partitions are independently retryable.
2. ``compact_clean``: the one global exchange, LAST — exact dedup across
   all completed partitions by content hash (groupby-min over the already
   heavily filtered survivors), writing the final cleaned corpus.  At
   100 TB this is the cheap step: it reads cleaned survivors, not raw
   input.

CLI: ``python -m text_to_rdf_ray.clean --docs <dir> --out <dir>``.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data as rd


def _clean_batch(batch: pa.Table, *, min_tokens: int, lang: str) -> pa.Table:
    """Per-document stages, one pass: language ID -> token/length filter ->
    stats + content hash columns.  Row-parallel; no state."""
    from ..kernels.textstats import lang_id, quality_score, token_count_ws
    from ..stages.dedup import _text_hash64

    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out = {"doc_id": [], "text": [], "n_tokens": [], "alpha_ratio": [],
           "content_hash": []}
    keep_texts = []
    for i, t in zip(ids, texts):
        if lang_id(t) != lang:
            continue
        n = token_count_ws(t)
        if n < min_tokens:
            continue
        q = quality_score(t)
        out["doc_id"].append(i)
        out["n_tokens"].append(n)
        out["alpha_ratio"].append(q["alpha_ratio"])
        keep_texts.append(t)
    out["text"] = keep_texts
    out["content_hash"] = _text_hash64(keep_texts)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "text": pa.array(out["text"], pa.string()),
            "n_tokens": pa.array(out["n_tokens"], pa.int64()),
            "alpha_ratio": pa.array(out["alpha_ratio"], pa.float64()),
            "content_hash": pa.array(out["content_hash"], pa.int64()),
        }
    )


def run_clean_partitioned(
    docs_path: str,
    out_dir: str,
    *,
    partitions: int = 8,
    min_tokens: int = 20,
    lang: str = "en",
    resume: bool = True,
) -> dict:
    """Per-partition cleaning with atomic manifests; see module docstring."""
    from ..state import manifest as mf

    files = sorted(
        os.path.join(docs_path, f)
        for f in os.listdir(docs_path)
        if f.endswith(".parquet")
    ) if os.path.isdir(docs_path) else [docs_path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {docs_path}")
    groups: list[list[str]] = [[] for _ in range(partitions)]
    for i, f in enumerate(files):
        groups[i % partitions].append(f)

    report = {"partitions": partitions, "skipped": 0, "ran": 0}
    for part, group in enumerate(groups):
        if not group:
            continue
        if resume and mf.resumable(out_dir, part, group):
            report["skipped"] += 1
            continue
        docs = rd.read_parquet(group, columns=["doc_id", "text"])
        docs_in = docs.count()
        cleaned = docs.map_batches(
            lambda t: _clean_batch(t, min_tokens=min_tokens, lang=lang),
            batch_format="pyarrow",
        ).materialize()
        kept = cleaned.count()

        def write_fn(tmp_dir, cleaned=cleaned, kept=kept):
            cleaned.write_parquet(tmp_dir)
            return {"rows": kept}

        mf.write_partition(
            out_dir, part, write_fn,
            input_fragments=group,
            counters={"docs_in": docs_in, "docs_kept": kept},
        )
        report["ran"] += 1
    report["counters"] = mf.aggregate_counters(out_dir)
    return report


def compact_clean(out_dir: str, final_dir: str) -> dict:
    """Global exact dedup across completed partitions (content hash
    groupby-min, the one all-to-all exchange), writing the final corpus."""
    from ..stages.exchange import exchange_agg
    from ..state import manifest as mf

    parts = mf.completed_partitions(out_dir)
    if not parts:
        raise FileNotFoundError(f"no completed partitions under {out_dir}")
    files = []
    for part in parts:
        pdir = mf.partition_dir(out_dir, part)
        files.extend(
            os.path.join(pdir, n) for n in os.listdir(pdir) if n.endswith(".parquet")
        )
    cleaned = rd.read_parquet(files)
    rows_in = cleaned.count()

    def cast(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": t.column("text").cast(pa.string()),
            "n_tokens": t.column("n_tokens").cast(pa.int64()),
            "alpha_ratio": t.column("alpha_ratio").cast(pa.float64()),
        })

    deduped = exchange_agg(
        cleaned, "content_hash",
        [(c, "min") for c in ("doc_id", "text", "n_tokens", "alpha_ratio")],
        num_partitions=64,
    ).map_batches(cast, batch_format="pyarrow").materialize()
    rows_out = deduped.count()
    # replace, don't append: a rerun (the resume workflow re-compacts) would
    # otherwise add a second set of uniquely-named files beside the first
    import shutil

    if os.path.isdir(final_dir):
        shutil.rmtree(final_dir)
    os.makedirs(final_dir, exist_ok=True)
    deduped.write_parquet(final_dir)
    return {"partitions": len(parts), "rows_in": rows_in, "rows_out": rows_out}
