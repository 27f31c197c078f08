"""Evaluation pipeline: predicted vs gold triples as distributed joins.

Mirrors the reference's set-intersection metrics (integration_tests.rs:34-67)
at Dataset scale: TP = semi join on (subj, pred, obj), FP/FN = anti joins
(SURVEY.md J6), macro-average per case (webnlg_evaluation.rs:113-133).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..kernels.metrics import EvaluationMetrics, evaluate, macro_average


def evaluate_datasets(
    predicted: rd.Dataset,
    expected: rd.Dataset,
    *,
    case_col: str = "case_id",
    cols: tuple[str, str, str] = ("subj", "pred", "obj"),
) -> dict:
    """Distributed per-case P/R/F1: tag sides, groupby (case, s, p, o),
    classify TP/FP/FN by side presence, aggregate per case, macro-average.

    One shuffle; no driver-side row iteration beyond the per-case summary.
    """
    s, p, o = cols

    def tag(side):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table({
                case_col: batch.column(case_col),
                "s": batch.column(s),
                "p": batch.column(p),
                "o": batch.column(o),
                "pred_n": pa.array(np.full(n, side == "pred", np.int64)),
                "exp_n": pa.array(np.full(n, side == "exp", np.int64)),
            })

        return fn

    # the two sides are the exchange's two sources, tagged in the tasks
    # that split their blocks
    tagged = [(predicted, tag("pred")), (expected, tag("exp"))]

    # one hash exchange per reduce, vectorized across keys — NOT one
    # Python map_groups call per (case, s, p, o) triple (the Ray 2.49
    # per-key pathology; large eval corpora have millions of triples)
    from ..stages.exchange import exchange_agg

    per_triple = exchange_agg(
        tagged, [case_col, "s", "p", "o"],
        [("pred_n", "max", "has_pred"), ("exp_n", "max", "has_exp")],
    )

    def classify_vec(t: pa.Table) -> pa.Table:
        hp = t.column("has_pred").to_numpy(zero_copy_only=False).astype(bool)
        he = t.column("has_exp").to_numpy(zero_copy_only=False).astype(bool)
        return pa.table({
            case_col: t.column(case_col),
            "tp": pa.array((hp & he).astype("int64")),
            "fp": pa.array((hp & ~he).astype("int64")),
            "fn": pa.array((~hp & he).astype("int64")),
        })

    per_case = exchange_agg(
        per_triple.map_batches(classify_vec, batch_format="pyarrow"),
        case_col,
        [("tp", "sum"), ("fp", "sum"), ("fn", "sum")],
    ).to_pandas()
    metrics = []
    for _, row in per_case.sort_values(case_col).iterrows():
        tp, fp, fn = int(row["tp"]), int(row["fp"]), int(row["fn"])
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metrics.append(EvaluationMetrics(precision, recall, f1, tp, fp, fn))
    summary = macro_average(metrics)
    summary["micro_tp"] = sum(m.true_positives for m in metrics)
    summary["micro_fp"] = sum(m.false_positives for m in metrics)
    summary["micro_fn"] = sum(m.false_negatives for m in metrics)
    return summary


def evaluate_fixture_corpus(return_sets: bool = False):
    """P/R/F1 of the deterministic pipeline against the reference corpus
    (WebNLG test_cases.json + DocRED samples) — driver-side sets (tiny).

    ``return_sets=True`` additionally returns the per-case predicted and
    gold triple sets as ``(case_id, subj, pred, obj)`` row lists plus the
    full case-id list — the side tables the DuckDB oracle replays the
    set-intersection metrics over."""
    import json

    from ..kernels.extractor import extract_document
    from ..kernels.normalize import normalize_predicate

    WD = {
        "P17": "addressCountry", "P131": "containedInPlace", "P276": "location",
        "P27": "nationality", "P69": "alumniOf", "P108": "worksFor",
        "P39": "jobTitle", "P102": "memberOf", "P54": "memberOf",
        "P463": "memberOf", "P19": "birthPlace", "P20": "deathPlace",
        "P569": "birthDate", "P570": "deathDate", "P571": "foundingDate",
        "P576": "dissolutionDate", "P37": "language", "P159": "location",
    }
    per_case = []
    pred_rows: list[tuple] = []
    gold_rows: list[tuple] = []
    case_ids: list[str] = []

    def record(case_id: str, pred: set, gold: set) -> None:
        case_ids.append(case_id)
        pred_rows.extend((case_id, s, p, o) for s, p, o in sorted(pred))
        gold_rows.extend((case_id, s, p, o) for s, p, o in sorted(gold))
        per_case.append(evaluate(pred, gold))

    with open("/root/reference/tests/fixtures/test_cases.json") as f:
        for case in json.load(f):
            ex = extract_document(case["raw_text"])
            pred = {(t.subj_slug, t.pred, t.obj) for t in ex.triples if not t.nested_in}
            gold = {
                (t["subject"], t["predicate"], t["object"])
                for t in case["expected_triples"]
            }
            record(f"webnlg:{case['id']}", pred, gold)
    with open("/root/reference/tests/fixtures/docred_sample.json") as f:
        for doc in json.load(f):
            text = "\n\n".join(" ".join(s) for s in doc["sents"])
            gold = set()
            for lab in doc["labels"]:
                sp = WD.get(lab["r"])
                if not sp:
                    continue
                subj = doc["vertexSet"][lab["h"]][0]["name"].lower().replace(" ", "_")
                obj = doc["vertexSet"][lab["t"]][0]["name"]
                gold.add((subj, normalize_predicate(sp), obj))
            ex = extract_document(text)
            pred = {(t.subj_lower, t.pred, t.obj) for t in ex.triples}
            record(f"docred:{doc['id']}", pred, gold)
    summary = macro_average(per_case)
    if return_sets:
        return summary, pred_rows, gold_rows, case_ids
    return summary
