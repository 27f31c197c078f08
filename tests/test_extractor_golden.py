"""Golden end-to-end kernel tests: the deterministic extractor must
reproduce the reference corpus's triple sets EXACTLY (P = R = 1.0), the
north-rule P/R >= 0.95 criterion with margin.
"""

import json
import os

import pytest

from text_to_rdf_ray.kernels.extractor import extract_document
from text_to_rdf_ray.kernels.jsonld import (
    flatten_docred,
    flatten_webnlg,
    render_jsonld,
)
from text_to_rdf_ray.kernels.metrics import evaluate
from text_to_rdf_ray.kernels.normalize import normalize_predicate
from text_to_rdf_ray.sources.corpora import DOCRED_FIXTURE, WEBNLG_FIXTURE

WIKIPEDIA_FIXTURE = os.path.join(
    os.path.dirname(WEBNLG_FIXTURE), "wikipedia_marie_curie.txt"
)

WD_MAP = {
    "P17": "addressCountry", "P131": "containedInPlace", "P276": "location",
    "P27": "nationality", "P69": "alumniOf", "P108": "worksFor",
    "P39": "jobTitle", "P102": "memberOf", "P54": "memberOf", "P463": "memberOf",
    "P19": "birthPlace", "P20": "deathPlace", "P569": "birthDate",
    "P570": "deathDate", "P571": "foundingDate", "P576": "dissolutionDate",
    "P37": "language", "P159": "location",
}


def _load_fixture(path):
    # The corpus lives in the reference checkout; without it the tests that
    # read it skip and the fixture-free tests below still run.
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)


def _needs(path):
    return pytest.mark.skipif(
        not os.path.exists(path), reason=f"fixture {path} is missing"
    )


WEBNLG_CASES = _load_fixture(WEBNLG_FIXTURE)
DOCRED_DOCS = _load_fixture(DOCRED_FIXTURE)
needs_webnlg = _needs(WEBNLG_FIXTURE)
needs_docred = _needs(DOCRED_FIXTURE)
needs_wikipedia = _needs(WIKIPEDIA_FIXTURE)


@needs_webnlg
@pytest.mark.parametrize("case", WEBNLG_CASES, ids=[c["id"] for c in WEBNLG_CASES])
def test_webnlg_triples_exact(case):
    ex = extract_document(case["raw_text"])
    predicted = {(t.subj_slug, t.pred, t.obj) for t in ex.triples if not t.nested_in}
    gold = {(t["subject"], t["predicate"], t["object"]) for t in case["expected_triples"]}
    assert predicted == gold


@needs_webnlg
@pytest.mark.parametrize("case", WEBNLG_CASES, ids=[c["id"] for c in WEBNLG_CASES])
def test_webnlg_jsonld_exact(case):
    ex = extract_document(case["raw_text"])
    assert render_jsonld(ex.triples) == case["expected_jsonld"]


def _docred_gold(doc):
    gold = set()
    for lab in doc["labels"]:
        prop = WD_MAP.get(lab["r"])
        if prop is None:
            continue
        subj = doc["vertexSet"][lab["h"]][0]["name"].lower().replace(" ", "_")
        obj = doc["vertexSet"][lab["t"]][0]["name"]
        gold.add((subj, normalize_predicate(prop), obj))
    return gold


@needs_docred
@pytest.mark.parametrize("doc", DOCRED_DOCS, ids=[d["id"] for d in DOCRED_DOCS])
def test_docred_triples_exact(doc):
    text = "\n\n".join(" ".join(s) for s in doc["sents"])
    ex = extract_document(text)
    predicted = {(t.subj_lower, t.pred, t.obj) for t in ex.triples}
    assert predicted == _docred_gold(doc)


@needs_webnlg
@needs_docred
def test_macro_prf_at_least_095():
    per_case = []
    for case in WEBNLG_CASES:
        ex = extract_document(case["raw_text"])
        pred = {(t.subj_slug, t.pred, t.obj) for t in ex.triples if not t.nested_in}
        gold = {(t["subject"], t["predicate"], t["object"]) for t in case["expected_triples"]}
        per_case.append(evaluate(pred, gold))
    for doc in DOCRED_DOCS:
        text = "\n\n".join(" ".join(s) for s in doc["sents"])
        ex = extract_document(text)
        pred = {(t.subj_lower, t.pred, t.obj) for t in ex.triples}
        per_case.append(evaluate(pred, _docred_gold(doc)))
    precision = sum(m.precision for m in per_case) / len(per_case)
    recall = sum(m.recall for m in per_case) / len(per_case)
    assert precision >= 0.95 and recall >= 0.95


def test_flatteners_mirror_reference_flavors():
    # WebNLG flavor keeps root-level facts only (integration_tests.rs:70-110)
    ex = extract_document("Aarhus Airport serves the city of Aarhus, Denmark.")
    doc = render_jsonld(ex.triples)
    assert flatten_webnlg(doc) == {("Aarhus Airport", "locat", "Aarhus")}
    # DocRED flavor promotes nested properties (docred_evaluation.rs:251-327)
    assert flatten_docred(doc) == {
        ("aarhus_airport", "locat", "Aarhus"),
        ("aarhus_airport", "addresscountri", "Denmark"),
    }


@needs_docred
def test_determinism_same_input_same_output():
    text = "\n\n".join(" ".join(s) for s in DOCRED_DOCS[1]["sents"])
    a = extract_document(text)
    b = extract_document(text)
    assert [(t.subj, t.pred, t.obj) for t in a.triples] == [
        (t.subj, t.pred, t.obj) for t in b.triples
    ]


def test_chunked_long_document_extraction():
    from text_to_rdf_ray.sources.fixtures import long_document

    ex = extract_document(long_document(3))
    assert ex.n_chunks > 1
    subjects = {t.subj_lower for t in ex.triples}
    assert "grace_bean" in subjects  # cross-chunk entity persisted via KB


@needs_wikipedia
def test_wikipedia_article_smoke():
    """Real Wikipedia fixture (reference examples corpus): the extractor
    stays well-formed at article scale — chunked, heavy coref, sane
    subjects (no pronoun/award/adjective subjects)."""
    with open(WIKIPEDIA_FIXTURE) as f:
        text = f.read()
    ex = extract_document(text)
    assert ex.n_chunks > 10
    assert ex.n_pronouns_resolved > 100
    assert len(ex.entities) > 100
    subjects = {t.subj_lower for t in ex.triples}
    assert any("curie" in s for s in subjects)
    banned = {"she", "he", "it", "they", "nobel_prizes"}
    assert not subjects & banned
