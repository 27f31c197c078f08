"""KnowledgeBuffer, entity linker, validation, metrics kernels."""

from text_to_rdf_ray.kernels.knowledge import KnowledgeBuffer
from text_to_rdf_ray.kernels.linker import KBIndex, jaro_winkler
from text_to_rdf_ray.kernels.metrics import evaluate, macro_average
from text_to_rdf_ray.kernels.validation import validate_document


def test_kb_first_write_wins():
    # knowledge_buffer.rs:40-51
    kb = KnowledgeBuffer()
    kb.register("Marie Curie", "Person", 0)
    kb.register("Marie Curie", "Organization", 50)  # ignored
    assert kb.get("marie curie").kind == "Person"
    assert kb.get("MARIE CURIE").first_offset == 0
    assert len(kb) == 1


def test_kb_alias_resolution():
    # knowledge_buffer.rs:54-63, 110-120
    kb = KnowledgeBuffer()
    kb.register("Marie Curie", "Person", 0)
    kb.add_alias("She", "Marie Curie")
    assert kb.get("she").canonical_name == "Marie Curie"


def test_kb_last_of_kind():
    # knowledge_buffer.rs:124-130
    kb = KnowledgeBuffer()
    kb.register("Acme Corp", "Organization", 0)
    kb.register("Globex Corp", "Organization", 100)
    assert kb.last_of_kind({"Organization"}).canonical_name == "Globex Corp"
    assert kb.last_of_kind({"Organization"}, before=50).canonical_name == "Acme Corp"


def test_kb_kind_aware_resolve():
    kb = KnowledgeBuffer()
    kb.register("Stanford University", "EducationalOrganization", 0)
    kb.register("Leland Stanford", "Person", 40)
    kb.register("Stanford", "Place", 20)
    # org slot -> university, despite exact Place match and Person containment
    assert (
        kb.resolve("Stanford", expected_kind="EducationalOrganization").canonical_name
        == "Stanford University"
    )
    # place slot -> the exact Place entity
    assert kb.resolve("Stanford", expected_kind="Place").canonical_name == "Stanford"


def test_kb_context_summary():
    kb = KnowledgeBuffer()
    kb.register("Marie Curie", "Person", 0)
    kb.add_alias("She", "Marie Curie")
    s = kb.context_summary()
    assert "Marie Curie" in s and "She" in s


def test_jaro_winkler_strsim_values():
    # strsim crate semantics: prefix scale 0.1, max prefix 4
    assert jaro_winkler("", "") == 1.0
    assert jaro_winkler("abc", "abc") == 1.0
    assert jaro_winkler("abc", "xyz") == 0.0
    assert abs(jaro_winkler("martha", "marhta") - 0.9611111) < 1e-6
    assert abs(jaro_winkler("dixon", "dicksonx") - 0.8133333) < 1e-6


KB = [
    {"uri": "https://kb.test/resource/alan-bean", "label": "Alan Bean",
     "aliases": ["Alan Bea"], "types": ["Person"]},
    {"uri": "https://kb.test/resource/apple-fruit", "label": "Apple",
     "aliases": [], "types": ["Thing"]},
    {"uri": "https://kb.test/resource/apple-inc", "label": "Apple",
     "aliases": ["Apple Inc"], "types": ["Organization"]},
]


def test_linker_exact_confidence_095():
    # entity_linker.rs:360-369
    idx = KBIndex(KB)
    link = idx.link("alan bean")
    assert link.uri == "https://kb.test/resource/alan-bean"
    assert link.confidence == 0.95


def test_linker_fuzzy_jaro_winkler():
    # entity_linker.rs:371-387: fuzzy >= 0.8, confidence = similarity
    idx = KBIndex(KB)
    link = idx.link("Alan Beam")  # typo
    assert link is not None and link.uri == "https://kb.test/resource/alan-bean"
    assert link.confidence >= 0.8  # raw JW similarity (may exceed the 0.95 exact score)


def test_linker_deterministic_ambiguous_tiebreak():
    # two KB entries share label "Apple": conf ties broken by uri asc
    idx = KBIndex(KB)
    link = idx.link("Apple")
    assert link.uri == "https://kb.test/resource/apple-fruit"


def test_linker_below_threshold_none():
    idx = KBIndex(KB)
    assert idx.link("Zzzzqqq") is None
    assert idx.link("") is None


def test_link_join_mode_exact_fuzzy_nomatch(ray_session):
    """Shuffle-join linker parity with the in-memory index across all three
    outcomes: exact hit, fuzzy (Jaro-Winkler) hit, and no match."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.kg_stages import link_entities_join

    surfaces = ["Alan Bean", "Alan Beam", "Apple", "Zzzzqqq"]
    n = len(surfaces)
    triples = rd.from_arrow(pa.table({
        "url": [f"u{i}" for i in range(n)],
        "subj": surfaces,
        "subj_slug": [""] * n, "subj_lower": [""] * n,
        "pred": ["knows"] * n, "pred_key": ["knows"] * n,
        "obj": ["Apple"] * n,
        "subj_type": ["Person"] * n, "obj_type": ["Organization"] * n,
        "nested_in": [""] * n,
        "chunk_id": pa.array([0] * n, pa.int32()),
        "span_start": pa.array([0] * n, pa.int64()),
        "span_end": pa.array([1] * n, pa.int64()),
        "confidence": [1.0] * n, "method": ["test"] * n,
    }))
    out = link_entities_join(triples, KB).to_pandas().set_index("subj")
    idx = KBIndex(KB)
    for s in surfaces:
        expect = idx.link(s)
        got_uri = out.loc[s, "subj_uri"]
        got_conf = out.loc[s, "subj_link_conf"]
        if expect is None:
            assert got_uri is None and got_conf == 0.0, s
        else:
            assert got_uri == expect.uri, s
            assert abs(got_conf - expect.confidence) < 1e-9, s
        # entity objects link through the same map
        assert out.loc[s, "obj_uri"] == idx.link("Apple").uri


def test_linker_disambiguator_plug_point():
    """entity_linker.rs:409-479: a pluggable disambiguator is consulted only
    when >= min_candidates_for_llm candidates survive; the deterministic
    tie-break remains the fallback when it declines (returns None)."""
    calls = []

    def pick_last(surface, candidates):
        calls.append((surface, [c.uri for c in candidates]))
        return candidates[-1]

    idx = KBIndex(KB, disambiguator=pick_last)
    link = idx.link("Apple")  # ambiguous: two KB entries share the label
    assert len(calls) == 1 and calls[0][0] == "Apple"
    assert link.uri == calls[0][1][-1] != "https://kb.test/resource/apple-fruit"

    # unambiguous surface: the disambiguator must NOT be consulted
    calls.clear()
    link = idx.link("alan bean")
    assert calls == [] and link.uri == "https://kb.test/resource/alan-bean"

    # declining disambiguator -> deterministic top-1 fallback
    idx2 = KBIndex(KB, disambiguator=lambda s, c: None)
    assert idx2.link("Apple").uri == "https://kb.test/resource/apple-fruit"


def test_validate_triples_relational_parity():
    """Relational stage mirrors validation.rs:120-160: name-required types
    with an empty surface are Error (-0.2, invalid regardless of score);
    registered custom rules are consumed with their confidence impact."""
    import pyarrow as pa

    from text_to_rdf_ray.functions.registry import ValidationRule
    from text_to_rdf_ray.stages.kg_stages import validate_triples

    def row(subj, subj_type, pred_key, obj, obj_type):
        return {"subj": subj, "subj_type": subj_type, "pred_key": pred_key,
                "obj": obj, "obj_type": obj_type, "confidence": 1.0}

    rows = [
        row("Alan Bean", "Person", "birthDate", "1932-03-15", ""),   # clean
        row("", "Person", "birthDate", "1932-03-15", ""),            # missing name -> Error
        row("Alan Bean", "Person", "birthDate", "March 15", ""),     # bad date -> warning
        row("Alan Bean", "Person", "url", "http:bad", ""),           # bad uri -> warning
        row("", "Thing", "x", "y", ""),                              # empty subj, non-required type
        row("Org", "Organization", "member", "", "Person"),          # empty entity obj -> Error
    ]
    batch = pa.table({k: [r[k] for r in rows] for k in rows[0]})
    out = validate_triples(batch)
    conf = out.column("confidence").to_pylist()
    valid = out.column("valid").to_pylist()
    assert conf[0] == 1.0 and valid[0]
    assert abs(conf[1] - 0.8) < 1e-9 and not valid[1]  # Error invalidates
    assert abs(conf[2] - 0.95) < 1e-9 and valid[2]
    assert abs(conf[3] - 0.9) < 1e-9 and valid[3]
    assert conf[4] == 1.0 and valid[4]  # only the 4 schema.org types require name
    assert abs(conf[5] - 0.8) < 1e-9 and not valid[5]

    # custom rule consumption (the add_rule plug point, relational row view)
    rule = ValidationRule(
        name="person_birthdate_pred", description="",
        entity_type="Person",
        check_fn=lambda r: r["pred_key"] != "deathDate",
        confidence_impact=-0.4, severity="Warning",
    )
    batch2 = pa.table({k: [v] for k, v in row(
        "Alan Bean", "Person", "deathDate", "2018-05-26", "").items()})
    out2 = validate_triples(batch2, rules=(rule,))
    assert abs(out2.column("confidence").to_pylist()[0] - 0.6) < 1e-9
    assert out2.column("valid").to_pylist()[0] is False  # 0.6 < 0.7


def test_validation_reference_arithmetic():
    # validation.rs:183-298
    ok = {"@context": "https://schema.org/", "@type": "Person", "name": "X",
          "birthDate": "1932-03-15"}
    res = validate_document(ok)
    assert res.valid and res.confidence == 1.0

    bad_date = dict(ok, birthDate="March 15, 1932")
    res = validate_document(bad_date)
    assert abs(res.confidence - 0.95) < 1e-9 and res.valid  # warning only

    no_name = {"@context": "https://schema.org/", "@type": "Person"}
    res = validate_document(no_name)
    assert not res.valid and abs(res.confidence - 0.8) < 1e-9

    no_context = {"@type": "Person", "name": "X"}
    res = validate_document(no_context)
    assert not res.valid and res.confidence == 0.5

    bad_uri = dict(ok, **{"@id": "not-a-uri"})
    res = validate_document(bad_uri)
    assert abs(res.confidence - 0.9) < 1e-9


def test_validate_triples_confidence_arithmetic():
    import pyarrow as pa

    from text_to_rdf_ray.stages.kg_stages import validate_triples

    rows = pa.table({
        "subj": ["Alan Bean", "Alan Bean", ""],
        "subj_type": ["Person", "Person", "Person"],
        "pred_key": ["birthDate", "birthDate", "x"],
        "obj": ["1932-03-15", "bad", "y"],
        "obj_type": ["", "", ""],
        "confidence": [1.0, 1.0, 1.0]})
    conf = validate_triples(rows).column("confidence").to_pylist()
    assert conf[0] == 1.0
    assert abs(conf[1] - 0.95) < 1e-9  # malformed date literal
    assert abs(conf[2] - 0.8) < 1e-9  # missing subject name


def test_metrics_reference_math():
    # integration_tests.rs:144-204
    pred = {("a", "p", "1"), ("a", "q", "2")}
    gold = {("a", "p", "1"), ("a", "r", "3")}
    m = evaluate(pred, gold)
    assert m.true_positives == 1 and m.false_positives == 1 and m.false_negatives == 1
    assert m.precision == 0.5 and m.recall == 0.5 and m.f1_score == 0.5
    assert evaluate(set(), set()).f1_score == 0.0
    avg = macro_average([m, evaluate(gold, gold)])
    assert abs(avg["f1_score"] - 0.75) < 1e-9


def test_ttl_cache_expiry_and_bound():
    """ST5 cache shape: entries expire after ttl_s (injectable clock) and
    the size bound evicts FIFO; hits never change lookup results."""
    from text_to_rdf_ray.functions.ttl_cache import TTLCache

    now = [0.0]
    c = TTLCache(ttl_s=10, max_entries=3, clock=lambda: now[0])
    c["a"] = 1
    assert c.get("a") == 1 and "a" in c
    now[0] = 9.9
    assert c.get("a") == 1
    now[0] = 10.1
    assert c.get("a") is None and "a" not in c  # expired

    now[0] = 0.0
    for k in ("x", "y", "z", "w"):  # w evicts x (FIFO)
        c[k] = k.upper()
    assert c.get("x") is None and c.get("w") == "W" and len(c) == 3

    # the linker path uses it transparently
    import pyarrow as pa

    from text_to_rdf_ray.stages.kg_stages import _link_batch

    idx = KBIndex(KB)
    batch = pa.table({"subj": ["Alan Bean", "Alan Bean"], "obj": ["x", "y"],
                      "obj_type": ["", ""]})
    cache = TTLCache(clock=lambda: 0.0)
    out = _link_batch(idx, cache, batch)
    assert out.column("subj_uri").to_pylist() == [
        "https://kb.test/resource/alan-bean"] * 2
    assert len(cache) >= 1


def test_link_join_mode_fuzzy_only_kb(ray_session):
    """Regression: a corpus where NO surface has an exact KB hit must not
    crash the join linker (the empty exact side previously fed the
    anti-join schema-less blocks)."""
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.kg_stages import link_entities_join

    surfaces = ["Alan Beam", "Zzzzqqq"]  # fuzzy hit + no hit, zero exact
    n = len(surfaces)
    triples = rd.from_arrow(pa.table({
        "url": [f"u{i}" for i in range(n)], "subj": surfaces,
        "subj_slug": [""] * n, "subj_lower": [""] * n,
        "pred": ["x"] * n, "pred_key": ["x"] * n,
        "obj": ["1990-01-01"] * n,
        "subj_type": ["Person"] * n, "obj_type": [""] * n,
        "nested_in": [""] * n,
        "chunk_id": pa.array([0] * n, pa.int32()),
        "span_start": pa.array([0] * n, pa.int64()),
        "span_end": pa.array([1] * n, pa.int64()),
        "confidence": [1.0] * n, "method": ["t"] * n,
    }))
    out = link_entities_join(triples, KB).to_pandas().set_index("subj")
    idx = KBIndex(KB)
    assert out.loc["Alan Beam", "subj_uri"] == idx.link("Alan Beam").uri
    assert out.loc["Zzzzqqq", "subj_uri"] is None


def test_jaro_winkler_batch_parity_scalar():
    """The vectorized scoring kernel must be bit-identical to the scalar
    jaro_winkler on fixture surfaces, classic JW test pairs, and random
    strings (including empties, ties, repeats, unicode)."""
    import json
    import random

    import numpy as np

    from text_to_rdf_ray.kernels.linker import jaro_winkler, jaro_winkler_batch

    pairs = [
        ("", ""), ("", "abc"), ("abc", ""), ("abc", "abc"),
        ("martha", "marhta"), ("dixon", "dicksonx"),
        ("jellyfish", "smellyfish"), ("ab", "ba"), ("crate", "trace"),
        ("a" * 40, "a" * 39 + "b"), ("münchen", "munchen"),
    ]
    # fixture surfaces x a few KB-label-like variants
    try:
        cases = json.load(open("/root/reference/tests/fixtures/test_cases.json"))
        names = []
        for c in cases if isinstance(cases, list) else cases.get("cases", []):
            s = str(c)[:60].lower()
            names.append(s)
        for a in names[:30]:
            for b in names[:10]:
                pairs.append((a, b))
    except Exception:
        pass
    rng = random.Random(99)
    alph = "abcdefg -'é"
    for _ in range(2000):
        a = "".join(rng.choice(alph) for _ in range(rng.randint(0, 20)))
        b = "".join(rng.choice(alph) for _ in range(rng.randint(0, 20)))
        pairs.append((a, b))
    got = jaro_winkler_batch([p[0] for p in pairs], [p[1] for p in pairs],
                             chunk=313)
    want = np.array([jaro_winkler(a, b) for a, b in pairs])
    assert np.max(np.abs(got - want)) < 1e-12


def test_link_join_same_rows_at_every_partition_count(ray_session,
                                                      sized_and_capped):
    """link_entities_join gives the same rows with its exchanges at the
    sized P=1 and at the num_partitions cap."""
    import random

    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    from text_to_rdf_ray.stages.kg_stages import link_entities_join

    rnd = random.Random(11)
    syll = ["ka", "lo", "mer", "sin", "dra", "vel", "ton", "ari", "bel"]
    names = sorted({" ".join("".join(rnd.sample(syll, 2)).title()
                             for _ in range(2)) for _ in range(40)})
    kb = [{"uri": f"https://kb.test/resource/e{i}", "label": nm,
           "aliases": [], "types": ["Person"]} for i, nm in enumerate(names)]

    def variant(nm: str) -> str:
        r = rnd.random()
        if r < 0.4:
            return nm
        if r < 0.8:  # one-char edit: a fuzzy candidate
            i = rnd.randrange(1, len(nm))
            return nm[:i] + "x" + nm[i + 1:]
        return "Zq" + nm[::-1]

    n = 120
    subj = [variant(rnd.choice(names)) for _ in range(n)]
    obj = [variant(rnd.choice(names)) for _ in range(n)]
    triples = rd.from_arrow(pa.table({
        "url": [f"u{i}" for i in range(n)], "subj": subj,
        "subj_slug": [""] * n, "subj_lower": [""] * n,
        "pred": ["knows"] * n, "pred_key": ["knows"] * n, "obj": obj,
        "subj_type": ["Person"] * n, "obj_type": ["Person"] * n,
        "nested_in": [""] * n,
        "chunk_id": pa.array([0] * n, pa.int32()),
        "span_start": pa.array([0] * n, pa.int64()),
        "span_end": pa.array([1] * n, pa.int64()),
        "confidence": [1.0] * n, "method": ["t"] * n,
    })).repartition(3).materialize()

    def run():
        return (link_entities_join(triples, kb, num_partitions=8)
                .to_pandas().sort_values("url").reset_index(drop=True))

    (sized, p_sized), (capped, p_capped) = sized_and_capped(run)
    assert p_sized == [1] and p_capped == [8], (p_sized, p_capped)
    pd.testing.assert_frame_equal(capped, sized)
    conf = sized["subj_link_conf"]
    # exact, fuzzy and unlinked subjects are all present
    assert (conf == 0.95).any() and ((conf > 0) & (conf != 0.95)).any()
    assert sized["subj_uri"].isna().any()


def test_link_task_builds_one_index_per_worker(ray_session, monkeypatch):
    """Task-mode linking keeps its KB index in the worker's module, not
    in a copy pickled with each task: two deserialized copies of one
    link function build one KBIndex, and a new KB replaces the entry."""
    import cloudpickle
    import pyarrow as pa
    import ray

    from text_to_rdf_ray.kernels import linker
    from text_to_rdf_ray.stages import kg_stages

    built = []

    class CountingKBIndex(linker.KBIndex):
        def __init__(self, *a, **kw):
            built.append(1)
            super().__init__(*a, **kw)

    monkeypatch.setattr(linker, "KBIndex", CountingKBIndex)
    monkeypatch.setattr(kg_stages, "_KB_INDEX_CACHE", {})
    batch = pa.table({"subj": ["Alan Bean"], "obj": ["Apple"],
                      "obj_type": ["Organization"]})

    kb_ref = ray.put(KB)  # held: the pickled copies do not own it
    blob = cloudpickle.dumps(kg_stages.make_link_task(kb_ref))
    for fn in (cloudpickle.loads(blob), cloudpickle.loads(blob)):
        out = fn(batch)
        assert out.column("subj_uri")[0].as_py() == KBIndex(KB).link(
            "Alan Bean").uri
    assert len(built) == 1
    assert len(kg_stages._KB_INDEX_CACHE) == 1

    kg_stages.make_link_task(ray.put(KB))(batch)
    assert len(built) == 2
    assert len(kg_stages._KB_INDEX_CACHE) == 1
