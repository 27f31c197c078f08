"""Differential tests: the extraction kernels return exactly what the plain
specification in ``_extraction_spec`` returns, and the relation-pattern
gate table is sound."""

import random
import re
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _extraction_spec as spec
from text_to_rdf_ray.kernels import coref, patterns
from text_to_rdf_ray.kernels.coref import resolve_typed
from text_to_rdf_ray.kernels.entities import (EDU, ORG, PERSON, PLACE, Mention,
                                              scan_mentions)
from text_to_rdf_ray.kernels.extractor import extract_document
from text_to_rdf_ray.kernels.knowledge import KnowledgeBuffer
from text_to_rdf_ray.sources.fixtures import gold_case, long_document, page_rows


def _value(obj):
    """Field values, so results compare by value and not by class."""
    if isinstance(obj, list):
        return [_value(x) for x in obj]
    return astuple(obj)


def _assert_kernels_match_spec(text: str) -> None:
    assert _value(extract_document(text)) == _value(spec.extract_document(text))
    assert _value(scan_mentions(text)) == _value(spec.scan_mentions(text))
    assert _value(resolve_typed(text)) == _value(spec.resolve_typed(text))


def test_kernels_match_spec_on_page_rows():
    rows = list(page_rows(20_000))
    assert sum(len(r["text"]) > 10_000 for r in rows) == 100  # the long pages
    for row in rows:
        _assert_kernels_match_spec(row["text"])


_NAMES = ["Alan Bean", "Marie Curie", "Ada Lovelace", "Grace Hopper", "Linus"]
_ORGS = ["Acme Corp", "Hooli Inc.", "Aarhus University", "Warsaw Airport"]
_PRONOUN_WORDS = ["he", "He", "HIM", "his", "himself.", "she", "(She", "her,", "hers",
                  "herself", "it", "It", "its", "itself", "they", "They", "them!",
                  "\"their\"", "theirs", "themselves", "the company", "The university"]


def _pronoun_dense(rng: random.Random, n_words: int) -> str:
    words = []
    for _ in range(n_words):
        r = rng.random()
        if r < 0.35:
            words.append(rng.choice(_PRONOUN_WORDS))
        elif r < 0.5:
            words.append(rng.choice(_NAMES))
        elif r < 0.6:
            words.append(rng.choice(_ORGS))
        elif r < 0.65:
            words.append(f"{rng.choice(_NAMES)} and {rng.choice(_NAMES)}")
        elif r < 0.7:
            words.append(".\n\n" if rng.random() < 0.3 else ".")
        else:
            words.append(rng.choice(["met", "saw", "and", "then", "with", "the", "a"]))
    return " ".join(words)


def test_kernels_match_spec_on_pronoun_dense_text():
    rng = random.Random(7)
    for n_words in (10, 40, 200, 1_000, 6_000):
        for _ in range(3):
            _assert_kernels_match_spec(_pronoun_dense(rng, n_words))


def test_last_before_matches_linear_scan_on_any_mention_list():
    """Shuffled, overlapping and equal-start mentions: the bisect must pick
    the linear scan's antecedent, the first in list order among equal
    starts.  Every mention has its own name, so a different pick shows."""
    rng = random.Random(11)
    text = _pronoun_dense(rng, 3_000)
    for trial in range(20):
        mentions = []
        for k in range(rng.choice([0, 1, 5, 50, 800])):
            start = rng.randrange(len(text))
            if mentions and rng.random() < 0.3:
                start = rng.choice(mentions).start  # ties on start
            end = start + rng.randrange(0, 40)
            kind = rng.choice([PERSON, ORG, "Place"])
            name = f"M{k}" + (" and N" if rng.random() < 0.2 else "")
            mentions.append(Mention(name=name, start=start, end=end, kind=kind))
        for dist in (600, 0, 50, -5):
            got = resolve_typed(text, mentions=list(mentions), max_char_distance=dist)
            want = spec.resolve_typed(text, mentions=list(mentions), max_char_distance=dist)
            assert _value(got) == _value(want), (trial, dist)


# hypothesis: trigger phrases, names, separators, whitespace that is not a
# space, and the characters that case-fold into the pronouns' first letters
_PIECES = st.sampled_from([
    "was born on the 15th of March 1932", "was born in", "graduated from",
    "has graduated from", ", including", "and", "studied at the",
    "serves the city of", "The", "the", "is the airport of", "is headquartered in",
    "is a private university in", "served as CEO", "became the CEO",
    "he", "She", "THEY", "its", "the company", "The university", "It",
    "Alan Bean", "Apple Inc.", "Apple Inc", "UT Austin", "University of Paris",
    "Aarhus", "Denmark", "MIT", "O'Reilly", "Warsaw's",
    ".", ",", " ", " ", "\xa0", "\u3000", "\x1c", "\t", "\n\n", "\n",
    "\u017f", "\u0131", "\u0130", "\u212a", "\xc9", "\x00", "x", "Ab",  # ſ ı İ K É NUL
])
_TEXTS = st.lists(_PIECES, max_size=60).map("".join)


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_kernels_match_spec_on_generated_text(text):
    _assert_kernels_match_spec(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TEXTS, st.text(max_size=200)))
def test_pronoun_scan_matches_spec(text):
    def spans(pat):
        return [(m.span(), m.span(1)) for m in pat.finditer(text)]

    assert spans(coref._PRONOUN_SCAN) == spans(spec._PRONOUN_SCAN)


# -- KnowledgeBuffer ---------------------------------------------------------

#: names with dots, case variants, repeated and shared tokens, and
#: surfaces with no tokens at all
_KB_NAMES = st.sampled_from([
    "Alan Bean", "alan bean", "ALAN BEAN", "Bean", "bean", "Alan",
    "Bean Alan Bean", "U.S. Army", "US Army", "u.s.", "U.S.", "Army",
    "New York New York", "New York", "York", "york york", "A.B.", "a b",
    "Apple Inc.", "Apple Inc", "Apple", "Inc", " Apple ", "", " ", ".",
    ". .", "..",
])
_KB_KINDS = st.sampled_from([PERSON, ORG, EDU, PLACE])
_KB_OPS = st.lists(st.one_of(
    st.tuples(st.just("register"), _KB_NAMES, _KB_KINDS,
              st.integers(0, 5)),
    st.tuples(st.just("add_alias"), _KB_NAMES, _KB_NAMES),
    st.tuples(st.just("set_kind"), _KB_NAMES, _KB_KINDS),
    st.tuples(st.just("resolve"), _KB_NAMES, st.none() | _KB_KINDS),
), max_size=40)


def _kb_state(kb) -> tuple:
    return _value(kb.entities()), sorted(kb._alias_to_canonical.items())


@settings(max_examples=500, deadline=None)
@given(_KB_OPS)
def test_knowledge_buffer_matches_spec(ops):
    """The indexed KnowledgeBuffer returns the same entity and leaves the
    same state as the spec's full scan after every operation."""
    got, want = KnowledgeBuffer(), spec.KnowledgeBuffer()
    for op, *args in ops:
        if op == "register":
            name, kind, offset = args
            a, b = got.register(name, kind, offset), want.register(name, kind, offset)
        elif op == "resolve":
            surface, kind = args
            a = got.resolve(surface, expected_kind=kind)
            b = want.resolve(surface, expected_kind=kind)
        else:
            a, b = getattr(got, op)(*args), getattr(want, op)(*args)
        assert (a is None) == (b is None)
        if a is not None:
            assert astuple(a) == astuple(b)
        assert _kb_state(got) == _kb_state(want)
    got.clear()
    assert len(got) == 0 and not got._tokens and not got._postings


def _letters(i: int) -> str:
    out = ""
    while True:
        i, r = divmod(i, 26)
        out += "abcdefghijklmnopqrstuvwxyz"[r]
        if not i:
            return out


def test_long_unchunked_document_matches_spec():
    """1,000 born-in paragraphs in one chunk: every resolution sees every
    entity registered before it."""
    text = "\n\n".join(
        f"K{_letters(i)} Person was born in T{_letters(i)}ville , Denmark ."
        for i in range(1000))
    kw = {"chunk_token_threshold": 10 ** 9}
    got = extract_document(text, **kw)
    assert len(got.triples) >= 1000
    assert _value(got) == _value(spec.extract_document(text, **kw))


# -- the gate table ----------------------------------------------------------

#: the module's relation patterns by name
PATTERNS = {name: v for name, v in vars(patterns).items() if name.startswith("_P_")}
_NAME_OF = {id(pat): name for name, pat in PATTERNS.items()}


def test_gates_cover_every_pattern():
    gated = [pat for pat, _ in patterns.GATES]
    assert len(gated) == len(set(map(id, gated)))
    assert {id(p) for p in PATTERNS.values()} == set(map(id, gated))


@pytest.mark.parametrize("pat,trigger", patterns.GATES,
                         ids=[_NAME_OF.get(id(pat), "?") for pat, _ in patterns.GATES])
def test_gate_trigger_is_a_case_sensitive_literal_of_its_pattern(pat, trigger):
    assert trigger in pat.pattern
    assert not pat.flags & re.IGNORECASE


#: sentences in which each pattern matches
GOLD_SENTENCES = (
    [gold_case(i)[0] for i in range(8)]
    + [p for p in long_document(0).split("\n\n") if not p.startswith("In year")]
    + [
        "Many people graduated from Aarhus University, including Alan Bean and Ada Lovelace.",
        "Aarhus University is a public research university in Aarhus, Denmark.",
        "Acme Corp are headquartered in Cupertino, America.",
        "Marie Curie became CEO of the company.",
    ]
)


def test_altering_the_trigger_removes_every_gold_match():
    matched = set()
    for sentence in GOLD_SENTENCES:
        for pat, trigger in patterns.GATES:
            if pat.search(sentence) is None:
                continue
            matched.add(id(pat))
            altered = sentence.replace(trigger, trigger[:-1] + trigger[-1].swapcase())
            assert pat.search(altered) is None, (trigger, sentence)
    assert matched == {id(pat) for pat, _ in patterns.GATES}
