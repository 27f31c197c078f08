"""Rule-based coreference resolution.

Two strategies:

- ``resolve_reference_rule``: faithful re-expression of the reference's
  rule-based resolver (/root/reference/src/coref.rs:261-371): naive ``'.'``
  sentence split, capitalized-sequence entities, gender/number matching by
  surface heuristics (coref.rs:522-543), *last* matching entity within
  ``max_distance`` sentences, replacements applied in reverse offset order.
  Kept for parity with the reference's unit-test semantics.

- ``resolve_typed`` (pipeline default): same architecture, but antecedent
  candidates are typed mentions from ``scan_mentions`` (he/she -> last
  Person strictly before the pronoun; it -> last org-like; they -> last
  org-like or "X and Y"), plus definite-description resolution
  ("the company" / "the university" -> last org-like), standing in for the
  reference's GLiNER-guided strategy (coref.rs:374-470) and the
  KnowledgeBuffer's last-entity-of-type lookup (knowledge_buffer.rs:124-130).

Both are pure functions: deterministic under Ray task retries.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .entities import ORG_LIKE, PERSON, Mention, scan_mentions

MASCULINE = "Masculine"
FEMININE = "Feminine"
NEUTRAL = "Neutral"
PLURAL = "Plural"

_PRONOUNS = {
    "he": MASCULINE, "him": MASCULINE, "his": MASCULINE, "himself": MASCULINE,
    "she": FEMININE, "her": FEMININE, "hers": FEMININE, "herself": FEMININE,
    "it": NEUTRAL, "its": NEUTRAL, "itself": NEUTRAL,
    "they": PLURAL, "them": PLURAL, "their": PLURAL, "theirs": PLURAL,
    "themselves": PLURAL,
}

_DEF_DESC = re.compile(
    r"\b[Tt]he (company|university|organization|corporation|firm|school|college|"
    r"institute|agency|airline|airport|bank|group)\b"
)

#: one-pass pronoun token scan: a \S+ token whose non-alpha edges wrap a
#: pronoun — exactly the tokens classify_pronoun accepts (tokens with any
#: other interior alphabetic character fail the trailing anchor).  The
#: ``(?=[hsit])`` lookahead rejects a position whose next character cannot
#: begin a pronoun before the 16-way IGNORECASE alternation is tried there.
#: It changes no match: under IGNORECASE the class admits exactly the
#: characters that can begin an alternation match (h, s, i, t in either
#: case, and ſ, ı, İ, which fold to them; Kelvin K folds to k and begins
#: neither), as a check over every code point shows
_PRONOUN_SCAN = re.compile(
    r"(?<!\S)[^a-zA-Z\s]*(?=[hsit])("
    + "|".join(sorted(_PRONOUNS, key=len, reverse=True))
    + r")[^a-zA-Z\s]*(?!\S)",
    re.IGNORECASE,
)

_STRIP_EDGE = re.compile(r"^[^a-z]+|[^a-z]+$")


def classify_pronoun(word: str) -> str | None:
    """coref.rs:508-519 — strip non-alphabetic edges, classify.

    Fast path: most tokens are clean words — dict probe before any regex."""
    w = word.lower()
    hit = _PRONOUNS.get(w)
    if hit is not None:
        return hit
    if w.isalpha() or not w:
        return None
    return _PRONOUNS.get(_STRIP_EDGE.sub("", w))


def matches_pronoun(entity: str, ptype: str) -> bool:
    """coref.rs:522-543 surface heuristics (reference-compat)."""
    if ptype in (MASCULINE, FEMININE):
        return len(entity.split()) <= 3 and " and " not in entity.lower()
    if ptype == NEUTRAL:
        return any(k in entity for k in ("Corp", "Inc", "LLC", "Ltd", "Company"))
    return " and " in entity or entity.endswith("s")


def is_proper_noun_start(word: str) -> bool:
    return len(word) > 1 and word[0].isupper() and not word[1].isupper()


def is_proper_noun(word: str) -> bool:
    return bool(word) and word[0].isupper() and all(
        c.islower() or not c.isalpha() for c in word[1:]
    )


@dataclass
class CorefResult:
    original_text: str
    resolved_text: str
    mention_map: dict[str, str] = field(default_factory=dict)
    replacements: list[tuple[int, int, str]] = field(default_factory=list)
    n_resolved: int = 0


def _apply(text: str, replacements: list[tuple[int, int, str]]) -> str:
    out = text
    for start, end, rep in sorted(replacements, key=lambda r: -r[0]):
        out = out[:start] + rep + out[end:]
    return out


def resolve_reference_rule(text: str, max_distance: int = 3) -> CorefResult:
    """Faithful port of the reference rule-based resolver (coref.rs:261-371),
    including its ``text.find(sentence)`` first-occurrence offset behavior."""
    sentences = [s for s in text.split(".") if s.strip()]
    entities: list[tuple[str, int]] = []  # (text, sentence_idx)
    for sent_idx, sentence in enumerate(sentences):
        words = sentence.split()
        i = 0
        while i < len(words):
            if is_proper_noun_start(words[i]):
                seq = [words[i]]
                j = i + 1
                while j < len(words) and is_proper_noun(words[j]):
                    seq.append(words[j])
                    j += 1
                entities.append((" ".join(seq), sent_idx))
                i = j
            else:
                i += 1

    replacements: list[tuple[int, int, str]] = []
    mention_map: dict[str, str] = {}
    for sent_idx, sentence in enumerate(sentences):
        sent_start = text.find(sentence)
        if sent_start < 0:
            sent_start = 0
        for word in sentence.split():
            ptype = classify_pronoun(word)
            if ptype is None:
                continue
            matching = [
                e
                for e, esent in entities
                if esent <= sent_idx
                and sent_idx - esent <= max_distance
                and matches_pronoun(e, ptype)
            ]
            if not matching:
                continue
            entity = matching[-1]
            rel = text[sent_start:].find(word)
            if rel < 0:
                continue
            start = sent_start + rel
            replacements.append((start, start + len(word), entity))
            mention_map[word] = entity
    return CorefResult(
        original_text=text,
        resolved_text=_apply(text, replacements),
        mention_map=mention_map,
        replacements=replacements,
        n_resolved=len(replacements),
    )


def resolve_typed(
    text: str,
    mentions: list[Mention] | None = None,
    max_char_distance: int = 600,
) -> CorefResult:
    """Typed pronoun + definite-description resolution (pipeline default).

    Antecedents are restricted to typed mentions strictly before the
    pronoun, within ``max_char_distance`` chars (the char-space analogue of
    the reference's 3-sentence window).
    """
    if mentions is None:
        mentions = scan_mentions(text)
    replacements: list[tuple[int, int, str]] = []
    mention_map: dict[str, str] = {}
    taken: set[tuple[int, int]] = set()
    # list positions by mention end: a bisect finds the mentions ending in
    # [pos - max_char_distance, pos], and only those are visited
    by_end = sorted(range(len(mentions)), key=lambda k: mentions[k].end)
    ends = [mentions[k].end for k in by_end]

    def last_before(pos: int, pred) -> Mention | None:
        """The latest-starting mention that satisfies ``pred`` and ends in
        the window; the first in list order among equal starts."""
        best = None
        best_k = -1
        lo = bisect_left(ends, pos - max_char_distance)
        for i in range(bisect_right(ends, pos) - 1, lo - 1, -1):
            k = by_end[i]
            m = mentions[k]
            if pred(m) and (best is None or m.start > best.start
                            or (m.start == best.start and k < best_k)):
                best, best_k = m, k
        return best

    # definite descriptions first (their spans include "The")
    for dm in _DEF_DESC.finditer(text):
        ant = last_before(dm.start(), lambda m: m.kind in ORG_LIKE)
        if ant is not None:
            replacements.append((dm.start(), dm.end(), ant.name))
            taken.add((dm.start(), dm.end()))
            mention_map[dm.group()] = ant.name

    # targeted scan: only pronoun-shaped tokens are visited — the all-token
    # Python loop was ~1/3 of the extraction kernel.  The regex is a
    # PREFILTER only; classify_pronoun stays the decider, because its
    # w.isalpha() guard treats Unicode letters as letters while the ASCII
    # regex class would strip them (e.g. 'itä' must NOT read as 'it')
    for pm in _PRONOUN_SCAN.finditer(text):
        word = pm.group(0)
        ptype = classify_pronoun(word)
        if ptype is None:
            continue
        # leading/trailing punctuation kept out of the replacement span
        start = pm.start(1)
        end = pm.end(1)
        if any(s <= start < e for s, e in taken):
            continue
        if ptype in (MASCULINE, FEMININE):
            ant = last_before(start, lambda m: m.kind == PERSON)
        elif ptype == NEUTRAL:
            ant = last_before(start, lambda m: m.kind in ORG_LIKE)
        else:  # plural
            ant = last_before(
                start, lambda m: m.kind in ORG_LIKE or " and " in m.name.lower()
            )
        if ant is None:
            continue
        replacements.append((start, end, ant.name))
        mention_map[word] = ant.name

    return CorefResult(
        original_text=text,
        resolved_text=_apply(text, replacements),
        mention_map=mention_map,
        replacements=replacements,
        n_resolved=len(replacements),
    )
