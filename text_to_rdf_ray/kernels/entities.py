"""Mention detection and entity typing (deterministic GLiNER stand-in).

The reference's Stage-1 entity discovery is an ONNX GLiNER model
(/root/reference/src/gliner_extractor.rs:123-231).  Per the north rule the
rebuild uses dictionary/heuristic mention detection: capitalized-sequence
scanning (extending the reference's own proper-noun rules,
/root/reference/src/coref.rs:474-496) plus gazetteers for countries and
demonym adjectives, with char-offset provenance.

Entity kinds mirror the reference ``EntityType`` enum
(/root/reference/src/types.rs:14-32) and the GLiNER type map
(gliner_extractor.rs:234-242).
"""

from __future__ import annotations

from dataclasses import dataclass

PERSON = "Person"
ORG = "Organization"
EDU = "EducationalOrganization"
PLACE = "Place"
COUNTRY = "Country"
AIRPORT = "Airport"
EVENT = "Event"
AWARD = "Award"

ORG_LIKE = frozenset([ORG, EDU, AIRPORT])

# Closed-class capitalized tokens that never begin an entity.
STOPWORDS = frozenset(
    """the a an it he she they this that these those there here many some most
    several few all both each every however meanwhile but and or nor so yet
    after before during in on at from with by for of as if when where while
    who whom which what why how not no yes today tomorrow yesterday its his
    her hers their our your my mine we you i me him them us was were is are
    be been being am do does did have has had will would shall should may
    might can could must within without into onto upon about above below
    between among through over under again once then than since until
    january february march april may june july august september october
    november december monday tuesday wednesday thursday friday saturday
    sunday""".split()
)

DEMONYMS = frozenset(
    """american british english french german polish spanish italian russian
    chinese japanese korean dutch swedish danish norwegian finnish irish
    scottish welsh canadian australian indian mexican brazilian argentine
    argentinian portuguese greek turkish egyptian israeli iranian iraqi
    austrian swiss belgian czech hungarian romanian bulgarian ukrainian
    european african asian multinational naturalized-french""".split()
)

COUNTRIES = frozenset(
    """denmark poland france germany spain italy russia china japan korea
    netherlands sweden norway finland ireland scotland wales canada australia
    india mexico brazil argentina portugal greece turkey egypt israel iran
    iraq austria switzerland belgium hungary romania bulgaria ukraine england
    america""".split()
)

_ORG_SUFFIX = frozenset(["inc", "inc.", "corp", "corp.", "ltd", "ltd.", "llc", "co", "co.",
                         "company", "corporation", "group", "holdings"])
_EDU_KEYWORDS = frozenset(["university", "college", "institute", "school", "academy"])
_PLACE_KEYWORDS = frozenset(["city", "town", "bay", "area", "island", "river", "mountain",
                             "valley", "county", "province", "state", "region",
                             "empire", "kingdom", "republic", "district"])
_AWARD_KEYWORDS = frozenset(["prize", "prizes", "award", "awards", "medal", "medals"])
_ABBREV_TAILS = frozenset(["Inc", "Corp", "Ltd", "Co", "Jr", "Sr"])
_CONNECTORS = frozenset(["of", "de", "del", "van", "der", "da", "di", "la", "le"])
_PLACE_PREPS = frozenset(["in", "at", "near"])


def _clean(tok: str) -> str:
    """Strip non-alphanumeric edges (keeps internal ' . & -)."""
    return tok.strip("\"'“”‘’(),;:!?")


@dataclass
class Mention:
    name: str
    start: int
    end: int
    kind: str = PERSON


def classify_entity(name: str, context_prep: str | None = None) -> str:
    """Heuristic entity typing from surface form + preceding preposition."""
    tokens = [t.lower().strip(".,") for t in name.split()]
    tokens_raw = [t.lower() for t in name.split()]
    if any(t in _ORG_SUFFIX for t in tokens_raw):
        return ORG
    if any(t in _EDU_KEYWORDS for t in tokens):
        return EDU
    if tokens and tokens[-1] == "airport":
        return AIRPORT
    if name.lower() in COUNTRIES:
        return COUNTRY
    if any(t in _AWARD_KEYWORDS for t in tokens):
        return AWARD
    if any(t in _PLACE_KEYWORDS for t in tokens):
        return PLACE
    if context_prep in _PLACE_PREPS:
        return PLACE
    return PERSON


def _is_cap_start(tok: str) -> bool:
    """Reference proper-noun start: capitalized, len>1, 2nd char lowercase."""
    return len(tok) > 1 and tok[0].isupper() and tok[1].islower()


def _is_allcaps(tok: str) -> bool:
    return len(tok) > 1 and tok.isupper() and tok.isalpha()


def _is_cap_cont(tok: str) -> bool:
    """Continuation: capitalized with the rest lowercase/non-alpha, or ALLCAPS."""
    if not tok:
        return False
    if _is_allcaps(tok):
        return True
    return tok[0].isupper() and all(c.islower() or not c.isalpha() for c in tok[1:])


def scan_mentions(text: str) -> list[Mention]:
    """Scan capitalized sequences with char offsets.

    Extends the reference rules (coref.rs:474-496) with: a closed-class
    stopword filter, demonym/month filtering, ``of``-style connectors
    ("University of Paris"), ALL-CAPS starts when followed by a capitalized
    token ("UT Austin"), and corporate-abbreviation repair ("Apple Inc ."
    -> "Apple Inc.").

    Tokens are ``str.split()``'s words, located by a running
    ``text.find(word, pos)`` from the end of the previous word: the
    characters before a word's start are whitespace and its first is not,
    so the first hit is the word itself.  ``str.split`` and ``re``'s ``\\s``
    share one whitespace definition, so these are the ``\\S+`` tokens and
    spans, without a match object per token.
    """
    toks = []
    pos = 0
    find = text.find
    for word in text.split():
        start = find(word, pos)
        pos = start + len(word)
        toks.append((word, start, pos))
    mentions: list[Mention] = []
    i = 0
    n = len(toks)
    while i < n:
        raw, ts, te = toks[i]
        if raw.islower():
            # fast path: a token with no uppercase character can never
            # start a mention (cap-start and ALLCAPS both need one);
            # cleaning only strips characters, so the cleaned word is
            # all-lowercase too — identical outcome, no _clean/set work
            i += 1
            continue
        word = _clean(raw)
        low = word.lower()
        starts = False
        if word and low not in STOPWORDS and low not in DEMONYMS:
            if _is_cap_start(word):
                starts = True
            elif _is_allcaps(word) and i + 1 < n and _is_cap_cont(_clean(toks[i + 1][0])):
                nxt = _clean(toks[i + 1][0]).lower()
                starts = nxt not in STOPWORDS and nxt not in DEMONYMS
        if not starts:
            i += 1
            continue
        # collect the sequence
        parts = [word]
        start_off = ts + raw.index(word)
        end_off = start_off + len(word)
        j = i + 1
        broke = raw.rstrip()[-1] in "\"'“”‘’(),;:!?"  # trailing punctuation ends the sequence
        while j < n and not broke:
            nraw, nts, nte = toks[j]
            nword = _clean(nraw)
            nlow = nword.lower()
            if nword and _is_cap_cont(nword) and nlow not in STOPWORDS and nlow not in DEMONYMS:
                # raw token must not carry a leading break (e.g. "(Paris")
                if nraw[0] not in "\"'“”‘’(),;:":
                    parts.append(nword)
                    end_off = nts + nraw.index(nword) + len(nword)
                    j += 1
                    broke = nraw.rstrip()[-1] in "\"'“”‘’(),;:!?"
                    continue
                break
            if (
                nword.lower() in _CONNECTORS
                and j + 1 < n
                and _is_cap_cont(_clean(toks[j + 1][0]))
                and _clean(toks[j + 1][0]).lower() not in STOPWORDS
            ):
                parts.append(nword)
                j += 1
                continue
            break
        name = " ".join(parts)
        # trailing sentence period is not part of the name ("Denmark." -> "Denmark")
        if name.endswith(".") and parts[-1].rstrip(".").lower() + "." not in {
            "inc.", "corp.", "ltd.", "co.", "jr.", "sr."
        }:
            name = name.rstrip(".")
            end_off -= len(parts[-1]) - len(parts[-1].rstrip("."))
        # corporate-abbreviation repair: "Apple Inc ." -> "Apple Inc."
        if parts[-1] in _ABBREV_TAILS and j < n and toks[j][0] == ".":
            name += "."
            end_off = toks[j][2]
            j += 1
        prep = _clean(toks[i - 1][0]).lower() if i > 0 else None
        kind = classify_entity(name, context_prep=prep)
        mentions.append(Mention(name=name, start=start_off, end=end_off, kind=kind))
        i = j
    return mentions
