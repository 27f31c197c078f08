"""Executable specification of the extraction kernels: the plain
implementations that scan all of their input.

``extract_raw_triples`` runs every relation pattern over every segment,
``scan_mentions`` tokenizes with ``re.finditer(r"\\S+")``,
``_PRONOUN_SCAN`` has no first-letter lookahead, ``resolve_typed``'s
``last_before`` scans every mention, ``KnowledgeBuffer.resolve``
rebuilds and compares every entity's token set, and
``extract_document`` composes these.  The package's kernels skip work
that cannot produce output; the differential tests require them to
return exactly what this module does.
"""

from __future__ import annotations

import re

from text_to_rdf_ray.kernels.coref import (
    FEMININE,
    MASCULINE,
    NEUTRAL,
    CorefResult,
    _DEF_DESC,
    _PRONOUNS,
    _apply,
    classify_pronoun,
)
from text_to_rdf_ray.kernels.entities import (
    _ABBREV_TAILS,
    _CONNECTORS,
    AIRPORT,
    COUNTRY,
    DEMONYMS,
    EDU,
    ORG,
    ORG_LIKE,
    PERSON,
    PLACE,
    STOPWORDS,
    Mention,
    _clean,
    _is_allcaps,
    _is_cap_cont,
    _is_cap_start,
    classify_entity,
)
from text_to_rdf_ray.kernels.knowledge import EntityContext
from text_to_rdf_ray.kernels.normalize import (
    normalize_docred_subject,
    normalize_entity_name,
    normalize_predicate,
)
from text_to_rdf_ray.kernels.patterns import (
    _P_AIRPORT_OF,
    _P_ALUMNI_INCL,
    _P_BORN_IN,
    _P_BORN_ON,
    _P_CEO,
    _P_GRADUATED,
    _P_HQ,
    _P_SERVES,
    _P_STUDIED,
    _P_UNIV_IN,
    RawTriple,
    parse_date,
    predicate_blacklisted,
)
from text_to_rdf_ray.kernels.extractor import DocExtraction, DocTriple
from text_to_rdf_ray.kernels.text import chunk_text, needs_chunking, split_segments

_TOKEN_RE = re.compile(r"\S+")


class KnowledgeBuffer:
    def __init__(self) -> None:
        self._entities: dict[str, EntityContext] = {}
        self._alias_to_canonical: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._entities)

    def entities(self) -> list[EntityContext]:
        return sorted(self._entities.values(), key=lambda e: e.first_offset)

    def register(self, name: str, kind: str, offset: int, chunk_id: int = 0) -> EntityContext:
        """First-write-wins registration (knowledge_buffer.rs:40-51)."""
        key = name.lower()
        if key not in self._entities:
            self._entities[key] = EntityContext(
                canonical_name=name, kind=kind, first_offset=offset, first_chunk_id=chunk_id
            )
        return self._entities[key]

    def set_kind(self, name: str, kind: str) -> None:
        ent = self._entities.get(name.lower())
        if ent is not None:
            ent.kind = kind

    def add_alias(self, alias: str, canonical: str) -> None:
        key = canonical.lower()
        if key in self._entities and alias.lower() != key:
            ent = self._entities[key]
            if alias not in ent.aliases:
                ent.aliases.append(alias)
            self._alias_to_canonical[alias.lower()] = key

    def add_property(self, name: str, prop: str, value: str) -> None:
        ent = self._entities.get(name.lower())
        if ent is not None and prop not in ent.properties:
            ent.properties[prop] = value

    def get(self, name: str) -> EntityContext | None:
        key = name.lower()
        ent = self._entities.get(key)
        if ent is None:
            canon = self._alias_to_canonical.get(key)
            if canon is not None:
                ent = self._entities.get(canon)
        return ent

    def last_of_kind(self, kinds, before: int | None = None) -> EntityContext | None:
        """Entity of one of ``kinds`` with max first_offset (kb.rs:124-130),
        optionally restricted to entities first seen before ``before``."""
        best = None
        for ent in self._entities.values():
            if ent.kind not in kinds:
                continue
            if before is not None and ent.first_offset >= before:
                continue
            if best is None or ent.first_offset > best.first_offset:
                best = ent
        return best

    def resolve(self, surface: str, expected_kind: str | None = None) -> EntityContext:
        """Kind-aware alias resolution; registers a new entity on miss.

        Order: (1) earliest-registered candidate of the expected kind whose
        name equals or token-contains the surface; (2) exact name match of
        any kind; (3) earliest token-containment match of any kind; (4) new
        registration.  Deterministic: ties broken by first_offset then name.
        """
        surface = surface.strip()
        key = surface.lower()
        stoks = set(key.replace(".", "").split())
        exact = self.get(surface)

        def candidates(kind_filter: bool) -> list[EntityContext]:
            out = []
            for ent in self._entities.values():
                if kind_filter and expected_kind is not None:
                    ok = (
                        ent.kind == expected_kind
                        or (expected_kind in ORG_LIKE and ent.kind in ORG_LIKE)
                    )
                    if not ok:
                        continue
                etoks = set(ent.canonical_name.lower().replace(".", "").split())
                if ent.canonical_name.lower() == key or (stoks and stoks < etoks):
                    out.append(ent)
            return sorted(out, key=lambda e: (e.first_offset, e.canonical_name))

        if expected_kind is not None:
            kind_matches = candidates(True)
            if kind_matches:
                winner = kind_matches[0]
                if winner.canonical_name.lower() != key:
                    self.add_alias(surface, winner.canonical_name)
                return winner
        if exact is not None:
            return exact
        any_matches = candidates(False)
        if any_matches:
            winner = any_matches[0]
            self.add_alias(surface, winner.canonical_name)
            return winner
        return self.register(surface, expected_kind or PERSON, offset=1 << 30)

    def context_summary(self, max_entities: int = 10) -> str:
        """Prompt-context style summary (knowledge_buffer.rs:77-106)."""
        ents = self.entities()[:max_entities]
        if not ents:
            return ""
        lines = ["Known entities from earlier context:"]
        for ent in ents:
            line = f"- {ent.canonical_name} ({ent.kind})"
            if ent.aliases:
                line += f" [aliases: {', '.join(ent.aliases)}]"
            lines.append(line)
        return "\n".join(lines)

    def clear(self) -> None:
        self._entities.clear()
        self._alias_to_canonical.clear()


def extract_raw_triples(text: str, offset: int = 0) -> list[RawTriple]:
    """Run all patterns over ``text`` (a segment of the resolved document).

    ``offset`` shifts span provenance into document coordinates.  Subjects
    marked ``__ROOT_ORG__`` must be resolved by the caller to the document's
    first org-like entity (worksFor's implicit employer).
    """
    out: list[RawTriple] = []

    _ABBREV = ("inc.", "corp.", "ltd.", "co.", "jr.", "sr.")

    def clean(name: str) -> str:
        """Trim a trailing sentence period unless it belongs to an
        abbreviation ("Apple Inc." keeps its period; "Denmark." loses it);
        strip a trailing possessive ("Warsaw's" -> "Warsaw")."""
        name = name.strip()
        if name.endswith(".") and not name.lower().endswith(_ABBREV):
            name = name.rstrip(".")
        if name.endswith("'s") or name.endswith("\u2019s"):
            name = name[:-2]
        return re.sub(r"\s+", " ", name)

    def emit(s, pred, o, skind, okind, nested, m, pattern):
        out.append(
            RawTriple(
                subj=clean(s), pred=pred,
                obj=clean(o) if okind is not None and o != "__ROOT_ORG__" else o,
                subj_kind=skind, obj_kind=okind,
                nested_in=nested, span_start=offset + m.start(),
                span_end=offset + m.end(), pattern=pattern,
            )
        )

    for m in _P_BORN_ON.finditer(text):
        iso = parse_date(m.group("d"))
        if iso:
            emit(m.group("s"), "birthDate", iso, PERSON, None, None, m, "born_on")

    for m in _P_BORN_IN.finditer(text):
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        emit(s, "birthPlace", l1, PERSON, PLACE, None, m, "born_in")
        if l2:
            emit(s, "nationality", l2, PERSON, COUNTRY, None, m, "born_in")
            emit(l1, "addressCountry", l2, PLACE, COUNTRY, None, m, "born_in")

    incl_spans = []
    for m in _P_ALUMNI_INCL.finditer(text):
        o = m.group("o")
        emit(m.group("p1"), "alumniOf", o, PERSON, EDU, None, m, "alumni_incl")
        emit(m.group("p2"), "alumniOf", o, PERSON, EDU, None, m, "alumni_incl")
        incl_spans.append((m.start(), m.end()))

    for m in _P_GRADUATED.finditer(text):
        if any(s <= m.start() < e for s, e in incl_spans):
            continue
        emit(m.group("s"), "alumniOf", m.group("o"), PERSON, EDU, None, m, "graduated")

    for m in _P_STUDIED.finditer(text):
        emit(m.group("s"), "alumniOf", m.group("o"), PERSON, EDU, None, m, "studied_at")

    for m in _P_SERVES.finditer(text):
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        emit(s, "location", l1, AIRPORT, PLACE, None, m, "serves_city")
        if l2:
            emit(l1, "addressCountry", l2, PLACE, COUNTRY, "location", m, "serves_city")

    for m in _P_AIRPORT_OF.finditer(text):
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        if not s.lower().endswith("airport"):
            s = s + " Airport"
        emit(s, "location", l1, AIRPORT, PLACE, None, m, "airport_of")
        if l2:
            emit(l1, "addressCountry", l2, PLACE, COUNTRY, "location", m, "airport_of")

    for m in _P_HQ.finditer(text):
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        emit(s, "location", l1, ORG, PLACE, None, m, "headquartered")
        if l2:
            emit(s, "containedInPlace", l2, ORG, PLACE, None, m, "headquartered")
            emit(l1, "containedInPlace", l2, PLACE, PLACE, None, m, "headquartered")

    for m in _P_UNIV_IN.finditer(text):
        s, l1, l2 = m.group("s"), m.group("l1"), m.group("l2")
        emit(s, "location", l1, EDU, PLACE, None, m, "univ_in")
        if l2:
            emit(s, "containedInPlace", l2, EDU, PLACE, None, m, "univ_in")
            emit(l1, "containedInPlace", l2, PLACE, PLACE, None, m, "univ_in")

    for m in _P_CEO.finditer(text):
        emit(m.group("s"), "worksFor", "__ROOT_ORG__", PERSON, ORG, None, m, "ceo")

    return out


def scan_mentions(text: str) -> list[Mention]:
    """Scan capitalized sequences with char offsets.

    Extends the reference rules (coref.rs:474-496) with: a closed-class
    stopword filter, demonym/month filtering, ``of``-style connectors
    ("University of Paris"), ALL-CAPS starts when followed by a capitalized
    token ("UT Austin"), and corporate-abbreviation repair ("Apple Inc ."
    -> "Apple Inc.").
    """
    toks = [(m.group(), *m.span()) for m in _TOKEN_RE.finditer(text)]
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


#: one-pass pronoun token scan: a \S+ token whose non-alpha edges wrap a
#: pronoun — exactly the tokens classify_pronoun accepts (tokens with any
#: other interior alphabetic character fail the trailing anchor)
_PRONOUN_SCAN = re.compile(
    r"(?<!\S)[^a-zA-Z\s]*("
    + "|".join(sorted(_PRONOUNS, key=len, reverse=True))
    + r")[^a-zA-Z\s]*(?!\S)",
    re.IGNORECASE,
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

    def last_before(pos: int, pred) -> Mention | None:
        best = None
        for m in mentions:
            if m.end <= pos and pos - m.end <= max_char_distance and pred(m):
                if best is None or m.start > best.start:
                    best = m
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


def extract_document(
    text: str,
    apply_blacklist: bool = True,
    *,
    coref_strategy: str = "typed",
    coref_max_distance: int = 3,
    chunk_max_chars: int | None = None,
    chunk_overlap: int | None = None,
    chunk_token_threshold: int | None = None,
) -> DocExtraction:
    """``coref_strategy``: "typed" (pipeline default), "reference" (the
    faithful coref.rs rule port), or "none" — the runtime face of
    COREF_STRATEGY; chunk_* override the reference sizing contract
    (KG_CHUNK_MAX_CHARS / KG_CHUNK_OVERLAP / RDF_CHUNK_THRESHOLD)."""
    from text_to_rdf_ray.kernels.text import CHUNK_MAX_CHARS, CHUNK_OVERLAP, CHUNK_TOKEN_THRESHOLD

    max_chars = chunk_max_chars or CHUNK_MAX_CHARS
    overlap = CHUNK_OVERLAP if chunk_overlap is None else chunk_overlap
    threshold = chunk_token_threshold or CHUNK_TOKEN_THRESHOLD
    kb = KnowledgeBuffer()
    chunks = (
        chunk_text(text, max_chars=max_chars, overlap=overlap)
        if needs_chunking(text, threshold)
        else [(0, text, 0, len(text))]
    )
    all_triples: list[DocTriple] = []
    seen: set[tuple[str, str, str]] = set()
    n_pronouns = 0
    resolved_parts: list[str] = []

    for cid, ctext, cstart, _cend in chunks:
        mentions = scan_mentions(ctext)
        for m in mentions:
            kb.register(m.name, m.kind, cstart + m.start, chunk_id=cid)
        if coref_strategy == "none":
            from text_to_rdf_ray.kernels.coref import CorefResult

            coref = CorefResult(original_text=ctext, resolved_text=ctext,
                                mention_map={}, replacements=[], n_resolved=0)
        elif coref_strategy == "reference":
            from text_to_rdf_ray.kernels.coref import resolve_reference_rule

            coref = resolve_reference_rule(ctext, max_distance=coref_max_distance)
        else:
            coref = resolve_typed(ctext, mentions=mentions)
        n_pronouns += coref.n_resolved
        for alias, canonical in coref.mention_map.items():
            kb.add_alias(alias, canonical)
        resolved = coref.resolved_text
        resolved_parts.append(resolved)
        if coref.replacements:
            # register mentions introduced by the substitutions
            for m in scan_mentions(resolved):
                kb.register(m.name, m.kind, cstart + m.start, chunk_id=cid)

        raw: list[RawTriple] = []
        for seg, seg_off in split_segments(resolved):
            raw.extend(extract_raw_triples(seg, offset=cstart + seg_off))

        from text_to_rdf_ray.kernels.entities import PERSON

        def resolve_slot(surface: str, expected_kind: str):
            ent = kb.resolve(surface, expected_kind=expected_kind)
            # pattern slots carry more signal than the scanner's Person
            # default: upgrade ("UT Austin" -> EducationalOrganization)
            if expected_kind and ent.kind == PERSON and expected_kind != PERSON:
                ent.kind = expected_kind
            return ent

        for rt in raw:
            subj_ent = resolve_slot(rt.subj, rt.subj_kind)
            if rt.obj_kind is None:
                obj_surface, obj_type = rt.obj, ""
            elif rt.obj == "__ROOT_ORG__":
                root_org = None
                for ent in kb.entities():
                    if ent.kind in ORG_LIKE:
                        root_org = ent
                        break
                if root_org is None:
                    continue
                obj_surface, obj_type = root_org.canonical_name, root_org.kind
            else:
                obj_ent = resolve_slot(rt.obj, rt.obj_kind)
                obj_surface, obj_type = obj_ent.canonical_name, obj_ent.kind
            pred = normalize_predicate(rt.pred)
            if apply_blacklist and predicate_blacklisted(pred):
                continue
            subj_name = subj_ent.canonical_name
            key = (subj_name.lower(), pred, obj_surface)
            if key in seen:
                continue
            seen.add(key)
            all_triples.append(
                DocTriple(
                    subj=subj_name,
                    subj_slug=normalize_entity_name(subj_name),
                    subj_lower=normalize_docred_subject(subj_name),
                    pred=pred,
                    pred_key=rt.pred,
                    obj=obj_surface,
                    subj_type=subj_ent.kind,
                    obj_type=obj_type,
                    nested_in=rt.nested_in or "",
                    chunk_id=cid,
                    span_start=rt.span_start,
                    span_end=rt.span_end,
                    confidence=1.0,
                    method=rt.pattern,
                )
            )

    return DocExtraction(
        triples=all_triples,
        entities=[(e.canonical_name, e.kind, e.first_offset) for e in kb.entities()],
        n_chunks=len(chunks),
        n_pronouns_resolved=n_pronouns,
        resolved_text="".join(resolved_parts) if len(chunks) == 1 else resolved_parts[0],
    )
