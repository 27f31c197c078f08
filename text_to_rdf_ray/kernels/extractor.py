"""Document-level deterministic triple extraction.

Orchestrates the reference's staged flow for ONE document inside one
function call (the whole document is a row in the Ray pipeline, so the
sequential-chunk contract of /root/reference/src/extractor.rs:595-600 is
preserved with zero cross-task state):

  chunk (3,500/400 when est. tokens >= 2,000; extractor.rs:572-587)
  -> per chunk, sequentially with a shared KnowledgeBuffer:
       scan mentions -> register -> typed coref -> re-scan -> patterns
       -> kind-aware alias resolution (KnowledgeBuffer.resolve)
  -> per-document exact triple dedup (HashSet semantics,
     integration_tests.rs:70).

Output is relational: a list of ``DocTriple`` rows with provenance columns
(url-level keys are attached by the Ray stage).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coref import CorefResult, resolve_reference_rule, resolve_typed
from .entities import ORG_LIKE, PERSON, scan_mentions
from .knowledge import KnowledgeBuffer
from .normalize import normalize_docred_subject, normalize_entity_name, normalize_predicate
from .patterns import RawTriple, extract_raw_triples, predicate_blacklisted
from .text import (
    CHUNK_MAX_CHARS,
    CHUNK_OVERLAP,
    CHUNK_TOKEN_THRESHOLD,
    chunk_text,
    needs_chunking,
    split_segments,
)


@dataclass
class DocTriple:
    subj: str            # canonical surface form of the subject
    subj_slug: str       # slugified subject (WebNLG convention, normalize.rs:27-31)
    subj_lower: str      # lowercase_underscore subject (DocRED convention)
    pred: str            # normalized predicate (normalize.rs:52-71)
    pred_key: str        # original Schema.org key
    obj: str             # literal value or canonical object surface form
    subj_type: str
    obj_type: str        # "" for literals
    nested_in: str       # "" or parent predicate (JSON-LD nesting)
    chunk_id: int
    span_start: int
    span_end: int
    confidence: float
    method: str          # pattern name


@dataclass
class DocExtraction:
    triples: list[DocTriple]
    entities: list[tuple[str, str, int]]  # (canonical_name, kind, first_offset)
    n_chunks: int
    n_pronouns_resolved: int
    resolved_text: str


def _resolve_slot(kb: KnowledgeBuffer, surface: str, expected_kind: str):
    ent = kb.resolve(surface, expected_kind=expected_kind)
    # pattern slots carry more signal than the scanner's Person
    # default: upgrade ("UT Austin" -> EducationalOrganization)
    if expected_kind and ent.kind == PERSON and expected_kind != PERSON:
        ent.kind = expected_kind
    return ent


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
            coref = CorefResult(original_text=ctext, resolved_text=ctext,
                                mention_map={}, replacements=[], n_resolved=0)
        elif coref_strategy == "reference":
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

        for rt in raw:
            subj_ent = _resolve_slot(kb, rt.subj, rt.subj_kind)
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
                obj_ent = _resolve_slot(kb, rt.obj, rt.obj_kind)
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
