"""Per-document entity state (KnowledgeBuffer).

Mirrors /root/reference/src/knowledge_buffer.rs:30-163: first-write-wins
registration keyed on lowercased canonical name, alias registration, property
accumulation, last-entity-of-kind, and a context summary string.  Scope is a
single document (cleared per doc in the reference); in the Ray pipeline one
document is processed inside one UDF invocation, so this is a plain local
object — never cross-task state (SURVEY.md §1.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .entities import ORG_LIKE, PERSON


@dataclass
class EntityContext:
    canonical_name: str
    kind: str
    first_offset: int
    first_chunk_id: int = 0
    aliases: list[str] = field(default_factory=list)
    properties: dict[str, str] = field(default_factory=dict)


def _name_tokens(key: str) -> frozenset[str]:
    """The token set containment matching compares: a lowercased name's
    whitespace tokens with dots removed ("U.S. Army" -> {us, army})."""
    return frozenset(key.replace(".", "").split())


class KnowledgeBuffer:
    def __init__(self) -> None:
        self._entities: dict[str, EntityContext] = {}
        self._alias_to_canonical: dict[str, str] = {}
        # each entity's token set, built once at registration (a
        # canonical name never changes), and token -> entity keys
        self._tokens: dict[str, frozenset[str]] = {}
        self._postings: dict[str, list[str]] = {}

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
            toks = self._tokens[key] = _name_tokens(key)
            for t in toks:
                self._postings.setdefault(t, []).append(key)
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
        stoks = _name_tokens(key)
        exact = self.get(surface)
        # the entity named ``key`` plus every entity whose token set
        # strictly contains the surface's: all of those hold its rarest
        # token, so only that token's posting list is scanned
        matched = [key] if key in self._entities else []
        if stoks:
            rarest = min((self._postings.get(t, ()) for t in stoks), key=len)
            matched += [k for k in rarest if k != key and stoks < self._tokens[k]]

        def candidates(kind_filter: bool) -> list[EntityContext]:
            out = []
            for k in matched:
                ent = self._entities[k]
                if kind_filter and expected_kind is not None:
                    ok = (
                        ent.kind == expected_kind
                        or (expected_kind in ORG_LIKE and ent.kind in ORG_LIKE)
                    )
                    if not ok:
                        continue
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
        self._tokens.clear()
        self._postings.clear()
