"""JSON-LD rendering and triple flattening.

- ``render_jsonld``: rebuilds the reference's output document shape
  (/root/reference/src/types.rs:170-181, extractor.rs:495-550) from
  relational triple rows: root entity object with nested one-level entities
  under relation keys, ``@graph`` when multiple roots.
- ``flatten_webnlg`` mirrors tests/integration_tests.rs:70-110 (root-level
  facts only; nested entity contributes its ``name`` as the object).
- ``flatten_docred`` mirrors examples/docred_evaluation.rs:251-327
  (subject lowercased+underscored; nested properties promoted).
- ``HARDCODED_CONTEXT`` stands in for context.jsonld (types.rs:11,349-364).
"""

from __future__ import annotations

from .normalize import normalize_docred_subject, normalize_predicate

HARDCODED_CONTEXT = {
    "@vocab": "https://schema.org/",
    "schema": "https://schema.org/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "dcterms": "http://purl.org/dc/terms/",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "birthDate": {"@type": "xsd:date"},
    "deathDate": {"@type": "xsd:date"},
    "foundingDate": {"@type": "xsd:date"},
}


def render_jsonld(doc_triples, context="https://schema.org/"):
    """Build the JSON-LD document for one source document.

    ``doc_triples``: iterable of objects/dicts with fields
    subj, pred_key, obj, subj_type, obj_type, nested_in
    (``DocTriple`` instances or equivalent mappings).

    Root subjects are subjects that are never a nested object; each becomes
    an entity object; multiple roots produce ``{"@graph": [...]}``
    (extractor.rs:495-550 merge semantics).
    """

    def f(t, name):
        return getattr(t, name) if hasattr(t, name) else t[name]

    rows = list(doc_triples)
    roots: dict[str, dict] = {}
    order: list[str] = []
    nested_objs: set[str] = set()
    for t in rows:
        if f(t, "obj_type") and not f(t, "nested_in"):
            nested_objs.add(f(t, "obj"))

    def ensure_root(subj, subj_type):
        if subj not in roots:
            roots[subj] = {"@context": context, "@type": subj_type or "Thing", "name": subj}
            order.append(subj)
        return roots[subj]

    # root-level facts
    for t in rows:
        if f(t, "nested_in"):
            continue
        subj = f(t, "subj")
        if subj in nested_objs and subj not in roots and any(
            f(x, "obj") == subj and f(x, "obj_type") for x in rows
        ):
            # facts about a nested entity attach to its nested object below
            continue
        node = ensure_root(subj, f(t, "subj_type"))
        if f(t, "obj_type"):
            node[f(t, "pred_key")] = {"@type": f(t, "obj_type"), "name": f(t, "obj")}
        else:
            node[f(t, "pred_key")] = f(t, "obj")

    # nested facts: attach under parent predicate's object
    for t in rows:
        if not f(t, "nested_in"):
            continue
        parent_pred = f(t, "nested_in")
        subj = f(t, "subj")  # the nested entity's name
        for node in roots.values():
            child = node.get(parent_pred)
            if isinstance(child, dict) and child.get("name") == subj:
                child[f(t, "pred_key")] = f(t, "obj")

    # facts whose subject is a nested entity (e.g. Warsaw addressCountry)
    for t in rows:
        if f(t, "nested_in") or f(t, "subj") in roots:
            continue
        subj = f(t, "subj")
        attached = False
        for node in roots.values():
            for v in node.values():
                if isinstance(v, dict) and v.get("name") == subj:
                    v[f(t, "pred_key")] = (
                        f(t, "obj") if not f(t, "obj_type")
                        else {"@type": f(t, "obj_type"), "name": f(t, "obj")}
                    )
                    attached = True
        if not attached:
            node = ensure_root(subj, f(t, "subj_type"))
            if f(t, "obj_type"):
                node[f(t, "pred_key")] = {"@type": f(t, "obj_type"), "name": f(t, "obj")}
            else:
                node[f(t, "pred_key")] = f(t, "obj")

    docs = [roots[k] for k in order]
    if not docs:
        return {"@context": context, "@graph": []}
    if len(docs) == 1:
        return docs[0]
    graph = []
    for d in docs:
        d = dict(d)
        d.pop("@context", None)
        graph.append(d)
    return {"@context": context, "@graph": graph}


def flatten_webnlg(jsonld: dict) -> set[tuple[str, str, str]]:
    """integration_tests.rs:70-110 — subject is the (already normalized)
    root name; string values and nested names become objects."""
    triples: set[tuple[str, str, str]] = set()
    nodes = jsonld.get("@graph", [jsonld]) if "@graph" in jsonld else [jsonld]
    for obj in nodes:
        if not isinstance(obj, dict):
            continue
        subject = obj.get("name", "unknown")
        for key, value in obj.items():
            if key.startswith("@") or key == "name":
                continue
            if isinstance(value, str):
                triples.add((subject, normalize_predicate(key), value))
            elif isinstance(value, dict) and isinstance(value.get("name"), str):
                triples.add((subject, normalize_predicate(key), value["name"]))
    return triples


def flatten_docred(jsonld: dict) -> set[tuple[str, str, str]]:
    """docred_evaluation.rs:251-327 — subject lowercased+underscored;
    nested properties promoted to direct triples of the root subject;
    arrays of strings/objects handled."""
    triples: set[tuple[str, str, str]] = set()
    nodes = jsonld.get("@graph", [jsonld]) if "@graph" in jsonld else [jsonld]
    for obj in nodes:
        if not isinstance(obj, dict):
            continue
        subject = normalize_docred_subject(obj.get("name", "unknown"))
        for key, value in obj.items():
            if key.startswith("@") or key == "name":
                continue
            pred = normalize_predicate(key)
            if isinstance(value, str):
                triples.add((subject, pred, value))
            elif isinstance(value, dict):
                if isinstance(value.get("name"), str):
                    triples.add((subject, pred, value["name"]))
                for nk, nv in value.items():
                    if nk.startswith("@") or nk == "name":
                        continue
                    if isinstance(nv, str):
                        triples.add((subject, normalize_predicate(nk), nv))
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, str):
                        triples.add((subject, pred, item))
                    elif isinstance(item, dict) and isinstance(item.get("name"), str):
                        triples.add((subject, pred, item["name"]))
    return triples


def render_ntriples(subj: str, pred: str, obj: str, obj_is_entity: bool,
                    base: str = "https://kg.local/") -> str:
    """One N-Triples line for the graph sink."""

    def esc(s: str) -> str:
        return (
            s.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
        )

    def uri(s: str) -> str:
        from .normalize import normalize_entity_name
        return f"<{base}{normalize_entity_name(s)}>"

    o = uri(obj) if obj_is_entity else f'"{esc(obj)}"'
    return f"{uri(subj)} <https://schema.org/{pred}> {o} ."


def extract_json_block(response: str) -> str | None:
    """Pull JSON out of an LLM-style response (extractor.rs:164-183):
    prefer a ```json fenced block, else the first '{' .. last '}' span.
    Kept for the optional LLM-backed extractor mode."""
    fence = "```json"
    if fence in response:
        start = response.index(fence) + len(fence)
        end = response.find("```", start)
        if end != -1:
            return response[start:end].strip()
    first = response.find("{")
    last = response.rfind("}")
    if first != -1 and last > first:
        return response[first : last + 1]
    return None


def inject_hardcoded_context(jsonld: dict) -> dict:
    """Overwrite @context with the embedded context (types.rs:349-364)."""
    out = dict(jsonld)
    out["@context"] = dict(HARDCODED_CONTEXT)
    return out
