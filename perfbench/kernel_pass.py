"""In-process kernel pass (no Ray) for the traced run.

Runs the per-document kernels, the in-memory linker and the in-process
canonicalizer over a fixed sample of a workload's ``en`` documents, with
the kernel names wrapped where ``kernels.extractor``, ``kernels.linker``,
``kernels.knowledge`` and ``stages.canonicalize`` look them up, so each call
becomes a span.  The originals are restored on exit.
"""

from __future__ import annotations

from contextlib import contextmanager

import text_to_rdf_ray.kernels.extractor as extractor
import text_to_rdf_ray.kernels.knowledge as knowledge
import text_to_rdf_ray.kernels.linker as linker
import text_to_rdf_ray.stages.canonicalize as canonicalize
from text_to_rdf_ray.kernels.text import extract_text

from .tracing import Tracer, self_times, totals

#: documents in the kernel sample (all of them when a corpus has fewer)
SAMPLE_DOCS = 2000

# (owner, attribute) -> span name
_WRAPPED = [
    (extractor, "scan_mentions", "scan_mentions"),
    (extractor, "resolve_typed", "resolve_typed"),
    (extractor, "split_segments", "split_segments"),
    (extractor, "extract_raw_triples", "extract_raw_triples"),
    # the chunker: the size test every document pays, and the split
    (extractor, "needs_chunking", "chunk_text"),
    (extractor, "normalize_predicate", "normalize"),
    (extractor, "normalize_entity_name", "normalize"),
    (extractor, "normalize_docred_subject", "normalize"),
    (knowledge.KnowledgeBuffer, "resolve", "kb_resolve"),
    (linker, "jaro_winkler", "jaro_winkler"),
    (canonicalize, "jaccard", "jaccard"),
]


@contextmanager
def _patched(tracer: Tracer, chunks: list[int]):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _WRAPPED]
    saved.append((extractor, "chunk_text", extractor.chunk_text))
    try:
        for owner, attr, name in _WRAPPED:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        split = tracer.wrap("chunk_text", extractor.chunk_text)

        def chunk_text(*args, **kwargs):
            out = split(*args, **kwargs)
            chunks.append(len(out))
            return out

        extractor.chunk_text = chunk_text
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def run(tracer: Tracer, html_docs: list[bytes], kb_records) -> dict:
    """Trace the kernels over ``html_docs`` (the sample) and return the
    ``kernel.*`` metrics."""
    chunks: list[int] = []
    surfaces: set[str] = set()
    first = len(tracer.spans)
    with _patched(tracer, chunks):
        with tracer.span("kernels"):
            texts = [tracer.wrap("extract_text", extract_text)(h) for h in html_docs]
            extract = tracer.wrap("extract_document", extractor.extract_document)
            for text in texts:
                for t in extract(text).triples:
                    surfaces.add(t.subj)
                    if t.obj_type:
                        surfaces.add(t.obj)
            index = linker.KBIndex(kb_records)
            link = tracer.wrap("link", index.link)
            linked = [link(s) for s in sorted(surfaces)]
            with tracer.span("canonicalize_local"):
                canonicalize.canonicalize_local(sorted(surfaces))
    spans = tracer.spans[first:]
    own = self_times(spans)
    tot = totals(spans)
    calls = {name: n for name, (n, _) in tot.items()}
    exact = sum(1 for s, r in zip(sorted(surfaces), linked)
                if r is not None and s.lower() in index.exact)
    fuzzy = sum(1 for r in linked if r is not None) - exact
    jw = calls.get("jaro_winkler", 0)
    inclusive = tot.get("extract_document", (0, 0.0))[1]
    return {
        "kernel.extract_text.s": own.get("extract_text", 0.0),
        "kernel.extract_document.s": own.get("extract_document", 0.0),
        "kernel.extract_document.us_per_doc": 1e6 * inclusive / max(1, len(texts)),
        "kernel.chunk_text.s": own.get("chunk_text", 0.0),
        "kernel.chunk_text.chunks": sum(chunks),
        "kernel.scan_mentions.s": own.get("scan_mentions", 0.0),
        "kernel.scan_mentions.calls": calls.get("scan_mentions", 0),
        "kernel.resolve_typed.s": own.get("resolve_typed", 0.0),
        "kernel.split_segments.s": own.get("split_segments", 0.0),
        "kernel.extract_raw_triples.s": own.get("extract_raw_triples", 0.0),
        "kernel.kb_resolve.s": own.get("kb_resolve", 0.0),
        "kernel.normalize.s": own.get("normalize", 0.0),
        # inclusive: on web_pages every link is an exact hit and no
        # Jaro-Winkler call is made
        "kernel.link.s": tot.get("link", (0, 0.0))[1],
        "kernel.link.exact": exact,
        "kernel.link.fuzzy": fuzzy,
        "kernel.link.miss": len(linked) - exact - fuzzy,
        "kernel.jaro_winkler.calls": jw,
        "kernel.jaro_winkler.useful_ratio": fuzzy / jw if jw else 0.0,
        "kernel.canonicalize_local.s": own.get("canonicalize_local", 0.0),
        "kernel.jaccard.s": own.get("jaccard", 0.0),
        "kernel.jaccard.calls": calls.get("jaccard", 0),
    }
