"""Deterministic text kernels: HTML -> text, sentence split, chunking.

- ``extract_text``: boilerplate-stripping HTML extractor (new stage; the
  reference consumes already-plain text — SURVEY.md S3).  Versioned pure
  function of the html bytes: byte-identical output per url is an invariant
  tested with golden hashes.
- ``split_sentences_naive``: the reference's naive ``'.'`` split used by
  rule-based coref (/root/reference/src/coref.rs:263).
- ``split_segments``: paragraph/sentence segmentation used by the pattern
  extractor (paragraphs on blank lines, sentences on terminator followed by
  an uppercase start — robust to DocRED's detached-punctuation tokens).
- ``chunk_text``: sentence-boundary chunker preserving the reference's
  sizing contract (3,500 chars / 400 overlap, /root/reference/src/chunking.rs:99-106)
  with exact start/end offsets into the source document.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

# Tags whose entire subtree is boilerplate.
_SKIP_TAGS = frozenset(
    ["script", "style", "noscript", "head", "nav", "footer", "header", "aside", "template"]
)
_VOID_TAGS = frozenset(["br", "hr", "img", "input", "meta", "link", "area", "base", "col",
                        "embed", "source", "track", "wbr"])


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _VOID_TAGS:
            return
        if tag in _SKIP_TAGS or self._skip_depth:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if self._skip_depth:
            self._skip_depth -= 1

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


_TAG_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9-]*)([^<>]*?)(/?)>")
_CDATA_TAGS = frozenset(["script", "style"])  # HTMLParser raw-text mode


def _extract_text_fast(html: str) -> str | None:
    """Regex tag scanner for SIMPLE html — byte-identical to the
    HTMLParser path on the inputs it accepts, returns None (caller falls
    back) on anything outside its verified subset: declarations/comments/
    processing instructions, quoted or angle-bracketed attribute text,
    malformed '<' runs, end tags with attributes, or raw-text (script/
    style) close tags the scanner cannot replay exactly.  Python's
    ``HTMLParser.goahead`` walks the document char-class by char-class
    (~30% of the extract chain's UDF time at bench); this path is one
    ``finditer`` pass."""
    if "<!" in html or "<?" in html:
        return None
    from html import unescape

    parts: list[str] = []
    skip = 0
    pos = 0
    i = html.find("<")
    if i < 0:
        return unescape(html) if "&" in html else html
    m = _TAG_RE.search(html, 0)
    while m is not None:
        s, e = m.span()
        seg = html[pos:s]
        if "<" in seg:
            return None
        if seg and not skip:
            parts.append(unescape(seg) if "&" in seg else seg)
        closing, tag, attrs, selfclose = m.groups()
        tag = tag.lower()
        if "'" in attrs or '"' in attrs:
            return None
        if closing:
            if attrs.strip() or selfclose:
                return None
            if tag not in _VOID_TAGS and skip:
                skip -= 1
        elif tag not in _VOID_TAGS:
            enter_skip = tag in _SKIP_TAGS or skip
            if enter_skip:
                skip += 1
            if selfclose and enter_skip:
                skip -= 1
            if not selfclose and tag in _CDATA_TAGS:
                # raw-text mode: data (dropped — we are inside a skip
                # subtree) runs to the matching close tag; mirror the
                # parser's `</\s*tag` end condition, but only when the
                # close tag is one this scanner can replay
                endm = re.compile(rf"</\s*{tag}", re.I).search(html, e)
                if endm is None:
                    # parser consumes the rest as raw text: nothing more
                    # is emitted (skip >= 1 here)
                    return "".join(parts)
                nm = _TAG_RE.match(html, endm.start())
                if nm is None or nm.group(1) != "/" or nm.group(2).lower() != tag:
                    return None
                e = endm.start()  # reprocess the close tag in the loop
        pos = e
        m = _TAG_RE.search(html, pos)
    tail = html[pos:]
    if "<" in tail:
        return None
    if tail and not skip:
        parts.append(unescape(tail) if "&" in tail else tail)
    return "".join(parts)


def extract_text(html: bytes | str) -> str:
    """Extract visible text from HTML, dropping boilerplate subtrees.

    Character data outside skip-listed tags is concatenated verbatim
    (entities unescaped); no whitespace normalization is applied, so text
    embedded in a single content element round-trips byte-identically.
    A fast regex scanner handles simple documents (bailing to the
    HTMLParser path on anything it cannot replay byte-identically —
    differential-tested in tests/test_text_kernels.py).
    """
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    fast = _extract_text_fast(html)
    if fast is not None:
        return fast
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    return "".join(parser.parts)


def split_sentences_naive(text: str) -> list[str]:
    """Reference coref sentence split: ``'.'``-separated, drop blank parts."""
    return [s for s in text.split(".") if s.strip()]


_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+(?=[A-Z\"(“])")


def split_segments(text: str) -> list[tuple[str, int]]:
    """Split into (segment, start_offset) pairs.

    Paragraph breaks (blank lines) always split; within a paragraph we split
    after ``.!?`` only when followed by whitespace + an uppercase opener, so
    abbreviation-style tokens ("Apple Inc . is ...") stay in one segment.
    """
    segments: list[tuple[str, int]] = []
    offset = 0
    for para in re.split(r"(\n\s*\n)", text):
        if not para.strip():
            offset += len(para)
            continue
        start = offset
        pieces = _SENT_BOUNDARY.split(para)
        pos = start
        for piece in pieces:
            idx = text.index(piece, pos)
            if piece.strip():
                segments.append((piece, idx))
            pos = idx + len(piece)
        offset += len(para)
    return segments


CHUNK_MAX_CHARS = 3500
CHUNK_OVERLAP = 400
CHUNK_TOKEN_THRESHOLD = 2000  # est. tokens = len(text)//4 (extractor.rs:311-314)


def estimate_tokens(text: str) -> int:
    return len(text) // 4


def needs_chunking(text: str, threshold_tokens: int = CHUNK_TOKEN_THRESHOLD) -> bool:
    return estimate_tokens(text) >= threshold_tokens


def chunk_text(
    text: str,
    max_chars: int = CHUNK_MAX_CHARS,
    overlap: int = CHUNK_OVERLAP,
) -> list[tuple[int, str, int, int]]:
    """Split at sentence-ish boundaries into <= max_chars chunks with overlap.

    Returns ``(chunk_id, chunk_text, start_offset, end_offset)`` with exact
    offsets (chunk_text == text[start:end]).  Boundary choice prefers the
    last sentence terminator in the window, then the last whitespace, then a
    hard cut, so chunks never split mid-word unless a single token exceeds
    the window.
    """
    n = len(text)
    if n <= max_chars:
        return [(0, text, 0, n)]
    chunks: list[tuple[int, str, int, int]] = []
    start = 0
    cid = 0
    step_min = max(1, max_chars - overlap)
    while start < n:
        end = min(start + max_chars, n)
        if end < n:
            window = text[start:end]
            cut = max(window.rfind(". "), window.rfind(".\n"), window.rfind("! "), window.rfind("? "))
            if cut >= step_min // 2:
                end = start + cut + 1
            else:
                ws = window.rfind(" ")
                if ws >= step_min // 2:
                    end = start + ws
        chunks.append((cid, text[start:end], start, end))
        cid += 1
        if end >= n:
            break
        # next chunk starts `overlap` before this chunk's end; always move forward
        start = max(end - overlap, start + 1)
    return chunks
