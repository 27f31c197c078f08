"""N-Triples source: parse ``.nt`` text shards back into a triples table.

Round-trips the ``write_ntriples`` / ``run_partitioned(ntriples=True)``
shards (``pipelines/kg.py::_sink_task`` — the graph sink the reference
writes via its ``NTriplesFormatter``,
src/formatter.rs): each line is
``<subj-uri> <pred-uri> (<obj-uri> | "literal") .`` with the W3C
escapes ``\\\\ \\" \\n \\r`` in literals.

Ray-Data-first shape: ``ray.data.read_text`` streams the shard files
(one block per file group, parallel across files), and parsing is one
raw task per block (``bsp.map_blocks``) with a COMPILED module-level
regex — per-line work is a single ``re.match`` + group picks.  Lines
that do not parse are counted per block into the ``ntriples_bad_lines``
operator counter and dropped (never silently) — at 100 TB a corrupt
shard must not kill the read, but it must be visible.
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data as rd

from ..stages.bsp import map_blocks
from ..state.counters import incr

#: one line: subj uri, pred uri, then either an object uri or a quoted
#: literal (escaped chars allowed), closing ' .'
_LINE_RE = re.compile(
    r'^<([^>]*)> <([^>]*)> (?:<([^>]*)>|"((?:[^"\\]|\\.)*)") \.\s*$')

def _unescape(s: str) -> str:
    """Inverse of render_ntriples' esc(): process \\\\ via a split so
    escaped backslashes never re-combine with a following char."""
    parts = s.split("\\\\")
    out = []
    for p in parts:
        p = p.replace("\\n", "\n").replace("\\r", "\r").replace('\\"', '"')
        out.append(p)
    return "\\".join(out)


def read_ntriples(paths: str | list[str]) -> rd.Dataset:
    """Read ``.nt`` shards into ``(subj_uri, pred_uri, obj, obj_is_uri)``.

    ``obj`` is the object URI when ``obj_is_uri`` else the UNESCAPED
    literal text.  Malformed lines are dropped and counted (see module
    docstring)."""
    lines = rd.read_text(paths)

    def parse(batch: pa.Table) -> pa.Table:
        subjs: list[str] = []
        preds: list[str] = []
        objs: list[str] = []
        is_uri: list[bool] = []
        bad = 0
        for line in batch.column("text").to_pylist():
            if not line.strip():
                continue
            m = _LINE_RE.match(line)
            if not m:
                bad += 1
                continue
            s, p, ou, lit = m.groups()
            subjs.append(s)
            preds.append(p)
            if ou is not None:
                objs.append(ou)
                is_uri.append(True)
            else:
                objs.append(_unescape(lit))
                is_uri.append(False)
        if bad:
            incr({"ntriples_bad_lines": bad})
        return pa.table({
            "subj_uri": pa.array(subjs, pa.string()),
            "pred_uri": pa.array(preds, pa.string()),
            "obj": pa.array(objs, pa.string()),
            "obj_is_uri": pa.array(is_uri, pa.bool_()),
        })

    return map_blocks(lines, parse).dataset()
