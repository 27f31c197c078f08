"""Per-partition checkpoint manifests (resumable output).

The reference has no checkpointing (SURVEY.md §4.1); at 100 TB a run must
resume mid-corpus.  Layout: one output directory per input partition
(``part=<k>/``), each written atomically (tmp dir + rename) together with a
``manifest.json`` recording input lineage (fragment paths) and row
counters.  A rerun skips a partition whose manifest is complete and lists
the fragments of its current group (:func:`resumable`; a complete
manifest over other fragments raises); everything else is recomputed
from lineage.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile


MANIFEST_NAME = "manifest.json"


def partition_dir(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"part={part}")


def is_complete(out_dir: str, part: int) -> bool:
    path = os.path.join(partition_dir(out_dir, part), MANIFEST_NAME)
    if not os.path.exists(path):
        return False
    try:
        with open(path) as f:
            return json.load(f).get("status") == "complete"
    except (json.JSONDecodeError, OSError):
        return False


def _norm_paths(paths) -> list[str]:
    return sorted(os.path.normpath(os.path.abspath(p)) for p in paths)


def resumable(out_dir: str, part: int, input_fragments,
              stamp: dict | None = None) -> bool:
    """Whether partition ``part`` can be skipped on resume: True when its
    complete manifest lists exactly ``input_fragments`` (compared as
    normalized absolute paths) and records ``stamp`` (the fields of its
    file layout, :func:`check_stamp`), False when it has no complete
    manifest.  A complete manifest over other fragments or another
    layout is stale — the input changed, was dealt into another number
    of partitions, or the run asks for another layout — and raises
    ``ValueError`` naming the partition and the field."""
    if not is_complete(out_dir, part):
        return False
    had = (read_manifest(out_dir, part) or {}).get("input_fragments") or []
    if _norm_paths(had) != _norm_paths(input_fragments):
        raise ValueError(
            f"partition {part} under {out_dir} is complete but stale: its "
            f"manifest's input_fragments list {len(had)} file(s), not the "
            f"{len(input_fragments)} of its current group; rerun with "
            "resume=False or into a new output directory")
    check_stamp(out_dir, part, stamp or {})
    return True


def check_stamp(out_dir: str, part: int, stamp: dict) -> None:
    """Raise ``ValueError``, naming the partition and the field, when
    partition ``part``'s manifest records a field of ``stamp`` with
    another value (a writer that stamps nothing records no field)."""
    m = read_manifest(out_dir, part) or {}
    for field, want in stamp.items():
        if field in m and m[field] != want:
            raise ValueError(
                f"partition {part} under {out_dir} was written with "
                f"{field}={m[field]!r}, not {want!r}")


def read_manifest(out_dir: str, part: int) -> dict | None:
    path = os.path.join(partition_dir(out_dir, part), MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def write_partition(out_dir: str, part: int, write_fn, *, input_fragments,
                    counters: dict) -> dict:
    """Atomically produce ``out_dir/part=<k>``.

    ``write_fn(tmp_dir)`` writes the partition's data files into ``tmp_dir``
    and returns extra manifest fields (e.g. row counts); its
    ``counters`` are added to ``counters``.  On success the tmp dir is
    renamed into place with a complete manifest inside.
    """
    final = partition_dir(out_dir, part)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".part{part}-", dir=out_dir)
    try:
        extra = write_fn(tmp) or {}
        manifest = {
            "partition": part,
            "status": "complete",
            "input_fragments": sorted(input_fragments),
            **extra,
            "counters": {**counters, **extra.get("counters", {})},
        }
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(tmp, final)
        return manifest
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def completed_partitions(out_dir: str) -> list[int]:
    if not os.path.isdir(out_dir):
        return []
    out = []
    for name in os.listdir(out_dir):
        if name.startswith("part="):
            part = int(name.split("=", 1)[1])
            if is_complete(out_dir, part):
                out.append(part)
    return sorted(out)


def aggregate_counters(out_dir: str) -> dict:
    """Sum counters across completed partition manifests (run report)."""
    totals: dict[str, float] = {}
    for part in completed_partitions(out_dir):
        m = read_manifest(out_dir, part) or {}
        for k, v in (m.get("counters") or {}).items():
            if isinstance(v, (int, float)):
                totals[k] = totals.get(k, 0) + v
    return totals
