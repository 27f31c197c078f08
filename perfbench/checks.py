"""Output checks: an order-independent triple-set hash, the web_pages gold
check and the bit-equality of a resumed partition."""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq


class CheckFailed(Exception):
    """An output check failed; the run counts as failed."""


def triple_set_hash(subj, pred, obj) -> str:
    """sha256 over the sorted distinct (subj, pred, obj) set: the same set
    in any order or multiplicity hashes equal."""
    lines = sorted({f"{s}\x1f{p}\x1f{o}" for s, p, o in zip(subj, pred, obj)})
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


def table_hash(table: pa.Table) -> str:
    return triple_set_hash(table.column("subj").to_pylist(),
                           table.column("pred").to_pylist(),
                           table.column("obj").to_pylist())


def check_hash(got: str, want: str, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: triple-set hash {got[:16]} != expected {want[:16]}")


def check_gold(table: pa.Table, gold: set) -> None:
    """Every gold (subj_slug, pred, obj) triple must be in the output."""
    have = set(zip(table.column("subj_slug").to_pylist(),
                   table.column("pred").to_pylist(),
                   table.column("obj").to_pylist()))
    missing = gold - have
    if missing:
        raise CheckFailed(f"{len(missing)} gold triples missing, e.g. {sorted(missing)[:3]}")


def partition_content(part_dir: str) -> tuple[pa.Table, list[str]]:
    """A committed partition's rows (all columns, sorted, the hive
    ``subj_bucket`` key restored) and its sorted N-Triples lines; file names
    are not content and are ignored."""
    tables, lines = [], []
    for root, _dirs, names in os.walk(part_dir):
        for name in sorted(names):
            path = os.path.join(root, name)
            if name.endswith(".parquet"):
                t = pq.read_table(path)
                bucket = os.path.basename(root)
                if bucket.startswith("subj_bucket="):
                    t = t.append_column("subj_bucket", pa.array(
                        [int(bucket.split("=", 1)[1])] * len(t), pa.int32()))
                tables.append(t)
            elif name.endswith(".nt"):
                with open(path, encoding="utf-8") as fh:
                    lines.extend(fh.read().splitlines())
    if not tables:
        raise CheckFailed(f"no parquet output under {part_dir}")
    table = pa.concat_tables(tables, promote_options="default")
    keys = [(c, "ascending") for c in sorted(table.column_names)]
    return table.sort_by(keys), sorted(lines)


def check_partition_equal(fresh: tuple, resumed: tuple, part: int) -> None:
    if not fresh[0].equals(resumed[0]):
        raise CheckFailed(f"resumed partition {part} rows differ from the fresh run")
    if fresh[1] != resumed[1]:
        raise CheckFailed(f"resumed partition {part} N-Triples differ from the fresh run")
