"""WARC source: parse WARC/1.0 web-archive shards into a page table.

The web-crawl interchange format (ISO 28500; what Common Crawl ships)
— the natural upstream of this repo's webtext operators
(extract_links / canonical_urls / url_dedup / host graph).  No WARC
library exists in this container, so the parser is a small
self-contained implementation of the record framing: repeated

    WARC/1.0\r\n <headers> \r\n\r\n <Content-Length payload bytes> \r\n\r\n

Payload slicing honours ``Content-Length`` (a payload may itself
contain ``\r\n\r\n`` — splitting on the blank line alone is the
classic WARC-parsing bug), and only ``WARC-Type: response`` records
become rows; warcinfo/request/metadata records are skipped and
counted (``warc_skipped_records``), malformed tails likewise
(``warc_bad_records``) — at 100 TB a corrupt shard must not kill the
read, but it must be visible.

Ray-Data-first shape: ``ray.data.read_binary_files`` streams one file
per block (files are the parallelism unit for WARC — Common Crawl
ships ~1 GB shards precisely so readers scale file-wise), and parsing
is one raw task per read block (``bsp.map_blocks``) over the raw bytes,
its counts returned with the block.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..stages.bsp import map_blocks
from ..state.counters import incr

_STATUS_RE = re.compile(rb"^HTTP/1\.[01] (\d{3})")
_CTYPE_RE = re.compile(rb"Content-Type: ([^\r\n]+)", re.IGNORECASE)


def _parse_warc_bytes(data: bytes) -> tuple[list[dict], int, int]:
    """Parse one WARC file's bytes -> (response rows, skipped, bad)."""
    rows: list[dict] = []
    skipped = 0
    bad = 0
    pos = 0
    n = len(data)
    while pos < n:
        start = data.find(b"WARC/1.0\r\n", pos)
        if start < 0:
            break
        hdr_end = data.find(b"\r\n\r\n", start)
        if hdr_end < 0:
            bad += 1
            break
        header = data[start + 10:hdr_end].decode("utf-8", "replace")
        fields = {}
        for line in header.split("\r\n"):
            # spec-legal separator is ':' with OPTIONAL whitespace
            # ("Content-Length:123" is valid) — split on the bare colon
            # and strip, not partition(': ')
            k, _, v = line.partition(":")
            if k and _:
                fields[k.strip().lower()] = v.strip()
        try:
            clen = int(fields.get("content-length", ""))
        except ValueError:
            bad += 1
            pos = hdr_end + 4
            continue
        if clen < 0:
            # a negative length would step pos BACKWARD and re-find the
            # same record forever — bad-count and skip past the header
            bad += 1
            pos = hdr_end + 4
            continue
        payload = data[hdr_end + 4:hdr_end + 4 + clen]
        pos = hdr_end + 4 + clen
        if len(payload) < clen:
            # truncated final record: count it, never emit a silently
            # shortened body
            bad += 1
            continue
        if fields.get("warc-type") != "response":
            skipped += 1
            continue
        http_end = payload.find(b"\r\n\r\n")
        if http_end < 0:
            bad += 1
            continue
        http_hdr = payload[:http_end]
        sm = _STATUS_RE.match(http_hdr)
        cm = _CTYPE_RE.search(http_hdr)
        rows.append({
            "target_uri": fields.get("warc-target-uri", ""),
            "record_id": fields.get("warc-record-id", "").strip("<>"),
            "http_status": int(sm.group(1)) if sm else 0,
            "content_type": (cm.group(1).decode("utf-8", "replace")
                             if cm else ""),
            "body": payload[http_end + 4:].decode("utf-8", "replace"),
        })
    return rows, skipped, bad


def read_warc(paths: str | list[str]) -> rd.Dataset:
    """Read WARC shards into ``(target_uri, record_id, http_status,
    content_type, body)`` — response records only; other record types
    and malformed records are counted, never silently dropped."""
    files = rd.read_binary_files(paths)

    def parse(batch: pa.Table) -> pa.Table:
        uris: list[str] = []
        rids: list[str] = []
        stats: list[int] = []
        ctypes: list[str] = []
        bodies: list[str] = []
        skipped = 0
        bad = 0
        for data in batch.column("bytes").to_pylist():
            rows, s, b = _parse_warc_bytes(data)
            skipped += s
            bad += b
            for r in rows:
                uris.append(r["target_uri"])
                rids.append(r["record_id"])
                stats.append(r["http_status"])
                ctypes.append(r["content_type"])
                bodies.append(r["body"])
        incr({"warc_skipped_records": skipped, "warc_bad_records": bad})
        return pa.table({
            "target_uri": pa.array(uris, pa.string()),
            "record_id": pa.array(rids, pa.string()),
            "http_status": pa.array(stats, pa.int64()),
            "content_type": pa.array(ctypes, pa.string()),
            "body": pa.array(bodies, pa.string()),
        })

    return map_blocks(files, parse).dataset()


_WORDS = ["alpha", "beta", "gamma", "delta", "scan", "merge", "table",
          "index", "crawl", "fetch", "parse", "render"]


def write_warc_fixture(out_dir: str, n_pages: int,
                       shards: int = 4,
                       dup_every: int | None = None) -> list[str]:
    """Deterministic ASCII WARC/1.0 shards for tests/oracles: one
    warcinfo record per shard, then alternating request (skipped by
    the reader) + response records; every 13th response is a 404.
    ``dup_every``: every that-many-th page reuses page 1's body
    (distinct URI, duplicate content) so dedup stages have planted
    work.  ASCII-only payloads keep byte offsets == char offsets so a
    SQL replay's character substr sees the same slices."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for s in range(shards):
        parts: list[bytes] = []
        info = b"software: graft-fixture\r\n"
        parts.append(b"WARC/1.0\r\n"
                     b"WARC-Type: warcinfo\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(info)
                     + info + b"\r\n\r\n")
        for i in range(s, n_pages, shards):
            uri = f"http://site{i % 7}.example.com/page/{i}"
            rid = ("urn:uuid:"
                   + hashlib.blake2b(uri.encode(),
                                     digest_size=8).hexdigest())
            req = b"GET /page HTTP/1.1\r\nHost: x\r\n\r\n"
            parts.append(b"WARC/1.0\r\n"
                         b"WARC-Type: request\r\n"
                         + f"WARC-Target-URI: {uri}\r\n".encode()
                         + b"Content-Length: %d\r\n\r\n" % len(req)
                         + req + b"\r\n\r\n")
            status = 404 if i % 13 == 0 else 200
            eff = 1 if (dup_every and i % dup_every == 0
                        and i != 1) else i
            rng = np.random.RandomState(eff)
            words = " ".join(_WORDS[j] for j in rng.randint(
                0, len(_WORDS), 8 + eff % 5))
            # body deliberately contains a blank line: the
            # Content-Length framing must survive it
            body = (f"<html><body>{words}\r\n\r\n"
                    f"tail {eff}</body></html>").encode()
            http = (f"HTTP/1.1 {status} X\r\n"
                    f"Content-Type: text/html\r\n\r\n").encode() + body
            parts.append(b"WARC/1.0\r\n"
                         b"WARC-Type: response\r\n"
                         + f"WARC-Target-URI: {uri}\r\n".encode()
                         + f"WARC-Record-ID: <{rid}>\r\n".encode()
                         + b"Content-Length: %d\r\n\r\n" % len(http)
                         + http + b"\r\n\r\n")
        p = os.path.join(out_dir, f"shard-{s:02d}.warc")
        with open(p, "wb") as f:
            f.write(b"".join(parts))
        paths.append(p)
    return paths
