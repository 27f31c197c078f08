"""Seeded load generation for the benchmark workloads.

Everything here runs in the calling process: no pool, no thread.  The
generated pages (Parquet, the pages schema of ``sources.fixtures``) and KB
records are cached under ``<root>/.perfbench_cache`` keyed by (workload,
seed, size), together with the expected output of the pipeline computed by
``reference_triples`` - the same kernels composed in one process with no
Ray - so a later run with the same key reads files (web_pages also
rebuilds its gold triples, which takes a fraction of a second).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from text_to_rdf_ray.kernels.extractor import extract_document
from text_to_rdf_ray.kernels.text import extract_text
from text_to_rdf_ray.sources import fixtures
from text_to_rdf_ray.stages.canonicalize import canonicalize_local

from .checks import triple_set_hash

#: pages per workload, sized for a one-CPU Ray run
SIZES = {"web_pages": 6_000, "partitioned_at_scale": 2_000}
#: distinct entities per page in the generated corpus
ENTITIES_PER_PAGE = 0.4
#: share of generated mentions carrying a one-character misspelling
MISSPELL_RATE = 0.15
#: web_pages mix: one long chunked document in 40, a hot entity on every 17th page
LONG_EVERY = 40
HOT_EVERY = 17
N_FILES = 8
PARTITIONS = 2
#: bump when generated inputs or the cached layout change
FORMAT = 1

WORKLOADS = tuple(SIZES)

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "", "n", "r", "l", "s"]
_TH = {1: "st", 2: "nd", 3: "rd"}


@dataclass
class Corpus:
    workload: str
    seed: int
    #: (workload, size, format): what a recorded output hash is valid for
    key: str
    pages_dir: str
    kb_records: list
    n_pages: int
    #: (subj, pred, obj) set hash the pipeline must produce
    expected_hash: str
    #: web_pages: gold (subj_slug, pred, obj) triples of short ``en`` pages
    gold: set = field(default_factory=set)

    def files(self) -> list[str]:
        return sorted(os.path.join(self.pages_dir, f)
                      for f in os.listdir(self.pages_dir) if f.endswith(".parquet"))


# -- generators (pure functions of (n, seed)) --------------------------------

def web_pages_rows(n: int, seed: int) -> list[dict]:
    """The headline mix from ``fixtures.page_rows``; the seed picks the page
    index window and the language tags."""
    start = seed * 1009
    return list(fixtures.page_rows(start + n, seed=seed, long_every=LONG_EVERY,
                                   hot_every=HOT_EVERY, start=start))


def _word(rng: random.Random, syllables: int) -> str:
    w = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
    return (w + rng.choice(_CODAS)).capitalize()


def entity_names(n: int, rng: random.Random) -> list[str]:
    """``n`` distinct two-word person names from a syllable generator."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        name = f"{_word(rng, rng.randint(2, 3))} {_word(rng, rng.randint(2, 3))}"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def misspell(name: str, rng: random.Random) -> str:
    """Replace one lowercase letter (never a word's first) by another."""
    spots = [i for i, c in enumerate(name) if c.islower()]
    i = rng.choice(spots)
    letters = [c for c in "abdefgiklmnoprstuvz" if c != name[i]]
    return name[:i] + rng.choice(letters) + name[i + 1:]


def entity_pages(n: int, seed: int) -> tuple[list[dict], list[dict]]:
    """Short pages each naming one of ``ENTITIES_PER_PAGE * n`` generated
    people (a birth date, or a degree from a generated university); the KB
    holds half of the people and half of the universities, and
    ``MISSPELL_RATE`` of the mentions are misspelt."""
    rng = random.Random(seed)
    people = entity_names(max(2, int(n * ENTITIES_PER_PAGE)), rng)
    univs = [f"{_word(rng, 3)} University" for _ in range(40)]
    kb: list[dict] = []
    for name in sorted(rng.sample(people, len(people) // 2)):
        kb.append(_kb_record(name, ["Person"]))
    for u in sorted(rng.sample(univs, len(univs) // 2)):
        kb.append(_kb_record(u, ["EducationalOrganization", "Organization"]))
    rows = []
    for i in range(n):
        name = people[rng.randrange(len(people))]
        if rng.random() < MISSPELL_RATE:
            name = misspell(name, rng)
        # page-unique dates, so dedup keeps (almost) every row
        day, month, year = 1 + i % 28, (i // 28) % 12, 1700 + (i // 336) % 300
        if rng.random() < 0.7:
            th = _TH.get(day % 10 if day not in (11, 12, 13) else 0, "th")
            text = f"{name} was born on the {day}{th} of {fixtures.MONTH_NAMES[month]} {year}."
        else:
            text = f"{name} graduated from {univs[(i * 7) % len(univs)]} in {year} with a B.S."
        rows.append({
            "url": f"https://gen.test/s{seed}/doc/{i:08d}",
            "warc_ts": 1704067200_000000 + i * 1_000_000,
            "html": fixtures.wrap_html(f"Doc {i}", text),
            "text": text,
            "lang": "en",
        })
    return rows, kb


def _kb_record(label: str, types: list[str]) -> dict:
    slug = label.lower().replace(" ", "-")
    return {"uri": f"https://kb.test/gen/{slug}", "label": label, "aliases": [],
            "types": types}


def gold_triples(rows: list[dict], seed: int) -> set:
    """Gold (subj_slug, pred, obj) triples of the short ``en`` web pages."""
    start = seed * 1009
    gold: set = set()
    for k, row in enumerate(rows):
        i = start + k
        if row["lang"] == "en" and i % LONG_EVERY != LONG_EVERY - 1:
            gold |= fixtures.gold_case(i)[1]
    return gold


# -- expected output ---------------------------------------------------------

def reference_triples(texts: list[str]) -> set[tuple[str, str, str]]:
    """The pipeline's (subj, pred, obj) output for one group of documents,
    computed in this process: extract, canonicalize the subject and entity
    object surfaces, apply the map, take the distinct set.  Linking and
    validation add columns only."""
    rows = []
    for text in texts:
        if text:
            rows.extend((t.subj, t.pred, t.obj, t.obj_type)
                        for t in extract_document(text).triples)
    surfaces = sorted({s for s, _, _, _ in rows} | {o for _, _, o, ot in rows if ot})
    m = canonicalize_local(surfaces)
    return {(m.get(s, s), p, m.get(o, o) if ot else o) for s, p, o, ot in rows}


def _expected(tables: list[pa.Table]) -> tuple[str, int]:
    """Expected hash over the partition groups ``run_partitioned`` forms
    (one group per entry of ``tables``)."""
    out: set = set()
    for table in tables:
        en = table.filter(pc.equal(table.column("lang"), "en"))
        out |= reference_triples([extract_text(h) for h in en.column("html").to_pylist()])
    s, p, o = zip(*out) if out else ((), (), ())
    return triple_set_hash(s, p, o), len(out)


# -- cache -------------------------------------------------------------------

def prepare(workload: str, seed: int, cache_root: str) -> Corpus:
    """Generate (or read back) the inputs and expected output of one run."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    n = SIZES[workload]
    key = f"{workload}-n{n}-f{FORMAT}"
    final = os.path.join(cache_root, f"{workload}-s{seed}-n{n}-f{FORMAT}")
    gold: set = set()
    if workload == "web_pages":
        rows, kb = web_pages_rows(n, seed), fixtures.kb_records()
        gold = gold_triples(rows, seed)
    if not os.path.exists(os.path.join(final, "meta.json")):
        if workload == "partitioned_at_scale":
            rows, kb = entity_pages(n, seed)
        _write(final, rows, kb, workload)
    with open(os.path.join(final, "meta.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(final, "kb.json")) as fh:
        kb = json.load(fh)
    return Corpus(workload, seed, key, os.path.join(final, "pages"), kb, meta["n_pages"],
                  meta["expected_hash"], gold)


def _write(final: str, rows: list[dict], kb: list[dict], workload: str) -> None:
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".gen-", dir=os.path.dirname(final))
    try:
        os.makedirs(os.path.join(tmp, "pages"))
        table = pa.Table.from_pylist(rows, schema=fixtures.PAGES_SCHEMA)
        step = -(-len(rows) // N_FILES)
        files = [table.slice(k * step, step) for k in range(N_FILES)]
        for k, part in enumerate(files):
            pq.write_table(part, os.path.join(tmp, "pages", f"pages-{k:05d}.parquet"))
        # run_partitioned groups the sorted files round-robin
        groups = PARTITIONS if workload == "partitioned_at_scale" else 1
        expected_hash, expected_rows = _expected(
            [pa.concat_tables(files[g::groups]) for g in range(groups)])
        with open(os.path.join(tmp, "kb.json"), "w") as fh:
            json.dump(kb, fh)
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            json.dump({"n_pages": len(rows), "expected_hash": expected_hash,
                       "expected_rows": expected_rows}, fh)
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
