"""KG-construction query operators: basic-graph-pattern matching and
truth-discovery fusion over a triple table.

The reference engine materializes triples and leaves querying to an
external store (reference ``README.md`` positions the N-Triples/JSON-LD
output as the product).  At 100 TB the first consumer of a triple table
is the pipeline itself — joining patterns to build training pairs,
fusing conflicting extractions — so these run AS Dataset stages:

- :func:`bgp_match` — a mini-SPARQL basic-graph-pattern evaluator.
  Each triple pattern becomes a constant-pushdown Arrow filter + column
  projection; patterns chain through :func:`~.exchange.exchange_join`
  on their shared variables (static string schemas, so no schema
  probes).  All-to-all volume per hop is the surviving bindings, never
  the triple table.
- :func:`majority_vote` — per-key truth discovery: the value with the
  highest support wins (ties break on the smaller value, so the result
  is deterministic).  Support counting is a combiner-backed
  ``exchange_agg``; the winner pick is one hash exchange with a
  vectorized per-partition reduce (no per-key Python).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..kernels.minhash import _hash_shingles
from .exchange import exchange_agg, exchange_join, keyed_apply

_POS = ("subj", "pred", "obj")


def _is_var(term: str) -> bool:
    return term.startswith("?")


def _pattern_relation(
    triples: rd.Dataset, pat: tuple[str, str, str],
) -> tuple[rd.Dataset, list[str]]:
    """One triple pattern -> (relation of variable bindings, var names).

    Constants become Arrow equality filters (pushed before any shuffle);
    variable positions project to columns named after the variable.  A
    variable repeated WITHIN the pattern (``?x knows ?x``) adds an
    equality filter and binds once.
    """
    consts = [(c, t) for c, t in zip(_POS, pat) if not _is_var(t)]
    var_pos: list[tuple[str, str]] = []
    out_vars: list[str] = []
    for c, t in zip(_POS, pat):
        if _is_var(t):
            name = t[1:]
            if not name:
                raise ValueError(f"empty variable name in pattern {pat}")
            var_pos.append((c, name))
            if name not in out_vars:
                out_vars.append(name)

    def fn(t: pa.Table) -> pa.Table:
        mask = None
        for col, val in consts:
            m = pc.equal(t.column(col), val)
            mask = m if mask is None else pc.and_(mask, m)
        first_col: dict[str, str] = {}
        for col, name in var_pos:
            if name in first_col:
                m = pc.equal(t.column(first_col[name]), t.column(col))
                mask = m if mask is None else pc.and_(mask, m)
            else:
                first_col[name] = col
        f = t.filter(mask) if mask is not None else t
        return pa.table({name: f.column(col)
                         for name, col in first_col.items()})

    return triples.map_batches(fn, batch_format="pyarrow"), out_vars


def bgp_match(
    triples: rd.Dataset,
    patterns: list[tuple[str, str, str]],
    *,
    distinct: bool = True,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Evaluate a SPARQL-style basic graph pattern over a triple table.

    ``triples`` must have string columns ``subj``/``pred``/``obj``.
    Pattern terms starting with ``?`` are variables; anything else is a
    constant matched exactly.  Returns one column per variable (in
    first-appearance order); ``distinct=True`` (SELECT DISTINCT
    semantics — deterministic regardless of duplicate triples) is the
    default, ``False`` keeps SPARQL bag semantics.

    Every pattern after the first must share >= 1 variable with the
    bindings accumulated so far (a Cartesian product is refused loudly
    — at 100 TB it is always a mistake).  Join order is the pattern
    order the caller wrote; selective patterns (more constants) should
    come first, exactly as in a SPARQL engine without an optimizer.
    """
    bound, bound_vars = _bgp_join(triples, patterns,
                                  num_partitions=num_partitions)
    if distinct:
        bound = exchange_agg(bound, bound_vars,
                             num_partitions=num_partitions)
    return bound


def _bgp_join(
    triples: rd.Dataset,
    patterns: list[tuple[str, str, str]],
    *,
    num_partitions: int = 32,
) -> tuple[rd.Dataset, list[str]]:
    """Shared BGP evaluator core: returns (bindings, var order)."""
    if not patterns:
        raise ValueError("bgp_match: empty pattern list")
    rels = [_pattern_relation(triples, p) for p in patterns]

    bound, bound_vars = rels[0]
    for i, (rel, rel_vars) in enumerate(rels[1:], start=2):
        shared = [v for v in rel_vars if v in bound_vars]
        new = [v for v in rel_vars if v not in bound_vars]
        if not shared:
            raise ValueError(
                f"bgp_match: pattern {i} ({patterns[i - 1]}) shares no "
                f"variable with the previous patterns — Cartesian "
                f"products are not supported; reorder the patterns")
        # a rel var that is bound but NOT a payload column on either
        # side: all shared vars are join keys, so payloads stay disjoint
        bound = exchange_join(
            bound, rel, on=shared, num_partitions=num_partitions,
            left_schema=pa.schema([(v, pa.string()) for v in bound_vars]),
            right_schema=pa.schema([(v, pa.string()) for v in rel_vars]))
        # exchange_join emits keys first, then left payload, then right
        bound_vars = (shared + [v for v in bound_vars if v not in shared]
                      + new)
    return bound, bound_vars


def bgp_match_optional(
    triples: rd.Dataset,
    patterns: list[tuple[str, str, str]],
    optional: list[tuple[str, str, str]],
    *,
    distinct: bool = True,
    num_partitions: int = 32,
) -> rd.Dataset:
    """SPARQL OPTIONAL over :func:`bgp_match`: evaluate the required
    BGP, then LEFT-join each optional pattern on its shared variables —
    rows with no optional match keep their required bindings and bind
    the optional-only variables to NULL (SPARQL's unbound), exactly the
    semantics of ``{ BGP OPTIONAL { p } OPTIONAL { q } }``.

    Each optional pattern must share >= 1 variable with the bindings so
    far (same no-Cartesian rule as the required patterns).  Scale shape
    identical to bgp_match — one more left_outer ``exchange_join`` per
    optional pattern (static string schemas); the distinct at the end
    hashes NULL bindings like any other value.
    """
    bound, bound_vars = _bgp_join(triples, patterns,
                                  num_partitions=num_partitions)
    for i, pat in enumerate(optional, start=1):
        rel, rel_vars = _pattern_relation(triples, pat)
        shared = [v for v in rel_vars if v in bound_vars]
        new = [v for v in rel_vars if v not in bound_vars]
        if not shared:
            raise ValueError(
                f"bgp_match_optional: optional pattern {i} ({pat}) "
                f"shares no variable with the required bindings")
        bound = exchange_join(
            bound, rel, on=shared, how="left_outer",
            num_partitions=num_partitions,
            left_schema=pa.schema([(v, pa.string())
                                   for v in bound_vars]),
            right_schema=pa.schema([(v, pa.string())
                                    for v in rel_vars]))
        bound_vars = (shared + [v for v in bound_vars if v not in shared]
                      + new)
    if distinct:
        bound = exchange_agg(bound, bound_vars,
                             num_partitions=num_partitions)
    return bound


def ontology_closure(
    ontology: list[tuple[str, str]], *, max_classes: int = 100_000,
) -> pd.DataFrame:
    """Transitive closure of ``(class, superclass)`` edges as a
    ``(cls, anc)`` DataFrame (self-pairs excluded).

    Ontologies are the canonical small side of a KG pipeline (schema.org
    ships ~800 classes; even UMLS is ~130k) — the closure is computed on
    the driver and broadcast, never shuffled.  ``max_classes`` guards
    the assumption loudly.  Cycles collapse to "every member reaches
    every other" rather than hanging (the frontier fixpoint terminates
    once no new (cls, anc) pair appears).
    """
    parents: dict[str, set[str]] = {}
    classes: set[str] = set()
    for cls, sup in ontology:
        parents.setdefault(cls, set()).add(sup)
        classes.update((cls, sup))
    if len(classes) > max_classes:
        raise ValueError(
            f"ontology_closure: {len(classes)} classes exceeds "
            f"max_classes={max_classes} — this helper is driver-side by "
            f"design; a bigger ontology needs a distributed closure")
    anc: dict[str, set[str]] = {c: set(parents.get(c, ())) for c in classes}
    changed = True
    while changed:
        changed = False
        for c in classes:
            add = set()
            for a in anc[c]:
                add |= anc.get(a, set())
            add -= anc[c]
            if add:
                anc[c] |= add
                changed = True
    rows = [(c, a) for c in sorted(classes) for a in sorted(anc[c]) if a != c]
    return pd.DataFrame(rows, columns=["cls", "anc"])


def type_inference(
    ds: rd.Dataset,
    ontology: list[tuple[str, str]],
    *,
    entity_col: str = "entity",
    type_col: str = "type",
    num_partitions: int = 64,
) -> rd.Dataset:
    """RDFS-style type inference: every entity gains all supertypes of
    its asserted types under the ``(class, superclass)`` ontology.

    Output: distinct ``(entity_col, type_col, inferred)`` rows — the
    asserted types (``inferred=False``) plus the closure-derived ones
    (``inferred=True``; a type both asserted and derivable stays
    ``False``).  The ontology closure is driver-computed (bounded — see
    :func:`ontology_closure`) and shipped inside the map function; the
    per-batch expansion is ONE vectorized pandas merge against the
    closure table, then a hash-exchange distinct, so the corpus-side
    cost is a map plus one exchange of (entity, type) pairs.
    """
    closure = ontology_closure(ontology)

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        direct = pd.DataFrame({
            entity_col: batch[entity_col].astype(str),
            type_col: batch[type_col].astype(str),
            "inferred": False})
        sup = direct.merge(closure, left_on=type_col, right_on="cls",
                           how="inner")
        sup = pd.DataFrame({entity_col: sup[entity_col],
                            type_col: sup["anc"], "inferred": True})
        return pd.concat([direct, sup], ignore_index=True)

    expanded = ds.map_batches(expand, batch_format="pandas",
                              batch_size=65536)
    # distinct with asserted-wins: min(inferred) over (entity, type) —
    # False < True, so an asserted type survives any inferred duplicate
    return exchange_agg(expanded, [entity_col, type_col],
                        [("inferred", "min", "inferred")],
                        num_partitions=num_partitions)


def majority_vote(
    ds: rd.Dataset,
    *,
    key_cols: list[str],
    value_col: str,
    support_col: str = "support",
    total_col: str = "n_claims",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Truth-discovery fusion: per key, the value asserted most often.

    Emits ``key_cols + [value_col, support_col, total_col]`` — the
    winning value, how many claims back it, and the total claims for
    the key.  Ties break toward the lexicographically/numerically
    smaller value, so the output is a pure function of the multiset of
    claims.  Two phases, both vectorized: support counting via the
    combiner-backed ``exchange_agg`` (shuffle volume = per-batch
    distinct (key, value) pairs), then winner-per-key as one key-hash
    ``keyed_apply`` + per-partition sort / ``groupby.head(1)`` — never
    one Python call per key (NOTES_r3 pathology).
    """
    counted = exchange_agg(
        ds, key_cols + [value_col],
        [(value_col, "count", support_col)],
        num_partitions=num_partitions)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        totals = g.groupby(key_cols, sort=False)[support_col].transform("sum")
        g = g.assign(**{total_col: totals})
        g = g.sort_values(key_cols + [support_col, value_col],
                          ascending=[True] * len(key_cols) + [False, True])
        return g.groupby(key_cols, sort=False).head(1)

    return keyed_apply(counted, key_cols, pick,
                       num_partitions=num_partitions)


def clustering_prf(
    pred: rd.Dataset,
    gold: rd.Dataset,
    *,
    node_col: str = "id",
    pred_col: str = "cluster",
    gold_col: str = "cluster",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Pairwise precision/recall/F1 of a clustering against a gold
    clustering — THE entity-resolution / dedup-quality metric: a "pair"
    is two nodes sharing a cluster; P = |pred-pairs ∩ gold-pairs| /
    |pred-pairs|, R = same over gold-pairs.

    Never materializes pairs: each count is Σ C(n, 2) over cluster
    sizes — pred sizes, gold sizes, and the CONTINGENCY cells (one
    exchange_join of the two assignments on the node, then a count per
    (pred, gold) cluster pair).  All exchanges carry one row per node
    or per non-empty cell; the three Σ reduce through single-key
    exchange_aggs, so a 10⁹-node clustering costs three bounded
    shuffles and O(1) driver state.  Output: one row
    (pred_pairs, gold_pairs, both_pairs, precision, recall, f1).
    """
    from .exchange import exchange_agg, exchange_join

    def pairs_sum(sizes: rd.Dataset, count_col: str) -> int:
        def c2(t: pa.Table) -> pd.DataFrame:
            n = np.asarray(t.column(count_col), dtype=np.int64)
            return pd.DataFrame({"_k": np.zeros(len(n), dtype=np.int64),
                                 "p": n * (n - 1) // 2})

        tot = exchange_agg(sizes.map_batches(c2, batch_format="pyarrow"),
                           "_k", [("p", "sum", "p")],
                           num_partitions=1).to_pandas()
        return int(tot["p"].iloc[0]) if len(tot) else 0

    def renamed(ds: rd.Dataset, col: str, out: str) -> rd.Dataset:
        return ds.map_batches(
            lambda t, col=col, out=out: pa.table(
                {node_col: t.column(node_col),
                 out: t.column(col).cast(pa.string())}),
            batch_format="pyarrow")

    p = renamed(pred, pred_col, "_pc").materialize()
    g = renamed(gold, gold_col, "_gc").materialize()

    p_sizes = exchange_agg(p, "_pc", [("_pc", "count", "n")],
                           num_partitions=num_partitions)
    g_sizes = exchange_agg(g, "_gc", [("_gc", "count", "n")],
                           num_partitions=num_partitions)
    joined = exchange_join(
        p, g, on=node_col, num_partitions=num_partitions,
        left_schema=pa.schema([(node_col, p.schema().types[0]),
                               ("_pc", pa.string())]),
        right_schema=pa.schema([(node_col, g.schema().types[0]),
                                ("_gc", pa.string())]))
    cells = exchange_agg(joined, ["_pc", "_gc"],
                         [("_pc", "count", "n")],
                         num_partitions=num_partitions)

    pp = pairs_sum(p_sizes, "n")
    gp = pairs_sum(g_sizes, "n")
    bp = pairs_sum(cells, "n")
    prec = bp / pp if pp else 0.0
    rec = bp / gp if gp else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return rd.from_pandas(pd.DataFrame({
        "pred_pairs": np.array([pp], dtype=np.int64),
        "gold_pairs": np.array([gp], dtype=np.int64),
        "both_pairs": np.array([bp], dtype=np.int64),
        "precision": [prec], "recall": [rec], "f1": [f1]}))


def predicate_stats(
    triples: rd.Dataset,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Per-predicate planner statistics — the cardinality table a BGP /
    SPARQL optimizer consults to order patterns (most-selective first,
    exactly what :func:`bgp_match` asks its caller to know): triple
    count, distinct subjects, distinct objects.

    All three are exchange-shaped: one (pred)-keyed count and two
    two-level distinct counts ((pred,endpoint)-keyed distinct -> pred-
    keyed count), each with per-batch distinct combiners; the result is
    O(predicates) rows and returns as a driver DataFrame.  At 10¹²
    triples swap the distinct tiers for HLL sketches
    (analytics.py::hll_registers) — the exchange shape is unchanged.
    """
    from .exchange import exchange_agg

    def ones(col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "pred": t.column(pred_col),
                "x": t.column(col),
                "one": pa.array(np.ones(t.num_rows, np.int64))})
        return fn

    cnt = exchange_agg(
        triples.map_batches(ones(subj_col), batch_format="pyarrow"),
        "pred", [("one", "sum", "n_triples")],
        num_partitions=num_partitions).to_pandas()

    def distinct_count(col: str, out: str) -> pd.DataFrame:
        d = exchange_agg(
            triples.map_batches(
                lambda t, c=col: pa.table({"pred": t.column(pred_col),
                                           "x": t.column(c)}),
                batch_format="pyarrow"),
            ["pred", "x"])
        return exchange_agg(
            d.map_batches(
                lambda t: pa.table({"pred": t.column("pred"),
                                    "one": pa.array(np.ones(
                                        t.num_rows, np.int64))}),
                batch_format="pyarrow"),
            "pred", [("one", "sum", out)],
            num_partitions=num_partitions).to_pandas()

    ns = distinct_count(subj_col, "n_subj")
    no = distinct_count(obj_col, "n_obj")
    out = cnt.merge(ns, on="pred").merge(no, on="pred")
    for c in ("n_triples", "n_subj", "n_obj"):
        out[c] = out[c].astype("int64")
    return out.sort_values("pred").reset_index(drop=True)


def domain_range_check(
    triples: rd.Dataset,
    types: rd.Dataset,
    rules: list[tuple[str, str | None, str | None]],
    *,
    num_partitions: int = 32,
) -> rd.Dataset:
    """SHACL-lite domain/range validation: for each rule
    ``(pred, subj_type, obj_type)`` flag triples of that predicate whose
    subject (domain) or object (range) is missing from the type table or
    typed differently.  ``None`` skips that side.  Output: one row per
    violation — (subj, pred, obj, reason) with reason in
    {'domain_missing','domain_wrong','range_missing','range_wrong'};
    a triple violating both sides emits both rows.

    Scale shape: rules are O(1) and ride the closure; the type table
    attaches by TWO endpoint-keyed ``exchange_join``s (left_outer — the
    miss IS the signal), so cost is candidate-proportional in the ruled
    predicates; everything else is vectorized per partition.  Triples
    of un-ruled predicates are dropped at the first map (scan-side
    prune).
    """
    ruled = {p: (st, ot) for p, st, ot in rules}

    def prune(t: pa.Table) -> pa.Table:
        preds = t.column("pred").to_numpy(zero_copy_only=False)
        mask = np.fromiter((p in ruled for p in preds), bool, len(preds))
        return t.filter(pa.array(mask))

    tp = triples.map_batches(prune, batch_format="pyarrow")
    ty_s = types.map_batches(
        lambda t: pa.table({"subj": t.column("entity"),
                            "_st": t.column("type")}),
        batch_format="pyarrow")
    ty_o = types.map_batches(
        lambda t: pa.table({"obj": t.column("entity"),
                            "_ot": t.column("type")}),
        batch_format="pyarrow")

    t_schema = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                          ("obj", pa.string())])
    j1 = exchange_join(
        tp, ty_s, on="subj", how="left_outer",
        num_partitions=num_partitions,
        left_schema=t_schema,
        right_schema=pa.schema([("subj", pa.string()),
                                ("_st", pa.string())]))
    j2 = exchange_join(
        j1, ty_o, on="obj", how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([("subj", pa.string()),
                               ("pred", pa.string()),
                               ("obj", pa.string()),
                               ("_st", pa.string())]),
        right_schema=pa.schema([("obj", pa.string()),
                                ("_ot", pa.string())]))

    def flag(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        out = []
        want_s = df["pred"].map(lambda p: ruled[p][0])
        want_o = df["pred"].map(lambda p: ruled[p][1])
        for side, want, col in (("domain", want_s, "_st"),
                                ("range", want_o, "_ot")):
            need = want.notna()
            got = df[col]
            missing = need & got.isna()
            wrong = need & got.notna() & (got != want)
            for reason, mask in ((f"{side}_missing", missing),
                                 (f"{side}_wrong", wrong)):
                sub = df.loc[mask, ["subj", "pred", "obj"]]
                if len(sub):
                    out.append(sub.assign(reason=reason))
        if not out:
            return pd.DataFrame({"subj": pd.Series(dtype=str),
                                 "pred": pd.Series(dtype=str),
                                 "obj": pd.Series(dtype=str),
                                 "reason": pd.Series(dtype=str)})
        return pd.concat(out, ignore_index=True)

    return j2.map_batches(flag, batch_format="pyarrow")


def sameas_closure(
    triples: rd.Dataset,
    sameas: rd.Dataset,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int = 32,
) -> rd.Dataset:
    """owl:sameAs closure: rewrite every subject/object of ``triples``
    to the canonical member (lexicographic min) of its sameAs
    equivalence class, then emit the DISTINCT rewritten triples.

    The reference links mentions to one KB URI per surface
    (``src/entity_linker.rs``); cross-source construction instead yields
    *pairwise* sameAs assertions whose transitive closure defines the
    entity — the classic instance-matching consolidation step.

    Scale shape: sameAs endpoints hash to int64 node ids (FNV — the
    name strings never enter the iterative exchanges);
    :func:`~.canonicalize.connected_components` (min-label + pointer
    jumping, driver tier below its threshold) resolves equivalence
    classes; one ``exchange_agg`` min picks the lexicographic canonical
    name per class; subject and object rewrite are two left_outer
    ``exchange_join``s on the name (identity fallback for names outside
    any class) and the final distinct is one key exchange.  Nothing
    driver-side except the CC tier decision inside
    ``connected_components`` itself.
    """
    from .exchange import exchange_agg
    from .canonicalize import connected_components

    def hash_ids(t: pa.Table, col: str) -> pa.Array:
        # _hash_shingles hashes a null as "", the name hash_names gives it
        return pa.array(_hash_shingles(t.column(col).cast(pa.string()))
                        .astype(np.int64))

    def hash_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": hash_ids(t, a_col), "dst": hash_ids(t, b_col)})

    edges = sameas.map_batches(hash_edges, batch_format="pyarrow")
    comp = connected_components(edges)  # (name_id, component)

    def hash_names(t: pa.Table, col: str) -> pa.Table:
        return pa.table({
            "name": pc.fill_null(t.column(col).cast(pa.string()), ""),
            "name_id": hash_ids(t, col)})

    names = exchange_agg(
        sameas.map_batches(lambda t: pa.concat_tables(
            [hash_names(t, a_col), hash_names(t, b_col)]),
            batch_format="pyarrow"),
        ["name", "name_id"])
    n_schema = pa.schema([("name", pa.string()), ("name_id", pa.int64())])
    c_schema = pa.schema([("name_id", pa.int64()),
                          ("component", pa.int64())])
    withcomp = exchange_join(names, comp, on="name_id",
                             num_partitions=num_partitions,
                             left_schema=n_schema, right_schema=c_schema)
    canon = exchange_agg(
        withcomp.map_batches(
            lambda t: pa.table({"component": t.column("component"),
                                "canon": t.column("name")}),
            batch_format="pyarrow"),
        "component", [("canon", "min", "canon")],
        num_partitions=num_partitions)
    # (name -> canon) mapping for every name in some class
    mapping = exchange_join(
        withcomp.map_batches(
            lambda t: pa.table({"name": t.column("name"),
                                "component": t.column("component")}),
            batch_format="pyarrow"),
        canon, on="component", num_partitions=num_partitions,
        left_schema=pa.schema([("name", pa.string()),
                               ("component", pa.int64())]),
        right_schema=pa.schema([("component", pa.int64()),
                                ("canon", pa.string())])).map_batches(
        lambda t: pa.table({"name": t.column("name"),
                            "canon": t.column("canon")}),
        batch_format="pyarrow")
    m_schema = pa.schema([("name", pa.string()), ("canon", pa.string())])

    t_proj = triples.map_batches(
        lambda t: pa.table({"name": t.column(subj_col).cast(pa.string()),
                            "pred": t.column(pred_col).cast(pa.string()),
                            "obj": t.column(obj_col).cast(pa.string())}),
        batch_format="pyarrow")
    t_schema = pa.schema([("name", pa.string()), ("pred", pa.string()),
                          ("obj", pa.string())])
    j_subj = exchange_join(t_proj, mapping, on="name", how="left_outer",
                           num_partitions=num_partitions,
                           left_schema=t_schema, right_schema=m_schema)
    rew1 = j_subj.map_batches(
        lambda t: pa.table({
            "subj": pc.coalesce(t.column("canon"), t.column("name")),
            "pred": t.column("pred"),
            "name": t.column("obj")}),
        batch_format="pyarrow")
    r1_schema = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                           ("name", pa.string())])
    j_obj = exchange_join(rew1, mapping, on="name", how="left_outer",
                          num_partitions=num_partitions,
                          left_schema=r1_schema, right_schema=m_schema)
    rew2 = j_obj.map_batches(
        lambda t: pa.table({
            "subj": t.column("subj"),
            "pred": t.column("pred"),
            "obj": pc.coalesce(t.column("canon"), t.column("name"))}),
        batch_format="pyarrow")
    return exchange_agg(rew2, ["subj", "pred", "obj"])


def property_path(
    triples: rd.Dataset,
    pred: str,
    *,
    max_hops: int = 3,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_partitions: int = 32,
) -> rd.Dataset:
    """SPARQL property path ``p{1,max_hops}``: all ``(src, dst, hops)``
    pairs where ``dst`` is reachable from ``src`` via 1..max_hops edges
    labeled ``pred``, with ``hops`` the MINIMUM hop count — the bounded
    transitive traversal behind `skos:broader+` / `org:reportsTo+`
    style queries.

    Shape: one Arrow filter prunes the triple table to the predicate's
    edges (never the whole table again); each hop is ONE
    ``exchange_join`` of the current frontier's dst against the edge
    src (static string schemas) followed by a hash-exchange distinct of
    the new pairs, so per-hop all-to-all volume is the surviving pair
    set.  Frontiers are materialized per round (two consumers: the next
    join and the accumulator).  The final min-hop dedup is one
    ``exchange_agg``.  Cycles are safe — pairs dedup per round and the
    hop bound terminates; an UNBOUNDED ``p+`` needs a frontier-EXCEPT
    fixpoint instead (see ``analytics.khop_reach`` for that shape).
    """
    from .exchange import exchange_agg

    e_schema = pa.schema([("node", pa.string()), ("dst", pa.string())])
    f_schema = pa.schema([("node", pa.string()), ("src", pa.string())])

    def edge_rows(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column(pred_col).cast(pa.string()), pred)
        f = t.filter(keep)
        return pa.table({"node": f.column(subj_col).cast(pa.string()),
                         "dst": f.column(obj_col).cast(pa.string())})

    edges = triples.map_batches(edge_rows,
                                batch_format="pyarrow").materialize()

    def pairs(src: str, dst: str):
        return lambda t: pa.table({"src": t.column(src),
                                   "dst": t.column(dst)})

    def with_hops(h: int):
        return lambda t: t.append_column(
            "hops", pa.array(np.full(t.num_rows, h, np.int64)))

    frontier = exchange_agg((edges, pairs("node", "dst")), ["src", "dst"])
    # every hop's (materialized) frontier is one source of the final
    # min-hop exchange, its hop count added in the split tasks
    acc = [(frontier, with_hops(1))]
    for h in range(2, max_hops + 1):
        ext = exchange_join(
            (frontier, lambda t: pa.table({"node": t.column("dst"),
                                           "src": t.column("src")})),
            edges, on="node", num_partitions=num_partitions,
            left_schema=f_schema, right_schema=e_schema)
        frontier = exchange_agg((ext, pairs("src", "dst")), ["src", "dst"])
        if frontier.count() == 0:
            break
        acc.append((frontier, with_hops(h)))

    return exchange_agg(acc, ["src", "dst"],
                        [("hops", "min", "hops")],
                        num_partitions=num_partitions)


def cardinality_check(
    triples: rd.Dataset,
    functional_preds: list[str],
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_partitions: int = 32,
) -> rd.Dataset:
    """OWL functional-property validation: for each predicate declared
    single-valued, emit every ``(subj, pred, n_objects)`` with more
    than one DISTINCT object — the cardinality leg of the SHACL-lite
    family next to :func:`domain_range_check`.

    Shape: one Arrow ``is_in`` filter prunes to the audited predicates,
    a hash-exchange distinct collapses repeated assertions of the same
    object (re-extraction of the same fact is not a violation), then
    one combiner-backed ``exchange_agg`` counts objects per (subj,
    pred) and a vectorized filter keeps counts > 1.  Nothing touches
    the driver; the audited-predicate list ships inside the closure
    (bounded — an ontology's functional predicates are dozens).
    """
    from .exchange import exchange_agg

    pset = pa.array(sorted(set(functional_preds)), pa.string())

    def prune(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column(pred_col).cast(pa.string()),
                        value_set=pset)
        f = t.filter(keep)
        return pa.table({"subj": f.column(subj_col).cast(pa.string()),
                         "pred": f.column(pred_col).cast(pa.string()),
                         "obj": f.column(obj_col).cast(pa.string())})

    spo = exchange_agg(
        triples.map_batches(prune, batch_format="pyarrow"),
        ["subj", "pred", "obj"])
    counted = exchange_agg(
        spo.map_batches(
            lambda t: pa.table({
                "subj": t.column("subj"), "pred": t.column("pred"),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["subj", "pred"], [("one", "sum", "n_objects")],
        num_partitions=num_partitions)
    return counted.map_batches(
        lambda t: t.filter(pc.greater(t.column("n_objects"), 1)),
        batch_format="pyarrow")


def bgp_construct(
    triples: rd.Dataset,
    patterns: list[tuple[str, str, str]],
    templates: list[tuple[str, str, str]],
    *,
    num_partitions: int = 32,
) -> rd.Dataset:
    """SPARQL CONSTRUCT: evaluate the WHERE basic graph pattern
    (:func:`bgp_match` semantics — '?'-prefixed terms are variables),
    then instantiate every ``templates`` triple once per solution and
    DISTINCT the result (CONSTRUCT emits a GRAPH, i.e. a triple set) —
    the KG-to-KG rewrite primitive under ontology mapping, inference
    materialization and view extraction.

    Template variables must be bound by the patterns (raises
    otherwise — an unbound CONSTRUCT variable is always a query bug).
    Scale shape: the bgp join chain + one vectorized emit per
    binding batch (len(templates) column-stacks, no per-row work) +
    the canonical (subj, pred, obj) distinct exchange.  Output is a
    plain triple table, composable with bgp_match / write_ntriples.
    """
    bound, bound_vars = _bgp_join(triples, patterns,
                                  num_partitions=num_partitions)
    if not templates:
        raise ValueError("bgp_construct: empty template list")
    for t in templates:
        for term in t:
            if term.startswith("?") and term[1:] not in bound_vars:
                raise ValueError(
                    f"bgp_construct: template variable {term} is not "
                    f"bound by the patterns (bound: {bound_vars})")

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for s, p, o in templates:
            frames.append(pd.DataFrame({
                "subj": (b[s[1:]].astype(str) if s.startswith("?")
                         else np.repeat(s, len(b))),
                "pred": (b[p[1:]].astype(str) if p.startswith("?")
                         else np.repeat(p, len(b))),
                "obj": (b[o[1:]].astype(str) if o.startswith("?")
                        else np.repeat(o, len(b)))}))
        return pd.concat(frames, ignore_index=True)

    return exchange_agg(
        bound.map_batches(emit, batch_format="pandas"),
        ["subj", "pred", "obj"], num_partitions=num_partitions)


def property_entailment(
    triples: rd.Dataset,
    *,
    transitive: tuple[str, ...] = (),
    symmetric: tuple[str, ...] = (),
    inverse: tuple[tuple[str, str], ...] = (),
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    max_iters: int = 16,
    num_partitions: int = 32,
) -> rd.Dataset:
    """OWL property-characteristics entailment: materialize the
    triples implied by ``owl:SymmetricProperty`` /
    ``owl:TransitiveProperty`` / ``owl:inverseOf`` declarations —
    the property-level companion to type_inference (rdfs:subClassOf)
    and sameas_closure.

    Rule order (documented contract, replayed by the SQL oracle):
    (1) symmetric expansion, (2) transitive closure over the expanded
    pairs, (3) inverse mirroring of the CLOSED predicate (OWL inverse
    applies to every entailed statement).  The rule sets must name
    disjoint predicates, so one pass saturates — asserted for the
    closure of a predicate that is itself inverse-DERIVED would need
    a fixpoint loop this operator refuses to guess at (raises).

    Transitive closure is PATH-DOUBLING: each round one
    ``exchange_join`` of the closure with itself (R := R ∪ R∘R), so
    a length-L chain closes in O(log L) rounds, not O(L) — the
    Hash-to-Min lesson from connected_components applied to
    reachability.  Every round ends in a hash-exchange distinct;
    per-round volume is the closure pair set for that predicate.

    Returns distinct ``(subj, pred, obj, entailed)``; an asserted
    triple rediscovered by a rule stays ``entailed=False`` (min-wins
    exchange_agg, the type_inference convention).
    """
    from .exchange import _then

    inv_preds = {q for _, q in inverse}
    if inv_preds & (set(transitive) | set(symmetric)):
        raise ValueError("property_entailment: an inverse-derived "
                         "predicate cannot also be transitive/symmetric "
                         "in one pass — saturation order is ambiguous")

    tsch = pa.schema([(subj_col, pa.string()), (pred_col, pa.string()),
                      (obj_col, pa.string()), ("entailed", pa.int8())])

    def base_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            subj_col: t.column(subj_col).cast(pa.string()),
            pred_col: t.column(pred_col).cast(pa.string()),
            obj_col: t.column(obj_col).cast(pa.string()),
            "entailed": pa.array(np.zeros(t.num_rows, np.int8))})

    base = triples.map_batches(base_rows,
                               batch_format="pyarrow").materialize()

    # every rule output below is a source list of (materialized Dataset,
    # block_fn) pairs: a rule is a block function composed onto the
    # sources it reads, so no union or Ray Data map runs in front of an
    # exchange
    def flip(from_pred: str, to_pred: str):
        def fn(t: pa.Table) -> pa.Table:
            f = t.filter(pc.equal(t.column(pred_col), from_pred))
            return pa.table({
                subj_col: f.column(obj_col),
                pred_col: pa.array([to_pred] * f.num_rows, pa.string()),
                obj_col: f.column(subj_col),
                "entailed": pa.array(np.ones(f.num_rows, np.int8))})
        return fn

    def then(srcs: list, g) -> list:
        return [(s, _then(fn, g)) for s, fn in srcs]

    # (1) symmetric expansion
    sym_parts = [(base, flip(p, p)) for p in symmetric]
    expanded = [(base, None)] + sym_parts

    # (2) transitive closure by path doubling, per predicate
    closed_parts: list = []
    for p in transitive:
        pairs = exchange_agg(
            then(expanded, lambda t, p=p: t.filter(
                pc.equal(t.column(pred_col), p)).select([subj_col, obj_col])),
            [subj_col, obj_col])
        n_prev = pairs.count()
        converged = False
        for _ in range(max_iters):
            left = (pairs, lambda t: pa.table({"_mid": t.column(obj_col),
                                               subj_col: t.column(subj_col)}))
            right = (pairs, lambda t: pa.table({"_mid": t.column(subj_col),
                                                obj_col: t.column(obj_col)}))
            hop = exchange_join(
                left, right, on="_mid", num_partitions=num_partitions,
                left_schema=pa.schema([("_mid", pa.string()),
                                       (subj_col, pa.string())]),
                right_schema=pa.schema([("_mid", pa.string()),
                                        (obj_col, pa.string())]))
            pairs = exchange_agg(
                [pairs, (hop, lambda t: t.select([subj_col, obj_col]))],
                [subj_col, obj_col])
            n_now = pairs.count()
            if n_now == n_prev:
                converged = True
                break
            n_prev = n_now
        if not converged:
            # chains longer than 2^max_iters exist: an incomplete
            # closure must never be returned silently (the repo's
            # counted-anomaly convention) — path doubling means this
            # only fires on pathological inputs, so raise with the
            # named budget rather than count-and-continue
            raise RuntimeError(
                f"property_entailment: transitive closure of {p!r} did "
                f"not reach a fixpoint within max_iters={max_iters} "
                f"path-doubling rounds (chain length > 2^{max_iters}); "
                "raise max_iters")
        closed_parts.append((pairs, lambda t, p=p: pa.table({
            subj_col: t.column(subj_col),
            pred_col: pa.array([p] * t.num_rows, pa.string()),
            obj_col: t.column(obj_col),
            "entailed": pa.array(np.ones(t.num_rows, np.int8))})))
    closed_all = [(base, None)] + closed_parts + sym_parts

    # (3) inverse mirrors of the CLOSED predicates
    outs = closed_all + [src for p, q in inverse
                         for src in then(closed_all, flip(p, q))]
    return exchange_agg(outs, [subj_col, pred_col, obj_col],
                        [("entailed", "min", "entailed")],
                        num_partitions=num_partitions)
