"""Document deduplication operators (training-data pipeline ops).

All operate on a Dataset with (id_col: int64, text_col: string):

- ``exact_dedup``: content-hash two-phase dedup (batch combiner + hash
  aggregation) — keeps the min id per distinct text.
- ``minhash_lsh_pairs`` / ``minhash_dedup``: near-dup candidate pairs via
  word-shingle MinHash banding verified with exact Jaccard; dedup maps
  every near-dup cluster (connected components) to its min id.
- ``simhash_pairs``: 64-bit SimHash, banded into 4x16-bit sub-keys
  (guarantees recall for Hamming distance <= 3), verified by Hamming.
- ``ngram_jaccard_pairs``: exact character-n-gram Jaccard over LSH-blocked
  candidates.
- ``embedding_neardup_pairs``: cosine near-dup over an embedding column via
  deterministic random-hyperplane LSH buckets + exact cosine verify.

Pairs outputs are (id_a, id_b, score) with id_a < id_b, globally deduped.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..kernels.minhash import (
    char_shingles,
    digest128,
    hamming64,
    id63,
    jaccard,
    simhash64,
    word_shingles,
)
from ..state import counters
from .bsp import Blocks, exchange_blocks, map_blocks, materialized
from .exchange import agg_blocks, dataset_api, keyed_apply


def exact_dedup(ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id") -> rd.Dataset:
    """One row per distinct text: (id_col = min id, text_col).

    An ``exchange_agg`` min over a 64-bit text hash ``h``: its combiner
    shrinks each batch to its distinct hashes and the reduce is an Arrow
    ``group_by(h).min`` — Ray's built-in Aggregate reduces per key in
    Python and is far slower on string payload columns.  The text rides
    through the aggregation (constant within a hash group) so no second
    shuffle re-attaches it.
    """
    from .exchange import exchange_agg

    def hashed(batch: pa.Table) -> pa.Table:
        h = np.array([id63(t) for t in batch.column(text_col).to_pylist()],
                     dtype=np.int64)
        return pa.table({"h": pa.array(h, pa.int64()),
                         id_col: batch.column(id_col),
                         text_col: batch.column(text_col)})

    return exchange_agg(
        ds.map_batches(hashed, batch_format="pyarrow", batch_size=65536),
        "h", [(id_col, "min"), (text_col, "min")], num_partitions=64,
    ).select_columns([id_col, text_col])


#: Above this many DISTINCT candidate ids the verify stage switches from
#: the broadcast path (ray.put id set + feature dict) to hash-partitioned
#: joins.  The decision keys on ids (feature-dict volume), not pairs: pair
#: verification streams through map_batches either way.
BROADCAST_CANDIDATES_THRESHOLD = 200_000

#: per-WORKER-PROCESS broadcast-object cache.  map_batches task closures
#: are re-pickled per task, so closure-level `ray.get` memoization would
#: refetch (and re-deserialize) the broadcast object on every task; this
#: module-global survives across tasks in one worker process.  Bounded to
#: the last few refs so long-lived workers don't pin stale broadcasts.
_WORKER_OBJ_CACHE: dict = {}


def _worker_obj_cache(ref):
    import ray

    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    obj = _WORKER_OBJ_CACHE.get(key)
    if obj is None:
        obj = ray.get(ref)
        if len(_WORKER_OBJ_CACHE) >= 4:
            _WORKER_OBJ_CACHE.pop(next(iter(_WORKER_OBJ_CACHE)))
        _WORKER_OBJ_CACHE[key] = obj
    return obj


def _minhash_bands_feat_batch(shingle_fn, num_perm: int, bands: int,
                              sketch_perms: int | None = None):
    """Batch bands+sketch: one vectorized minhash pass per input batch
    (kernels.minhash.minhash_signatures) + one vectorized band-key pass
    (band_keys_batch) — returns the COLUMNAR protocol consumed by
    ``_band_explode``: ``((n, bands) int64 keys, list[bytes] sketches)``.
    ``sketch_perms`` caps the b-bit sketch width (keeps the in-band
    feature at 64 bytes even when extra permutations widen the bands)."""
    from ..kernels.minhash import band_keys_batch, minhash_signatures

    def batch_fn(payloads):
        sets = [shingle_fn(p) for p in payloads]
        sigs = minhash_signatures(sets, num_perm=num_perm)
        keys = band_keys_batch(sigs, bands)
        sk = sigs if sketch_perms is None else sigs[:, :sketch_perms]
        # one row-major tobytes + slicing beats n per-row astype calls
        flat = np.ascontiguousarray(sk & np.uint64(0xFF)).astype(np.uint8)
        w = flat.shape[1]
        blob = flat.tobytes()
        feats = [blob[i * w:(i + 1) * w] for i in range(len(payloads))]
        return keys, feats

    return batch_fn


def _band_explode(bands_feat_fn, id_col: str, payload_col: str,
                  bands_feat_batch_fn=None):
    """The block function mapping corpus rows to (shard, band_id,
    band_hash, id, feat) rows (:func:`_band_schema`) — the ONLY columns
    the LSH bucket exchange moves.  ``bands_feat_fn(payload) -> (bands,
    feat)`` where ``bands`` is a list of (band_id, band_hash) and
    ``feat`` is an optional SMALL fixed-size bytes feature (b-bit minhash
    sketch, simhash value, normalized vector) used in-bucket, null where
    there is none, so every block has the one schema.  The payload
    itself never enters the shuffle: with 16-32 bands, payload
    replication here would amplify the corpus's text bytes 16-32x
    across the exchange — the feature is bounded (64-512 B) regardless
    of document size."""

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        payloads = batch.column(payload_col).to_pylist()
        if bands_feat_batch_fn is not None:
            res = bands_feat_batch_fn(payloads)
        else:
            res = None
        if isinstance(res, tuple):
            # columnar protocol: ((n, bands) int64 keys, list feats) —
            # band-row columns assemble as numpy repeats/tiles, no
            # per-(doc, band) Python loop
            keys, feats = res
            n, nb = keys.shape
            oi_arr = np.repeat(np.asarray(ids, dtype=np.int64), nb)
            ob_arr = np.tile(np.arange(nb, dtype=np.int64), n)
            oh_arr = keys.ravel()
            feat_arr = (pa.nulls(n * nb, pa.binary()) if feats is None
                        else pa.array([f for f in feats for _ in range(nb)],
                                      pa.binary()))
        else:
            ob, oh, oi, of = [], [], [], []
            for row_idx, (i, p) in enumerate(zip(ids, payloads)):
                bands, feat = (res[row_idx] if res is not None
                               else bands_feat_fn(p))
                for band_id, band_hash in bands:
                    ob.append(band_id)
                    oh.append(band_hash)
                    oi.append(i)
                    of.append(feat)
            oi_arr = np.array(oi, dtype=np.int64)
            ob_arr = np.array(ob, dtype=np.int64)
            oh_arr = np.array(oh, dtype=np.int64)
            feat_arr = pa.array(of, pa.binary())
        # splitmix-style finalize: '^ (band_id << 56)' alone is a no-op
        # under % 512 (2^56 is divisible by 2^9), which co-located equal
        # band_hash values from EVERY band in one shard (review r5)
        from .analytics import splitmix64

        mixed = splitmix64(
            (oh_arr.astype(np.uint64)
             ^ (ob_arr.astype(np.uint64) << np.uint64(56))).view(np.int64))
        shard = (mixed % np.uint64(512)).astype(np.int32)
        return pa.table({
            "shard": pa.array(shard, pa.int32()),
            "band_id": pa.array(ob_arr.astype(np.int32), pa.int32()),
            "band_hash": pa.array(oh_arr, pa.int64()),
            id_col: pa.array(oi_arr, pa.int64()),
            "feat": feat_arr,
        })

    return explode


def _band_schema(id_col: str) -> pa.Schema:
    """The rows :func:`_band_explode` gives, on every block."""
    return pa.schema([("shard", pa.int32()), ("band_id", pa.int32()),
                      ("band_hash", pa.int64()), (id_col, pa.int64()),
                      ("feat", pa.binary())])


_CAND_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
_PAIR_SCHEMA = _CAND_SCHEMA.append(pa.field("score", pa.float64()))


@dataset_api
def _pairs_from_buckets(
    ds: rd.Dataset,
    bands_feat_fn,
    verify_fn,
    id_col: str,
    payload_col: str,
    max_bucket: int | None = 256,
    prepare_fn=None,
    broadcast_threshold: int = BROADCAST_CANDIDATES_THRESHOLD,
    prune_est: float | None = None,
    bands_feat_batch_fn=None,
    counter_prefix: str = "lsh",
) -> rd.Dataset:
    """Generic LSH pipeline over ``ds`` (a Dataset or :class:`~.bsp.Blocks`)
    in three stages:

    1. explode: band keys per row — the exchange moves ONLY
       ``(shard, band_id, band_hash, id, sketch)`` (tens of bytes plus an
       optional bounded sketch, null without one), never the payload.
       With 16-32 bands, shuffling payloads here would amplify the
       corpus's text bytes 16-32x — the #1 scale killer at 100 TB.
    2. one exchange on ``shard`` (a bucket-key hash, so each bucket
       meets in one partition) -> each partition's candidate (id_a, id_b)
       pairs; a second one, a distinct over the pair (a pair can collide
       in several bands -> different shards), dedups them globally.  With
       ``max_bucket=None`` (the exact-recall default) every bucket is
       processed, chunked; a caller-set cap skips oversized buckets but
       surfaces the dropped volume via ``<prefix>_skipped_*`` counters
       (state/counters) — never silently.  When
       ``prune_est`` is set and every band row of a partition carries a
       b-bit minhash sketch (uint8[num_perm], Li & König b-bit minwise
       hashing), candidates are
       pruned in-bucket by the VECTORIZED estimated Jaccard
       (mean sketch-byte agreement) >= prune_est — this is what keeps
       near-threshold-similar corpora (e.g. templated web text whose
       baseline char-trigram Jaccard is ~0.45) from exploding into
       millions of false candidates per shard.
    3. verify: ``prepare_fn(payload)`` features are computed ONLY for
       candidate ids via a filter pass over the corpus blocks (no
       shuffle), then ``verify_fn(f1, f2)`` scores each unique pair once.
       Candidate IDS are a vanishing fraction of the corpus, so the
       feature set is broadcast (ray.put) and pairs verify in one raw
       task per pair block (``bsp.map_blocks``: no Ray Data execution;
       dict lookups, no per-pair pickling — robust to
       candidate-PAIR blowups on templated corpora); above
       ``broadcast_threshold`` distinct candidate ids, the same semantics
       run as hash-partitioned joins (candidate-proportional, still no
       full-corpus shuffle of payload bytes per band).
    """
    import pickle

    import ray

    # the band exchange and the verify pass both read the corpus: a lazy
    # input executes once (no executor run when it is materialized)
    ds = materialized(ds)
    if prepare_fn is None:
        prepare_fn = lambda p: p  # noqa: E731

    def shard_candidates(t: pa.Table) -> pa.Table:
        """One exchange partition: the LSH buckets of its shards.

        With a sketch (prune path), buckets are processed VECTORIZED BY
        SIZE CLASS: all size-k buckets stack into an (nb, k, bytes) array
        and pairwise sketch agreement is one broadcast comparison — the
        per-bucket numpy dispatch overhead would otherwise dominate when
        buckets number in the hundreds of thousands."""
        df = t.to_pandas()
        use_prune = prune_est is not None and df["feat"].notna().all()
        df = df.drop_duplicates(["band_id", "band_hash", id_col]).sort_values(
            ["band_id", "band_hash", id_col]
        )
        sizes = df.groupby(["band_id", "band_hash"])[id_col].transform("size")
        if max_bucket is None:
            df = df[sizes >= 2]
        else:
            skipped = df[sizes > max_bucket]
            if len(skipped):
                # explicit skew cap: dropped volume is COUNTED, never silent
                sk_sizes = skipped.groupby(["band_id", "band_hash"])[id_col].size()
                counters.incr({
                    f"{counter_prefix}_skipped_buckets": int(len(sk_sizes)),
                    f"{counter_prefix}_skipped_rows": int(sk_sizes.sum()),
                })
            df = df[(sizes >= 2) & (sizes <= max_bucket)]
        sizes = sizes[df.index]
        giant_rows = int((sizes > 512).sum())
        if giant_rows:
            counters.incr({f"{counter_prefix}_giant_bucket_rows": giant_rows})
        if not len(df):
            return _CAND_SCHEMA.empty_table()
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for k, sub in df.groupby(sizes.to_numpy()):
            k = int(k)
            ids_mat = sub[id_col].to_numpy().reshape(-1, k)
            if use_prune and k > 512:
                # large buckets: per-bucket row-chunked comparison keeps the
                # (rows, k, width) broadcast bounded; integer agreement
                # counts (sum of equal bytes) instead of float means —
                # count >= ceil(prune*width) == mean >= prune
                feats = np.frombuffer(b"".join(sub["feat"].tolist()), dtype=np.uint8)
                width = feats.size // (ids_mat.shape[0] * k)
                feats = feats.reshape(ids_mat.shape[0], k, width)
                thr_cnt = int(np.ceil(prune_est * width - 1e-9))
                chunk = max(1, (1 << 24) // max(1, k * width))
                for bidx in range(ids_mat.shape[0]):
                    f = feats[bidx]
                    bids = ids_mat[bidx]
                    for r0 in range(0, k, chunk):
                        r1 = min(k, r0 + chunk)
                        cnt = (f[r0:r1, None, :] == f[None, :, :]).sum(
                            axis=2, dtype=np.int16
                        )
                        xs, ys = np.nonzero(cnt >= thr_cnt)
                        keep = (xs + r0) < ys  # upper triangle only
                        out_a.append(bids[xs[keep] + r0])
                        out_b.append(bids[ys[keep]])
                continue
            iu, ju = np.triu_indices(k, 1)
            if use_prune:
                feats = np.frombuffer(b"".join(sub["feat"].tolist()), dtype=np.uint8)
                feats = feats.reshape(ids_mat.shape[0], k, -1)
                width = feats.shape[2]
                thr_cnt = int(np.ceil(prune_est * width - 1e-9))
                # slice the bucket axis so nb*k*k*width stays bounded
                step = max(1, (1 << 22) // max(1, k * k * width))
                for s0 in range(0, feats.shape[0], step):
                    f = feats[s0:s0 + step]
                    cnt = (f[:, :, None, :] == f[:, None, :, :]).sum(
                        axis=3, dtype=np.int16
                    )
                    m = cnt[:, iu, ju] >= thr_cnt
                    out_a.append(ids_mat[s0:s0 + step][:, iu][m])
                    out_b.append(ids_mat[s0:s0 + step][:, ju][m])
            else:
                out_a.append(ids_mat[:, iu].ravel())
                out_b.append(ids_mat[:, ju].ravel())
        a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        # local dedup (a pair can recur across this shard's buckets)
        if len(a):
            pk = np.stack([a, b], axis=1)
            pk = np.unique(pk, axis=0)
            a, b = pk[:, 0], pk[:, 1]
        return pa.table([a.astype(np.int64), b.astype(np.int64)],
                        schema=_CAND_SCHEMA)

    # candidate generation as two raw-task exchanges: the band explode is
    # the first one's block function (it runs in the tasks that split the
    # corpus blocks, with no Ray Data map in front), its reduce the
    # per-shard pairs; the second is the distinct over the pairs.  Each
    # shard's pairs are already distinct, so no combiner runs
    cands = agg_blocks(
        exchange_blocks(
            (ds, _band_explode(bands_feat_fn, id_col, payload_col,
                               bands_feat_batch_fn)),
            "shard", shard_candidates, _band_schema(id_col), max_parts=64),
        ["id_a", "id_b"], num_partitions=64, combine=False)

    n_cands = cands.num_rows()
    # counted once here, after the global pair dedup: per-task counts
    # would re-count a pair that surfaces in several partitions, so the
    # figure would depend on the exchange's partition count
    counters.incr({f"{counter_prefix}_candidates": n_cands})
    if n_cands == 0:
        return Blocks.put([_PAIR_SCHEMA.empty_table()])

    def norm_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id_a" not in t.column_names:
            return _PAIR_SCHEMA.empty_table()
        return pa.table({n: t.column(n).cast(_PAIR_SCHEMA.field(n).type) for n in
                         ("id_a", "id_b", "score")})

    def featurize(batch: pa.Table, keep) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        payloads = batch.column(payload_col).to_pylist()
        out_i, out_f = [], []
        for i, p in zip(ids, payloads):
            if keep is None or i in keep:
                out_i.append(i)
                out_f.append(pickle.dumps(prepare_fn(p)))
        return pa.table({id_col: pa.array(out_i, pa.int64()),
                         "feat": pa.array(out_f, pa.binary())})

    # distinct candidate ids: for small pair sets the driver dedups them
    # directly (saves an exchange); above that, computed DISTRIBUTED (never
    # take_all millions of pairs — templated corpora produce millions of
    # candidate pairs over only thousands of distinct ids)
    need_ids = None
    if n_cands <= 2_000_000:
        # vectorized driver-side distinct (a 2M-pair table is ~32 MB of
        # int64 — trivial to pull; the distributed union+groupby below
        # costs two exchanges, which dominate when the candidate ID set is
        # small, e.g. templated corpora: 400k pairs over 4k ids)
        need_set = {v for t in ray.get(cands.refs) if t.num_rows
                    for c in ("id_a", "id_b") for v in t.column(c).to_pylist()}
        n_ids = len(need_set)
    else:
        def ids_of(col: str):
            return lambda t: pa.table({id_col: t.column(col)})

        # both id columns as two sources of one distinct
        need_ids = agg_blocks([(cands, ids_of("id_a")),
                               (cands, ids_of("id_b"))], id_col)
        n_ids = need_ids.num_rows()

    # The broadcast-vs-join decision keys on the DISTINCT-ID count (feature
    # volume), not the pair count: pairs verify block by block either
    # way, so a candidate blowup (millions of pairs over
    # a few thousand ids — templated web text) stays on the cheap broadcast
    # path with one dict lookup + verify per pair and zero per-pair
    # (un)pickling.  The hash-join path remains for candidate ID sets too
    # large to broadcast.
    if n_ids <= broadcast_threshold:
        need = (need_set if need_ids is None
                else {v for t in ray.get(need_ids.refs)
                      for v in t.column(id_col).to_pylist()})
        need_ref = ray.put(need)

        def extract_feats(batch: pa.Table) -> pa.Table:
            # _worker_obj_cache, not a closure dict: every task unpickles
            # its own closure, so a closure-level memo would refetch the
            # broadcast every task (_WORKER_OBJ_CACHE)
            return featurize(batch, _worker_obj_cache(need_ref))

        # features stay PICKLED BYTES end-to-end: a dict of bytes
        # deserializes as memcpys on ray.get, where a dict of Python
        # feature objects (shingle SETS — millions of small strings) costs
        # seconds PER TASK to rebuild (measured: 5.4s/task x 64 tasks =
        # 347 core-s on the 120k-surface canonicalization bench, 700x the
        # 0.4s of actual verify work).  Workers unpickle lazily, only the
        # features their pair partition touches, memoized per id.  One
        # raw task per corpus block (bsp.map_blocks), as for the verify
        # below: no Ray Data execution
        feats = {}
        for t in ray.get(map_blocks(ds, extract_feats).refs):
            feats.update(zip(t.column(id_col).to_pylist(),
                             t.column("feat").to_pylist()))
        feats_ref = ray.put(feats)

        def verify_batch(batch: pa.Table) -> pa.Table:
            f = _worker_obj_cache(feats_ref)  # as extract_feats
            local: dict = {}

            def feat(i):
                v = local.get(i)
                if v is None:
                    v = local[i] = pickle.loads(f[i])
                return v

            a_ids = batch.column("id_a").to_pylist()
            b_ids = batch.column("id_b").to_pylist()
            oa, ob_, sc = [], [], []
            for a, b in zip(a_ids, b_ids):
                score = verify_fn(feat(a), feat(b))
                if score is not None:
                    oa.append(a)
                    ob_.append(b)
                    sc.append(float(score))
            return pa.table(
                {"id_a": pa.array(oa, pa.int64()), "id_b": pa.array(ob_, pa.int64()),
                 "score": pa.array(sc, pa.float64())}
            )

        return map_blocks(cands, lambda t: norm_pairs(verify_batch(t)))

    # distributed verify: semi-join the candidate ids against the corpus to
    # featurize only candidate rows, then attach features to both pair
    # sides via hash-partitioned joins.  Shuffle volume is proportional to
    # the candidate set, not bands x corpus.
    if need_ids is None:  # small-pairs shortcut skipped the distributed distinct
        need_ids = Blocks.put([pa.table(
            {id_col: pa.array(sorted(need_set), pa.int64())})])
    from .exchange import join_blocks, join_out_schema

    # the corpus projection is the join side's block function; the join
    # reads the side's schema from the materialized corpus (no probe)
    corpus = (ds, lambda t: pa.table({
        id_col: t.column(id_col).cast(pa.int64()),
        payload_col: t.column(payload_col)}))
    _S_NEED = pa.schema([(id_col, pa.int64())])
    feats = map_blocks(
        join_blocks(corpus, need_ids, on=id_col, num_partitions=16,
                    right_schema=_S_NEED),
        lambda b: featurize(b, None))
    _S_FEAT_A = pa.schema([("id_a", pa.int64()), ("feat_a", pa.binary())])
    _S_FEAT_B = pa.schema([("id_b", pa.int64()), ("feat_b", pa.binary())])

    def rename_feats(suffix: str) -> tuple:
        # the feats as one attach join's side
        return (feats, lambda t: pa.table({f"id_{suffix}": t.column(id_col),
                                           f"feat_{suffix}": t.column("feat")}))

    joined = join_blocks(
        join_blocks(
            cands, rename_feats("a"), on="id_a", num_partitions=16,
            left_schema=_CAND_SCHEMA, right_schema=_S_FEAT_A,
        ),
        rename_feats("b"), on="id_b", num_partitions=16,
        left_schema=join_out_schema(_CAND_SCHEMA, _S_FEAT_A, "id_a"),
        right_schema=_S_FEAT_B,
    )

    def verify_joined(batch: pa.Table) -> pa.Table:
        a_ids = batch.column("id_a").to_pylist()
        b_ids = batch.column("id_b").to_pylist()
        fa = batch.column("feat_a").to_pylist()
        fb = batch.column("feat_b").to_pylist()
        oa, ob_, sc = [], [], []
        for a, b, x, y in zip(a_ids, b_ids, fa, fb):
            score = verify_fn(pickle.loads(x), pickle.loads(y))
            if score is not None:
                oa.append(a)
                ob_.append(b)
                sc.append(float(score))
        return pa.table(
            {"id_a": pa.array(oa, pa.int64()), "id_b": pa.array(ob_, pa.int64()),
             "score": pa.array(sc, pa.float64())}
        )

    return map_blocks(joined, lambda t: norm_pairs(verify_joined(t)))


def _pairs_inband(
    ds: rd.Dataset,
    bands_feat_fn,
    verify_fn,
    id_col: str,
    payload_col: str,
    max_bucket: int = 256,
    verify_vec=None,
    counter_prefix: str = "lsh_inband",
) -> rd.Dataset:
    """LSH pairs verified ENTIRELY from the in-band compact feature.

    For operators whose exact verification needs only a small fixed-size
    feature (simhash: the 8-byte hash; embedding cosine: the normalized
    vector), band rows carry the feature and buckets verify locally — one
    exchange, no payload anywhere, no second corpus pass.

    ``verify_vec(feats: list[bytes]) -> (i_idx, j_idx, scores)`` is the
    VECTORIZED all-pairs bucket verifier (upper triangle, i < j positions
    into the bucket).  When provided, NO bucket is ever skipped: oversized
    buckets (> max_bucket) run through the same vectorized verify in
    row-chunks, so recall cannot silently collapse when fixed-width band
    keys saturate at scale (the round-2 cliff: 16-bit simhash bands /
    12-plane embedding buckets all overflow at ~1e8 rows and the old skip
    dropped every pair while looking healthy).  Oversized work is counted
    (``<prefix>_oversized_buckets`` / ``_oversized_rows`` via
    state/counters) so quadratic hot-bucket cost is visible in the bench.

    ``verify_fn(feat_bytes_1, feat_bytes_2) -> score | None`` is the
    scalar fallback; WITHOUT a vectorized form, buckets over ``max_bucket``
    are still skipped — but now counted (``_skipped_buckets`` /
    ``_skipped_pairs``), never silent."""
    def shard_pairs(group: pd.DataFrame) -> pd.DataFrame:
        a_out: list[np.ndarray] = []
        b_out: list[np.ndarray] = []
        s_out: list[np.ndarray] = []
        oversized_buckets = oversized_rows = 0
        skipped_buckets = skipped_pairs = 0
        # ONE global dedup + mergesort, then run-length bucket slicing —
        # a pandas groupby object per bucket is the per-bucket-dispatch
        # pathology shard_candidates documents (hundreds of thousands of
        # tiny buckets per shard at simhash scale); numpy slices keep
        # the only per-bucket Python the verify_vec call itself
        g = (group.drop_duplicates(["band_id", "band_hash", id_col])
             .sort_values(["band_id", "band_hash", id_col],
                          kind="mergesort").reset_index(drop=True))
        bid = g["band_id"].to_numpy()
        bh = g["band_hash"].to_numpy()
        all_ids = g[id_col].to_numpy()
        all_feats = g["feat"].tolist()
        if len(g):
            change = np.concatenate(
                [[True], (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])])
            starts = np.flatnonzero(change)
            ends = np.concatenate([starts[1:], [len(g)]])
        else:
            starts = ends = np.array([], np.int64)
        for s0, e0 in zip(starts, ends):
            n = int(e0 - s0)
            if n < 2:
                continue
            if n > max_bucket:
                oversized_buckets += 1
                oversized_rows += n
                if verify_vec is None:
                    skipped_buckets += 1
                    skipped_pairs += n * (n - 1) // 2
                    continue
            ids = all_ids[s0:e0]
            feats = all_feats[s0:e0]
            if verify_vec is not None:
                ii, jj, sc = verify_vec(feats)
                a_out.append(ids[ii])
                b_out.append(ids[jj])
                s_out.append(np.asarray(sc, dtype=np.float64))
            else:
                a, b, s = [], [], []
                for i in range(n):
                    for j in range(i + 1, n):
                        score = verify_fn(feats[i], feats[j])
                        if score is not None:
                            a.append(ids[i])
                            b.append(ids[j])
                            s.append(float(score))
                a_out.append(np.array(a, dtype=np.int64))
                b_out.append(np.array(b, dtype=np.int64))
                s_out.append(np.array(s, dtype=np.float64))
        counters.incr({
            f"{counter_prefix}_oversized_buckets": oversized_buckets,
            f"{counter_prefix}_oversized_rows": oversized_rows,
            f"{counter_prefix}_skipped_buckets": skipped_buckets,
            f"{counter_prefix}_skipped_pairs": skipped_pairs,
        })
        if not a_out:
            return pd.DataFrame(
                {"id_a": np.array([], dtype=np.int64),
                 "id_b": np.array([], dtype=np.int64),
                 "score": np.array([], dtype=np.float64)}
            )
        a = np.concatenate(a_out).astype(np.int64)
        b = np.concatenate(b_out).astype(np.int64)
        s = np.concatenate(s_out)
        # within-shard pair dedup (same pair can recur across buckets;
        # scores are deterministic per pair, so keeping the first is exact)
        pk = np.stack([a, b], axis=1)
        _, first = np.unique(pk, axis=0, return_index=True)
        return pd.DataFrame(
            {"id_a": a[first], "id_b": b[first], "score": s[first]}
        )

    def norm_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id_a" not in t.column_names:
            return _PAIR_SCHEMA.empty_table()
        return pa.table({n: t.column(n).cast(_PAIR_SCHEMA.field(n).type) for n in
                         ("id_a", "id_b", "score")})

    # the band explode runs in the tasks that split the corpus blocks
    pairs = keyed_apply((ds, _band_explode(bands_feat_fn, id_col, payload_col)),
                        ["band_id", "band_hash"], shard_pairs)
    # a pair can surface from several bands -> other partitions: dedup.
    # exchange_agg, not Ray's Aggregate — one group per PAIR (millions
    # at scale = the per-key-Python pathology)
    return map_blocks(agg_blocks((pairs, norm_pairs), ["id_a", "id_b"],
                                 [("score", "min", "score")]),
                      norm_pairs).dataset()


def minhash_lsh_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    shingle_words: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.7,
    est_margin: float = 0.15,
) -> rd.Dataset:
    def prepare(text: str):
        return word_shingles(text, shingle_words)

    def verify(s1, s2):
        j = jaccard(s1, s2)
        return j if j >= threshold else None

    return _pairs_from_buckets(
        ds.select_columns([id_col, text_col]), None, verify, id_col, text_col,
        max_bucket=None,
        prepare_fn=prepare, prune_est=max(0.0, threshold - est_margin),
        bands_feat_batch_fn=_minhash_bands_feat_batch(prepare, num_perm, bands),
        counter_prefix="minhash",
    )


def minhash_dedup(
    ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id", **kwargs
) -> rd.Dataset:
    """(id, canonical_id): every doc mapped to the min id of its near-dup
    cluster (connected components over verified pairs)."""
    pairs = minhash_lsh_pairs(ds, text_col, id_col, **kwargs)
    return pairs_to_canonical(ds, pairs, id_col)


def embedding_dedup(
    ds: rd.Dataset, emb_col: str = "embedding", id_col: str = "vec_id", **kwargs
) -> rd.Dataset:
    """(id, canonical_id) over embedding near-dup clusters: cosine-LSH
    pairs (``embedding_neardup_pairs``) -> connected components -> every
    vector mapped to the min id of its cluster.  Same composition as
    ``minhash_dedup``; the semantic-dedup step of an embedding-based
    curation pipeline (e.g. SemDeDup-style pruning keeps one
    representative per cluster)."""
    pairs = embedding_neardup_pairs(ds, emb_col, id_col, **kwargs)
    return pairs_to_canonical(ds.select_columns([id_col]), pairs, id_col)


def pairs_to_canonical(
    ds: rd.Dataset, pairs: rd.Dataset, id_col: str
) -> rd.Dataset:
    """Map every id to the min id of its connected near-dup cluster.

    Shared tail of the ``*_dedup`` cluster operators: (id_a, id_b) pairs
    -> connected components -> attach.  Components are a tiny fraction
    of the corpus, so below DRIVER_UNION_FIND_THRESHOLD the component
    map broadcasts via ``ray.put`` (no shuffle of the big side); above
    it, one hash-exchange left join."""
    from .canonicalize import connected_components

    # pairs may arrive as pandas blocks; convert to arrow + rename in one
    # pass (Dataset.rename_columns chokes on pandas blocks in Ray 2.49)
    edges = pairs.map_batches(
        lambda t: pa.table({"src": t.column("id_a"), "dst": t.column("id_b")}),
        batch_format="pyarrow",
    ).materialize()  # consumed by count + connected components + take_all
    if edges.count() == 0:
        return ds.map_batches(
            lambda t: pa.table(
                {id_col: t.column(id_col), "canonical_id": t.column(id_col)}
            ),
            batch_format="pyarrow",
        )
    from .canonicalize import DRIVER_UNION_FIND_THRESHOLD

    comp = connected_components(edges)
    if comp.count() < DRIVER_UNION_FIND_THRESHOLD:
        # near-dup clusters are a tiny fraction of the corpus: broadcast the
        # component map instead of shuffling every id through a join
        import ray

        comp_ref = ray.put({r["name_id"]: r["component"] for r in comp.take_all()})

        def attach(t: pa.Table) -> pa.Table:
            comp_of = _worker_obj_cache(comp_ref)
            ids_list = t.column(id_col).to_pylist()
            return pa.table(
                {
                    id_col: t.column(id_col),
                    "canonical_id": pa.array(
                        [comp_of.get(i, i) for i in ids_list], pa.int64()
                    ),
                }
            )

        return ds.select_columns([id_col]).map_batches(
            attach, batch_format="pyarrow"
        )
    from .exchange import exchange_join

    comp = (comp, lambda t: pa.table({id_col: t.column("name_id"),
                                      "component": t.column("component")}))
    ids = (ds, lambda t: pa.table({id_col: t.column(id_col)}))
    _S_IDS = pa.schema([(id_col, pa.int64())])
    _S_COMP = pa.schema([(id_col, pa.int64()), ("component", pa.int64())])
    joined = exchange_join(ids, comp, on=id_col, how="left_outer",
                           num_partitions=16,
                           left_schema=_S_IDS, right_schema=_S_COMP)
    import pyarrow.compute as pc

    return joined.map_batches(
        lambda t: pa.table(
            {
                id_col: t.column(id_col),
                "canonical_id": pc.coalesce(t.column("component"),
                                            t.column(id_col)),
            }
        ),
        batch_format="pyarrow",
    )


#: 8-bit popcount lookup table (vectorized Hamming over uint8 views;
#: numpy 1.26 has no bitwise_count)
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def simhash_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    max_hamming: int = 3,
    max_bucket: int = 256,
) -> rd.Dataset:
    """Near-dup pairs with SimHash Hamming distance <= max_hamming.

    Banding into 4 x 16-bit keys guarantees any pair within Hamming 3
    shares at least one band (pigeonhole).  Verification needs only the
    8-byte hash itself, carried in-band — one exchange, no payload.
    Buckets verify with a VECTORIZED chunked XOR+popcount, so oversized
    buckets (16-bit keys saturate at ~1e8 docs) are processed, not
    skipped — the pigeonhole recall guarantee holds at any corpus size;
    hot-bucket cost is surfaced via the ``simhash_*`` counters."""

    def bands_feat(text: str):
        h = simhash64(text)
        bands = [(bi, (h >> (16 * bi)) & 0xFFFF) for bi in range(4)]
        return bands, h.to_bytes(8, "little")

    def verify(f1: bytes, f2: bytes):
        d = hamming64(int.from_bytes(f1, "little"), int.from_bytes(f2, "little"))
        return float(d) if d <= max_hamming else None

    def verify_vec(feats: list):
        h = np.frombuffer(b"".join(feats), dtype=np.uint64)
        k = len(h)
        ii, jj, sc = [], [], []
        chunk = max(1, (1 << 23) // max(1, k))
        for r0 in range(0, k, chunk):
            r1 = min(k, r0 + chunk)
            x = h[r0:r1, None] ^ h[None, :]
            d = _POP8[x.view(np.uint8).reshape(r1 - r0, k, 8)].sum(
                axis=2, dtype=np.uint16
            )
            xs, ys = np.nonzero(d <= max_hamming)
            keep = (xs + r0) < ys
            ii.append(xs[keep] + r0)
            jj.append(ys[keep])
            sc.append(d[xs[keep], ys[keep]].astype(np.float64))
        return (np.concatenate(ii), np.concatenate(jj), np.concatenate(sc))

    return _pairs_inband(
        ds.select_columns([id_col, text_col]), bands_feat, verify, id_col, text_col,
        max_bucket=max_bucket, verify_vec=verify_vec, counter_prefix="simhash",
    )


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    n: int = 3,
    threshold: float = 0.8,
    num_perm: int = 128,
    bands: int = 32,
    est_margin: float = 0.15,
    max_bucket: int | None = None,
) -> rd.Dataset:
    """Character n-gram Jaccard >= threshold pairs (LSH-blocked; 32 bands
    of 4 rows: recall at j=0.8 is 1-(1-0.8^4)^32 ~ 1-5e-8).

    Templated web text has HIGH baseline char-trigram similarity (~0.45
    between random docs), which makes narrow bands collide massively:
    round 2's 2-row bands produced multi-thousand-doc buckets whose O(k^2)
    sketch verify dominated the bench (38.8s) and whose size cap silently
    dropped a true pair.  4-row bands cut the random-pair band-collision
    probability from 0.45^2 ~ 0.20 to 0.45^4 ~ 0.04, shrinking buckets
    superlinearly, while the extra permutations keep near-threshold recall
    effectively exact.  Surviving candidates are still pruned in-bucket by
    the 64-byte b-bit sketch estimate (>= threshold - est_margin) before
    exact shingle verification.  No size cap by default: oversized buckets
    are processed chunked, and callers that set ``max_bucket`` get the
    dropped volume surfaced via the ``ngram_skipped_*`` counters."""

    def prepare(text: str):
        return char_shingles(text, n)

    def verify(s1, s2):
        j = jaccard(s1, s2)
        return j if j >= threshold else None

    return _pairs_from_buckets(
        ds.select_columns([id_col, text_col]), None, verify, id_col, text_col,
        max_bucket=max_bucket,
        prepare_fn=prepare, prune_est=max(0.0, threshold - est_margin),
        bands_feat_batch_fn=_minhash_bands_feat_batch(prepare, num_perm, bands,
                                                      sketch_perms=64),
        counter_prefix="ngram",
    )


def embedding_neardup_pairs(
    ds: rd.Dataset,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    threshold: float = 0.95,
    planes: int = 12,
    seed: int = 42,
    dim: int | None = None,
    max_bucket: int = 256,
) -> rd.Dataset:
    """Cosine >= threshold pairs via random-hyperplane LSH buckets.

    Deterministic hyperplanes (seeded); two sign-bands of ``planes`` bits
    each; exact cosine verification inside buckets from the in-band
    normalized vector (4*dim bytes — bounded, no payload exchange).
    In-bucket verification is a vectorized (chunked) matmul over the unit
    vectors, so buckets larger than the skew guard are processed rather
    than skipped (the fixed 2^planes key space saturates linearly with
    corpus size; at 1e8 rows every bucket would have overflowed the old
    skip).  Scale the key width with corpus size via ``planes`` (buckets
    per band = 2^planes); oversized-bucket volume is visible through the
    ``emblsh_*`` counters."""
    sample = ds.take(1)
    if not sample:
        # empty corpus -> empty pair set, matching exact_dedup's
        # empty-input contract (review r5)
        return rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64())}))
    d = dim or len(sample[0][emb_col])
    rng = np.random.RandomState(seed)
    hyper = rng.randn(d, 2 * planes).astype(np.float32)

    def bands_feat(vec):
        v = np.asarray(vec, dtype=np.float32)
        bits = (v @ hyper) > 0
        k1 = int(sum(1 << i for i in range(planes) if bits[i]))
        k2 = int(sum(1 << i for i in range(planes) if bits[planes + i]))
        norm = float(np.linalg.norm(v))
        unit = (v / norm if norm else v).astype(np.float32)
        return [(0, k1), (1, k2)], unit.tobytes()

    def verify(f1: bytes, f2: bytes):
        a = np.frombuffer(f1, dtype=np.float32).astype(np.float64)
        b = np.frombuffer(f2, dtype=np.float32).astype(np.float64)
        c = float(a @ b)
        return c if c >= threshold else None

    def verify_vec(feats: list):
        V = np.frombuffer(b"".join(feats), dtype=np.float32).astype(np.float64)
        k = len(feats)
        V = V.reshape(k, -1)
        ii, jj, sc = [], [], []
        chunk = max(1, (1 << 22) // max(1, k))
        for r0 in range(0, k, chunk):
            r1 = min(k, r0 + chunk)
            G = V[r0:r1] @ V.T
            xs, ys = np.nonzero(G >= threshold)
            keep = (xs + r0) < ys
            ii.append(xs[keep] + r0)
            jj.append(ys[keep])
            sc.append(G[xs[keep], ys[keep]])
        return (np.concatenate(ii), np.concatenate(jj), np.concatenate(sc))

    return _pairs_inband(
        ds.select_columns([id_col, emb_col]), bands_feat, verify, id_col, emb_col,
        max_bucket=max_bucket, verify_vec=verify_vec, counter_prefix="emblsh",
    )


def dedup_against(
    new: rd.Dataset,
    ref: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    shingle_words: int = 3,
    max_df: int | None = None,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Incremental (cross-corpus) near-dup filter: flag every NEW doc
    whose exact word-shingle Jaccard against some REF doc reaches
    ``threshold`` — the ingestion-time question ("is this incoming batch
    already in the corpus?") that in-corpus ``minhash_dedup`` does not
    answer.  Emits one row per new doc: ``(id_col, is_dup, ref_id,
    jaccard)`` with ``ref_id`` the best match (jaccard desc, ref id asc)
    or -1, jaccard rounded to 6 dp (0.0 when no match >= threshold).

    EXACT by construction — no banding/recall question: intersections
    are counted by a shingle-HASH equi-join (64-bit FNV of the shingle,
    never the text), so the exchange ships (id, hash) pairs only.

    ``max_df``: shingles occurring in more than ``max_df`` docs (df over
    BOTH corpora) are excluded from intersections AND set sizes — the
    standard stop-shingle guard, because a corpus-wide shingle ("in the
    of") makes every bucket quadratic at 10^9 docs.  Dropped shingles
    are counted (``dedupx_dropped_shingles``), never silent.

    Shape: ONE shingle-hash exchange computes df-filter + per-doc
    effective sizes + per-(new,ref) intersection partials in a single
    vectorized per-partition pass (a hash lives in exactly one
    partition; pair/size partials then sum in two small ``exchange_agg``
    rounds keyed on doc ids); two ``exchange_join``s attach sizes, a
    constant-free ``topk_per_group`` picks the best match, and a final
    left-outer join restores never-matched new docs.  Partitioning
    assumption: one hash-partition's (id, hash) rows fit in a worker.
    """
    from ..kernels.minhash import _hash_shingles, word_shingles
    from .analytics import topk_per_group
    from .exchange import exchange_agg, exchange_join

    def explode(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_pylist()
            txts = batch.column(text_col).to_pylist()
            id_out, h_out = [], []
            for i, t in zip(ids, txts):
                sh = word_shingles(t or "", shingle_words)
                if not sh:
                    continue
                h = np.unique(_hash_shingles(sorted(sh)))
                id_out.append(np.full(len(h), i, np.int64))
                h_out.append(h)
            if not id_out:
                return pa.table({"id": pa.array([], pa.int64()),
                                 "h": pa.array([], pa.int64()),
                                 "side": pa.array([], pa.int8())})
            idv = np.concatenate(id_out)
            hv = np.concatenate(h_out)
            return pa.table({
                "id": pa.array(idv, pa.int64()),
                "h": pa.array(hv.view(np.int64), pa.int64()),
                "side": pa.array(np.full(len(idv), side, np.int8)),
            })

        return fn

    # both corpora in one exchange, exploded in the tasks that split them
    exploded = [(new, explode(0)), (ref, explode(1))]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # every occurrence of a hash is in THIS partition: df filter,
        # per-doc effective-size partials, and pair-intersection partials
        # all come from one vectorized pass
        if max_df is not None:
            dfc = g.groupby("h", sort=False)["id"].transform("size")
            dropped = dfc > max_df
            counters.incr({"dedupx_dropped_shingles":
                           int(g.loc[dropped, "h"].nunique())})
            g = g[~dropped]
        sizes = (g.groupby(["side", "id"], sort=False).size()
                 .rename("v").reset_index())
        ns = g[g["side"] == 0][["h", "id"]].rename(columns={"id": "nid"})
        rs = g[g["side"] == 1][["h", "id"]].rename(columns={"id": "rid"})
        inter = (ns.merge(rs, on="h")
                 .groupby(["nid", "rid"], sort=False).size()
                 .rename("v").reset_index())
        return pd.concat([
            pd.DataFrame({"kind": np.int8(0),
                          "x": sizes["side"].astype("int64"),
                          "y": sizes["id"].astype("int64"),
                          "v": sizes["v"].astype("int64")}),
            pd.DataFrame({"kind": np.int8(1),
                          "x": inter["nid"].astype("int64"),
                          "y": inter["rid"].astype("int64"),
                          "v": inter["v"].astype("int64")}),
        ], ignore_index=True)

    # materialized, consumed three times below
    packed = keyed_apply(exploded, "h", per_part,
                         num_partitions=num_partitions)

    def split(kind: int, names: tuple[str, str, str]):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = t.filter(pc.equal(t.column("kind"), pa.scalar(kind, pa.int8())))
            return pa.table({names[0]: t.column("x"),
                             names[1]: t.column("y"),
                             names[2]: t.column("v")})

        return fn

    p8 = min(num_partitions, 16)
    new_sizes = exchange_agg(
        packed.map_batches(split(0, ("side", "nid", "n")),
                           batch_format="pyarrow")
        .filter(expr="side == 0").drop_columns(["side"]),
        "nid", [("n", "sum", "na")], num_partitions=p8)
    ref_sizes = exchange_agg(
        packed.map_batches(split(0, ("side", "rid", "n")),
                           batch_format="pyarrow")
        .filter(expr="side == 1").drop_columns(["side"]),
        "rid", [("n", "sum", "nb")], num_partitions=p8)
    inter = exchange_agg(
        packed.map_batches(split(1, ("nid", "rid", "i")),
                           batch_format="pyarrow"),
        ["nid", "rid"], [("i", "sum", "inter")], num_partitions=p8)

    i64 = pa.int64()
    j1 = exchange_join(
        inter, new_sizes, on="nid", num_partitions=p8,
        left_schema=pa.schema([("nid", i64), ("rid", i64), ("inter", i64)]),
        right_schema=pa.schema([("nid", i64), ("na", i64)]))
    j2 = exchange_join(
        j1, ref_sizes, on="rid", num_partitions=p8,
        left_schema=pa.schema([("nid", i64), ("rid", i64), ("inter", i64),
                               ("na", i64)]),
        right_schema=pa.schema([("rid", i64), ("nb", i64)]))

    def score(t: pa.Table) -> pa.Table:
        inter_v = t.column("inter").to_numpy(zero_copy_only=False).astype(np.float64)
        na = t.column("na").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = t.column("nb").to_numpy(zero_copy_only=False).astype(np.float64)
        jac = inter_v / (na + nb - inter_v)
        keep = jac >= threshold
        return pa.table({
            "nid": t.column("nid").filter(pa.array(keep)),
            "ref_id": t.column("rid").filter(pa.array(keep)),
            "jaccard": pa.array(jac[keep], pa.float64()),
        })

    matches = j2.map_batches(score, batch_format="pyarrow")
    best = topk_per_group(matches, key_col="nid", sort_col="jaccard",
                          tiebreak_col="ref_id", k=1).drop_columns(["rank"])

    def rename_ids(t: pa.Table) -> pa.Table:
        return pa.table({"nid": t.column(id_col)})

    out = exchange_join(
        new.select_columns([id_col]).map_batches(rename_ids,
                                                 batch_format="pyarrow"),
        best, on="nid", num_partitions=p8, how="left_outer",
        left_schema=pa.schema([("nid", i64)]),
        right_schema=pa.schema([("nid", i64), ("ref_id", i64),
                                ("jaccard", pa.float64())]))

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        jac = t.column("jaccard").to_numpy(zero_copy_only=False).astype(np.float64)
        isdup = ~np.isnan(jac)
        jr = np.nan_to_num(jac, nan=0.0)
        jr = np.floor(jr * 1e6 + 0.5) / 1e6
        # fill the unmatched-row null in ARROW int64 — a numpy float64
        # round-trip would round ref ids above 2^53 (review r5)
        rid = pc.fill_null(t.column("ref_id"), pa.scalar(-1, pa.int64()))
        return pa.table({
            id_col: t.column("nid"),
            "is_dup": pa.array(isdup),
            "ref_id": rid.combine_chunks()
            if isinstance(rid, pa.ChunkedArray) else rid,
            "jaccard": pa.array(jr, pa.float64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def _char_matrix(strs: np.ndarray, width: int) -> np.ndarray:
    """(n, width) U1 matrix view of equal-length strings."""
    if width == 0:
        return np.empty((len(strs), 0), dtype="U1")
    return np.asarray(strs, dtype=f"U{width}").view("U1").reshape(
        len(strs), width)


def _ed1_dist(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Exact edit distance for candidate pairs KNOWN to satisfy
    |len(a)-len(b)| <= 1 (the symmetric-delete blocking guarantees it):
    returns 0/1, or 2 meaning 'greater than 1'.  Vectorized per
    (len_a, len_b) class — same-length pairs are a hamming count over a
    char matrix; off-by-one pairs check 'delete the first mismatching
    char of the longer side' with one take_along_axis gather."""
    n = len(sa)
    out = np.full(n, 2, np.int64)
    if n == 0:
        return out
    la = np.fromiter((len(x) for x in sa), np.int64, n)
    lb = np.fromiter((len(x) for x in sb), np.int64, n)
    swap = lb > la
    big = np.where(swap, sb, sa)
    sml = np.where(swap, sa, sb)
    lbig = np.maximum(la, lb)
    lsml = np.minimum(la, lb)
    for L, S in set(zip(lbig.tolist(), lsml.tolist())):
        m = (lbig == L) & (lsml == S)
        A = _char_matrix(big[m], L)
        if L == S:
            B = _char_matrix(sml[m], L)
            mism = (A != B).sum(1)
            out[m] = np.where(mism <= 1, mism, 2)
        else:  # L == S + 1
            if S == 0:
                out[m] = 1
                continue
            B = _char_matrix(sml[m], S)
            neq = A[:, :S] != B
            anym = neq.any(1)
            i = np.where(anym, neq.argmax(1), S)
            cols = (np.arange(S)[None, :]
                    + (np.arange(S)[None, :] >= i[:, None]))
            adel = np.take_along_axis(A, cols, axis=1)
            out[m] = np.where((adel == B).all(1), 1, 2)
    return out


def editdist_join(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Exact edit-distance <= 1 similarity self-join via symmetric-delete
    blocking (FastSS, Bocek et al. 2007): ed(s, t) <= 1 iff
    ({s} ∪ del1(s)) ∩ ({t} ∪ del1(t)) != ∅ — a COMPLETE blocking, no
    recall loss.  Emits (id_a, id_b, dist) with id_a < id_b.

    Scale shape — DISTINCT-STRING factoring first (the decisive move on
    repetitive corpora: 20k TPC-H part names = 64 distinct strings, so
    the quadratic candidate volume collapses before any verify):
    (1) one 128-bit full-string hash exchange groups exact duplicates
    (rep = min id per string); within-group pairs ARE the dist-0 output
    (vectorized, O(output)).  (2) FastSS variant blocking + the
    vectorized ``_ed1_dist`` verify run over REPRESENTATIVES only —
    O(distinct-string candidates), with a (rep_a, rep_b) min-reduce
    deduping multi-variant hits.  (3) the dist-1 string pairs expand to
    id pairs by TWO chained ``exchange_join``s against the (rep, id)
    membership table — the cross-product output materializes through
    the join machinery's streaming blocks, never in one task.  Strings
    ride the variant exchange — the short-key contract (names, titles,
    queries); for document-scale text block on a fingerprint column.
    """
    from ..kernels.minhash import _hash_shingles
    from .exchange import exchange_agg, exchange_join
    from .graph import _pairs_within_groups

    # ---- (1) exact-duplicate grouping on a 128-bit full-string hash
    def string_hash(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64())
        h = np.array([digest128(s or "")
                      for s in t.column(text_col).to_pylist()],
                     np.int64).reshape(-1, 2)
        return pa.table({id_col: ids,
                         "_t": t.column(text_col).cast(pa.string()),
                         "_h1": pa.array(h[:, 0], pa.int64()),
                         "_h2": pa.array(h[:, 1], pa.int64())})

    hashed = ds.map_batches(string_hash, batch_format="pyarrow",
                            batch_size=4096)

    def group_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_h1", "_h2", id_col], kind="mergesort")
        rep = (g.groupby(["_h1", "_h2"], sort=False)[id_col]
               .transform("min").to_numpy(np.int64))
        return pd.DataFrame({"rep": rep,
                             "id": g[id_col].to_numpy(np.int64),
                             "text": g["_t"].to_numpy()})

    groups = keyed_apply(hashed, "_h1", group_part,
                         num_partitions=num_partitions)
    g_schema = pa.schema([("rep", pa.int64()), ("id", pa.int64()),
                          ("text", pa.string())])

    # dist-0: all within-group pairs, vectorized per partition
    def zero_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rep", "id"], kind="mergesort")
        rep = g["rep"].to_numpy(np.int64)
        ids = g["id"].to_numpy(np.int64)
        a_all, b_all = [], []
        for first, sec in _pairs_within_groups(rep, ids):
            a_all.append(ids[first])
            b_all.append(ids[sec])
        if not a_all:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "dist": pd.Series(dtype="int64")})
        a = np.concatenate(a_all)
        b = np.concatenate(b_all)
        return pd.DataFrame({"id_a": a, "id_b": b,
                             "dist": np.zeros(len(a), np.int64)})

    zeros = keyed_apply(groups, "rep", zero_pairs,
                        num_partitions=num_partitions)

    # ---- (2) FastSS over representatives (distinct strings)
    reps = groups.map_batches(
        lambda t: t.filter(pa.compute.equal(t.column("rep"),
                                            t.column("id"))),
        batch_format="pyarrow")

    def variants(t: pa.Table) -> pa.Table:
        ids = t.column("rep").to_numpy(zero_copy_only=False).astype(
            np.int64)
        texts = t.column("text").to_pylist()
        v_ids, v_strs, v_texts = [], [], []
        for i, s in zip(ids.tolist(), texts):
            s = s or ""
            v_ids.extend([i] * (len(s) + 1))
            v_texts.extend([s] * (len(s) + 1))
            v_strs.append(s)
            v_strs.extend(s[:j] + s[j + 1:] for j in range(len(s)))
        vh = _hash_shingles(v_strs)
        return pa.table({
            "vh": pa.array(vh.astype(np.int64), pa.int64()),
            "id": pa.array(np.asarray(v_ids, np.int64), pa.int64()),
            "s": pa.array(v_texts, pa.string())})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["vh", "id"])
             .sort_values(["vh", "id"], kind="mergesort")
             .reset_index(drop=True))
        vh = g["vh"].to_numpy(np.int64)
        ids = g["id"].to_numpy(np.int64)
        ss = g["s"].to_numpy()
        ia_all, ib_all = [], []
        for first, sec in _pairs_within_groups(vh, ids):
            ia, ib = ids[first], ids[sec]
            keep = ia != ib
            if not keep.any():
                continue
            # candidate pairs repeat across shared variants: dedup
            # BEFORE the vectorized verify (the 33M->k collapse on
            # short near-identical strings)
            fa, fb = first[keep], sec[keep]
            # full 2-column unique — a (id_a << 32) | id_b packed key
            # collides for ids >= 2^32 (or negative) and would DROP
            # true pairs (review r5)
            _, uidx = np.unique(
                np.stack([ia[keep], ib[keep]], axis=1),
                axis=0, return_index=True)
            fa, fb = fa[uidx], fb[uidx]
            d = _ed1_dist(ss[fa], ss[fb])
            hit = d <= 1
            ia_all.append(ids[fa][hit])
            ib_all.append(ids[fb][hit])
        if not ia_all:
            return pd.DataFrame({"ra": pd.Series(dtype="int64"),
                                 "rb": pd.Series(dtype="int64")})
        return pd.DataFrame({"ra": np.concatenate(ia_all),
                             "rb": np.concatenate(ib_all)})

    cand = keyed_apply(
        reps.map_batches(variants, batch_format="pyarrow", batch_size=2048),
        "vh", per_part, num_partitions=num_partitions)
    spairs = exchange_agg(
        cand.map_batches(
            lambda t: t.append_column(
                "one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["ra", "rb"], [("one", "min", "one")],
        num_partitions=min(num_partitions, 16)).drop_columns(["one"])

    # ---- (3) expand string pairs to id pairs via two chained joins
    memb = groups.select_columns(["rep", "id"])
    j1 = exchange_join(
        spairs.map_batches(
            lambda t: pa.table({"rep": t.column("ra"),
                                "rb": t.column("rb")}),
            batch_format="pyarrow"),
        memb.map_batches(
            lambda t: pa.table({"rep": t.column("rep"),
                                "ida": t.column("id")}),
            batch_format="pyarrow"),
        on="rep", num_partitions=num_partitions,
        left_schema=pa.schema([("rep", pa.int64()),
                               ("rb", pa.int64())]),
        right_schema=pa.schema([("rep", pa.int64()),
                                ("ida", pa.int64())]))
    j2 = exchange_join(
        j1.map_batches(
            lambda t: pa.table({"rep": t.column("rb"),
                                "ida": t.column("ida")}),
            batch_format="pyarrow"),
        memb.map_batches(
            lambda t: pa.table({"rep": t.column("rep"),
                                "idb": t.column("id")}),
            batch_format="pyarrow"),
        on="rep", num_partitions=num_partitions,
        left_schema=pa.schema([("rep", pa.int64()),
                               ("ida", pa.int64())]),
        right_schema=pa.schema([("rep", pa.int64()),
                                ("idb", pa.int64())]))

    def orient(t: pa.Table) -> pa.Table:
        a = t.column("ida").to_numpy(zero_copy_only=False).astype(
            np.int64)
        b = t.column("idb").to_numpy(zero_copy_only=False).astype(
            np.int64)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return pa.table({"id_a": pa.array(lo, pa.int64()),
                         "id_b": pa.array(hi, pa.int64()),
                         "dist": pa.array(np.ones(len(lo), np.int64),
                                          pa.int64())})

    ones = j2.map_batches(orient, batch_format="pyarrow")
    return zeros.union(ones)


def sorted_neighborhood_pairs(
    ds: rd.Dataset,
    *,
    key_col: str = "text",
    id_col: str = "doc_id",
    window: int = 3,
) -> rd.Dataset:
    """Sorted-neighborhood ER blocking (Hernández & Stolfo 1995):
    candidate pairs = all rows within ``window`` positions of each other
    in the global (key, id) sort order.  Complements the hash-based
    blockers (LSH bands, symmetric-delete): catches near-keys that
    share a sort prefix but no band.  Output: (id_a, id_b, dist) with
    id_a the earlier row in sort order and dist = position gap in
    [1, window-1].

    Distributed shape: ONE range sort (``bsp.sort_blocks``), whose
    blocks are consecutive runs of the global order.  The pairs whose
    LEFT end lies in block i are found among block i's rows followed by
    the first ``window-1`` rows after it, so one small pass reads each
    block's first ``window-1`` ids (``bsp.block_values``), the driver
    strings them into each block's tail (across short and empty blocks),
    and one raw task per block (``bsp.scan_blocks``) emits that block's
    pairs — every in-window pair exactly once, with no second exchange.
    Pair generation is one vectorized shift pass per gap in [1, window).
    """
    from .bsp import block_values, scan_blocks, sort_blocks

    w = int(window)
    srt = sort_blocks((ds, lambda t: t.select([key_col, id_col])),
                      [key_col, id_col])
    if not srt.num_rows():
        return rd.from_arrow(pa.table({"id_a": pa.array([], pa.int64()),
                                       "id_b": pa.array([], pa.int64()),
                                       "dist": pa.array([], pa.int64())}))

    def ids_of(t: pa.Table) -> np.ndarray:
        return t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)

    heads = block_values(srt, lambda t: ids_of(t.slice(0, w - 1)))
    tails, after = [], np.zeros(0, np.int64)
    for head in reversed(heads):  # block i's tail: the w-1 ids after it
        tails.append(after)
        after = np.concatenate([head, after])[:w - 1]

    def pairs(tail: np.ndarray, t: pa.Table) -> pa.Table:
        ids = np.concatenate([ids_of(t), tail])
        out_a, out_b, out_d = [], [], []
        for gap in range(1, w):
            m = max(0, min(t.num_rows, len(ids) - gap))  # left ends here
            out_a.append(ids[:m])
            out_b.append(ids[gap:gap + m])
            out_d.append(np.full(m, gap, np.int64))
        none = [np.zeros(0, np.int64)]
        return pa.table({"id_a": np.concatenate(none + out_a),
                         "id_b": np.concatenate(none + out_b),
                         "dist": np.concatenate(none + out_d)})

    return scan_blocks(srt, pairs, tails[::-1]).dataset()


def cdc_chunks(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 16,
    mod_bits: int = 6,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Content-defined chunking dedup (LBFS/rsync-style): cut each
    document's UTF-8 byte stream wherever the Rabin-Karp hash of the
    16-byte window starting there is ≡ 0 (mod 2^mod_bits) — boundaries
    move with the CONTENT, so an insertion early in a doc shifts only
    one chunk instead of re-chunking everything (what fixed-size
    blocking gets wrong; the byte-level complement of the word-window
    ``passage_dedup``).  A chunk is a duplicate iff an identical byte
    span occurred earlier in (doc, chunk) order anywhere in the corpus.

    Output: (id_col, chunk_idx, start, length, is_dup) — byte offsets.

    Scale shape: chunking is a pure map (the same
    ``kernels.minhash.window_hashes`` stream the fingerprint family
    uses); dedup ships one 128-bit chunk hash + (doc, idx) per chunk —
    never chunk bytes — through ONE hash exchange whose per-partition
    winner pick is a vectorized sort + groupby-first.
    """
    from ..kernels.minhash import window_hashes

    mask = np.uint64((1 << mod_bits) - 1)

    def chunk(batch: pa.Table) -> pa.Table:
        o_id, o_idx, o_st, o_ln, o_h1, o_h2 = [], [], [], [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            data = (txt or "").encode("utf-8", errors="ignore")
            n = len(data)
            if n == 0:
                continue
            hs = window_hashes(txt or "", window)
            if hs is None:
                cuts = [0, n]
            else:
                pos = np.flatnonzero((hs & mask) == 0)
                pos = pos[pos > 0]
                cuts = [0] + pos.tolist() + [n]
            for i in range(len(cuts) - 1):
                st, en = cuts[i], cuts[i + 1]
                h1, h2 = digest128(data[st:en])
                o_id.append(did)
                o_idx.append(i)
                o_st.append(st)
                o_ln.append(en - st)
                o_h1.append(h1)
                o_h2.append(h2)
        return pa.table({
            id_col: pa.array(o_id, pa.int64()),
            "chunk_idx": pa.array(np.asarray(o_idx, np.int64), pa.int64()),
            "start": pa.array(np.asarray(o_st, np.int64), pa.int64()),
            "length": pa.array(np.asarray(o_ln, np.int64), pa.int64()),
            "_h1": pa.array(np.asarray(o_h1, np.int64), pa.int64()),
            "_h2": pa.array(np.asarray(o_h2, np.int64), pa.int64())})

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_h1", "_h2", id_col, "chunk_idx"],
                          kind="mergesort")
        first = ~g.duplicated(["_h1", "_h2"], keep="first")
        out = g[[id_col, "chunk_idx", "start", "length"]].copy()
        out["is_dup"] = ~first.to_numpy()
        return out

    return keyed_apply(ds.map_batches(chunk, batch_format="pyarrow",
                                      batch_size=1024),
                       "_h1", mark, num_partitions=num_partitions)


def containment_pairs(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    tau: float = 0.5,
    num_partitions: int = 64,
    max_bucket: int | None = None,
) -> rd.Dataset:
    """Asymmetric CONTAINMENT near-dup join (Broder 1997's containment,
    the quote/inclusion detector Jaccard misses): for doc pair (a, b),
    c(a⊂b) = |G_a ∩ G_b| / |G_a| over distinct word ``n``-grams — a
    short doc quoted whole inside a long one scores c≈1 even though
    Jaccard ≈ |a|/|b| ≈ 0.  Emits pairs where max(c_a, c_b) >= ``tau``:
    ``(id_a, id_b, inter, n_a, n_b, c_a, c_b)`` with id_a < id_b.

    Scale shape: same exchange economics as ``ngram_novelty`` — one
    128-bit gram hash + doc id per DISTINCT (doc, gram) pair, gram text
    never ships; per gram-hash partition the co-occurring doc lists
    enumerate pairs via the vectorized ``_pairs_within_groups`` kernel
    (chunked repeat/cumsum — no per-group Python) into batch-local
    partial counts; one pair-keyed ``exchange_agg`` sums intersections;
    per-doc gram totals attach via two chained ``exchange_join``s.
    A gram shared by k docs is inherently O(k²) pairs — that IS the
    containment answer, so the default is exact; ``max_bucket`` caps a
    gram's bucket with loud ``containment_skipped_buckets/_rows``
    counters when an approximate sweep is acceptable.
    """
    from .exchange import exchange_agg, exchange_join
    from .graph import _pairs_within_groups

    def explode(batch: pa.Table) -> pa.Table:
        from .curation import _terms, _word_ngrams

        out_id, out_h1, out_h2 = [], [], []
        for did, txt in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
            seen: set = set()
            for g in _word_ngrams(_terms(txt), n):
                dig = digest128(g)
                if dig in seen:
                    continue
                seen.add(dig)
                out_id.append(did)
                out_h1.append(dig[0])
                out_h2.append(dig[1])
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "_h1": pa.array(np.asarray(out_h1, np.int64), pa.int64()),
            "_h2": pa.array(np.asarray(out_h2, np.int64), pa.int64()),
        })

    grams = ds.map_batches(explode, batch_format="pyarrow",
                           batch_size=2048).materialize()

    def pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_h1", "_h2", id_col], kind="mergesort")
        h1 = g["_h1"].to_numpy(np.int64)
        h2 = g["_h2"].to_numpy(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        change = np.concatenate(
            [[True], (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])])
        grp = np.cumsum(change) - 1
        if max_bucket is not None:
            sizes = np.bincount(grp)
            big = sizes > max_bucket
            if big.any():
                counters.incr({
                    "containment_skipped_buckets": int(big.sum()),
                    "containment_skipped_rows":
                        int(sizes[big].sum())})
                keep = ~big[grp]
                grp, ids = grp[keep], ids[keep]
        frames = []
        for fi, si in _pairs_within_groups(grp, ids):
            frames.append(pd.DataFrame({
                "id_a": ids[fi], "id_b": ids[si]}))
        if not frames:
            return pd.DataFrame({
                "id_a": pd.Series(dtype="int64"),
                "id_b": pd.Series(dtype="int64"),
                "inter": pd.Series(dtype="int64")})
        pairs = pd.concat(frames, ignore_index=True)
        out = (pairs.groupby(["id_a", "id_b"], sort=False)
               .size().rename("inter").reset_index())
        return out

    inter = exchange_agg(
        keyed_apply(grams, "_h1", pair_partials,
                    num_partitions=num_partitions),
        ["id_a", "id_b"], [("inter", "sum", "inter")],
        num_partitions=num_partitions, combine=False)

    cnt = exchange_agg(
        grams.map_batches(
            lambda t: pa.table({
                id_col: t.column(id_col),
                "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        id_col, [("one", "sum", "n")], num_partitions=num_partitions)

    i_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                          ("inter", pa.int64())])
    c_schema = pa.schema([(id_col, pa.int64()), ("n", pa.int64())])
    j1 = exchange_join(
        inter.map_batches(
            lambda t: pa.table({id_col: t.column("id_a"),
                                "id_b": t.column("id_b"),
                                "inter": t.column("inter")}),
            batch_format="pyarrow"),
        cnt, on=id_col, num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("id_b", pa.int64()),
                               ("inter", pa.int64())]),
        right_schema=c_schema)
    j2 = exchange_join(
        j1.map_batches(
            lambda t: pa.table({"id_a": t.column(id_col),
                                id_col: t.column("id_b"),
                                "inter": t.column("inter"),
                                "n_a": t.column("n")}),
            batch_format="pyarrow"),
        cnt, on=id_col, num_partitions=num_partitions,
        left_schema=pa.schema([("id_a", pa.int64()),
                               (id_col, pa.int64()),
                               ("inter", pa.int64()),
                               ("n_a", pa.int64())]),
        right_schema=c_schema)

    def finish(t: pa.Table) -> pa.Table:
        inter_v = t.column("inter").to_numpy(zero_copy_only=False)
        na = t.column("n_a").to_numpy(zero_copy_only=False)
        nb = t.column("n").to_numpy(zero_copy_only=False)
        c_a = inter_v / na
        c_b = inter_v / nb
        keep = np.maximum(c_a, c_b) >= tau
        return pa.table({
            "id_a": pa.array(t.column("id_a").to_numpy(
                zero_copy_only=False)[keep], pa.int64()),
            "id_b": pa.array(t.column(id_col).to_numpy(
                zero_copy_only=False)[keep], pa.int64()),
            "inter": pa.array(inter_v[keep], pa.int64()),
            "n_a": pa.array(na[keep], pa.int64()),
            "n_b": pa.array(nb[keep], pa.int64()),
            "c_a": pa.array(c_a[keep], pa.float64()),
            "c_b": pa.array(c_b[keep], pa.float64()),
        })

    return j2.map_batches(finish, batch_format="pyarrow")


def blocking_quality(
    pairs: rd.Dataset,
    base: rd.Dataset,
    *,
    id_col: str = "doc_id",
    key_col: str = "text",
    ida: str = "id_a",
    idb: str = "id_b",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """ER blocking-quality readout (Christen 2012): how good is a
    candidate generator before the expensive match step?

        reduction_ratio    = 1 − |candidates| / C(N,2)
        pairs_completeness = |candidates ∩ gold| / |gold|

    with gold = pairs agreeing exactly on ``key_col`` (Σ C(c,2) over
    key counts — gold pairs are NEVER materialized, the cluster_prf
    trick).  Output: one row (n_candidates, n_matched, n_gold,
    reduction_ratio, pairs_completeness).

    Scale shape: per-key counts via one combiner-backed
    ``exchange_agg`` folded to Σ C(c,2) by per-batch partials
    (O(batches) driver rows); the match count attaches the key to both
    candidate endpoints through two chained ``exchange_join``s and
    folds a batch-partial sum.  Only 1-row totals reach the driver.
    """
    import pyarrow.compute as pc

    from .exchange import exchange_agg, exchange_join

    n_rows = base.count()
    n_candidates = pairs.count()

    key_counts = exchange_agg(
        base.map_batches(
            lambda t: pa.table({"k": t.column(key_col),
                                "one": pa.array(np.ones(t.num_rows,
                                                        np.int64))}),
            batch_format="pyarrow"),
        "k", [("one", "sum", "c")], num_partitions=num_partitions)
    n_gold = int(key_counts.map_batches(
        lambda t: pa.table({"g": pa.array([int(
            (lambda c: (c * (c - 1) // 2).sum())(
                t.column("c").to_numpy(zero_copy_only=False)))],
            pa.int64())}),
        batch_format="pyarrow").to_pandas()["g"].sum())

    kv = base.map_batches(
        lambda t: pa.table({id_col: t.column(id_col).cast(pa.int64()),
                            "k": t.column(key_col)}),
        batch_format="pyarrow")
    kv_schema = pa.schema([(id_col, pa.int64()), ("k", pa.string())])
    p_proj = pairs.map_batches(
        lambda t: pa.table({id_col: t.column(ida).cast(pa.int64()),
                            "_idb": t.column(idb).cast(pa.int64())}),
        batch_format="pyarrow")
    j1 = exchange_join(
        p_proj, kv, on=id_col, num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("_idb", pa.int64())]),
        right_schema=kv_schema)
    j2 = exchange_join(
        j1.map_batches(
            lambda t: pa.table({id_col: t.column("_idb"),
                                "ka": t.column("k")}),
            batch_format="pyarrow"),
        kv, on=id_col, num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("ka", pa.string())]),
        right_schema=kv_schema)
    n_matched = int(j2.map_batches(
        lambda t: pa.table({"m": pa.array([int(
            pc.sum(pc.equal(t.column("ka"),
                            t.column("k"))).as_py() or 0)],
            pa.int64())}),
        batch_format="pyarrow").to_pandas()["m"].sum())

    total = n_rows * (n_rows - 1) // 2
    # < 2 base rows: zero possible pairs — reduction ratio is trivially
    # perfect rather than a ZeroDivisionError (review r5)
    rr = 1.0 - n_candidates * 1.0 / total if total else 1.0
    pc_ = n_matched * 1.0 / n_gold if n_gold else 0.0
    return pd.DataFrame({
        "n_candidates": pd.Series([n_candidates], dtype="int64"),
        "n_matched": pd.Series([n_matched], dtype="int64"),
        "n_gold": pd.Series([n_gold], dtype="int64"),
        "reduction_ratio": pd.Series([rr], dtype="float64"),
        "pairs_completeness": pd.Series([pc_], dtype="float64"),
    })


def semdedup(
    emb: rd.Dataset,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    k: int = 8,
    iters: int = 5,
    tau: float = 0.95,
    chunk: int = 4096,
    assignments: rd.Dataset | None = None,
) -> rd.Dataset:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023): k-means
    cluster the embedding space, then WITHIN each cluster drop every
    vector whose cosine similarity (rounded to 6dp — the MMR convention
    that makes float comparisons replayable) to a LOWER-id cluster
    member exceeds ``tau``.  First-wins by id, non-transitive — the
    passage_dedup rule lifted to embedding space.

    Scale shape: clustering is ``knn.kmeans_lloyd`` (streaming passes +
    O(k*d) reduces); the pairwise stage exchanges (id, cluster,
    embedding) on cluster — each cluster's members land in ONE
    partition, where similarity is a row-chunked float64 matmul (peak
    memory chunk x cluster floats, never |cluster|²).  Partitioning
    assumption: one cluster's vectors fit in a partition; at corpus
    scale raise ``k`` so clusters stay bounded (the paper's regime —
    k ~ sqrt(N)).  Emits (id, cluster, keep).

    ``assignments`` (an (id, cluster) Dataset) skips the internal
    k-means — for callers that already clustered (IVF index reuse)
    or need the centroids themselves (oracle side tables).
    """
    from .exchange import exchange_join
    from .knn import kmeans_lloyd

    if assignments is None:
        assignments, _cent = kmeans_lloyd(emb, id_col=id_col,
                                          emb_col=emb_col, k=k, iters=iters)
    assign = assignments

    keyed = exchange_join(
        assign.map_batches(
            lambda t: pa.table({
                id_col: t.column(id_col).cast(pa.int64()),
                "cluster": t.column("cluster").cast(pa.int64())}),
            batch_format="pyarrow"),
        emb.map_batches(
            lambda t: pa.table({id_col: t.column(id_col).cast(pa.int64()),
                                emb_col: t.column(emb_col)}),
            batch_format="pyarrow"),
        on=id_col, num_partitions=max(16, k),
        left_schema=pa.schema([(id_col, pa.int64()),
                               ("cluster", pa.int64())]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                (emb_col, pa.list_(pa.float32()))]))

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        m = np.stack([np.asarray(v, np.float64)
                      for v in g[emb_col]])
        norm = np.sqrt((m * m).sum(axis=1))
        m = m / np.where(norm > 0, norm, 1.0)[:, None]
        n = len(g)
        dropped = np.zeros(n, bool)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            # sims of rows [lo:hi) against ALL rows before hi; a row j
            # drops iff any STRICTLY-earlier column exceeds tau — the
            # strict-lower-triangle mask, vectorized across the chunk
            sims = np.round(m[lo:hi] @ m[:hi].T, 6)
            earlier = (np.arange(hi)[None, :]
                       < np.arange(lo, hi)[:, None])
            dropped[lo:hi] = ((sims > tau) & earlier).any(axis=1)
        return pd.DataFrame({
            id_col: g[id_col].astype("int64"),
            "cluster": g["cluster"].astype("int64"),
            "keep": ~dropped})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([per_cluster(c)
                          for _, c in g.groupby("cluster", sort=False)],
                         ignore_index=True)

    return keyed_apply(keyed, "cluster", per_part,
                       num_partitions=max(16, k))


def fs_link_scores(
    ds: rd.Dataset,
    *,
    id_col: str,
    block_col: str,
    fields: list[str],
    m: dict[str, float],
    u: dict[str, float],
    lower: float = 0.0,
    upper: float = 2.0,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Fellegi–Sunter record-linkage scoring (1969) over blocked
    candidate pairs — the probabilistic decision layer on top of the
    repo's blocking generators (sorted-neighborhood, FastSS, LSH):
    every pair sharing ``block_col`` is compared field-by-field; the
    match weight is ``Σ log2(m_i/u_i)`` over agreeing fields plus
    ``Σ log2((1-m_i)/(1-u_i))`` over disagreeing ones, and the decision
    is ``link`` (w > upper) / ``possible`` / ``nonlink`` (w < lower).
    ``m``/``u`` are CALLER-SUPPLIED conditional agreement probabilities
    — the EM fit is a separate estimation step; fixed parameters keep
    the release deterministic and SQL-replayable.

    Shape: ONE block-hash exchange (rows carry id + the compared fields
    only); per partition pairs enumerate through the vectorized
    ``_pairs_within_groups`` kernel and every field comparison is one
    numpy equality over the pair index arrays — no per-pair Python.  A
    block with k rows is inherently O(k²) pairs; that is the blocking
    scheme's contract, measured by ``blocking_quality``.

    Missing values: a comparison where EITHER side is missing (None or
    NaN) contributes weight 0 — the standard Fellegi–Sunter treatment.
    Without the explicit mask, None==None on object columns would count
    shared missingness as agreement evidence while NaN!=NaN on float
    columns counted it as disagreement — the decision would flip on
    the column's dtype (review r5).
    """
    from .graph import _pairs_within_groups

    for f in fields:
        if not (0.0 < u[f] < 1.0 and 0.0 < m[f] < 1.0):
            raise ValueError(f"fs_link_scores: m/u for {f!r} must be "
                             f"in (0, 1)")
    w_agree = {f: float(np.log2(m[f] / u[f])) for f in fields}
    w_disagree = {f: float(np.log2((1.0 - m[f]) / (1.0 - u[f])))
                  for f in fields}

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([block_col, id_col], kind="mergesort")
             .reset_index(drop=True))
        blk = g[block_col].to_numpy()
        change = np.concatenate([[True], blk[1:] != blk[:-1]])
        grp = np.cumsum(change) - 1
        idx = np.arange(len(g), dtype=np.int64)
        ids = g[id_col].to_numpy(np.int64)
        fa, fb = [], []
        for fi, si in _pairs_within_groups(grp, idx):
            fa.append(fi)
            fb.append(si)
        if not fa:
            return pd.DataFrame({
                "id_a": pd.Series(dtype="int64"),
                "id_b": pd.Series(dtype="int64"),
                "w": pd.Series(dtype="float64"),
                "decision": pd.Series(dtype="object")})
        ai = np.concatenate(fa)
        bi = np.concatenate(fb)
        w = np.zeros(len(ai), np.float64)
        for f in fields:
            v = g[f].to_numpy()
            miss = pd.isna(g[f]).to_numpy()
            both = ~(miss[ai] | miss[bi])
            agree = (v[ai] == v[bi]) & both
            w += np.where(both,
                          np.where(agree, w_agree[f], w_disagree[f]),
                          0.0)
        dec = np.where(w > upper, "link",
                       np.where(w < lower, "nonlink", "possible"))
        return pd.DataFrame({
            "id_a": ids[ai], "id_b": ids[bi], "w": w,
            "decision": dec})

    return keyed_apply(ds.select_columns([id_col, block_col, *fields]),
                       block_col, per_part, num_partitions=num_partitions)


def survivorship_merge(
    ds: rd.Dataset,
    *,
    cluster_col: str,
    recency_col: str,
    latest_cols: list[str] = (),
    majority_cols: list[str] = (),
    num_partitions: int = 32,
) -> rd.Dataset:
    """Golden-record survivorship (the MDM merge step after entity
    resolution): one output row per cluster, each field resolved by its
    rule — ``latest`` fields take the newest non-null value
    (``recency_col`` asc order, last wins), ``majority`` fields the most
    frequent non-null value (ties -> smallest value).  This is what
    turns :func:`fs_link_scores` -> :func:`pairs_to_canonical` clusters
    into ONE publishable record per entity.

    Shape: ONE cluster-hash exchange; per partition a single sort +
    ``groupby.last`` resolves ALL latest fields at once (pandas last
    skips NA), and one value-count sort + head(1) per majority field —
    C paths across every cluster in the partition.  Emits
    (cluster, n_members, <fields...>).

    ``recency_col`` must be unique within a cluster (an id, or a
    pre-packed (ts, id) key) — equal recencies would resolve by input
    order, which no engine-independent replay can promise.
    """
    latest_cols = list(latest_cols)
    majority_cols = list(majority_cols)
    if not latest_cols and not majority_cols:
        raise ValueError("survivorship_merge: no field rules given")

    cols = [cluster_col, recency_col, *latest_cols, *majority_cols]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        base = g.groupby(cluster_col, sort=False).size().rename(
            "n_members").to_frame()
        if latest_cols:
            s = g.sort_values([cluster_col, recency_col],
                              kind="mergesort")
            last = s.groupby(cluster_col, sort=False)[latest_cols].last()
            base = base.join(last)
        for c in majority_cols:
            vc = (g.groupby([cluster_col, c], sort=False)
                  .size().rename("_n").reset_index()
                  .sort_values([cluster_col, "_n", c],
                               ascending=[True, False, True],
                               kind="mergesort"))
            win = (vc.groupby(cluster_col, sort=False).head(1)
                   .set_index(cluster_col)[[c]])
            base = base.join(win)
        out = base.reset_index()
        out["n_members"] = out["n_members"].astype("int64")
        return out[[cluster_col, "n_members", *latest_cols,
                    *majority_cols]]

    return keyed_apply(ds.select_columns(cols), cluster_col, per_part,
                       num_partitions=num_partitions)


def reciprocal_best_match(
    pairs: rd.Dataset,
    *,
    id_a: str = "id_a",
    id_b: str = "id_b",
    score_col: str = "w",
    round_dp: int = 6,
    num_partitions: int = 32,
) -> rd.Dataset:
    """One-to-one ER assignment by mutual best match: keep a scored
    candidate pair iff each side is the other's HIGHEST-scoring
    counterpart.  The greedy-matching step of an entity-resolution
    pipeline that is order-independent (unlike sequential greedy
    matching) and therefore both distributable and SQL-replayable.

    Scores are rounded to ``round_dp`` BEFORE the per-side argmax and
    ties break toward the SMALLER counterpart id, so "best" is
    engine-independent.  Shape: symmetrize (2x pair rows) ->
    topk_per_group(k=1) per side (batch-local combiner + one hash
    exchange — never per-key Python) -> canonical-pair exchange_agg
    count; a pair survives iff BOTH directed best rows land on it
    (count == 2).  Returns (id_a, id_b, score) with id_a < id_b.
    """
    from .exchange import exchange_agg
    from .analytics import topk_per_group

    def sym(t: pa.Table) -> pa.Table:
        a = t.column(id_a).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(id_b).to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.round(t.column(score_col).to_numpy(zero_copy_only=False)
                     .astype(np.float64), round_dp)
        return pa.table({
            "src": pa.array(np.concatenate([a, b]), pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            "score": pa.array(np.concatenate([w, w]), pa.float64())})

    best = topk_per_group(
        pairs.map_batches(sym, batch_format="pyarrow"),
        key_col="src", sort_col="score", tiebreak_col="dst", k=1,
        descending=True)

    def canon(t: pa.Table) -> pa.Table:
        s = t.column("src").to_numpy(zero_copy_only=False)
        d = t.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({
            id_a: pa.array(np.minimum(s, d), pa.int64()),
            id_b: pa.array(np.maximum(s, d), pa.int64()),
            "score": t.column("score"),
            "n_dir": pa.array(np.ones(t.num_rows, np.int64))})

    counted = exchange_agg(
        best.map_batches(canon, batch_format="pyarrow"),
        [id_a, id_b],
        [("n_dir", "sum", "n_dir"), ("score", "min", "score")],
        num_partitions=num_partitions)
    import pyarrow.compute as pc

    return counted.map_batches(
        lambda t: t.filter(pc.equal(t.column("n_dir"), 2))
                   .select([id_a, id_b, "score"]),
        batch_format="pyarrow")
