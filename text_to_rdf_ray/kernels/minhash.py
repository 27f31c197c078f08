"""Vectorized MinHash / SimHash / shingle kernels (numpy), and the
package's three hash roles.

Used by (a) entity-canonicalization LSH blocking on surface forms (the
north-star J2 path: MinHash-LSH surface-form blocking + union-find) and
(b) document near-dup detection.  All hashing is deterministic (fixed
seed-derived parameters, no RNG at call time) so Ray task retries and
N-vs-4N runs produce identical outputs.

MinHash uses the standard universal-hash family h_i(x) = (a_i*x + b_i) mod p
over 64-bit shingle hashes; bands of r rows give the LSH key
(band_id, hash(band_signature)).

Each hash role has one function here:

- **Placement** (:func:`_hash_shingles`): FNV-1a with a length fold
  over each string's or byte string's full bytes, read from the Arrow
  buffers.  Exchange partitions, subject buckets, dedup salts and
  shingle hashes all use it, so equal keys land together everywhere.
- **Identity** (:func:`id63`): a 63-bit blake2b id of one string (row
  ids, text hashes, short-document fingerprints).
- **Content digest** (:func:`digest128`): a 128-bit blake2b digest as
  two signed int64 halves, for content that is grouped by hash alone.

Identity and digests stay blake2b, not FNV: two inputs that collide
there are merged as one row, and FNV collisions can be built on
purpose from hostile input.  A placement collision only puts two keys
in one partition.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_MERSENNE = (1 << 61) - 1
_DEFAULT_PERMS = 64


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


_PERM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def perm_params(num_perm: int = _DEFAULT_PERMS, seed: int = 42):
    key = (num_perm, seed)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = _perm_params(num_perm, seed)
    return _PERM_CACHE[key]


def char_shingles(text: str, k: int = 3) -> set[str]:
    t = " " + text.lower() + " "
    if len(t) <= k:
        return {t}
    return {t[i : i + k] for i in range(len(t) - k + 1)}


def word_shingles(text: str, k: int = 5) -> set[str]:
    words = text.lower().split()
    if len(words) <= k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _hash_shingles(values) -> np.ndarray:
    """Stable 64-bit FNV-1a with the length fold over the FULL bytes of
    each value: the package's one placement hash.

    ``values`` is an Arrow string, large_string, binary or
    fixed_size_binary array (chunked or sliced), or a list, which is
    converted once with ``pa.array`` (``str`` hashes its utf-8 bytes).
    The bytes are read from the array's offsets and data buffers, never
    as Python objects.  A null hashes as the empty value.

    No truncation: a prefix cap makes distinct values sharing that
    prefix collide systematically (long compound words, URLs, CJK at
    3 bytes/char), inflating every hash-equality intersection (review
    r5); the length fold keeps a prefix from colliding with its
    extensions.  Rows are sorted by length and hashed one byte column
    at a time, each column gathered from the data buffer for the rows
    still that long; a gather takes several columns when few rows are
    left, at most ``len(values)`` bytes.  Memory stays O(rows) whatever
    the longest value (one long key pads nothing), and each row's hash
    is independent of its batch."""
    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(values)
    if isinstance(values, pa.ChunkedArray):
        return np.concatenate([np.empty(0, np.uint64)]
                              + [_hash_shingles(c) for c in values.chunks])
    n = len(values)
    if not n:
        return np.empty(0, np.uint64)
    typ = values.type
    bufs = values.buffers()
    if pa.types.is_fixed_size_binary(typ):
        starts = (np.arange(n, dtype=np.int64) + values.offset) * typ.byte_width
        lens = np.full(n, typ.byte_width, np.int64)
        data = bufs[1]
    elif (pa.types.is_string(typ) or pa.types.is_binary(typ)
          or pa.types.is_large_string(typ) or pa.types.is_large_binary(typ)):
        odt = np.dtype(np.int64 if pa.types.is_large_string(typ)
                       or pa.types.is_large_binary(typ) else np.int32)
        offs = np.frombuffer(bufs[1], odt, n + 1,
                             values.offset * odt.itemsize).astype(np.int64)
        starts, lens = offs[:-1], np.diff(offs)
        data = bufs[2]
    elif pa.types.is_null(typ):
        starts = lens = np.zeros(n, np.int64)
        data = None
    else:
        raise TypeError(f"_hash_shingles: cannot hash {typ} values")
    if values.null_count:
        lens = np.where(values.is_valid().to_numpy(zero_copy_only=False),
                        lens, 0)
    data = (np.frombuffer(data, np.uint8) if data is not None
            else np.empty(0, np.uint8))
    order = np.argsort(lens, kind="stable")
    srt = lens[order]
    pos = starts[order]
    hs = np.full(n, _FNV_OFFSET, dtype=np.uint64)  # in length order
    j = 0
    for end in np.unique(srt).tolist():
        # bytes j..end-1 exist in the rows from k on (sorted by length)
        k = int(np.searchsorted(srt, j, side="right"))
        hk, pk = hs[k:], pos[k:, None]  # hk is a view: updates land in hs
        while j < end:
            cols = data[pk + np.arange(j, min(j + max(1, n // len(hk)), end))]
            for col in cols.astype(np.uint64).T:
                hk ^= col
                hk *= _FNV_PRIME
            j += cols.shape[1]
    h = np.empty(n, np.uint64)
    h[order] = hs
    # fold in the length so prefixes cannot collide with extensions
    return (h ^ lens.astype(np.uint64)) * _FNV_PRIME


def minhash_signature(shingles, num_perm: int = _DEFAULT_PERMS, seed: int = 42) -> np.ndarray:
    """MinHash signature (uint64[num_perm]) of a shingle set."""
    a, b = perm_params(num_perm, seed)
    if not shingles:
        return np.full(num_perm, np.uint64(_MERSENNE), dtype=np.uint64)
    hv = _hash_shingles(sorted(shingles))
    # (num_perm, n) universal hashing in uint64 modular arithmetic
    prod = (np.outer(a, hv) + b[:, None]) % np.uint64(_MERSENNE)
    return prod.min(axis=1).astype(np.uint64)


def minhash_signatures(
    shingle_sets, num_perm: int = _DEFAULT_PERMS, seed: int = 42,
    max_chunk_hashes: int = 262_144,
) -> np.ndarray:
    """Batch MinHash: (n_docs, num_perm) uint64 — numerically identical to
    ``minhash_signature`` per set, but hashes all shingles of a doc-chunk in
    one vectorized pass and segment-reduces with ``np.minimum.reduceat``
    (the per-doc outer-product dispatch dominates when docs are small,
    e.g. surface forms).  Chunked so the (num_perm, total_shingles) product
    stays under ~num_perm * max_chunk_hashes u64."""
    a, b = perm_params(num_perm, seed)
    n = len(shingle_sets)
    out = np.full((n, num_perm), np.uint64(_MERSENNE), dtype=np.uint64)
    sets = [list(s) for s in shingle_sets]
    lens_all = np.array([len(s) for s in sets], dtype=np.int64)
    i = 0
    while i < n:
        j, total = i, 0
        while j < n and (total == 0 or total + lens_all[j] <= max_chunk_hashes):
            total += lens_all[j]
            j += 1
        lens = lens_all[i:j]
        flat = [sh for s in sets[i:j] for sh in s]
        if flat:
            hv = _hash_shingles(flat)
            # x mod (2^61-1) via Mersenne folding: numpy's u64 % is a
            # per-element division (~10x the cost of the whole hash);
            # for x < 2^64, (x >> 61) + (x & p) < p + 8, so one
            # conditional subtract finishes the reduction — bit-identical
            # to % _MERSENNE
            p = np.uint64(_MERSENNE)
            x = np.outer(a, hv) + b[:, None]
            x = (x >> np.uint64(61)) + (x & p)
            prod = np.where(x >= p, x - p, x)
            offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
            ne = np.nonzero(lens > 0)[0]
            # empty segments occupy zero elements, so consecutive nonempty
            # offsets delimit exactly the nonempty segments
            mins = np.minimum.reduceat(prod, offsets[ne], axis=1)
            out[i + ne] = mins.T.astype(np.uint64)
        i = j
    return out


def band_keys_batch(sigs: np.ndarray, bands: int) -> np.ndarray:
    """Vectorized band keys for an (n, num_perm) signature matrix ->
    (n, bands) int64: FNV-1a over each band's ``r`` uint64 lanes
    (little-endian byte order, as if hashing the segment's raw bytes).
    A band key is only a compact label for the band SIGNATURE — bucket
    membership is signature equality, so the choice of hash does not
    change LSH recall; FNV here replaces a per-(doc, band) blake2b call
    (the explode stage's former per-row Python cost)."""
    sigs = np.ascontiguousarray(sigs, dtype=np.uint64)
    n, num_perm = sigs.shape
    r = num_perm // bands
    segs = sigs[:, : bands * r].reshape(n, bands, r)
    h = np.full((n, bands), _FNV_OFFSET, dtype=np.uint64)
    for lane in range(r):
        v = segs[:, :, lane]
        for shift in range(0, 64, 8):
            h = (h ^ ((v >> np.uint64(shift)) & np.uint64(0xFF))) * _FNV_PRIME
    return (h >> np.uint64(1)).astype(np.int64)  # fits int64


def band_keys(signature: np.ndarray, bands: int) -> list[int]:
    """Split signature into ``bands`` bands; return a stable hash per band
    (single-signature form of ``band_keys_batch`` — identical keys)."""
    return band_keys_batch(np.asarray(signature, dtype=np.uint64).reshape(1, -1),
                           bands)[0].tolist()


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def simhash64(text: str, k: int = 3) -> int:
    """64-bit SimHash over character k-gram hashes (bit-vote aggregation)."""
    sh = char_shingles(text, k)
    if not sh:
        return 0
    hv = _hash_shingles(sorted(sh))
    bits = np.unpackbits(hv.view(np.uint8).reshape(len(hv), 8), axis=1, bitorder="little")
    # signed accumulation (uint sum would wrap on negative votes)
    votes = bits.sum(axis=0).astype(np.int64) * 2 - len(hv)  # >0 -> bit set
    packed = np.packbits((votes > 0).astype(np.uint8), bitorder="little")
    return int(np.frombuffer(packed.tobytes(), dtype=np.uint64)[0])


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def window_hashes(text: str, window: int = 16) -> np.ndarray | None:
    """Raw Rabin-Karp rolling hashes of every ``window``-char window, in
    position order (None when the doc is shorter than one window).  The
    pre-selection hash stream is exposed so oracles can replay the
    winnowing selection independently of this kernel."""
    data = text.encode("utf-8", errors="ignore")
    n = len(data)
    if n < window:
        return None
    base = 1099511628211
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    # powers of the base mod 2^64 (Python ints, then cast — wraparound intended)
    pw_int = [1] * window
    for i in range(1, window):
        pw_int[i] = (pw_int[i - 1] * base) & 0xFFFFFFFFFFFFFFFF
    pw = np.array(pw_int, dtype=np.uint64)
    # windows matrix trick is memory-heavy for big docs; stride over view
    strided = np.lib.stride_tricks.sliding_window_view(arr, window)
    return (strided * pw[::-1]).sum(axis=1, dtype=np.uint64)


def id63(data: str | bytes) -> int:
    """The package's 63-bit identity hash: blake2b-64 of ``data`` (a
    ``str`` as its utf-8 bytes), little-endian, shifted right by one so
    it fits a non-negative int64."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "little") >> 1


def digest128(data: str | bytes) -> tuple[int, int]:
    """The package's 128-bit content digest: blake2b-128 of ``data`` (a
    ``str`` as its utf-8 bytes) as two little-endian signed int64
    halves ``(h1, h2)``; equal pairs mean equal content up to ~n^2/2^128
    collision odds."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    d = hashlib.blake2b(data, digest_size=16).digest()
    return (int.from_bytes(d[:8], "little", signed=True),
            int.from_bytes(d[8:], "little", signed=True))


def short_doc_fingerprint(text: str) -> int:
    """The single fingerprint of a sub-window document."""
    return id63(text.encode("utf-8", errors="ignore"))


def rolling_fingerprint(text: str, window: int = 16, mod_bits: int = 6) -> list[int]:
    """Winnowing-style document fingerprint: Rabin-Karp rolling hashes of
    ``window``-char windows, keeping hashes ≡ 0 (mod 2^mod_bits)."""
    hashes = window_hashes(text, window)
    if hashes is None:
        return [short_doc_fingerprint(text)]
    mask = np.uint64((1 << mod_bits) - 1)
    sel = hashes & mask == 0
    picked = hashes[sel]
    if picked.size == 0:
        picked = hashes[:1]
    return [int(h) >> 1 for h in np.unique(picked)]
