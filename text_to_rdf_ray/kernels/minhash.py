"""Vectorized MinHash / SimHash / shingle kernels (numpy).

Used by (a) entity-canonicalization LSH blocking on surface forms (the
north-star J2 path: MinHash-LSH surface-form blocking + union-find) and
(b) document near-dup detection.  All hashing is deterministic (fixed
seed-derived parameters, no RNG at call time) so Ray task retries and
N-vs-4N runs produce identical outputs.

MinHash uses the standard universal-hash family h_i(x) = (a_i*x + b_i) mod p
over 64-bit shingle hashes; bands of r rows give the LSH key
(band_id, hash(band_signature)).
"""

from __future__ import annotations

import hashlib

import numpy as np

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


def _hash_shingles(shingles) -> np.ndarray:
    """Stable 64-bit hashes of shingles — vectorized FNV-1a over the
    FULL utf-8 bytes of each shingle (one numpy pass per byte column
    instead of a Python-loop digest per shingle; deterministic across
    runs and platforms).

    No truncation: the previous 40-byte cap made distinct shingles
    sharing a 40-byte prefix collide SYSTEMATICALLY (long compound
    words, URLs, CJK at 3 bytes/char), silently inflating every
    hash-equality-based intersection (dedup_against jaccard, n-gram
    verify) — review r5.  The masked update keeps each hash equal to
    the true FNV-1a of exactly the shingle's bytes, independent of the
    batch's max width, so the same shingle hashes identically in every
    batch; batches of short shingles pay exactly the old per-column
    cost."""
    return _fnv1a([s.encode("utf-8") for s in shingles])


def _fnv1a(encoded: list[bytes]) -> np.ndarray:
    """FNV-1a with the length fold over each byte string — the body of
    :func:`_hash_shingles`, also applied directly to binary keys."""
    n = len(encoded)
    lens = np.array([len(b) for b in encoded], dtype=np.uint64)
    width = int(lens.max()) if n else 0
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if width:
        buf = b"".join(b.ljust(width, b"\x00") for b in encoded)
        arr = (np.frombuffer(buf, dtype=np.uint8)
               .reshape(n, width).astype(np.uint64))
        for j in range(width):
            hx = (h ^ arr[:, j]) * _FNV_PRIME
            h = np.where(lens > np.uint64(j), hx, h)
    # fold in the length so prefixes cannot collide with extensions
    h = (h ^ lens) * _FNV_PRIME
    return h


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


def short_doc_fingerprint(text: str) -> int:
    """The single fingerprint of a sub-window document."""
    data = text.encode("utf-8", errors="ignore")
    h = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(h, "little") >> 1


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
