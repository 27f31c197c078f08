"""MinHash/SimHash/fingerprint and text-stat kernels."""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from text_to_rdf_ray.kernels.minhash import (
    band_keys,
    char_shingles,
    hamming64,
    jaccard,
    minhash_signature,
    rolling_fingerprint,
    simhash64,
    word_shingles,
)
from text_to_rdf_ray.kernels.textstats import (
    lang_id,
    quality_score,
    token_count_bpe,
    token_count_ws,
)


def test_shingles():
    assert char_shingles("ab", 3) == {" ab "[:3], "ab "}
    assert word_shingles("a b c d", 2) == {"a b", "b c", "c d"}
    assert word_shingles("", 2) == set()


def test_minhash_estimates_jaccard():
    a = word_shingles("the quick brown fox jumps over the lazy dog today", 2)
    b = word_shingles("the quick brown fox leaps over the lazy dog today", 2)
    true_j = jaccard(a, b)
    sa, sb = minhash_signature(a, 128), minhash_signature(b, 128)
    est = float((sa == sb).mean())
    assert abs(est - true_j) < 0.2
    assert (minhash_signature(a, 128) == sa).all()  # deterministic


def test_band_keys_identical_for_identical_sets():
    s = char_shingles("stanford university")
    assert band_keys(minhash_signature(s), 16) == band_keys(minhash_signature(s), 16)


def test_simhash_close_for_near_texts():
    h1 = simhash64("the quick brown fox jumps over the lazy dog")
    h2 = simhash64("the quick brown fox jumps over the lazy dogs")
    h3 = simhash64("completely different content about other matters entirely")
    assert hamming64(h1, h2) < hamming64(h1, h3)
    assert hamming64(h1, h1) == 0


def test_rolling_fingerprint_properties():
    fp1 = rolling_fingerprint("some document content here for testing purposes ok")
    fp2 = rolling_fingerprint("some document content here for testing purposes ok")
    assert fp1 == fp2  # deterministic
    assert all(isinstance(x, int) and x >= 0 for x in fp1)
    assert rolling_fingerprint("tiny")  # short-input path


def test_token_counts():
    assert token_count_ws("a b  c") == 3
    assert token_count_ws("") == 0
    assert token_count_bpe("don't stop") == 4  # don + ' + t + stop
    assert token_count_bpe("abc123!") == 3


def test_lang_id_markers_and_tiebreak():
    assert lang_id("the cat and the dog is here") == "en"
    assert lang_id("der hund und die katze ist") == "de"
    assert lang_id("le chat et la mer les des") == "fr"
    assert lang_id("el gato los perros las casas") == "es"
    assert lang_id("xyzzy plugh") == "und"
    assert lang_id("") == "und"
    # tie (1 marker each) -> earliest language in en<de<fr<es order
    assert lang_id("the der") == "en"


def test_quality_score_formula():
    q = quality_score("")
    assert q["quality"] == 0.0 and q["n_words"] == 0
    q = quality_score("the cat sat on the mat and it was good")
    assert 0 < q["quality"] <= 1.0
    assert q["n_words"] == 10
    assert abs(q["stopword_ratio"] - 6 / 10) < 1e-9  # the, on, the, and, it, was


def test_minhash_signatures_batch_equals_per_doc():
    """Batch reduceat path must be numerically identical to the per-doc
    signature, including empty sets and single-element sets."""
    import numpy as np

    from text_to_rdf_ray.kernels.minhash import (
        char_shingles,
        minhash_signature,
        minhash_signatures,
        word_shingles,
    )

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "a",
        "entirely different words appear in this document about databases",
        "the quick brown fox jumps over the lazy cat",
    ]
    for sh_fn in (lambda t: word_shingles(t, 3), lambda t: char_shingles(t, 3)):
        sets = [sh_fn(d) for d in docs]
        batch = minhash_signatures(sets)
        for i, s in enumerate(sets):
            assert np.array_equal(batch[i], minhash_signature(s)), i
    # chunk boundary: force multiple chunks with a tiny budget
    sets = [char_shingles(d) for d in docs * 20]
    small = minhash_signatures(sets, max_chunk_hashes=64)
    big = minhash_signatures(sets)
    assert np.array_equal(small, big)


def test_window_operators(ray_session):
    """stages/windows.py: tumbling windows and session rows with exact
    hand-computable fixtures."""
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import (
        session_summary,
        sessionize,
        tumbling_agg,
    )

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = [
        # user 1: two sessions (40-min gap), sizes 2 and 1
        {"user_id": 1, "event_id": 1, "ts": base, "event_type": "a", "value": 1.0},
        {"user_id": 1, "event_id": 2, "ts": base + pd.Timedelta(minutes=10),
         "event_type": "a", "value": 2.0},
        {"user_id": 1, "event_id": 3, "ts": base + pd.Timedelta(minutes=50),
         "event_type": "b", "value": 3.0},
        # user 2: one session
        {"user_id": 2, "event_id": 4, "ts": base + pd.Timedelta(hours=2),
         "event_type": "a", "value": 4.0},
    ]
    ds = rd.from_items(rows)

    sess = sessionize(ds).to_pandas().sort_values(["user_id", "session_id"])
    assert list(sess["user_id"]) == [1, 1, 2]
    assert list(sess["n_events"]) == [2, 1, 1]
    assert sess.iloc[0]["start_ts"] == base
    assert sess.iloc[0]["end_ts"] == base + pd.Timedelta(minutes=10)

    summ = session_summary(sessionize(ds)).to_pandas().sort_values("user_id")
    assert list(summ["n_sessions"]) == [2, 1]
    assert list(summ["max_session_events"]) == [2, 1]

    tw = tumbling_agg(ds, width_us=3_600_000_000).to_pandas()
    tw = tw.sort_values(["event_type", "window_id"]).reset_index(drop=True)
    # hour 0: type a has 2 events sum 3, type b has 1 event sum 3; hour 2: a 1/4
    assert [(r.event_type, int(r.n), float(r.sum_value)) for r in tw.itertuples()] == [
        ("a", 2, 3.0), ("a", 1, 4.0), ("b", 1, 3.0),
    ]


def test_rolling_agg_window_and_gaps(ray_session):
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import rolling_agg

    t0 = pd.Timestamp("2026-01-01 00:00:00")
    rows = [
        # user 1: values 10, 20, 40 at +0s, +5s, +65s
        {"user_id": 1, "event_id": 1, "ts": t0, "value": 10.0},
        {"user_id": 1, "event_id": 2, "ts": t0 + pd.Timedelta(seconds=5), "value": 20.0},
        {"user_id": 1, "event_id": 3, "ts": t0 + pd.Timedelta(seconds=65), "value": 40.0},
        # user 2: same-ts tie broken by event_id
        {"user_id": 2, "event_id": 5, "ts": t0, "value": 100.0},
        {"user_id": 2, "event_id": 4, "ts": t0, "value": 50.0},
    ]
    out = (rolling_agg(rd.from_items(rows).repartition(2), window_rows=2)
           .to_pandas().set_index("event_id").sort_index())
    assert out.loc[1, "rolling_avg"] == 10.0 and out.loc[1, "gap_us"] == -1
    assert out.loc[2, "rolling_avg"] == 15.0 and out.loc[2, "gap_us"] == 5_000_000
    assert out.loc[3, "rolling_avg"] == 30.0 and out.loc[3, "gap_us"] == 60_000_000
    # tie order: event 4 first (gap -1), event 5 second (gap 0)
    assert out.loc[4, "rolling_avg"] == 50.0 and out.loc[4, "gap_us"] == -1
    assert out.loc[5, "rolling_avg"] == 75.0 and out.loc[5, "gap_us"] == 0


def test_lag_delta_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from text_to_rdf_ray.stages.windows import lag_delta

    rng = np.random.RandomState(1)
    n = 4000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.randint(0, 300, size=n).astype(np.int64),
        "ts": pd.to_datetime("2026-01-01")
              + pd.to_timedelta(rng.randint(0, 86400, size=n), unit="s"),
        "value": rng.standard_normal(n),
    })
    out = (lag_delta(rd.from_pandas(df).repartition(6), num_partitions=8)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    ref = df.sort_values(["user_id", "ts", "event_id"]).copy()
    d = ref.groupby("user_id", sort=False)["value"].diff()
    ref["delta"] = d.fillna(0.0)
    ref["has_prev"] = d.notna()
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert (out["event_id"] == ref["event_id"]).all()
    assert (out["user_id"] == ref["user_id"]).all()
    np.testing.assert_array_equal(out["delta"].to_numpy(),
                                  ref["delta"].to_numpy())  # bit-identical
    assert (out["has_prev"] == ref["has_prev"]).all()
    # exactly one first-event row per user
    assert (~out["has_prev"]).sum() == df["user_id"].nunique()


_MASK64 = (1 << 64) - 1


def _fnv1a_reference(b: bytes) -> int:
    """Byte-at-a-time FNV-1a with the length fold."""
    h = 0xCBF29CE484222325
    for x in b:
        h = ((h ^ x) * 0x100000001B3) & _MASK64
    return ((h ^ len(b)) * 0x100000001B3) & _MASK64


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(
    ["\x00", "a", "Z", " ", "é", "中", "文", "字", "\U0001F600"]),
    max_size=80), max_size=40))
def test_fnv1a_matches_bytewise_reference(strings):
    """Every string hash (NUL and multi-byte UTF-8 included, any mix of
    lengths in one batch) is the byte-at-a-time FNV-1a, whether the
    strings come as a list or as an Arrow array read from its buffers:
    sliced at an offset, chunked, large_string or binary."""
    import pyarrow as pa

    from text_to_rdf_ray.kernels.minhash import _hash_shingles

    want = [_fnv1a_reference(s.encode("utf-8")) for s in strings]
    got = _hash_shingles(strings)
    assert got.dtype == np.uint64
    assert [int(h) for h in got] == want

    arr = pa.array(["pad"] + strings, pa.string()).slice(1)
    cut = len(strings) // 2
    for values in (
        arr,
        pa.chunked_array([arr.slice(0, cut), arr.slice(cut)], pa.string()),
        pa.array(strings, pa.large_string()),
        pa.array([s.encode("utf-8") for s in strings], pa.binary()),
    ):
        got = _hash_shingles(values)
        assert got.dtype == np.uint64
        assert [int(h) for h in got] == want, values.type


def test_fnv1a_long_key_in_a_large_batch_fits_in_memory():
    """One 1 MB key among 65,536 short ones hashes under a 1 GiB
    address-space limit (padding every row to the long key's width
    would need about 0.5 TB)."""
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent("""
        import os, resource
        import numpy as np
        from text_to_rdf_ray.kernels.minhash import _hash_shingles as _fnv1a

        keys = [b"k%d" % i for i in range(65_536)]
        keys[12_345] = bytes(range(256)) * 4096
        pages = int(open("/proc/self/statm").read().split()[0])
        limit = pages * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        h = _fnv1a(keys)
        print(int(h[12_345]), int(h[0]), int(h[-1]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=600, env=env,
                         cwd=os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__))))
    assert out.returncode == 0, out.stderr[-2000:]
    assert [int(x) for x in out.stdout.split()] == [
        _fnv1a_reference(bytes(range(256)) * 4096),
        _fnv1a_reference(b"k0"), _fnv1a_reference(b"k65535")]


def test_fnv1a_long_key_costs_under_a_second():
    """One 1 MiB key among 65,536 short ones hashes in about 1 s of CPU
    at most (a numpy step per byte of the long key took over 2 s), with
    the bytewise reference's bits.  Timed in a fresh process, so no
    other thread's CPU counts."""
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent("""
        import time
        from text_to_rdf_ray.kernels.minhash import _hash_shingles as _fnv1a

        keys = [b"k%d" % i for i in range(65_536)]
        keys[12_345] = bytes(range(256)) * 4096
        t0 = time.process_time()
        h = _fnv1a(keys)
        print(time.process_time() - t0, int(h[12_345]), int(h[-1]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=600, env=env,
                         cwd=os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__))))
    assert out.returncode == 0, out.stderr[-2000:]
    cpu_s, long_h, last_h = out.stdout.split()
    assert [int(long_h), int(last_h)] == [
        _fnv1a_reference(bytes(range(256)) * 4096),
        _fnv1a_reference(b"k65535")]
    assert float(cpu_s) < 1.0, cpu_s


#: id63 and digest128 values of each input, recorded from the inline
#: blake2b copies these functions replaced
_ID_CORPUS = [
    ("abc", 3227650029775379948,
     (3138212647195331279, 1619088549062707489)),
    ("a\x00b", 5898916173540024575,
     (1131369072902350469, 3447878367239392220)),
    ("東京都", 3034901488091350930,
     (2251466683885173749, 4040942819749934428)),
    ("", 6510301506637419378,
     (4665148505410102986, 8103847710287220046)),
    ("xy" * (1 << 19), 8453095134058821331,
     (6713107761132600461, -2178675207525223951)),
]


def test_id63_and_digest128_pinned_corpus():
    """The identity and content-digest hashes are pinned (ASCII, NUL,
    CJK, empty and a 1 MB string): ids and digests persisted or compared
    across runs keep their values.  A ``str`` hashes as its utf-8 bytes,
    and a short document's fingerprint is its id."""
    from text_to_rdf_ray.kernels.minhash import (digest128, id63,
                                                 short_doc_fingerprint)

    for text, want_id, want_digest in _ID_CORPUS:
        assert id63(text) == want_id
        assert id63(text.encode("utf-8")) == want_id
        assert short_doc_fingerprint(text) == want_id
        assert digest128(text) == want_digest
        assert digest128(text.encode("utf-8")) == want_digest
    assert digest128(bytes(range(256))) == (-4788035850717083710,
                                            4838793034265354162)
    # a lone surrogate is dropped from the fingerprint's bytes
    assert short_doc_fingerprint("a\ud800b") == 4902290532121356551
