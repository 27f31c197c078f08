"""Multimodal (image/audio/video) column plumbing.

Media travel as opaque ``binary`` columns with typed metadata columns; the
decode/feature kernels are actor-pool ``map_batches`` stages.  The decode
libraries (PIL/ffmpeg/torchaudio) are NOT available in this container, so
the decode step is stubbed: ``DecodeStub`` raises ``NotImplementedError``
unless ``fake=True``, in which case it produces deterministic fake features
(a seeded hash-derived vector) so the Ray-side plumbing — schema, batch
sizing, actor signature, output layout — is real and tested.

Batch-size guidance: large binary payloads need small ``batch_size`` (the
32-64 range) and ``target_max_block_size`` tuned so batch x concurrency
fits worker heaps (see ray_guide 'Memory-aware').
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..kernels.minhash import digest128


def make_fake_media(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake media table for plumbing tests."""
    rng = np.random.RandomState(seed)
    kinds = ["image", "audio", "video"]
    payloads = [
        hashlib.blake2b(f"media-{i}-{seed}".encode(), digest_size=64).digest()
        * (1 + i % 4)
        for i in range(n)
    ]
    return pa.table(
        {
            "media_id": pa.array(range(n), pa.int64()),
            "media_type": pa.array([kinds[i % 3] for i in range(n)], pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(
                [{"image": "image/png", "audio": "audio/wav", "video": "video/mp4"}[kinds[i % 3]]
                 for i in range(n)],
                pa.string(),
            ),
            "width": pa.array([64 + (i % 8) * 16 if i % 3 == 0 else -1 for i in range(n)], pa.int32()),
            "height": pa.array([64 if i % 3 == 0 else -1 for i in range(n)], pa.int32()),
            "duration_ms": pa.array([1000 * (i % 30) if i % 3 else -1 for i in range(n)], pa.int32()),
        }
    )


class DecodeStub:
    """Actor-pool decode/feature-extract stage.

    Real deployments replace ``_decode_real`` with PIL/ffmpeg decoding on
    CPU/GPU actors; model/codec setup belongs in ``__init__`` (once per
    actor).  ``fake=True`` produces a deterministic 16-dim feature vector
    from the payload hash so downstream stages are exercisable.
    """

    FEATURE_DIM = 16

    def __init__(self, fake: bool = False):
        self.fake = fake
        # codec probe ONCE per actor (the stateful-stage convention):
        # real image decode lights up automatically if the environment
        # ever grows PIL; audio/video additionally need ffmpeg
        self._pil = None
        if not fake:
            try:
                from PIL import Image  # noqa: PLC0415

                self._pil = Image
            except ImportError:
                self._pil = None

    def _decode_real(self, payload: bytes, media_type: str) -> np.ndarray:
        if media_type == "image" and self._pil is not None:
            import io

            img = self._pil.open(io.BytesIO(payload)).convert("L")
            img = img.resize((4, 4))
            v = np.asarray(img, dtype=np.float32).reshape(-1)
            return v / np.float32(255.0)
        raise NotImplementedError(
            "media decoding requires PIL/ffmpeg, not available in this environment; "
            "construct DecodeStub(fake=True) for deterministic fake features"
        )

    def _decode_fake(self, payload: bytes, media_type: str) -> np.ndarray:
        h = hashlib.blake2b(payload, digest_size=self.FEATURE_DIM * 4).digest()
        v = np.frombuffer(h, dtype=np.uint32).astype(np.float32)
        return v / np.float32(2**32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        decode = self._decode_fake if self.fake else self._decode_real
        feats = [
            decode(p.as_py(), t)
            for p, t in zip(batch.column("payload"), batch.column("media_type").to_pylist())
        ]
        out = batch.drop_columns(["payload"])  # drop the wide column after decode
        return out.append_column(
            "features",
            pa.array([f.tolist() for f in feats], pa.list_(pa.float32())),
        )


def decode_features(ds: rd.Dataset, *, fake: bool = False,
                    concurrency=(1, 4), batch_size: int = 32) -> rd.Dataset:
    """Media dataset -> features dataset via the actor-pool decode stage."""
    return ds.map_batches(
        DecodeStub,
        batch_format="pyarrow",
        batch_size=batch_size,  # small: payloads are wide
        concurrency=concurrency,
        fn_constructor_kwargs={"fake": fake},
    )


class ResizeStub:
    """Actor-pool image-resize stage (brief: 'resize').

    Real deployments decode + resample with PIL/libvips in ``_resize_real``
    (codec state per actor); ``fake=True`` emits a deterministic
    payload derived from (payload, target size) and updates the
    width/height metadata, so schema flow and batch sizing are real.
    Non-image rows pass through untouched.
    """

    def __init__(self, width: int, height: int, fake: bool = False):
        self.width = width
        self.height = height
        self.fake = fake
        self._pil = None
        if not fake:
            try:
                from PIL import Image  # noqa: PLC0415

                self._pil = Image
            except ImportError:
                self._pil = None

    def _resize_real(self, payload: bytes) -> bytes:
        if self._pil is not None:
            import io

            img = self._pil.open(io.BytesIO(payload))
            out = io.BytesIO()
            img.resize((self.width, self.height)).save(out, format="PNG")
            return out.getvalue()
        raise NotImplementedError(
            "image resize requires PIL/libvips, not available in this "
            "environment; construct ResizeStub(fake=True)"
        )

    def _resize_fake(self, payload: bytes) -> bytes:
        return hashlib.blake2b(
            payload + f"-resize-{self.width}x{self.height}".encode(),
            digest_size=64,
        ).digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        resize = self._resize_fake if self.fake else self._resize_real
        payloads, widths, heights = [], [], []
        for row in batch.to_pylist():
            if row["media_type"] == "image":
                payloads.append(resize(row["payload"]))
                widths.append(self.width)
                heights.append(self.height)
            else:
                payloads.append(row["payload"])
                widths.append(row["width"])
                heights.append(row["height"])
        cols = {n: batch.column(n) for n in batch.column_names}
        cols["payload"] = pa.array(payloads, pa.binary())
        cols["width"] = pa.array(widths, pa.int32())
        cols["height"] = pa.array(heights, pa.int32())
        return pa.table(cols)


def resize_images(ds: rd.Dataset, width: int, height: int, *,
                  fake: bool = False, concurrency=(1, 4),
                  batch_size: int = 32) -> rd.Dataset:
    return ds.map_batches(
        ResizeStub, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"width": width, "height": height, "fake": fake},
    )


class FrameSampleStub:
    """Actor-pool video frame sampler (brief: 'frame-sample'): one input
    video row -> up to ``fps_n`` frame rows (frame_idx, ts_ms, frame
    payload) — the row-exploding shape of real ffmpeg sampling.  Frames
    are sampled at uniform timestamps over duration_ms; ``fake=True``
    derives deterministic frame payloads from (payload, frame_idx).
    Non-video rows are dropped (this stage FILTERS to its modality)."""

    def __init__(self, fps_n: int = 4, fake: bool = False):
        self.fps_n = fps_n
        self.fake = fake

    def _frame_real(self, payload: bytes, ts_ms: int) -> bytes:
        raise NotImplementedError(
            "video frame extraction requires ffmpeg, not available in this "
            "environment; construct FrameSampleStub(fake=True)"
        )

    def _frame_fake(self, payload: bytes, ts_ms: int) -> bytes:
        return hashlib.blake2b(
            payload + f"-frame-{ts_ms}".encode(), digest_size=64
        ).digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        frame = self._frame_fake if self.fake else self._frame_real
        mid, idxs, tss, frames = [], [], [], []
        for row in batch.to_pylist():
            if row["media_type"] != "video":
                continue
            dur = max(int(row["duration_ms"]), 0)
            n = self.fps_n if dur > 0 else 1
            for k in range(n):
                ts = (dur * k) // n
                mid.append(row["media_id"])
                idxs.append(k)
                tss.append(ts)
                frames.append(frame(row["payload"], ts))
        return pa.table(
            {
                "media_id": pa.array(mid, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "ts_ms": pa.array(tss, pa.int32()),
                "frame": pa.array(frames, pa.binary()),
            }
        )


def sample_frames(ds: rd.Dataset, *, fps_n: int = 4, fake: bool = False,
                  concurrency=(1, 4), batch_size: int = 32) -> rd.Dataset:
    return ds.map_batches(
        FrameSampleStub, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"fps_n": fps_n, "fake": fake},
    )


def media_exact_dedup(
    ds: "rd.Dataset",
    *,
    id_col: str = "media_id",
    payload_col: str = "payload",
    num_partitions: int = 32,
) -> "rd.Dataset":
    """Content-addressed exact dedup over an opaque BINARY media column
    — the first dedup pass of a 100 TB image/audio corpus, and the one
    that needs NO decoder (so it is fully real here, not fake-mode):
    128-bit blake2b per payload, then only (digest, id) rows move — the
    media bytes themselves are hashed in place and never reshuffled
    (the 16-32x byte-amplification rule from the LSH band exchange,
    applied to blobs).  Winner = min id per digest.  At 10^9 objects a
    128-bit content hash collides with probability ~2^-64 — the
    standard CAS trust level (git/restic/LFS).

    Emits (id, canonical_id) for every input row.  One hash exchange;
    per partition a vectorized min-per-digest + self-merge.
    """
    from .exchange import keyed_apply

    def digest(t: pa.Table) -> pd.DataFrame:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        h = np.array([digest128(p) for p in t.column(payload_col).to_pylist()],
                     np.int64).reshape(-1, 2)
        return pd.DataFrame({id_col: ids.astype(np.int64),
                             "_h1": h[:, 0], "_h2": h[:, 1]})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        canon = (g.groupby(["_h1", "_h2"], sort=False)[id_col]
                 .min().rename("canonical_id").reset_index())
        out = g.merge(canon, on=["_h1", "_h2"], how="left")
        return pd.DataFrame({
            id_col: out[id_col].astype("int64"),
            "canonical_id": out["canonical_id"].astype("int64")})

    return keyed_apply(
        ds.map_batches(digest, batch_format="pyarrow", batch_size=1024),
        "_h1", per_part, num_partitions=num_partitions)
