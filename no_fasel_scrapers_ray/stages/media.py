"""Multimodal binary-column stages beyond S9's image transcode
(brief: "decode / feature-extract / resize / frame-sample ... make the
Ray-side plumbing — schema, batch size, actor signature, output layout
— real and tested"):

- ``ImageResizer``     — resize an image binary column to a target box;
- ``FrameSampler``     — sample every k-th frame from a video binary
                         column into a ``list<binary>`` column;
- ``AudioFeaturizer``  — fixed-length feature vector (``list<float>``)
                         per audio blob.

Codec seam, same policy as stages/images.py: real libraries (PIL /
av / soundfile) are not in this container, so each stage decodes a
deterministic fake container when the import fails — the container
carries enough typed metadata (dimensions, frame count, sample count)
for the transform to be semantically meaningful and unit-testable.
All blob payloads derive from blake2b of the logical content, so
outputs are reproducible across runs and cluster layouts.

Scale shape (identical for all three): binary payloads dominate the
batch footprint, so ``batch_size`` stays small and explicit; stages
are ACTOR pools (codec/feature state built once per actor in
``__init__``); outputs keep one row per input row so downstream
zips/joins stay positional-free (keyed by content id).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..ops.util import pool_size

# fake container magics (header: magic + packed metadata)
IMG_MAGIC = b"FAKEIMG\x00"     # + u16 width, u16 height, payload
VID_MAGIC = b"FAKEVID\x00"     # + u16 n_frames, u16 frame_bytes, payload
AUD_MAGIC = b"FAKEAUD\x00"     # + u32 n_samples, payload (i16 samples)


def synth_image(content_id: str, width: int = 320, height: int = 240) -> bytes:
    payload = hashlib.blake2b(content_id.encode(), digest_size=32).digest()
    n = max(1, (width * height) // 256)
    return IMG_MAGIC + struct.pack("<HH", width, height) + payload * n


def synth_video(content_id: str, n_frames: int = 48,
                frame_bytes: int = 64) -> bytes:
    frames = b"".join(
        hashlib.blake2b(f"{content_id}:{i}".encode(),
                        digest_size=frame_bytes).digest()
        for i in range(n_frames))
    return VID_MAGIC + struct.pack("<HH", n_frames, frame_bytes) + frames


def synth_audio(content_id: str, n_samples: int = 4096) -> bytes:
    seed = int.from_bytes(
        hashlib.blake2b(content_id.encode(), digest_size=8).digest(), "little")
    rng = np.random.RandomState(seed % (2 ** 32))
    samples = (rng.randn(n_samples) * 8192).astype("<i2")
    return AUD_MAGIC + struct.pack("<I", n_samples) + samples.tobytes()


class ImageResizer:
    """Resize an image binary column to fit ``(max_w, max_h)`` keeping
    aspect (Common.py's poster handling never resizes — this is the
    engine addition a thumbnail pipeline needs). PIL path when
    importable; fake-container path rewrites the header dims and scales
    the payload proportionally."""

    def __init__(self, max_w: int = 128, max_h: int = 128):
        self.max_w, self.max_h = max_w, max_h
        try:                                   # pragma: no cover
            from PIL import Image
            self._pil = Image
        except ImportError:
            self._pil = None

    def _resize(self, blob: bytes) -> tuple[bytes, int, int]:
        if self._pil is not None:              # pragma: no cover
            import io
            img = self._pil.open(io.BytesIO(blob))
            img.thumbnail((self.max_w, self.max_h))
            out = io.BytesIO()
            img.save(out, "jpeg")
            return out.getvalue(), img.width, img.height
        if not blob.startswith(IMG_MAGIC):
            return blob, -1, -1
        w, h = struct.unpack_from("<HH", blob, len(IMG_MAGIC))
        scale = min(1.0, self.max_w / w, self.max_h / h)
        nw, nh = max(1, int(w * scale)), max(1, int(h * scale))
        payload = blob[len(IMG_MAGIC) + 4:]
        keep = max(1, (nw * nh) // 256) * 32
        return (IMG_MAGIC + struct.pack("<HH", nw, nh)
                + payload[:keep]), nw, nh

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = [self._resize(b) for b in batch.column("image_bytes").to_pylist()]
        return pa.table({
            "content_id": batch.column("content_id"),
            "thumb_bytes": pa.array([o[0] for o in outs], pa.binary()),
            "thumb_w": pa.array([o[1] for o in outs], pa.int32()),
            "thumb_h": pa.array([o[2] for o in outs], pa.int32()),
        })


class FrameSampler:
    """Every-k-th-frame sampler over a video binary column → one
    ``list<binary>`` row per video (the decode would be av/ffmpeg in a
    real deployment; the fake container's frame table is deterministic)."""

    def __init__(self, every: int = 8, max_frames: int = 16):
        self.every, self.max_frames = every, max_frames

    def _sample(self, blob: bytes) -> list[bytes]:
        if not blob.startswith(VID_MAGIC):
            return []
        n, fb = struct.unpack_from("<HH", blob, len(VID_MAGIC))
        base = len(VID_MAGIC) + 4
        idx = range(0, n, self.every)
        return [blob[base + i * fb: base + (i + 1) * fb]
                for i in list(idx)[: self.max_frames]]

    def __call__(self, batch: pa.Table) -> pa.Table:
        frames = [self._sample(b)
                  for b in batch.column("video_bytes").to_pylist()]
        return pa.table({
            "content_id": batch.column("content_id"),
            "frames": pa.array(frames, pa.list_(pa.binary())),
            "n_sampled": pa.array([len(f) for f in frames], pa.int32()),
        })


class AudioFeaturizer:
    """Fixed-length feature vector per audio blob: RMS energy + 15-bin
    amplitude histogram over the i16 samples (the numpy-vectorized
    stand-in for a real mel/fbank extractor). Output ``list<float32>``
    matches the embeddings-table element type so downstream ANN stages
    consume it unchanged."""

    N_BINS = 15

    def _features(self, blob: bytes) -> np.ndarray:
        if not blob.startswith(AUD_MAGIC):
            return np.zeros(self.N_BINS + 1, dtype=np.float32)
        (n,) = struct.unpack_from("<I", blob, len(AUD_MAGIC))
        samples = np.frombuffer(
            blob, dtype="<i2", count=n,
            offset=len(AUD_MAGIC) + 4).astype(np.float32)
        rms = float(np.sqrt(np.mean(samples ** 2)))
        hist, _ = np.histogram(samples, bins=self.N_BINS,
                               range=(-32768, 32767))
        feat = np.concatenate([[rms], hist / max(1, n)])
        return feat.astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._features(b)
                 for b in batch.column("audio_bytes").to_pylist()]
        return pa.table({
            "content_id": batch.column("content_id"),
            "features": pa.array([f.tolist() for f in feats],
                                 pa.list_(pa.float32())),
        })


def _pool_stage(ds, cls, batch_size: int,
                concurrency: int, **ctor) -> rd.Dataset:
    """``cls`` as an actor pool over ``ds``: stateful stages stay Ray
    Data pools, so a ``BlockRefs`` input becomes a Dataset here."""
    if not isinstance(ds, rd.Dataset):
        ds = rd.from_arrow_refs(ds.to_arrow_refs())
    return ds.map_batches(
        cls, fn_constructor_kwargs=ctor, batch_format="pyarrow",
        batch_size=batch_size, concurrency=pool_size(concurrency),
        num_cpus=1)


def resize_images(ds: rd.Dataset, max_w: int = 128, max_h: int = 128,
                  concurrency: int = 4, batch_size: int = 128) -> rd.Dataset:
    return _pool_stage(ds, ImageResizer, batch_size, concurrency,
                       max_w=max_w, max_h=max_h)


def sample_frames(ds: rd.Dataset, every: int = 8, max_frames: int = 16,
                  concurrency: int = 4, batch_size: int = 32) -> rd.Dataset:
    # video rows are the fattest payloads in the engine → smallest batch
    return _pool_stage(ds, FrameSampler, batch_size, concurrency,
                       every=every, max_frames=max_frames)


def extract_audio_features(ds: rd.Dataset, concurrency: int = 4,
                           batch_size: int = 256) -> rd.Dataset:
    return _pool_stage(ds, AudioFeaturizer, batch_size, concurrency)
