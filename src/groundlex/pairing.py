"""Frame-feature stores and utterance/frame pairing.

Frames are precomputed feature vectors keyed by (video_id, timestamp). Each
utterance is paired with up to 16 frames sampled at 3.75 fps starting at the
utterance's start timestamp; schedule instants resolve to the nearest stored
frame within half a frame period.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import read_exact, read_utf8, unpack
from .corpus import UtteranceRecord, Vocabulary, encode
from .errors import DataError

FRAME_RATE = 3.75
FRAME_PERIOD = 1.0 / FRAME_RATE
FRAMES_PER_UTTERANCE = 16
RESOLVE_TOLERANCE = 0.5 * FRAME_PERIOD
# Timestamps closer than this are one instant up to float rounding (say 2.4 and
# 2.4000000000000004 from summed frame periods): they may share a frame key,
# and ``by_key`` returns what ``resolve`` returns for that key's instant.
# Frames farther apart must not share a key.
SAME_INSTANT_S = 1e-6

GLFX_MAGIC = b"GLFX"
GLFX_VERSION = 1


@dataclass(frozen=True)
class FrameFeature:
    video_id: str
    timestamp_s: float
    features: np.ndarray  # (F,), float64, read-only

    def key(self) -> str:
        return frame_key(self.video_id, self.timestamp_s)


def frame_key(video_id: str, timestamp_s: float) -> str:
    """Stable string key; timestamps are rounded to the millisecond."""
    return f"{video_id}@{timestamp_s:.3f}"


class FeatureStore:
    """In-memory, read-only collection of frame features.

    Per-video timestamps are kept sorted for nearest-neighbour resolution.
    Feature arrays are flagged non-writeable so training can never mutate
    stored frames.
    """

    def __init__(self, feature_dim: int):
        self.feature_dim = int(feature_dim)
        self._timestamps: dict[str, np.ndarray] = {}
        self._features: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return sum(len(t) for t in self._timestamps.values())

    @property
    def video_ids(self) -> list[str]:
        return list(self._timestamps)

    def add_video(self, video_id: str, timestamps: np.ndarray,
                  features: np.ndarray) -> None:
        if features.shape != (len(timestamps), self.feature_dim):
            raise DataError(f"feature block for {video_id!r} has shape "
                            f"{features.shape}, expected "
                            f"({len(timestamps)}, {self.feature_dim})")
        if video_id in self._timestamps:
            raise DataError(f"duplicate video {video_id!r} in feature store")
        bad = ~(np.isfinite(timestamps) & np.isfinite(features).all(axis=1))
        if bad.any():
            raise DataError(f"non-finite timestamp or feature in video {video_id!r} "
                            f"at frame {int(np.argmax(bad))}")
        order = np.argsort(timestamps, kind="stable")
        ts = np.ascontiguousarray(timestamps[order], dtype=np.float64)
        feats = np.ascontiguousarray(features[order], dtype=np.float64)
        ts.setflags(write=False)
        feats.setflags(write=False)
        # Keys follow sorted time, so frames that share one are neighbours, and
        # neighbours 2 ms or more apart cannot round to the same millisecond.
        gaps = np.diff(ts)
        for i in np.flatnonzero((gaps > SAME_INSTANT_S) & (gaps < 2e-3)):
            key = frame_key(video_id, ts[i])
            if key == frame_key(video_id, ts[i + 1]):
                raise DataError(f"video {video_id!r} has frames at {ts[i]} s "
                                f"and {ts[i + 1]} s, which share the key {key!r}")
        self._timestamps[video_id] = ts
        self._features[video_id] = feats

    def frames_of(self, video_id: str) -> list[FrameFeature]:
        ts = self._timestamps.get(video_id)
        if ts is None:
            return []
        feats = self._features[video_id]
        return [FrameFeature(video_id, float(t), feats[i]) for i, t in enumerate(ts)]

    def by_key(self, key: str) -> FrameFeature:
        """The stored frame whose `frame_key` is `key`: what `resolve` returns
        at the key's instant. A malformed or unknown key raises DataError."""
        video_id, _, stamp = key.rpartition("@")
        try:
            timestamp_s = float(stamp)
        except ValueError:
            raise DataError(f"malformed frame key {key!r}") from None
        frame = self.resolve(video_id, timestamp_s)
        if frame is None or frame.key() != key:
            raise DataError(f"frame key {key!r} not in store")
        return frame

    def has_video(self, video_id: str) -> bool:
        return video_id in self._timestamps

    def resolve(self, video_id: str, timestamp_s: float,
                tolerance: float = RESOLVE_TOLERANCE) -> FrameFeature | None:
        """Nearest stored frame within `tolerance` seconds, else None."""
        ts = self._timestamps.get(video_id)
        if ts is None or len(ts) == 0:
            return None
        idx = int(np.searchsorted(ts, timestamp_s))
        best, best_dist = None, tolerance
        for j in (idx - 1, idx):
            if 0 <= j < len(ts):
                dist = abs(float(ts[j]) - timestamp_s)
                if dist <= best_dist:
                    best, best_dist = j, dist
        if best is None:
            return None
        return FrameFeature(video_id, float(ts[best]), self._features[video_id][best])

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Little-endian binary: header {magic, version u32, F u32, count u64},
        then per frame {video_id u32-length-prefixed UTF-8, timestamp f64,
        F x f64}."""
        count = len(self)
        with open(path, "wb") as fh:
            fh.write(GLFX_MAGIC)
            fh.write(struct.pack("<IIQ", GLFX_VERSION, self.feature_dim, count))
            for vid in sorted(self._timestamps):
                ts = self._timestamps[vid]
                feats = self._features[vid]
                vid_bytes = vid.encode("utf-8")
                for i in range(len(ts)):
                    fh.write(struct.pack("<I", len(vid_bytes)))
                    fh.write(vid_bytes)
                    fh.write(struct.pack("<d", float(ts[i])))
                    fh.write(feats[i].tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "FeatureStore":
        """Read a GLFX file; a short file raises DataError naming the byte offset."""
        with open(path, "rb") as fh:
            magic = read_exact(fh, 4, path)
            if magic != GLFX_MAGIC:
                raise DataError(f"{path}: not a feature store (bad magic {magic!r})")
            version, dim, count = unpack(fh, "<IIQ", path)
            if version != GLFX_VERSION:
                raise DataError(f"{path}: unsupported version {version}")
            per_video: dict[str, tuple[list[float], list[np.ndarray]]] = {}
            for _ in range(count):
                (vid_len,) = unpack(fh, "<I", path)
                vid = read_utf8(fh, vid_len, path)
                (t,) = unpack(fh, "<d", path)
                vec = np.frombuffer(read_exact(fh, 8 * dim, path), dtype="<f8")
                ts, vecs = per_video.setdefault(vid, ([], []))
                ts.append(t)
                vecs.append(vec)
        store = cls(dim)
        for vid, (ts, vecs) in per_video.items():
            store.add_video(vid, np.asarray(ts), np.asarray(vecs))
        return store

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "FeatureStore":
        """Debug format: one frame per line with keys video_id, timestamp_s,
        features."""
        per_video: dict[str, tuple[list[float], list[list[float]]]] = {}
        dim = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    vid = str(obj["video_id"])
                    t = float(obj["timestamp_s"])
                    vec = [float(x) for x in obj["features"]]
                except (KeyError, ValueError, TypeError) as exc:
                    raise DataError(f"{path}:{lineno}: bad frame ({exc})") from exc
                if dim is None:
                    dim = len(vec)
                elif len(vec) != dim:
                    raise DataError(f"{path}:{lineno}: feature dim {len(vec)} != {dim}")
                ts, vecs = per_video.setdefault(vid, ([], []))
                ts.append(t)
                vecs.append(vec)
        if dim is None:
            raise DataError(f"{path}: empty feature file")
        store = cls(dim)
        for vid, (ts, vecs) in per_video.items():
            store.add_video(vid, np.asarray(ts), np.asarray(vecs))
        return store


def load_feature_store(path: str | Path) -> FeatureStore:
    """Dispatch on extension: .jsonl debug format, else GLFX binary."""
    if str(path).endswith(".jsonl"):
        return FeatureStore.load_jsonl(path)
    return FeatureStore.load(path)


def frame_schedule(start_s: float, video_duration_s: float) -> list[float]:
    """Sample instants start_s + k/3.75 for k = 0..15, truncated at the video
    end; the k = 0 instant is always kept (start clamps to the duration)."""
    if start_s < 0:
        raise DataError(f"negative start time {start_s}")
    if start_s > video_duration_s:
        warnings.warn(f"utterance start {start_s:.3f}s past video end "
                      f"{video_duration_s:.3f}s; clamping", stacklevel=2)
        start_s = video_duration_s
    out = [start_s]
    for k in range(1, FRAMES_PER_UTTERANCE):
        t = start_s + k * FRAME_PERIOD
        if t > video_duration_s:
            break
        out.append(t)
    return out


@dataclass
class EpisodePair:
    """One tokenized utterance joined to its scheduled frame features."""

    token_ids: list[int]
    frame_refs: list[FrameFeature]
    video_id: str
    text: str = ""
    start_s: float = 0.0


@dataclass
class PairReport:
    paired: int = 0
    dropped_unknown_video: int = 0
    dropped_no_frames: int = 0

    def as_dict(self) -> dict:
        return {"paired": self.paired,
                "dropped_unknown_video": self.dropped_unknown_video,
                "dropped_no_frames": self.dropped_no_frames}


def build_pairs(records: list[UtteranceRecord], store: FeatureStore,
                vocab: Vocabulary, max_len: int = 48) -> tuple[list[EpisodePair], PairReport]:
    """One EpisodePair per utterance whose schedule resolves >= 1 stored frame.

    Drops are counted, never silent: len(records) == paired + dropped.
    """
    report = PairReport()
    pairs = []
    durations = {vid: float(store._timestamps[vid][-1])
                 for vid in store.video_ids if len(store._timestamps[vid])}
    for rec in records:
        if not store.has_video(rec.video_id):
            report.dropped_unknown_video += 1
            continue
        duration = durations[rec.video_id]
        start = min(rec.start_s, duration)
        refs = []
        for t in frame_schedule(start, duration):
            frame = store.resolve(rec.video_id, t)
            if frame is not None and (not refs or frame.timestamp_s > refs[-1].timestamp_s):
                refs.append(frame)
        if not refs:
            report.dropped_no_frames += 1
            continue
        pairs.append(EpisodePair(token_ids=encode(rec.text, vocab, max_len),
                                 frame_refs=refs, video_id=rec.video_id,
                                 text=rec.text, start_s=rec.start_s))
        report.paired += 1
    return pairs, report


def sample_frame(pair: EpisodePair, rng: np.random.Generator) -> FrameFeature:
    """Uniform draw over the pair's frames (one visual moment per episode)."""
    return pair.frame_refs[int(rng.integers(len(pair.frame_refs)))]
