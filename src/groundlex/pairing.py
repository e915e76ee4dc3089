"""Frame-feature stores and utterance/frame pairing.

Frames are precomputed feature vectors keyed by (video_id, timestamp); a
store keeps each video's frames as two arrays sorted by time. Each utterance
is paired with up to 16 frames sampled at 3.75 fps starting at the
utterance's start timestamp; schedule instants resolve to the nearest stored
frame within half a frame period, and a pair holds the resolved frames as
rows into the video's arrays.
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
_READ_BLOCK = 1 << 20  # bytes of frames parsed at a time by FeatureStore.load


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


def _glfx_frame(vid_len: int, dim: int) -> np.dtype:
    """One packed GLFX v1 frame whose video id is `vid_len` bytes long."""
    return np.dtype([("vid_len", "<u4"), ("vid", np.uint8, (vid_len,)),
                     ("t", "<f8"), ("f", "<f8", (dim,))])


def _nearest_rows(ts: np.ndarray, instants: np.ndarray, tolerance: float) -> np.ndarray:
    """Row of the frame in sorted, non-empty `ts` nearest each instant within
    `tolerance` (bound inclusive; on a tie the later frame), else -1."""
    hi = np.searchsorted(ts, instants)
    lo = hi - 1
    last = len(ts) - 1
    d_lo = np.where(lo >= 0, np.abs(ts[np.maximum(lo, 0)] - instants), np.inf)
    d_hi = np.where(hi <= last, np.abs(ts[np.minimum(hi, last)] - instants), np.inf)
    take_hi = d_hi <= np.minimum(d_lo, tolerance)
    return np.where(take_hi, hi, np.where(d_lo <= tolerance, lo, -1))


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
        """Nearest stored frame within `tolerance` seconds (bound inclusive;
        on a tie the later frame), else None."""
        ts = self._timestamps.get(video_id)
        if ts is None or len(ts) == 0:
            return None
        row = int(_nearest_rows(ts, np.array([timestamp_s], dtype=np.float64), tolerance)[0])
        if row < 0:
            return None
        return FrameFeature(video_id, float(ts[row]), self._features[video_id][row])

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Little-endian binary: header {magic, version u32, F u32, count u64},
        then per frame {video_id u32-length-prefixed UTF-8, timestamp f64,
        F x f64}. Videos go in sorted id order; the rows of a video's arrays
        are written as one packed structured array, in time order."""
        with open(path, "wb") as fh:
            fh.write(GLFX_MAGIC)
            fh.write(struct.pack("<IIQ", GLFX_VERSION, self.feature_dim, len(self)))
            for vid in sorted(self._timestamps):
                vid_bytes = vid.encode("utf-8")
                ts = self._timestamps[vid]
                frames = np.empty(len(ts), _glfx_frame(len(vid_bytes), self.feature_dim))
                frames["vid_len"] = len(vid_bytes)
                frames["vid"] = np.frombuffer(vid_bytes, dtype=np.uint8)
                frames["t"] = ts
                frames["f"] = self._features[vid]
                fh.write(frames)

    @classmethod
    def load(cls, path: str | Path) -> "FeatureStore":
        """Read a GLFX file into per-video arrays, one row per frame.

        Each run of frames that share a video id is parsed with one structured
        view of a read block of at most `_READ_BLOCK` bytes, and copied out of
        it, so the file's frames are never all held twice. A short file raises
        DataError naming the byte offset, as do bytes after the last frame.
        """
        per_video: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        with open(path, "rb") as fh:
            magic = read_exact(fh, 4, path)
            if magic != GLFX_MAGIC:
                raise DataError(f"{path}: not a feature store (bad magic {magic!r})")
            version, dim, count = unpack(fh, "<IIQ", path)
            if version != GLFX_VERSION:
                raise DataError(f"{path}: unsupported version {version}")
            left = count
            while left:
                start = fh.tell()
                (vid_len,) = unpack(fh, "<I", path)
                vid = read_utf8(fh, vid_len, path)
                frame = _glfx_frame(vid_len, dim)
                fh.seek(start)
                block = fh.read(min(left, max(1, _READ_BLOCK // frame.itemsize)) * frame.itemsize)
                frames = np.frombuffer(block, dtype=frame, count=len(block) // frame.itemsize)
                if len(frames) == 0:
                    # The frame is cut short: read its fields for the offset.
                    fh.seek(start + 4 + vid_len)
                    unpack(fh, "<d", path)
                    read_exact(fh, 8 * dim, path)
                same = ((frames["vid_len"] == vid_len)
                        & (frames["vid"] == np.frombuffer(vid.encode("utf-8"), np.uint8)).all(axis=1))
                run = len(frames) if same.all() else int(np.argmin(same))
                ts, vecs = per_video.setdefault(vid, ([], []))
                ts.append(frames["t"][:run].copy())
                vecs.append(frames["f"][:run].copy())
                fh.seek(start + run * frame.itemsize)
                left -= run
            end = fh.tell()
            if fh.read(1):
                raise DataError(f"{path}: unexpected bytes after the last of {count} "
                                f"frames, from byte {end}")
        store = cls(dim)
        for vid in list(per_video):
            ts, vecs = per_video.pop(vid)
            store.add_video(vid, np.concatenate(ts), np.concatenate(vecs))
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


_OFFSETS = np.arange(FRAMES_PER_UTTERANCE) * FRAME_PERIOD


def _schedule(starts: np.ndarray, durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Instants starts + k/3.75 for k = 0..15, (n, 16), and a mask of those
    inside the video (not past its duration; k = 0 is always kept)."""
    instants = starts[:, None] + _OFFSETS
    inside = instants <= durations[:, None]
    inside[:, 0] = True
    return instants, inside


def frame_schedule(start_s: float, video_duration_s: float) -> list[float]:
    """Sample instants start_s + k/3.75 for k = 0..15, truncated at the video
    end; the k = 0 instant is always kept (start clamps to the duration)."""
    if start_s < 0:
        raise DataError(f"negative start time {start_s}")
    if start_s > video_duration_s:
        warnings.warn(f"utterance start {start_s:.3f}s past video end "
                      f"{video_duration_s:.3f}s; clamping", stacklevel=2)
        start_s = video_duration_s
    instants, inside = _schedule(np.array([start_s], dtype=np.float64),
                                 np.array([video_duration_s], dtype=np.float64))
    return instants[inside].tolist()


@dataclass
class EpisodePair:
    """One tokenized utterance joined to its scheduled frames.

    `frame_rows` are rows into the video's timestamp and feature arrays, in
    strictly increasing time; the pair refers to those arrays, not a copy.
    """

    token_ids: list[int]
    frame_rows: list[int]
    video_timestamps: np.ndarray
    video_features: np.ndarray
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

    The schedule of an utterance starts at min(start, video duration). All
    instants of a video resolve at once, as `FeatureStore.resolve` would one
    by one, and a pair keeps the rows they resolve to in the video's arrays,
    each strictly later than the last. Drops are counted, never silent:
    len(records) == paired + dropped.
    """
    report = PairReport()
    duration_of = {vid: float(ts[-1]) for vid, ts in store._timestamps.items() if len(ts)}
    known, starts, durations = [], [], []
    of_video: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        duration = duration_of.get(rec.video_id)
        if duration is None:
            if store.has_video(rec.video_id):
                report.dropped_no_frames += 1
            else:
                report.dropped_unknown_video += 1
            continue
        of_video.setdefault(rec.video_id, []).append(len(known))
        known.append(i)
        starts.append(min(rec.start_s, duration))
        durations.append(duration)
    start_s = np.asarray(starts, dtype=np.float64)
    negative = np.flatnonzero(start_s < 0)
    if len(negative):
        raise DataError(f"negative start time {starts[negative[0]]}")
    instants, inside = _schedule(start_s, np.asarray(durations, dtype=np.float64))
    rows = np.full(instants.shape, -1, dtype=np.intp)
    times = np.full(instants.shape, -np.inf)
    for vid, sel in of_video.items():
        ts = store._timestamps[vid]
        found = _nearest_rows(ts, instants[sel], RESOLVE_TOLERANCE)
        found[~inside[sel]] = -1
        rows[sel] = found
        times[sel] = np.where(found >= 0, ts[found], -np.inf)
    # A resolved frame is kept when it is later than every frame resolved
    # before it in the schedule, that is, than the last frame kept.
    before = np.full(times.shape, -np.inf)
    np.maximum.accumulate(times[:, :-1], axis=1, out=before[:, 1:])
    keep = (rows >= 0) & (times > before)
    flat = rows[keep].tolist()
    pairs = []
    begin = 0
    for i, end in zip(known, np.cumsum(keep.sum(axis=1)).tolist()):
        if end == begin:
            report.dropped_no_frames += 1
            continue
        rec = records[i]
        vid = rec.video_id
        pairs.append(EpisodePair(encode(rec.text, vocab, max_len), flat[begin:end],
                                 store._timestamps[vid], store._features[vid], vid,
                                 rec.text, rec.start_s))
        begin = end
    report.paired = len(pairs)
    return pairs, report


def sample_frame(pair: EpisodePair, rng: np.random.Generator) -> FrameFeature:
    """Uniform draw over the pair's frames (one visual moment per episode):
    one `rng.integers` draw picks a row of the video's arrays."""
    row = pair.frame_rows[int(rng.integers(len(pair.frame_rows)))]
    return FrameFeature(pair.video_id, float(pair.video_timestamps[row]),
                        pair.video_features[row])
