"""Frame-feature stores and utterance/frame pairing.

Frames are precomputed feature vectors in a GLFX file, which a load maps
read-only. A store keeps each video's frames as two arrays sorted by time (a
loaded video's features are a field view of its records in the mapped file,
which therefore must not be rewritten in place while the store lives:
`FeatureStore.save` replaces a file, never rewrites it); a video has at
least one frame, since GLFX writes a video only through its frames. The load
drops each run's pages from memory once it has checked them, so a loaded
store holds no page resident: a reader faults back in what it touches. A frame
is found by its video and an instant through `FeatureStore.resolve`.
Each utterance is paired with up to 16 frames sampled at 3.75 fps from its
start timestamp; schedule instants resolve to the nearest stored frame within
half a frame period, and a pair holds the resolved frames as rows into the
video's feature array. A frame is its feature vector alone.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .binio import bytes_left, read_exact, read_utf8, unpack
from .corpus import UtteranceRecord, Vocabulary, encode
from .errors import DataError

FRAME_RATE = 3.75
FRAME_PERIOD = 1.0 / FRAME_RATE
FRAMES_PER_UTTERANCE = 16
RESOLVE_TOLERANCE = 0.5 * FRAME_PERIOD

GLFX_MAGIC = b"GLFX"
GLFX_VERSION = 1


@dataclass(frozen=True)
class FrameFeature:
    features: np.ndarray  # (F,), float64, read-only


def _glfx_frame(vid_len: int, dim: int) -> np.dtype:
    """One packed GLFX v1 frame whose video id is `vid_len` bytes long."""
    return np.dtype([("vid_len", "<u4"), ("vid", np.uint8, (vid_len,)),
                     ("t", "<f8"), ("f", "<f8", (dim,))])


def _nearest_rows(ts: np.ndarray, instants: np.ndarray) -> np.ndarray:
    """Row of the frame in sorted, non-empty `ts` nearest each instant within
    `RESOLVE_TOLERANCE` (bound inclusive; on a tie the later frame), else -1."""
    hi = np.searchsorted(ts, instants)
    lo = hi - 1
    last = len(ts) - 1
    d_lo = np.where(lo >= 0, np.abs(ts[np.maximum(lo, 0)] - instants), np.inf)
    d_hi = np.where(hi <= last, np.abs(ts[np.minimum(hi, last)] - instants), np.inf)
    take_hi = d_hi <= np.minimum(d_lo, RESOLVE_TOLERANCE)
    return np.where(take_hi, hi, np.where(d_lo <= RESOLVE_TOLERANCE, lo, -1))


class FeatureStore:
    """Read-only collection of frame features.

    Per-video timestamps are kept sorted for nearest-neighbour resolution;
    frames of one video may share or nearly share a timestamp. Feature arrays
    are float64, read-only and contiguous by row; training can never mutate
    them. GLFX (`save`, `load_feature_store`) is the one file format. A store
    that `load_feature_store` returns views the mapped file, which must not
    be rewritten in place while the store lives; `save` replaces a file. The
    load leaves none of the map's pages resident, so training, `resolve` and
    `save` fault back in the frames they read.
    """

    def __init__(self, feature_dim: int):
        self.feature_dim = int(feature_dim)
        self._timestamps: dict[str, np.ndarray] = {}
        self._features: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return sum(len(t) for t in self._timestamps.values())

    def add_video(self, video_id: str, timestamps: np.ndarray,
                  features: np.ndarray) -> None:
        """Add a video's frames in time order (a stable sort) as read-only
        copies: the caller's arrays stay its own, unshared and writeable."""
        timestamps = np.array(timestamps, dtype=np.float64)
        features = np.array(features, dtype=np.float64, order="C")
        if timestamps.ndim == 1 and features.shape == (len(timestamps), self.feature_dim):
            _check_finite(video_id, timestamps, features)  # `_add` rejects other shapes
        self._add(video_id, timestamps, features)

    def _add(self, video_id: str, timestamps: np.ndarray, features: np.ndarray) -> None:
        """`add_video` for float64 arrays that nothing else holds and whose
        values the caller has checked finite (`_check_finite`)."""
        if timestamps.ndim != 1:
            raise DataError(f"timestamps for {video_id!r} have shape "
                            f"{timestamps.shape}, expected one dimension")
        if len(timestamps) == 0:
            raise DataError(f"video {video_id!r} has no frames")
        if features.shape != (len(timestamps), self.feature_dim):
            raise DataError(f"feature block for {video_id!r} has shape "
                            f"{features.shape}, expected "
                            f"({len(timestamps)}, {self.feature_dim})")
        if video_id in self._timestamps:
            raise DataError(f"duplicate video {video_id!r} in feature store")
        if not (timestamps[1:] >= timestamps[:-1]).all():
            order = np.argsort(timestamps, kind="stable")
            timestamps, features = timestamps[order], features[order]
        timestamps.setflags(write=False)
        features.setflags(write=False)
        self._timestamps[video_id] = timestamps
        self._features[video_id] = features

    def resolve(self, video_id: str, timestamp_s: float) -> FrameFeature | None:
        """Nearest stored frame within `RESOLVE_TOLERANCE` seconds (bound
        inclusive; on a tie the later frame), else None."""
        ts = self._timestamps.get(video_id)
        if ts is None:
            return None
        row = int(_nearest_rows(ts, np.array([timestamp_s], dtype=np.float64))[0])
        if row < 0:
            return None
        return FrameFeature(self._features[video_id][row])

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Little-endian binary: header {magic, version u32, F u32, count u64},
        then per frame {video_id u32-length-prefixed UTF-8, timestamp f64,
        F x f64}. Videos go in sorted id order; the rows of a video's arrays
        are written as one packed structured array, in time order.

        The bytes go to a new file beside `path`, which then replaces it, so
        a store loaded from `path` keeps viewing the old file's bytes; a
        failed write removes the new file and leaves `path` as it was."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        fh = open(tmp, "xb")
        try:
            with fh:
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
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink()
            raise


def _check_finite(video_id: str, timestamps: np.ndarray, features: np.ndarray,
                  first: int = 0) -> None:
    """Raise DataError naming the first frame of (n,) `timestamps` and (n, F)
    `features` whose timestamp or a feature is not finite; frames of the
    video are counted from `first`."""
    bad = ~(np.isfinite(timestamps) & np.isfinite(features).all(axis=1))
    if bad.any():
        raise DataError(f"non-finite timestamp or feature in video {video_id!r} "
                        f"at frame {first + int(np.argmax(bad))}")


def _run_guess(mapped, start: int, itemsize: int, head: bytes, n: int) -> int:
    """How many of the `n` frames of `itemsize` bytes from byte `start` of the
    bytes `mapped` open with `head`, judged by probing frames 1, 3, 7, ...
    then bisecting: a guess."""
    lo, hi = 1, n  # frames before lo judged the same; hi judged foreign, or n
    while lo < hi:
        mid = min(2 * lo - 1, (lo + hi) // 2)
        at = start + mid * itemsize
        lo, hi = (mid + 1, hi) if mapped[at:at + len(head)] == head else (lo, mid)
    return lo


def load_feature_store(path: str | Path) -> FeatureStore:
    """Map a GLFX file read-only and view it as per-video arrays, one row per
    frame.

    The header is read and checked through the file before the file is
    mapped. Each run of same-id frames, sized by `_run_guess`, is a record
    array viewing the map, whose every header is checked: the run ends at the
    first foreign frame. The run's timestamps are copied out and its values
    checked finite, then its pages are dropped from memory (`madvise`
    MADV_DONTNEED, where the OS has it): they stay in the page cache, and a
    later read of the store faults back in what it touches. So the load holds
    about one run resident, not the file. A video's features are the `f`
    field of its records, so no feature is copied, except that a video split
    over several runs is concatenated. The map closes when the last array
    viewing it goes; the file must not be rewritten in place while the store
    lives (`save` replaces it). No read asks for more than the file holds,
    whatever its header declares. A short file raises DataError naming the
    byte offset, as do bytes after the last frame; a non-finite value names
    its video and frame, and is found before any fault in a later run.
    """
    runs: dict[str, list[np.ndarray]] = {}
    times: dict[str, list[np.ndarray]] = {}
    seen: dict[str, int] = {}  # frames of each video in the runs before
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, path)
        if magic != GLFX_MAGIC:
            raise DataError(f"{path}: not a feature store (bad magic {magic!r})")
        version, dim, count = unpack(fh, "<IIQ", path)
        if version != GLFX_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        drop = getattr(mapped, "madvise", None)
        data = np.frombuffer(mapped, np.uint8)
        left = count
        while left:
            start = fh.tell()
            (vid_len,) = unpack(fh, "<I", path)
            vid = read_utf8(fh, vid_len, path)
            if bytes_left(fh) < 8 + 8 * dim:
                # The frame is cut short: read its fields for the offset.
                unpack(fh, "<d", path)
                read_exact(fh, 8 * dim, path)
            frame = _glfx_frame(vid_len, dim)
            head = mapped[start:fh.tell()]
            n = _run_guess(mapped, start, frame.itemsize, head,
                           min(left, (len(data) - start) // frame.itemsize))
            block = data[start:start + n * frame.itemsize].reshape(n, -1)
            same = (block[:, :len(head)] == np.frombuffer(head, np.uint8)).all(axis=1)
            run = n if same.all() else int(np.argmin(same))
            records = block[:run].reshape(-1).view(frame)
            ts = np.ascontiguousarray(records["t"])
            _check_finite(vid, ts, records["f"], seen.get(vid, 0))
            seen[vid] = seen.get(vid, 0) + run
            times.setdefault(vid, []).append(ts)
            runs.setdefault(vid, []).append(records)
            end = start + run * frame.itemsize
            if drop is not None:
                lo = start - start % mmap.PAGESIZE
                drop(mmap.MADV_DONTNEED, lo, end - lo)
            fh.seek(end)
            left -= run
        end = fh.tell()
        if fh.read(1):
            raise DataError(f"{path}: unexpected bytes after the last of {count} "
                            f"frames, from byte {end}")
    store = FeatureStore(dim)
    for vid in list(runs):
        parts, ts = runs.pop(vid), times.pop(vid)
        if len(parts) == 1:
            store._add(vid, ts[0], parts[0]["f"])
        else:
            store._add(vid, np.concatenate(ts), np.concatenate(parts)["f"])
    return store


_OFFSETS = np.arange(FRAMES_PER_UTTERANCE) * FRAME_PERIOD


def _schedule(starts: np.ndarray, durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Instants starts + k/3.75 for k = 0..15, (n, 16), and a mask of those
    inside the video (not past its duration; k = 0 is always kept)."""
    instants = starts[:, None] + _OFFSETS
    inside = instants <= durations[:, None]
    inside[:, 0] = True
    return instants, inside


@dataclass
class EpisodePair:
    """One tokenized utterance joined to its scheduled frames.

    `frame_rows` are rows into the video's feature array, in strictly
    increasing time; the pair refers to that array, not a copy.
    """

    token_ids: list[int]
    frame_rows: list[int]
    video_features: np.ndarray
    video_id: str


@dataclass
class PairReport:
    paired: int = 0
    dropped_unknown_video: int = 0
    dropped_no_frames: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def build_pairs(records: list[UtteranceRecord], store: FeatureStore,
                vocab: Vocabulary, max_len: int = 48) -> tuple[list[EpisodePair], PairReport]:
    """One EpisodePair per utterance whose schedule resolves >= 1 stored frame.

    The schedule of an utterance starts at min(start, video duration). All
    instants of a video resolve at once, as `FeatureStore.resolve` would one
    by one, and a pair keeps the rows they resolve to in the video's arrays,
    each strictly later than the last. Drops are counted, never silent: a
    record of a video the store lacks is an unknown video, one whose schedule
    resolves no frame has no frames, and len(records) == paired + dropped.
    """
    report = PairReport()
    duration_of = {vid: float(ts[-1]) for vid, ts in store._timestamps.items()}
    known, starts, durations = [], [], []
    of_video: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        duration = duration_of.get(rec.video_id)
        if duration is None:
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
        found = _nearest_rows(ts, instants[sel])
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
        pairs.append(EpisodePair(encode(rec.text, vocab, max_len), flat[begin:end],
                                 store._features[rec.video_id], rec.video_id))
        begin = end
    report.paired = len(pairs)
    return pairs, report


def sample_frame(pair: EpisodePair, rng: np.random.Generator) -> FrameFeature:
    """Uniform draw over the pair's frames (one visual moment per episode):
    one `rng.integers` draw picks a row of the video's features."""
    row = pair.frame_rows[int(rng.integers(len(pair.frame_rows)))]
    return FrameFeature(pair.video_features[row])
