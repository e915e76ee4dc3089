"""Frame-feature stores and utterance/frame pairing.

Frames are precomputed feature vectors in a GLFX file. A store keeps each
video's frames sorted by time: float64 timestamps, and float32 features,
the models' dtype, as an (n, F) array or, for a loaded video, as the byte
offset of each `<f8` row in the file, which a reader reads through the page
cache and casts (`_FileRows`); a feature lies within ±`FEATURE_LIMIT`. The load
checks the file, and `FeatureStore.save` writes it, in blocks of at most
`_BLOCK_BYTES` (or one frame); the load maps none of it. The file must
not be rewritten in place while the store or a pair lives: `save` replaces
a file. A video has at least one frame, since GLFX writes a video only
through its frames. A frame is found by its video and an instant through
`FeatureStore.resolve`.
Each utterance is paired with up to 16 frames sampled at 3.75 fps from its
start timestamp; schedule instants resolve to the nearest stored frame within
half a frame period, and a pair holds the resolved frames as rows into the
video's feature array. A frame is its feature vector alone.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .binio import bytes_left, read_exact, read_utf8, replacing, unpack
from .corpus import UtteranceRecord, Vocabulary, encode
from .errors import DataError

FRAME_RATE = 3.75
FRAME_PERIOD = 1.0 / FRAME_RATE
FRAMES_PER_UTTERANCE = 16
RESOLVE_TOLERANCE = 0.5 * FRAME_PERIOD

GLFX_MAGIC = b"GLFX"
GLFX_VERSION = 1

_BLOCK_BYTES = 1 << 19  # the most a block that the load reads or `save` writes holds, or one frame
# The largest |feature| a store or a trial takes. F features within ±L and weights within
# ±w give |h| <= F·w·L; the vision layer norm's variance sums D squares <= (2·F·w·L)², so
# 4·D·(F·w·L)² = 2**126 < 2**128 for F, D <= 2**16 and w <= 2**8: no overflow in float32.
# The bench's features, N(0, 1) prototypes plus N(0, 1) noise, lie far inside.
FEATURE_LIMIT = 2 ** 30


@dataclass(frozen=True)
class FrameFeature:
    features: np.ndarray  # (F,), float32, read-only; a loaded store's is a fresh read


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


class _File:
    """A read-only descriptor of the file at `path`, closed when the object goes."""

    def __init__(self, fd: int, path):
        self.fd, self.path = fd, path
        weakref.finalize(self, os.close, fd)


class _FileRows:
    """The (n, F) features of one loaded video: row i is the 8·F `<f8` bytes
    at byte `offsets[i]` of `file`, read with one `os.pread` and cast to a new
    read-only float32 array, so no read maps the file and no read moves the file's
    position: threads may read rows at once. A file cut short since the load
    raises DataError naming the byte offset."""

    def __init__(self, file: _File, offsets: np.ndarray, dim: int):
        self._file, self._offsets = file, offsets
        self.shape = (len(offsets), dim)

    def __getitem__(self, row) -> np.ndarray:
        at, n = int(self._offsets[row]), 8 * self.shape[1]
        buf = os.pread(self._file.fd, n, at)
        if len(buf) != n:
            raise DataError(f"{self._file.path}: file truncated at byte {at + len(buf)} "
                            f"(needed {n} bytes from byte {at})")
        row = np.frombuffer(buf, "<f8").astype(np.float32)
        row.setflags(write=False)
        return row


class FeatureStore:
    """Read-only collection of frame features.

    Per-video timestamps are kept sorted for nearest-neighbour resolution;
    frames of one video may share or nearly share a timestamp. Feature rows are
    float32 within ±`FEATURE_LIMIT`, read-only and contiguous: training cannot change them.
    GLFX (`save`, `load_feature_store`) is the one file format. A store that
    `load_feature_store` returns reads each row from the file when asked
    (`_FileRows`), so the file must not be rewritten in place while the store
    or its pairs live; `save` replaces a file.
    """

    def __init__(self, feature_dim: int):
        self.feature_dim = int(feature_dim)
        self._timestamps: dict[str, np.ndarray] = {}
        self._features: dict[str, np.ndarray | _FileRows] = {}

    def __len__(self) -> int:
        return sum(len(t) for t in self._timestamps.values())

    def add_video(self, video_id: str, timestamps: np.ndarray,
                  features: np.ndarray) -> None:
        """Add a video's frames in time order (a stable sort) as read-only copies,
        features as float32, or raise DataError naming a bad frame (`_check_finite`)."""
        timestamps = np.array(timestamps, dtype=np.float64)
        features = np.asarray(features, dtype=np.float64)
        if timestamps.ndim != 1:
            raise DataError(f"timestamps for {video_id!r} have shape "
                            f"{timestamps.shape}, expected one dimension")
        if len(timestamps) == 0:
            raise DataError(f"video {video_id!r} has no frames")
        if features.shape != (len(timestamps), self.feature_dim):
            raise DataError(f"feature block for {video_id!r} has shape "
                            f"{features.shape}, expected "
                            f"({len(timestamps)}, {self.feature_dim})")
        _check_finite(video_id, timestamps, features)
        if video_id in self._timestamps:
            raise DataError(f"duplicate video {video_id!r} in feature store")
        features = np.array(features, dtype=np.float32, order="C")
        timestamps, features = _in_time_order(timestamps, features)
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
        F x f64 (float32 widened)}. Videos go in sorted id order, each in time order,
        in runs of packed frames through one buffer per video of at most the load's
        block: the writer holds about one block, however long a video.

        ``replacing`` writes it, so a store loaded from `path` keeps reading the
        old file's bytes and a failed write leaves `path` as it was."""
        with replacing(path) as fh:
            fh.write(GLFX_MAGIC)
            fh.write(struct.pack("<IIQ", GLFX_VERSION, self.feature_dim, len(self)))
            for vid in sorted(self._timestamps):
                vid_bytes, ts, f = vid.encode("utf-8"), self._timestamps[vid], self._features[vid]
                frame = _glfx_frame(len(vid_bytes), self.feature_dim)
                frames = np.empty(min(len(ts), max(1, _BLOCK_BYTES // frame.itemsize)), frame)
                frames["vid_len"], frames["vid"] = len(vid_bytes), np.frombuffer(vid_bytes, "u1")
                for i in range(0, len(ts), len(frames)):
                    run = frames[:len(ts) - i]
                    run["t"] = ts[i:i + len(run)]
                    run["f"] = (f[i:i + len(run)] if isinstance(f, np.ndarray)
                                else [f[j] for j in range(i, i + len(run))])  # read row by row
                    fh.write(run)


def _in_time_order(ts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n,) `ts`, made read-only, and the n `rows` in time order (a stable
    sort); each array itself when `ts` is already sorted."""
    if not (ts[1:] >= ts[:-1]).all():
        order = np.argsort(ts, kind="stable")
        ts, rows = ts[order], rows[order]
    ts.setflags(write=False)
    return ts, rows


def _within_limit(rows: np.ndarray) -> np.ndarray:
    """Whether each row lies within ±`FEATURE_LIMIT` (NaN does not): two reductions, no cast."""
    return (rows.max(-1, initial=0) <= FEATURE_LIMIT) & (rows.min(-1, initial=0) >= -FEATURE_LIMIT)


def _check_finite(video_id: str, timestamps: np.ndarray, features: np.ndarray,
                  first: int = 0) -> None:
    """Raise DataError naming the first frame, counted from `first`, whose
    timestamp is not finite or whose feature row is not `_within_limit`."""
    bad = ~(np.isfinite(timestamps) & _within_limit(features))
    if bad.any():
        raise DataError(f"non-finite timestamp or feature not within ±{FEATURE_LIMIT} in "
                        f"video {video_id!r} at frame {first + int(np.argmax(bad))}")


def load_feature_store(path: str | Path) -> FeatureStore:
    """Check a GLFX file in blocks read into one reused buffer, and return a
    store that reads each video's feature rows from the file (`_FileRows`).

    Each step reads the header of the frame at the current position through
    the file, then reads up to `_BLOCK_BYTES` of whole frames of that size
    (one frame, when a frame is larger) as a record array, cut at its first
    frame of another video. The block's timestamps are copied out and its
    values checked (`_check_finite`), so the load holds about one block,
    however long a video. The store keeps each frame's timestamp and the byte
    offset of its features, in time order, and no feature; its one descriptor
    of the file closes when the last of its rows goes, and the file must not
    be rewritten in place before (`save` replaces it). No read asks for more
    than the file holds, whatever its header declares. A short file raises
    DataError naming the byte offset, as do bytes after the last frame; a bad value
    (`_check_finite`) names its video and frame before any fault in a later block.
    """
    times: dict[str, list[np.ndarray]] = {}
    offsets: dict[str, list[np.ndarray]] = {}  # of each frame's features
    seen: dict[str, int] = {}  # frames of each video in the blocks before
    buf = np.empty(0, np.uint8)
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
            head = fh.tell() - start
            if bytes_left(fh) < 8 + 8 * dim:
                # The frame is cut short: read its fields for the offset.
                unpack(fh, "<d", path)
                read_exact(fh, 8 * dim, path)
            frame = _glfx_frame(vid_len, dim)
            fh.seek(start)
            n = max(1, min(left, _BLOCK_BYTES // frame.itemsize, bytes_left(fh) // frame.itemsize))
            nbytes = n * frame.itemsize
            if len(buf) < nbytes:
                buf = None  # the old buffer goes before the new one comes
                buf = np.empty(max(_BLOCK_BYTES, nbytes), np.uint8)
            if fh.readinto(buf[:nbytes]) != nbytes:
                raise DataError(f"{path}: file truncated at byte {fh.tell()}")
            block = buf[:nbytes].reshape(n, -1)
            same = (block[:, :head] == block[0, :head]).all(axis=1)
            run = n if same.all() else int(np.argmin(same))
            records = block[:run].reshape(-1).view(frame)
            ts = records["t"].copy()
            _check_finite(vid, ts, records["f"], seen.get(vid, 0))
            seen[vid] = seen.get(vid, 0) + run
            times.setdefault(vid, []).append(ts)
            offsets.setdefault(vid, []).append(
                start + frame.fields["f"][1] + frame.itemsize * np.arange(run, dtype=np.int64))
            fh.seek(start + run * frame.itemsize)
            left -= run
        end = fh.tell()
        if fh.read(1):
            raise DataError(f"{path}: unexpected bytes after the last of {count} "
                            f"frames, from byte {end}")
        file = _File(os.dup(fh.fileno()), path)
    store = FeatureStore(dim)
    for vid, parts in times.items():
        ts, at = _in_time_order(np.concatenate(parts), np.concatenate(offsets[vid]))
        store._timestamps[vid], store._features[vid] = ts, _FileRows(file, at, dim)
    return store


_OFFSETS = np.arange(FRAMES_PER_UTTERANCE) * FRAME_PERIOD


def _schedule(starts: np.ndarray, durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Instants starts + k/3.75 for k = 0..15, (n, 16), and a mask of those
    inside the video (not past its duration; k = 0 is always kept)."""
    instants = starts[:, None] + _OFFSETS
    inside = instants <= durations[:, None]
    inside[:, 0] = True
    return instants, inside


@dataclass(slots=True)
class EpisodePair:
    """One tokenized utterance joined to its scheduled frames.

    `frame_rows` are rows into the video's features, in strictly increasing
    time (from `build_pairs`, a view into one array for all pairs); the pair
    refers to the store's features of the video, not a copy.
    """

    token_ids: list[int]
    frame_rows: np.ndarray
    video_features: np.ndarray | _FileRows
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
    flat = rows[keep]
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
    one `rng.integers` draw picks one of `frame_rows`, a row of the features."""
    row = pair.frame_rows[int(rng.integers(len(pair.frame_rows)))]
    return FrameFeature(pair.video_features[row])
