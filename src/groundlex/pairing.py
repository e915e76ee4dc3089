"""Frame-feature stores and utterance/frame pairing.

Frames are precomputed feature vectors in a GLFX file. A store keeps each
video's frames sorted by time: timestamps as an array, and features as an
(n, F) array or, for a loaded video, as the byte offset of each row in the
file, which a reader reads through the page cache (`_FileRows`). So a loaded
store maps none of the file, which must not be rewritten in place while the
store or a pair lives: `FeatureStore.save` replaces a file, never rewrites
it. A video has at least one frame, since GLFX writes a video only through
its frames. A frame is found by its video and an instant through
`FeatureStore.resolve`.
Each utterance is paired with up to 16 frames sampled at 3.75 fps from its
start timestamp; schedule instants resolve to the nearest stored frame within
half a frame period, and a pair holds the resolved frames as rows into the
video's feature array. A frame is its feature vector alone.
"""

from __future__ import annotations

import mmap
import os
import struct
import weakref
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
    features: np.ndarray  # (F,), float64, read-only; a loaded store's is a fresh read


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
    """The (n, F) float64 features of one loaded video: row i is the 8·F
    bytes at byte `offsets[i]` of `file`, read with one `os.lseek` and one
    `os.read` (not thread-safe: the rows of one file share its position) into
    a new read-only array, so no read maps the file. A file cut short since
    the load raises DataError naming the byte offset."""

    def __init__(self, file: _File, offsets: np.ndarray, dim: int):
        self._file, self._offsets = file, offsets
        self.shape = (len(offsets), dim)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, row) -> np.ndarray:
        at, n = int(self._offsets[row]), 8 * self.shape[1]
        os.lseek(self._file.fd, at, os.SEEK_SET)
        buf = os.read(self._file.fd, n)
        if len(buf) != n:
            raise DataError(f"{self._file.path}: file truncated at byte {at + len(buf)} "
                            f"(needed {n} bytes from byte {at})")
        return np.frombuffer(buf, "<f8")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self[i] for i in range(len(self))], dtype)


class FeatureStore:
    """Read-only collection of frame features.

    Per-video timestamps are kept sorted for nearest-neighbour resolution;
    frames of one video may share or nearly share a timestamp. Feature rows
    are float64, read-only and contiguous; training can never mutate them.
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
        """Add a video's frames in time order (a stable sort) as read-only
        copies: the caller's arrays stay its own, unshared and writeable."""
        timestamps = np.array(timestamps, dtype=np.float64)
        features = np.array(features, dtype=np.float64, order="C")
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
        F x f64}. Videos go in sorted id order; the rows of a video's arrays
        are written as one packed structured array, in time order.

        The bytes go to a new file beside `path`, which then replaces it, so
        a store loaded from `path` keeps reading the old file's bytes; a
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


def _in_time_order(ts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n,) `ts`, made read-only, and the n `rows` in time order (a stable
    sort); each array itself when `ts` is already sorted."""
    if not (ts[1:] >= ts[:-1]).all():
        order = np.argsort(ts, kind="stable")
        ts, rows = ts[order], rows[order]
    ts.setflags(write=False)
    return ts, rows


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
    """Check a GLFX file through a read-only map of it, and return a store
    that reads each video's feature rows from the file (`_FileRows`).

    The header is read and checked through the file before the file is
    mapped. Each run of same-id frames, sized by `_run_guess`, is a record
    array viewing the map, whose every header is checked: the run ends at the
    first foreign frame. The run's timestamps are copied out and its values
    checked finite, then its pages are dropped from memory (`madvise`
    MADV_DONTNEED, where the OS has it), so the load holds about one run
    resident. The store keeps each frame's timestamp and the byte offset of
    its features, in time order, and no feature. The map is unmapped when the
    load returns; the store's one descriptor of the file closes when the last
    of its rows goes, and the file must not be rewritten in place before
    (`save` replaces it). No read asks for more than the file holds, whatever
    its header declares. A short file raises DataError naming the byte
    offset, as do bytes after the last frame; a non-finite value names its
    video and frame, and is found before any fault in a later run.
    """
    times: dict[str, list[np.ndarray]] = {}
    offsets: dict[str, list[np.ndarray]] = {}  # of each frame's features
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
            ts = records["t"].copy()
            _check_finite(vid, ts, records["f"], seen.get(vid, 0))
            seen[vid] = seen.get(vid, 0) + run
            times.setdefault(vid, []).append(ts)
            offsets.setdefault(vid, []).append(
                start + frame.fields["f"][1] + frame.itemsize * np.arange(run, dtype=np.int64))
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


@dataclass
class EpisodePair:
    """One tokenized utterance joined to its scheduled frames.

    `frame_rows` are rows into the video's features, in strictly increasing
    time; the pair refers to the store's features of the video (an array, or
    a loaded store's `_FileRows`), not a copy.
    """

    token_ids: list[int]
    frame_rows: list[int]
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
