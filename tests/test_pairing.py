"""Frame schedules, feature stores, and episode pairing."""

import dataclasses
import mmap
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import groundlex.pairing as pairing
from groundlex.corpus import UtteranceRecord, build_vocabulary, encode
from groundlex.errors import DataError
from groundlex.pairing import (
    FRAME_PERIOD, FRAMES_PER_UTTERANCE, RESOLVE_TOLERANCE, EpisodePair, FeatureStore,
    FrameFeature, build_pairs, load_feature_store, sample_frame,
)


def bruteforce_schedule(start, duration):
    """Instants start + k/3.75 for k = 0..15 while inside the video, the
    k = 0 instant always; a start past the end clamps to the end, as
    `build_pairs` clamps it."""
    start = min(start, duration)
    instants = [start]
    for k in range(1, FRAMES_PER_UTTERANCE):
        t = start + k * FRAME_PERIOD
        if t > duration:
            break
        instants.append(t)
    return instants


def schedule(start, duration):
    """The instants `pairing._schedule` keeps for one utterance."""
    instants, inside = pairing._schedule(np.array([start]), np.array([duration]))
    return instants[inside].tolist()


def test_schedule_full_window():
    stamps = schedule(10.0, 100.0)
    assert stamps == bruteforce_schedule(10.0, 100.0)
    assert len(stamps) == 16
    assert stamps[0] == 10.0
    assert stamps[-1] == pytest.approx(10.0 + 15 / 3.75)  # 14.0


def test_schedule_truncates_at_video_end():
    stamps = schedule(99.5, 100.0)
    assert stamps == bruteforce_schedule(99.5, 100.0)
    assert stamps == pytest.approx([99.5, 99.5 + FRAME_PERIOD])


def test_schedule_spacing_exact():
    stamps = schedule(3.3, 1000.0)
    assert stamps == bruteforce_schedule(3.3, 1000.0)
    diffs = np.diff(stamps)
    np.testing.assert_allclose(diffs, FRAME_PERIOD, atol=1e-9)


def test_schedule_window_is_16_instants_not_17():
    # 16/3.75 s window means offsets k = 0..15 only.
    stamps = schedule(0.0, 16 / 3.75)
    assert stamps == bruteforce_schedule(0.0, 16 / 3.75)
    assert len(stamps) == 16


def test_schedule_length_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(300):
        duration = float(rng.uniform(1, 60))
        start = float(rng.uniform(0, duration))
        assert schedule(start, duration) == bruteforce_schedule(start, duration)


# --- feature store -----------------------------------------------------------


def stored_times(frames_per_video=8):
    """The timestamps `make_store` gives every video."""
    return np.arange(frames_per_video) * FRAME_PERIOD


def make_store(n_videos=2, frames_per_video=8, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for v in range(n_videos):
        ts = stored_times(frames_per_video)
        store.add_video(f"v{v}", ts, rng.normal(size=(frames_per_video, dim)))
    return store


def test_store_roundtrip_binary(tmp_path):
    store = make_store()
    path = tmp_path / "feat.glfx"
    store.save(path)
    loaded = load_feature_store(path)
    assert len(loaded) == len(store)
    for vid in ("v0", "v1"):
        np.testing.assert_array_equal(loaded._timestamps[vid], store._timestamps[vid])
        for t in stored_times():
            a, b = store.resolve(vid, t), loaded.resolve(vid, t)
            assert b is not None
            np.testing.assert_array_equal(a.features, b.features)


def test_store_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.glfx"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_feature_store(path)


def test_truncated_feature_store_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=1, frames_per_video=2).save(path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.glfx"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataError) as e:
            load_feature_store(cut)
        msg = str(e.value)
        assert str(cut) in msg
        assert f"truncated at byte {n}" in msg


@pytest.mark.parametrize("timestamp,message", [
    (b"", "truncated at byte 25 (needed 8 bytes from byte 25)"),
    (struct.pack("<d", 0.0), "truncated at byte 33 (needed 100000000 bytes from byte 33)"),
])
def test_huge_declared_dim_fails_without_allocating_it(tmp_path, timestamp, message):
    # A header declaring dim = 12.5 M (100 MB a frame), then one frame's id
    # "v", with or without its timestamp.
    path = tmp_path / "feat.glfx"
    path.write_bytes(b"GLFX" + struct.pack("<IIQ", 1, 12_500_000, 1)
                     + struct.pack("<I", 1) + b"v" + timestamp)
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as e:
            load_feature_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == f"{path}: file {message}"
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("field", ["timestamp", "feature"])
def test_add_video_rejects_non_finite_values(field):
    ts = np.arange(5) * FRAME_PERIOD
    feats = np.zeros((5, 3))
    if field == "timestamp":
        ts[[2, 4]] = [np.nan, np.inf]
    else:
        feats[2, 1], feats[3, 0] = -np.inf, np.nan
    store = FeatureStore(3)
    with pytest.raises(DataError, match="'v7' at frame 2$"):
        store.add_video("v7", ts, feats)
    assert len(store) == 0 and store.resolve("v7", 0.0) is None


@pytest.mark.parametrize("timestamps,features,message", [
    (np.zeros(0), np.zeros((0, 3)), "video 'v7' has no frames$"),
    (np.zeros((2, 1)), np.zeros((2, 3)),
     r"timestamps for 'v7' have shape \(2, 1\), expected one dimension$"),
    (np.zeros(2), np.zeros((2, 4)),
     r"feature block for 'v7' has shape \(2, 4\), expected \(2, 3\)$"),
    (np.zeros(3), np.zeros((2, 3)),
     r"feature block for 'v7' has shape \(2, 3\), expected \(3, 3\)$"),
    (np.zeros(()), np.zeros(3),
     r"timestamps for 'v7' have shape \(\), expected one dimension$"),
], ids=["no-frames", "2-d-timestamps", "feature-shape", "feature-rows", "0-d-timestamps"])
def test_add_video_rejects_a_malformed_video(timestamps, features, message):
    # An empty video would vanish on a GLFX round trip, which writes a video
    # only through its frames; (2, 1) timestamps used to count as 2 frames.
    store = FeatureStore(3)
    with pytest.raises(DataError, match=message):
        store.add_video("v7", timestamps, features)
    assert len(store) == 0 and store.resolve("v7", 0.0) is None



def test_corrupt_video_id_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=1, frames_per_video=2).save(path)
    blob = bytearray(path.read_bytes())
    blob[24] = 0xFF  # first byte of the first frame's video id
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="invalid UTF-8 at byte 24$") as e:
        load_feature_store(path)
    assert str(path) in str(e.value)


def test_corrupt_id_of_a_later_frame_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=1, frames_per_video=3).save(path)
    blob = bytearray(path.read_bytes())
    second = 24 + (4 + 2 + 8 + 8 * 4)  # first id byte of the second frame
    blob[second] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"invalid UTF-8 at byte {second}$"):
        load_feature_store(path)


def write_glfx_frames(path, dim, frames):
    """The per-frame GLFX v1 writer `FeatureStore.save` replaced, for frames
    (video_id, timestamp, features) in any order."""
    with open(path, "wb") as fh:
        fh.write(b"GLFX")
        fh.write(struct.pack("<IIQ", 1, dim, len(frames)))
        for vid, t, vec in frames:
            vid_bytes = vid.encode("utf-8")
            fh.write(struct.pack("<I", len(vid_bytes)))
            fh.write(vid_bytes)
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.asarray(vec, dtype="<f8").tobytes())


def mixed_videos(dim, seed=0):
    """Videos whose ids differ in byte length (empty and non-ASCII included),
    each with its frames in shuffled time order."""
    rng = np.random.default_rng(seed)
    videos = {}
    for vid in ["v", "", "a-much-longer-video-id", "küche-日本", "v10", "v11"]:
        n = int(rng.integers(1, 9))
        videos[vid] = (rng.permutation(n) * FRAME_PERIOD, rng.normal(size=(n, dim)))
    return videos


@pytest.mark.parametrize("dim", [3, 0])
def test_glfx_writer_bytes_equal_the_per_frame_writer(tmp_path, dim):
    videos = mixed_videos(dim)
    store = FeatureStore(dim)
    frames = []
    for vid in sorted(videos):
        ts, feats = videos[vid]
        store.add_video(vid, ts, feats)
        frames += [(vid, ts[i], feats[i]) for i in np.argsort(ts, kind="stable")]
    write_glfx_frames(tmp_path / "old.glfx", dim, frames)
    store.save(tmp_path / "new.glfx")
    assert (tmp_path / "new.glfx").read_bytes() == (tmp_path / "old.glfx").read_bytes()
    loaded = load_feature_store(tmp_path / "new.glfx")
    loaded.save(tmp_path / "again.glfx")
    assert (tmp_path / "again.glfx").read_bytes() == (tmp_path / "old.glfx").read_bytes()


def assert_loads_like_add_video(path, dim, frames):
    """`load_feature_store(path)` saves the bytes of a store built by
    `add_video` from each video's frames, in file order."""
    loaded = load_feature_store(path)
    expected = FeatureStore(dim)
    for vid in dict.fromkeys(f[0] for f in frames):
        mine = [f for f in frames if f[0] == vid]
        expected.add_video(vid, np.array([f[1] for f in mine]), np.array([f[2] for f in mine]))
    assert len(loaded) == len(expected)
    loaded.save(path.with_suffix(".a"))
    expected.save(path.with_suffix(".b"))
    assert path.with_suffix(".a").read_bytes() == path.with_suffix(".b").read_bytes()


@pytest.mark.parametrize("block_frames", [None, 1, 2.5])
def test_load_merges_interleaved_runs_across_read_blocks(tmp_path, monkeypatch, block_frames):
    # The first half of every video's frames, then the second halves: runs of
    # up to four frames, and each video in two runs.
    dim = 4
    frames = []
    for half in (0, 1):
        for vid, (ts, feats) in mixed_videos(dim, seed=1).items():
            part = slice(None, len(ts) // 2) if half == 0 else slice(len(ts) // 2, None)
            frames += [(vid, t, vec) for t, vec in zip(ts[part], feats[part])]
    path = tmp_path / "mixed.glfx"
    write_glfx_frames(path, dim, frames)
    if block_frames is not None:
        # Reads of at most `block_frames` whole frames: every run longer than
        # that is read in several blocks and must still come back whole.
        guess = pairing._run_guess
        monkeypatch.setattr(pairing, "_run_guess", lambda *a: min(guess(*a), int(block_frames)))
    assert_loads_like_add_video(path, dim, frames)


def runs_of(layout, dim=3, seed=0):
    """Frames (video_id, timestamp, features) of runs (video_id, length), each
    video's timestamps rising across its runs."""
    rng = np.random.default_rng(seed)
    frames, seen = [], {}
    for vid, n in layout:
        for _ in range(n):
            seen[vid] = seen.get(vid, -1) + 1
            frames.append((vid, seen[vid] * FRAME_PERIOD, rng.normal(size=dim)))
    return frames


@pytest.mark.parametrize("layout", [
    [("a", 2), ("b", 1), ("a", 5)],
    [("a", 3), ("bbbb", 2), ("", 4), ("a", 1), ("küche", 6)],
    [("a", 4), ("b", 1), ("c", 3)],
    [("a", 5), ("b", 7)],
    [("a", 6), ("b", 1)],
    [("a", 1)],
], ids=["probe-past-a-foreign-frame", "id-lengths-differ", "one-frame-video",
        "run-ends-at-the-last-frame", "one-frame-run-at-the-end", "one-frame-file"])
def test_load_finds_every_run(tmp_path, layout):
    frames = runs_of(layout)
    path = tmp_path / "runs.glfx"
    write_glfx_frames(path, 3, frames)
    assert_loads_like_add_video(path, 3, frames)


@pytest.mark.parametrize("layout,bad,field,frame", [
    ([("v", 5)], 2, "feature", 2),
    ([("v", 5)], 3, "timestamp", 3),
    ([("v", 3), ("w", 2), ("v", 4)], 6, "feature", 4),
    ([("v", 3), ("w", 2), ("v", 4)], 7, "timestamp", 5),
], ids=["nan-feature", "inf-timestamp", "nan-feature-in-a-second-run",
        "inf-timestamp-in-a-second-run"])
def test_load_rejects_non_finite_values(tmp_path, layout, bad, field, frame):
    # `bad` indexes the file's frames; `frame` counts the frames of video v
    # in every run before the bad one.
    frames = runs_of(layout)
    vid, t, vec = frames[bad]
    if field == "timestamp":
        t = np.inf
    else:
        vec = vec.copy()
        vec[1] = np.nan
    frames[bad] = (vid, t, vec)
    path = tmp_path / "bad.glfx"
    write_glfx_frames(path, 3, frames)
    with pytest.raises(DataError, match=f"^non-finite timestamp or feature in video 'v' "
                                        f"at frame {frame}$"):
        load_feature_store(path)


def test_a_non_finite_value_is_reported_before_a_later_fault(tmp_path):
    # Each run is checked when the scan reaches it, so a NaN in the first
    # run comes before the bytes after the last frame.
    frames = runs_of([("v", 2), ("w", 3)])
    frames[1] = ("v", frames[1][1], np.full(3, np.nan))
    path = tmp_path / "bad.glfx"
    write_glfx_frames(path, 3, frames)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataError, match="in video 'v' at frame 1$"):
        load_feature_store(path)


def test_run_guess_can_reach_past_a_foreign_frame(tmp_path):
    # Probes read frames 1, 3 and 7 of a, a, b, a, a, a, a, a: all are a's,
    # so the guess spans the b; the loader's header check must cut it.
    path = tmp_path / "runs.glfx"
    write_glfx_frames(path, 3, runs_of([("a", 2), ("b", 1), ("a", 5)]))
    itemsize = 4 + 1 + 8 + 8 * 3
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        assert pairing._run_guess(mapped, 20, itemsize, struct.pack("<I", 1) + b"a", 8) == 8
    assert len(load_feature_store(path)._timestamps["a"]) == 7


def test_loaded_rows_are_read_only_arrays_read_from_the_file(tmp_path):
    path = tmp_path / "feat.glfx"
    store = make_store(n_videos=2, frames_per_video=5, dim=4)
    store.save(path)
    loaded = load_feature_store(path)
    for vid, feats in store._features.items():
        rows = loaded._features[vid]
        assert rows.shape == feats.shape and len(rows) == len(feats)
        for i, want in enumerate(feats):
            row = rows[i]
            assert row.dtype == np.float64 and row.shape == (4,)
            assert not row.flags.writeable and row.flags.c_contiguous
            np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(np.asarray(rows), feats)
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    with open("/proc/self/maps") as fh:
        assert os.path.realpath(path) not in fh.read()  # the load's map is gone


def test_a_row_cut_off_after_the_load_raises_data_error(tmp_path):
    path = tmp_path / "feat.glfx"
    store = make_store(n_videos=1, frames_per_video=8, dim=4)
    store.save(path)
    loaded = load_feature_store(path)
    frame = 4 + 2 + 8 + 8 * 4
    os.truncate(path, 20 + 8 * frame - 10)
    last = 20 + 7 * frame + 4 + 2 + 8  # the last frame's features
    with pytest.raises(DataError, match=f"file truncated at byte {last + 22} "
                                        rf"\(needed 32 bytes from byte {last}\)$") as e:
        loaded.resolve("v0", stored_times()[-1])
    assert str(e.value).startswith(f"{path}: ")
    np.testing.assert_array_equal(loaded.resolve("v0", 0.0).features, store._features["v0"][0])


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_add_video_keeps_the_callers_arrays_writeable_and_unshared(order):
    ts = np.arange(6) * FRAME_PERIOD
    if order == "shuffled":
        ts = ts[[3, 0, 5, 1, 4, 2]]
    feats = np.arange(18.0).reshape(6, 3)
    before = feats[np.argsort(ts, kind="stable")].copy()
    store = FeatureStore(3)
    store.add_video("v", ts, feats)
    assert ts.flags.writeable and feats.flags.writeable
    assert not np.shares_memory(store._timestamps["v"], ts)
    assert not np.shares_memory(store._features["v"], feats)
    feats[:] = -1.0
    np.testing.assert_array_equal(store._features["v"], before)


@pytest.mark.parametrize("extra", ["one byte", "one frame"])
def test_bytes_after_the_last_frame_raise_data_error_with_offset(tmp_path, extra):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=1, frames_per_video=3).save(path)
    blob = path.read_bytes()
    frame = blob[-(4 + 2 + 8 + 8 * 4):]
    path.write_bytes(blob + (b"\x00" if extra == "one byte" else frame + b"junk"))
    with pytest.raises(DataError, match=f"from byte {len(blob)}$") as e:
        load_feature_store(path)
    assert str(path) in str(e.value)


def test_load_does_not_hold_every_frame_twice(tmp_path):
    store = make_store(n_videos=16, frames_per_video=500, dim=128)
    path = tmp_path / "feat.glfx"
    store.save(path)
    frame_bytes = len(store) * 128 * 8
    tracemalloc.start()
    try:
        loaded = load_feature_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(store)
    assert peak < 0.1 * frame_bytes, (peak, frame_bytes)  # no frame is copied


HWM_GROWTH = """
import sys
from groundlex.pairing import load_feature_store

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

before = vm_hwm()
store = load_feature_store(sys.argv[1])
print(vm_hwm() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_load_leaves_the_store_out_of_resident_memory(tmp_path):
    # A fresh process, so that the high-water mark is the load's own; VmHWM,
    # not ru_maxrss, which Linux carries over from the parent across exec.
    store = make_store(n_videos=16, frames_per_video=500, dim=768)
    path = tmp_path / "feat.glfx"
    store.save(path)
    src = Path(pairing.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", HWM_GROWTH, str(path)], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    growth, size = int(out.stdout), path.stat().st_size
    assert growth < 0.25 * size, (growth, size)
    # The rows read back as the frames that were saved.
    loaded = load_feature_store(path)
    for vid in store._timestamps:
        np.testing.assert_array_equal(loaded._timestamps[vid], store._timestamps[vid])
        np.testing.assert_array_equal(loaded._features[vid], store._features[vid])


READ_HWM_GROWTH = """
import sys
import numpy as np
from groundlex.pairing import EpisodePair, load_feature_store, sample_frame

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

def read_every(path, step):
    store = load_feature_store(path)
    rng = np.random.default_rng(0)
    for vid, ts in store._timestamps.items():
        for row in range(0, len(ts), step):
            pair = EpisodePair([2], [row], store._features[vid], vid)
            frames = store.resolve(vid, ts[row]), sample_frame(pair, rng)
            assert (frames[0].features == frames[1].features).all()

read_every(sys.argv[1], 1)  # a small store first, so that the code's own pages are in
before = vm_hwm()
read_every(sys.argv[2], 8)
print(vm_hwm() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_reading_frames_leaves_the_store_out_of_resident_memory(tmp_path):
    # Every 8th frame is 49 KB apart, closer than the 64 KB a mapped read
    # faults in around it, so a store read through a map would come back
    # whole. Runs of 250 frames: at its peak the load holds about two runs
    # of the file (6%), the rest of the bound is left to the reads.
    make_store(n_videos=2, frames_per_video=8, dim=768).save(tmp_path / "small.glfx")
    path = tmp_path / "feat.glfx"
    make_store(n_videos=32, frames_per_video=250, dim=768).save(path)
    src = Path(pairing.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", READ_HWM_GROWTH, str(tmp_path / "small.glfx"),
                          str(path)], check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    growth, size = int(out.stdout), path.stat().st_size
    assert growth < 0.1 * size, (growth, size)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_pairs_that_outlive_their_store_read_frames_until_dropped(tmp_path, vocab):
    path = tmp_path / "feat.glfx"
    store = make_store(n_videos=2, frames_per_video=30)
    store.save(path)
    before = len(os.listdir("/proc/self/fd"))
    loaded = load_feature_store(path)
    records = [UtteranceRecord("v0", 1.0, 2.0, "s", "ball"),
               UtteranceRecord("v1", 2.0, 3.0, "s", "ball")]
    pairs, _ = build_pairs(records, loaded, vocab)
    del loaded
    assert len(os.listdir("/proc/self/fd")) == before + 1  # one descriptor for the file
    rng = np.random.default_rng(0)
    for p in pairs:
        want = store._features[p.video_id][p.frame_rows]
        np.testing.assert_array_equal([p.video_features[row] for row in p.frame_rows], want)
        assert (sample_frame(p, rng).features == want).all(axis=1).any()
    del pairs, p
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_dropped_store_closes_its_map(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=3, frames_per_video=4).save(path)
    load_feature_store(path)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(200):
        store = load_feature_store(path)
        assert len(store) == 12
        del store
    assert len(os.listdir("/proc/self/fd")) <= before


def test_save_replaces_the_file_a_loaded_store_views(tmp_path):
    path = tmp_path / "feat.glfx"
    a, b = make_store(seed=0), make_store(seed=1, frames_per_video=7)
    b.save(tmp_path / "b.glfx")
    a.save(path)
    loaded = load_feature_store(path)
    b.save(path)
    for vid in a._timestamps:
        np.testing.assert_array_equal(loaded._timestamps[vid], a._timestamps[vid])
        np.testing.assert_array_equal(loaded._features[vid], a._features[vid])
    assert path.read_bytes() == (tmp_path / "b.glfx").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.glfx", "feat.glfx"]


def test_a_failed_save_leaves_the_file_and_no_other(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store().save(path)
    before = path.read_bytes()
    broken = make_store(seed=1)
    broken._features["v1"] = np.zeros((3, 5))  # too few rows for its timestamps
    with pytest.raises(ValueError):
        broken.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["feat.glfx"]


def test_resolve_returns_the_first_of_float_rounding_twins():
    # 2.4 and 2.4000000000000004 (from summed frame periods) are two frames.
    store = FeatureStore(1)
    store.add_video("v", np.array([2.4, 2.4000000000000004]), np.array([[1.0], [2.0]]))
    assert len(store) == 2
    np.testing.assert_array_equal(store.resolve("v", 2.4).features, [1.0])


def test_store_features_are_read_only():
    store = make_store()
    frame = store.resolve("v0", 0.0)
    with pytest.raises(ValueError):
        frame.features[0] = 99.0


def test_resolve_takes_the_later_frame_on_a_tie():
    store = FeatureStore(1)
    store.add_video("v", np.array([0.0, 0.25]), np.array([[1.0], [2.0]]))
    np.testing.assert_array_equal(store.resolve("v", 0.125).features, [2.0])


def test_resolve_within_half_period():
    store = make_store(frames_per_video=4)
    hit = store.resolve("v0", FRAME_PERIOD * 1.1)
    assert hit is not None and store._timestamps["v0"][1] == pytest.approx(FRAME_PERIOD)
    np.testing.assert_array_equal(hit.features, store._features["v0"][1])
    # outside tolerance: nearest stored frame is > period/2 away
    assert store.resolve("v0", 4 * FRAME_PERIOD + 0.14) is None
    assert store.resolve("missing", 0.0) is None


# --- pairing -------------------------------------------------------------------


@pytest.fixture
def vocab():
    return build_vocabulary(["look a ball"] * 5)


def test_build_pairs_full_coverage(vocab):
    rng = np.random.default_rng(1)
    store = FeatureStore(4)
    records = []
    for v in range(5):
        vid = f"v{v}"
        ts = np.arange(120) * FRAME_PERIOD  # ~32s of frames
        store.add_video(vid, ts, rng.normal(size=(120, 4)))
        for u in range(20):
            records.append(UtteranceRecord(vid, u * 1.5, u * 1.5 + 1.0, "s", "look a ball"))
    pairs, report = build_pairs(records, store, vocab)
    assert report.paired == 100 and len(pairs) == 100
    assert report.dropped_unknown_video == 0 and report.dropped_no_frames == 0


def test_build_pairs_truncated_at_video_end(vocab):
    store = make_store(n_videos=1, frames_per_video=10)
    end = 9 * FRAME_PERIOD
    records = [UtteranceRecord("v0", end - 2 * FRAME_PERIOD, end, "s", "ball")]
    pairs, _ = build_pairs(records, store, vocab)
    assert len(pairs[0].frame_rows) == 3  # start, +1, +2 periods then video ends


def test_build_pairs_unknown_video_dropped_with_reason(vocab):
    store = make_store(n_videos=1)
    records = [UtteranceRecord("ghost", 0.0, 1.0, "s", "ball")]
    pairs, report = build_pairs(records, store, vocab)
    assert pairs == [] and report.dropped_unknown_video == 1


def test_build_pairs_accounting_is_exact(vocab):
    rng = np.random.default_rng(2)
    store = make_store(n_videos=3, frames_per_video=30)
    records = []
    for i in range(200):
        vid = f"v{int(rng.integers(4))}"  # v3 does not exist
        records.append(UtteranceRecord(vid, float(rng.uniform(0, 10)), 11.0, "s", "ball"))
    pairs, report = build_pairs(records, store, vocab)
    assert len(records) == report.paired + report.dropped_unknown_video + report.dropped_no_frames


def test_build_pairs_frame_count_matches_bruteforce(vocab):
    # Store frames exactly on the schedule grid so every instant resolves.
    rng = np.random.default_rng(3)
    store = FeatureStore(4)
    duration = 40 * FRAME_PERIOD
    records = []
    starts = {}
    for v in range(3):
        vid = f"v{v}"
        grid = []
        utts = []
        for u in range(6):
            start = u * 1.6
            for t in bruteforce_schedule(start, duration):
                grid.append(t)
            utts.append(start)
        store.add_video(vid, np.unique(np.asarray(grid)),
                        rng.normal(size=(len(np.unique(grid)), 4)))
        starts[vid] = utts
        for start in utts:
            records.append(UtteranceRecord(vid, start, start + 1.0, "s", "ball"))
    pairs, _ = build_pairs(records, store, vocab)
    got_total = sum(len(p.frame_rows) for p in pairs)
    expected_total = sum(len(bruteforce_schedule(s, duration))
                         for utts in starts.values() for s in utts)
    assert got_total == expected_total


def test_pair_invariants_window_and_size(vocab):
    store = make_store(n_videos=2, frames_per_video=100)
    records = [UtteranceRecord("v0", 1.0, 2.0, "s", "ball"),
               UtteranceRecord("v1", 20.0, 21.0, "s", "ball")]
    pairs, _ = build_pairs(records, store, vocab)
    for p in pairs:
        assert 1 <= len(p.frame_rows) <= FRAMES_PER_UTTERANCE
        times = store._timestamps[p.video_id][p.frame_rows]
        span = times[-1] - times[0]
        assert span <= 16 / 3.75 + 1e-9
        diffs = np.diff(times)
        assert (diffs > 0).all()


def test_build_pairs_drops_records_whose_schedule_resolves_no_frame(vocab):
    # "gap" has frames at 0 s and 100 s only: a schedule from 50 s resolves
    # none of them, and a video the store lacks is an unknown video.
    store = make_store(n_videos=1)
    store.add_video("gap", np.array([0.0, 100.0]), np.zeros((2, 4)))
    records = [UtteranceRecord("gap", 50.0, 51.0, "s", "ball"),
               UtteranceRecord("ghost", 0.0, 1.0, "s", "ball"),
               UtteranceRecord("v0", 0.0, 1.0, "s", "ball")]
    pairs, report = build_pairs(records, store, vocab)
    assert [p.video_id for p in pairs] == ["v0"]
    assert report.as_dict() == {"paired": 1, "dropped_unknown_video": 1,
                                "dropped_no_frames": 1}


def test_build_pairs_rejects_a_negative_start(vocab):
    store = make_store(n_videos=1)
    records = [UtteranceRecord("v0", 1.0, 2.0, "s", "ball"),
               UtteranceRecord("v0", -0.5, 2.0, "s", "ball")]
    with pytest.raises(DataError, match="negative start time -0.5$"):
        build_pairs(records, store, vocab)


def test_pairs_refer_to_the_store_arrays_without_copying(vocab):
    store = make_store(n_videos=2, frames_per_video=30)
    records = [UtteranceRecord("v0", 1.0, 2.0, "s", "ball"),
               UtteranceRecord("v0", 3.0, 4.0, "s", "ball"),
               UtteranceRecord("v1", 2.0, 3.0, "s", "ball")]
    pairs, _ = build_pairs(records, store, vocab)
    assert pairs[0].video_features is pairs[1].video_features
    for p, rec in zip(pairs, records, strict=True):
        assert np.shares_memory(p.video_features, store.resolve(p.video_id, rec.start_s).features)
        assert not p.video_features.flags.writeable


# --- build_pairs against the scalar resolution it replaced --------------------------


def oracle_resolve(ts, t):
    """The scalar nearest-frame rule `build_pairs` once called per instant."""
    idx = int(np.searchsorted(ts, t))
    best, best_dist = None, RESOLVE_TOLERANCE
    for j in (idx - 1, idx):
        if 0 <= j < len(ts):
            dist = abs(float(ts[j]) - t)
            if dist <= best_dist:
                best, best_dist = j, dist
    return best


def oracle_build_pairs(records, videos, vocab, max_len):
    """The per-instant pairing loop; `videos` maps id -> (timestamps, features)
    as added to the store. Returns the report and, per pair, its token ids,
    frame timestamps and frame features."""
    report = {"paired": 0, "dropped_unknown_video": 0, "dropped_no_frames": 0}
    out = []
    for rec in records:
        if rec.video_id not in videos:
            report["dropped_unknown_video"] += 1
            continue
        raw_ts, raw_feats = videos[rec.video_id]
        order = np.argsort(raw_ts, kind="stable")
        ts, feats = raw_ts[order], raw_feats[order]
        duration = float(ts[-1])
        start = min(rec.start_s, duration)
        schedule = [start]
        for k in range(1, FRAMES_PER_UTTERANCE):
            t = start + k * FRAME_PERIOD
            if t > duration:
                break
            schedule.append(t)
        refs = []
        for t in schedule:
            j = oracle_resolve(ts, t)
            if j is not None and (not refs or ts[j] > ts[refs[-1]]):
                refs.append(j)
        if not refs:
            report["dropped_no_frames"] += 1
            continue
        report["paired"] += 1
        out.append((encode(rec.text, vocab, max_len), ts[refs], feats[refs]))
    return report, out


def oracle_world(seed):
    """A random store and records with the cases the resolution rules meet:
    exact midpoint ties, float-rounding twins, duplicated timestamps, frames
    exactly the tolerance away, starts past the video end and unknown videos."""
    rng = np.random.default_rng(seed)
    tol = RESOLVE_TOLERANCE
    videos, records = {}, []
    for v in range(4):
        vid = f"v{v}"
        starts = [float(x) for x in rng.integers(0, 64, size=6) / 8]  # dyadic
        starts += [float(x) for x in rng.uniform(0, 12, size=6)]
        grid = list(np.arange(int(rng.integers(10, 40))) * FRAME_PERIOD)
        times = [x for x in grid if rng.random() < 0.7]
        times += [float(x) for x in rng.uniform(0, 12, size=10)]
        times += [float(x) for x in rng.integers(0, 96, size=8) / 8]
        for s in starts[:3]:  # ties at the start instant and at later instants
            times += [s - 1 / 16, s + 1 / 16]
            t = s + 3 * FRAME_PERIOD
            times += [t - 1 / 32, t + 1 / 32]
        times += [tol, 2 * tol, np.nextafter(3 * tol, np.inf), 2.4, 2.4000000000000004]
        times += [times[int(rng.integers(len(times)))] for _ in range(3)]  # duplicates
        starts += [tol, 0.0, 2.4, float(rng.uniform(12, 20))]  # the last is past the end
        ts = np.array(times)
        rng.shuffle(ts)
        videos[vid] = (ts, rng.normal(size=(len(ts), 3)))
        records += [UtteranceRecord(vid, s, s + 1.0, "s", "look a ball") for s in starts]
    # Sparse videos: a frame exactly the tolerance below or above a start
    # instant with no other frame near, just outside it, and a long gap.
    videos["lo"] = (np.array([0.0, 1.0, 10.0]), rng.normal(size=(3, 3)))
    videos["hi"] = (np.array([2 * tol, 5.0]), rng.normal(size=(2, 3)))
    for vid, s in [("lo", tol), ("lo", np.nextafter(tol, 1)), ("lo", 3.0), ("hi", tol),
                   ("hi", np.nextafter(tol, 0)), ("hi", 0.0)]:
        records.append(UtteranceRecord(vid, float(s), float(s) + 1.0, "s", "ball"))
    records += [UtteranceRecord("ghost", 1.0, 2.0, "s", "a ball")]
    rng.shuffle(records)
    return videos, records


@pytest.mark.parametrize("seed", range(8))
def test_build_pairs_matches_scalar_resolution_oracle(vocab, seed):
    videos, records = oracle_world(seed)
    store = FeatureStore(3)
    for vid, (ts, feats) in videos.items():
        store.add_video(vid, ts, feats)
    pairs, report = build_pairs(records, store, vocab, max_len=3)
    want_report, want = oracle_build_pairs(records, videos, vocab, max_len=3)
    assert report.as_dict() == want_report
    assert len(pairs) == len(want)
    for pair, (ids, times, feats) in zip(pairs, want):
        assert pair.token_ids == ids
        np.testing.assert_array_equal(store._timestamps[pair.video_id][pair.frame_rows], times)
        np.testing.assert_array_equal(pair.video_features[pair.frame_rows], feats)


def test_oracle_world_has_ties_and_bound_cases():
    # The cases the oracle test names are really in its data, at start
    # instants: two frames equally near; the only frame within the tolerance
    # exactly the tolerance below, or above; and no frame for a whole schedule.
    cases = {"tie": 0, "lo bound": 0, "hi bound": 0}
    dropped = 0
    for seed in range(8):
        videos, records = oracle_world(seed)
        for rec in records:
            if rec.video_id not in videos:
                continue
            ts = np.sort(videos[rec.video_id][0])
            idx = int(np.searchsorted(ts, rec.start_s))
            lo = abs(ts[idx - 1] - rec.start_s) if idx > 0 else np.inf
            hi = abs(ts[idx] - rec.start_s) if idx < len(ts) else np.inf
            cases["tie"] += lo == hi <= RESOLVE_TOLERANCE
            cases["lo bound"] += lo == RESOLVE_TOLERANCE < hi
            cases["hi bound"] += hi == RESOLVE_TOLERANCE < lo
        dropped += oracle_build_pairs(records, videos, build_vocabulary(["ball"]), 3)[0][
            "dropped_no_frames"]
    assert min(cases.values()) > 0 and dropped > 0, (cases, dropped)


# --- frame sampling -------------------------------------------------------------


def single_pair(n_frames, seed=0):
    rng = np.random.default_rng(seed)
    return EpisodePair(token_ids=[2], frame_rows=list(range(n_frames)),
                       video_features=rng.normal(size=(n_frames, 4)), video_id="v")


def row_of(pair):
    """A function from a frame the pair gave to its row of the pair's features."""
    rows = {pair.video_features[r].tobytes(): r for r in pair.frame_rows}
    assert len(rows) == len(pair.frame_rows)
    return lambda frame: rows[frame.features.tobytes()]


def test_sample_frame_single():
    pair = single_pair(1)
    frame = sample_frame(pair, np.random.default_rng(0))
    np.testing.assert_array_equal(frame.features, pair.video_features[0])


def test_sample_frame_makes_one_draw():
    pair = single_pair(16)
    pair.frame_rows = [3, 5, 8, 13]
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    frame = sample_frame(pair, rng)
    row = pair.frame_rows[int(twin.integers(4))]
    assert rng.bit_generator.state == twin.bit_generator.state
    np.testing.assert_array_equal(frame.features, pair.video_features[row])


def test_sample_frame_uniform_binomial_bound():
    pair = single_pair(16)
    rng = np.random.default_rng(123)
    counts = np.zeros(16, dtype=int)
    lookup = row_of(pair)
    for _ in range(16000):
        counts[lookup(sample_frame(pair, rng))] += 1
    # binomial 3-sigma: 1000 +- 3*sqrt(16000 * 1/16 * 15/16) ~ +-92; spec allows 120
    assert np.all(np.abs(counts - 1000) <= 120)


def test_sample_frame_chisquare_uniformity():
    pair = single_pair(8)
    rng = np.random.default_rng(321)
    counts = np.zeros(8, dtype=int)
    lookup = row_of(pair)
    for _ in range(10_000):
        counts[lookup(sample_frame(pair, rng))] += 1
    assert stats.chisquare(counts).pvalue > 0.001


def test_sample_frame_deterministic_under_seed():
    pair = single_pair(16)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    lookup = row_of(pair)
    seq1 = [lookup(sample_frame(pair, rng1)) for _ in range(50)]
    seq2 = [lookup(sample_frame(pair, rng2)) for _ in range(50)]
    assert seq1 == seq2


def test_a_frame_is_its_features_alone():
    assert [f.name for f in dataclasses.fields(FrameFeature)] == ["features"]
    assert "video_timestamps" not in [f.name for f in dataclasses.fields(EpisodePair)]
