"""Frame schedules, feature stores, and episode pairing."""

import numpy as np
import pytest
from scipy import stats

from groundlex.corpus import UtteranceRecord, build_vocabulary
from groundlex.errors import DataError
from groundlex.pairing import (
    FRAME_PERIOD, FRAMES_PER_UTTERANCE, EpisodePair, FeatureStore, FrameFeature,
    build_pairs, frame_key, frame_schedule, load_feature_store, sample_frame,
)


def test_schedule_full_window():
    stamps = frame_schedule(10.0, 100.0)
    assert len(stamps) == 16
    assert stamps[0] == 10.0
    assert stamps[-1] == pytest.approx(10.0 + 15 / 3.75)  # 14.0


def test_schedule_truncates_at_video_end():
    stamps = frame_schedule(99.5, 100.0)
    assert stamps == pytest.approx([99.5, 99.5 + FRAME_PERIOD])


def test_schedule_spacing_exact():
    stamps = frame_schedule(3.3, 1000.0)
    diffs = np.diff(stamps)
    np.testing.assert_allclose(diffs, FRAME_PERIOD, atol=1e-9)


def test_schedule_start_past_end_clamps_with_warning():
    with pytest.warns(UserWarning):
        stamps = frame_schedule(12.0, 10.0)
    assert stamps[0] == 10.0 and len(stamps) == 1


def test_schedule_window_is_16_instants_not_17():
    # 16/3.75 s window means offsets k = 0..15 only.
    stamps = frame_schedule(0.0, 16 / 3.75)
    assert len(stamps) == 16


def bruteforce_schedule_len(start, duration):
    n = 0
    k = 0
    while k < FRAMES_PER_UTTERANCE:
        t = min(start, duration) + k * FRAME_PERIOD
        if t > duration and k > 0:
            break
        n += 1
        k += 1
    return n


def test_schedule_length_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(300):
        duration = float(rng.uniform(1, 60))
        start = float(rng.uniform(0, duration))
        assert len(frame_schedule(start, duration)) == bruteforce_schedule_len(start, duration)


# --- feature store -----------------------------------------------------------


def make_store(n_videos=2, frames_per_video=8, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for v in range(n_videos):
        ts = np.arange(frames_per_video) * FRAME_PERIOD
        store.add_video(f"v{v}", ts, rng.normal(size=(frames_per_video, dim)))
    return store


def test_store_roundtrip_binary(tmp_path):
    store = make_store()
    path = tmp_path / "feat.glfx"
    store.save(path)
    loaded = FeatureStore.load(path)
    assert len(loaded) == len(store)
    for vid in store.video_ids:
        for a, b in zip(store.frames_of(vid), loaded.frames_of(vid)):
            assert a.timestamp_s == b.timestamp_s
            np.testing.assert_array_equal(a.features, b.features)


def test_store_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.glfx"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        FeatureStore.load(path)


def test_truncated_feature_store_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=1, frames_per_video=2).save(path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.glfx"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataError) as e:
            FeatureStore.load(cut)
        msg = str(e.value)
        assert str(cut) in msg
        assert f"truncated at byte {n}" in msg


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
    assert not store.has_video("v7")



def test_corrupt_video_id_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "feat.glfx"
    make_store(n_videos=1, frames_per_video=2).save(path)
    blob = bytearray(path.read_bytes())
    blob[24] = 0xFF  # first byte of the first frame's video id
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="invalid UTF-8 at byte 24$") as e:
        FeatureStore.load(path)
    assert str(path) in str(e.value)


def test_add_video_rejects_frames_that_share_a_key():
    store = make_store(n_videos=1)
    with pytest.raises(DataError) as e:
        store.add_video("v", np.array([0.0, 1.0, 1.0004]), np.zeros((3, 4)))
    msg = str(e.value)
    assert "'v'" in msg and "at 1.0 s and 1.0004 s" in msg
    assert not store.has_video("v") and len(store) == 8

def test_store_jsonl_roundtrip(tmp_path):
    path = tmp_path / "feat.jsonl"
    path.write_text(
        '{"video_id": "v0", "timestamp_s": 0.0, "features": [1.0, 2.0]}\n'
        '{"video_id": "v0", "timestamp_s": 0.5, "features": [3.0, 4.0]}\n')
    store = load_feature_store(path)
    assert store.feature_dim == 2 and len(store) == 2
    np.testing.assert_array_equal(store.by_key(frame_key("v0", 0.5)).features, [3.0, 4.0])


def test_by_key_finds_every_stored_frame():
    store = make_store()
    for vid in store.video_ids:
        for frame in store.frames_of(vid):
            assert store.by_key(frame.key()).timestamp_s == frame.timestamp_s


def test_by_key_agrees_with_resolve_on_float_rounding_twins():
    # Two timestamps that are one instant up to float rounding share a key.
    store = FeatureStore(1)
    store.add_video("v", np.array([2.4, 2.4000000000000004]), np.array([[1.0], [2.0]]))
    assert len(store) == 2
    np.testing.assert_array_equal(store.resolve("v", 2.4).features, [1.0])
    np.testing.assert_array_equal(store.by_key(frame_key("v", 2.4)).features, [1.0])


@pytest.mark.parametrize("key", ["v0@0.250", "v0@0.27", "v9@0.000", "v0@nan", "v0@x",
                                 "v0", ""])
def test_by_key_rejects_unknown_and_malformed_keys(key):
    with pytest.raises(DataError, match="frame key"):
        make_store().by_key(key)


def test_store_features_are_read_only():
    store = make_store()
    frame = store.frames_of("v0")[0]
    with pytest.raises(ValueError):
        frame.features[0] = 99.0


def test_resolve_within_half_period():
    store = make_store(frames_per_video=4)
    hit = store.resolve("v0", FRAME_PERIOD * 1.1)
    assert hit is not None and hit.timestamp_s == pytest.approx(FRAME_PERIOD)
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
    assert len(pairs[0].frame_refs) == 3  # start, +1, +2 periods then video ends


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
            for t in frame_schedule(min(start, duration), duration):
                grid.append(t)
            utts.append(start)
        store.add_video(vid, np.unique(np.asarray(grid)),
                        rng.normal(size=(len(np.unique(grid)), 4)))
        starts[vid] = utts
        for start in utts:
            records.append(UtteranceRecord(vid, start, start + 1.0, "s", "ball"))
    pairs, _ = build_pairs(records, store, vocab)
    got_total = sum(len(p.frame_refs) for p in pairs)
    expected_total = sum(len(frame_schedule(min(s, duration), duration))
                         for utts in starts.values() for s in utts)
    assert got_total == expected_total


def test_pair_invariants_window_and_size(vocab):
    store = make_store(n_videos=2, frames_per_video=100)
    records = [UtteranceRecord("v0", 1.0, 2.0, "s", "ball"),
               UtteranceRecord("v1", 20.0, 21.0, "s", "ball")]
    pairs, _ = build_pairs(records, store, vocab)
    for p in pairs:
        assert 1 <= len(p.frame_refs) <= FRAMES_PER_UTTERANCE
        span = p.frame_refs[-1].timestamp_s - p.frame_refs[0].timestamp_s
        assert span <= 16 / 3.75 + 1e-9
        diffs = np.diff([f.timestamp_s for f in p.frame_refs])
        assert (diffs > 0).all()


# --- frame sampling -------------------------------------------------------------


def single_pair(n_frames, seed=0):
    rng = np.random.default_rng(seed)
    frames = [FrameFeature("v", i * FRAME_PERIOD, rng.normal(size=4))
              for i in range(n_frames)]
    return EpisodePair(token_ids=[2], frame_refs=frames, video_id="v")


def test_sample_frame_single():
    pair = single_pair(1)
    assert sample_frame(pair, np.random.default_rng(0)) is pair.frame_refs[0]


def test_sample_frame_uniform_binomial_bound():
    pair = single_pair(16)
    rng = np.random.default_rng(123)
    counts = np.zeros(16, dtype=int)
    lookup = {f.timestamp_s: i for i, f in enumerate(pair.frame_refs)}
    for _ in range(16000):
        counts[lookup[sample_frame(pair, rng).timestamp_s]] += 1
    # binomial 3-sigma: 1000 +- 3*sqrt(16000 * 1/16 * 15/16) ~ +-92; spec allows 120
    assert np.all(np.abs(counts - 1000) <= 120)


def test_sample_frame_chisquare_uniformity():
    pair = single_pair(8)
    rng = np.random.default_rng(321)
    counts = np.zeros(8, dtype=int)
    lookup = {f.timestamp_s: i for i, f in enumerate(pair.frame_refs)}
    for _ in range(10_000):
        counts[lookup[sample_frame(pair, rng).timestamp_s]] += 1
    assert stats.chisquare(counts).pvalue > 0.001


def test_sample_frame_deterministic_under_seed():
    pair = single_pair(16)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    seq1 = [sample_frame(pair, rng1).timestamp_s for _ in range(50)]
    seq2 = [sample_frame(pair, rng2).timestamp_s for _ in range(50)]
    assert seq1 == seq2
