"""Seeded synthetic grounded world for the benchmark.

Each object word has a prototype in feature space. A video is a run of
scenes; each scene shows one object, and every frame (3.75 fps) is that
object's prototype plus Gaussian noise. Each video has one camera-off gap
with no frames. Utterances name the object in view at their start, padded
with filler words so that the vocabulary reaches about 2000 words.

The world plants known defects and keeps their ground-truth counts:
adjacent duplicates, repeated phrases, punctuation-only lines, records for
unknown videos and records whose frame schedule lies inside a gap. `build`
makes the world in memory; `write` saves the files the library reads
(records, features, manifest) through the library's own writers, and the
library sees only those files. The same seed gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from groundlex.corpus import SplitManifest, UtteranceRecord, save_records
from groundlex.pairing import FRAME_PERIOD, FRAMES_PER_UTTERANCE, FeatureStore

from spans import NullTracer

# Longest phrase the library's repeated-phrase collapse looks at; natural
# utterances never repeat any phrase up to this length back to back.
_MAX_PHRASE = 8
_PUNCT_LINES = ("?!", "...", "—", "¿¡", "!!", "(...)")
GAP_S = 6.0  # one camera-off gap per video
TEST_VIDEOS = 2
VAL_VIDEOS = 1
# Planted defects, per video that has features.
DUP_PER_VIDEO = 2
REPEAT_PER_VIDEO = 2
PUNCT_PER_VIDEO = 2
NOFRAME_PER_VIDEO = 1
# Videos with records but no features, and their records each.
UNKNOWN_VIDEOS = 2
UNKNOWN_PER_VIDEO = 3


@dataclass(frozen=True)
class WorldSpec:
    n_objects: int
    n_filler: int
    n_videos: int
    frames_per_video: int
    utterances_per_video: int
    min_words: int
    max_words: int
    n_trials: int
    feature_dim: int = 768
    noise: float = 1.0
    scene_s: tuple[float, float] = (8.0, 16.0)


@dataclass
class World:
    """A generated world in memory: what `write` saves, the 4-way trials
    and the ground truth (planted defect counts, expected pairing outcome)."""

    records: list[UtteranceRecord]
    store: FeatureStore
    manifest: SplitManifest
    trials: list[dict]
    truth: dict


@dataclass
class WorldFiles:
    records: Path
    features: Path
    manifest: Path


def _streams(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng((seed, label))


def _word_pool(rng: np.random.Generator, n: int) -> list[str]:
    """`n` distinct lowercase pseudo-words built from two or three syllables."""
    onsets = list("bdfghklmnprstvwz")
    vowels = list("aeiou")
    words: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        k = int(rng.integers(2, 4))
        w = "".join(onsets[int(rng.integers(len(onsets)))]
                    + vowels[int(rng.integers(len(vowels)))] for _ in range(k))
        if w not in words:
            words.add(w)
            out.append(w)
    return out


def has_adjacent_repeat(tokens: list[str]) -> bool:
    """True if any phrase of up to `_MAX_PHRASE` tokens occurs twice in a row."""
    for n in range(1, _MAX_PHRASE + 1):
        for i in range(len(tokens) - 2 * n + 1):
            if tokens[i:i + n] == tokens[i + n:i + 2 * n]:
                return True
    return False


class _FillerStream:
    """Filler words drawn by cycling shuffled passes over the filler list,
    so every filler occurs about equally often."""

    def __init__(self, rng: np.random.Generator, fillers: list[str]):
        self.rng, self.fillers = rng, fillers
        self.queue: list[str] = []

    def take(self) -> str:
        if not self.queue:
            self.queue = [self.fillers[i] for i in self.rng.permutation(len(self.fillers))]
        return self.queue.pop()


def _utterance(rng, fillers: _FillerStream, obj: str, spec: WorldSpec,
               used: set[str]) -> str:
    """A new utterance naming `obj` once, with no phrase repeated back to back."""
    while True:
        n = int(rng.integers(spec.min_words, spec.max_words + 1))
        tokens = [fillers.take() for _ in range(n - 1)]
        tokens.insert(int(rng.integers(n)), obj)
        text = " ".join(tokens)
        if text not in used and not has_adjacent_repeat(tokens):
            used.add(text)
            return text


def _frame_times(spec: WorldSpec, gap_start: float) -> np.ndarray:
    """`frames_per_video` instants at 3.75 fps, skipping the camera-off gap."""
    k = np.arange(spec.frames_per_video + int(GAP_S / FRAME_PERIOD) + 2)
    t = k * FRAME_PERIOD
    t = t[(t < gap_start) | (t >= gap_start + GAP_S)]
    return t[:spec.frames_per_video]


def _scenes(rng, duration: float, spec: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Scene start times and object indices covering [0, duration]."""
    starts, objs = [0.0], [int(rng.integers(spec.n_objects))]
    while starts[-1] < duration:
        starts.append(starts[-1] + float(rng.uniform(*spec.scene_s)))
        nxt = int(rng.integers(spec.n_objects - 1))
        objs.append(nxt if nxt < objs[-1] else nxt + 1)
    return np.asarray(starts), np.asarray(objs)


def _object_at(scene_starts: np.ndarray, scene_objs: np.ndarray, t) -> np.ndarray:
    return scene_objs[np.searchsorted(scene_starts, t, side="right") - 1]


def build(spec: WorldSpec, seed: int) -> World:
    """The world for `seed`, in memory."""
    words = _word_pool(_streams(seed, 1), spec.n_objects + spec.n_filler)
    objects, fillers = words[:spec.n_objects], words[spec.n_objects:]
    text_rng = _streams(seed, 2)
    filler_stream = _FillerStream(text_rng, fillers)
    feat_rng = _streams(seed, 3)
    layout_rng = _streams(seed, 4)
    protos = feat_rng.normal(size=(spec.n_objects, spec.feature_dim))

    used_texts: set[str] = set()
    records: list[UtteranceRecord] = []
    store = FeatureStore(spec.feature_dim)
    videos = [f"v{i:03d}" for i in range(spec.n_videos)]
    truth = {"adjacent_duplicates": 0, "repeated_phrases": 0,
             "punctuation_only": 0, "unknown_video": 0, "no_frames": 0}
    labelled_frames: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    for vid in videos:
        span = (spec.frames_per_video - 1) * FRAME_PERIOD
        gap_start = float(layout_rng.uniform(0.3, 0.6)) * span
        times = _frame_times(spec, gap_start)
        duration = float(times[-1])
        scene_starts, scene_objs = _scenes(layout_rng, duration, spec)
        labels = _object_at(scene_starts, scene_objs, times)
        feats = protos[labels] + spec.noise * feat_rng.normal(size=(len(times), spec.feature_dim))
        store.add_video(vid, times, feats)
        labelled_frames[vid] = (times, labels)
        del feats

        # Utterance starts lie on distinct millisecond ticks where frames
        # exist; planted records take other ticks or half-ticks.
        before = times[times < gap_start]
        after = times[times >= gap_start]
        covered = np.concatenate([np.arange(0, int(before[-1] * 1000)),
                                  np.arange(int(np.ceil(after[0] * 1000)),
                                            int(duration * 1000))])
        n_natural = spec.utterances_per_video
        n_ticks = n_natural + PUNCT_PER_VIDEO
        ticks = np.sort(layout_rng.choice(covered, size=n_ticks, replace=False))
        punct_pos = set(layout_rng.choice(n_ticks, size=PUNCT_PER_VIDEO,
                                          replace=False).tolist())
        video_records: list[UtteranceRecord] = []
        naturals: list[int] = []
        for j, tick in enumerate(ticks):
            start = tick / 1000.0
            if j in punct_pos:
                text = _PUNCT_LINES[int(text_rng.integers(len(_PUNCT_LINES)))]
                truth["punctuation_only"] += 1
            else:
                obj = objects[int(_object_at(scene_starts, scene_objs, start))]
                text = _utterance(text_rng, filler_stream, obj, spec, used_texts)
                naturals.append(len(video_records))
            end = round(start + 0.3 * len(text.split()), 3)
            video_records.append(UtteranceRecord(vid, start, end, "mother", text))

        chosen = layout_rng.choice(len(naturals), size=DUP_PER_VIDEO + REPEAT_PER_VIDEO,
                                   replace=False)
        dup_idx = [naturals[i] for i in chosen[:DUP_PER_VIDEO]]
        rep_idx = [naturals[i] for i in chosen[DUP_PER_VIDEO:]]
        for i in rep_idx:
            rec = video_records[i]
            tokens = rec.text.split()
            n = int(text_rng.integers(1, min(3, len(tokens)) + 1))
            j = int(text_rng.integers(len(tokens) - n + 1))
            phrase = tokens[j:j + n]
            copies = int(text_rng.integers(2, 4))
            rec.text = " ".join(tokens[:j + n] + phrase * copies + tokens[j + n:])
            truth["repeated_phrases"] += 1
        for i in dup_idx:
            rec = video_records[i]
            shouted = rec.text[0].upper() + rec.text[1:] + "!"
            video_records.append(UtteranceRecord(vid, rec.start_s + 0.0005, rec.end_s,
                                                 rec.speaker, shouted))
            truth["adjacent_duplicates"] += 1

        # Records inside the gap: every instant of the 16-frame schedule is
        # farther than half a frame period from the frames either side.
        lo = before[-1] + 0.6 * FRAME_PERIOD
        hi = after[0] - (FRAMES_PER_UTTERANCE - 1) * FRAME_PERIOD - 0.6 * FRAME_PERIOD
        gap_ticks = layout_rng.choice(np.arange(int(np.ceil(lo * 1000)), int(hi * 1000)),
                                      size=NOFRAME_PER_VIDEO, replace=False)
        for tick in gap_ticks:
            obj = objects[int(layout_rng.integers(spec.n_objects))]
            text = _utterance(text_rng, filler_stream, obj, spec, used_texts)
            video_records.append(UtteranceRecord(vid, tick / 1000.0, tick / 1000.0 + 2.0,
                                                 "mother", text))
            truth["no_frames"] += 1
        records.extend(video_records)

    unknown = [f"x{i:03d}" for i in range(UNKNOWN_VIDEOS)]
    for vid in unknown:
        for k in range(UNKNOWN_PER_VIDEO):
            obj = objects[int(layout_rng.integers(spec.n_objects))]
            text = _utterance(text_rng, filler_stream, obj, spec, used_texts)
            records.append(UtteranceRecord(vid, 5.0 * k, 5.0 * k + 2.0, "mother", text))
            truth["unknown_video"] += 1

    records.sort(key=lambda r: (r.video_id, r.start_s))
    order = [videos[i] for i in layout_rng.permutation(len(videos))]
    test = sorted(order[:TEST_VIDEOS])
    val = sorted(order[TEST_VIDEOS:TEST_VIDEOS + VAL_VIDEOS])
    train = sorted(order[TEST_VIDEOS + VAL_VIDEOS:]) + unknown
    manifest = SplitManifest("synthetic", train=train, val=val, test=test)
    trials = _trials(layout_rng, spec, objects, test, labelled_frames)

    kept = len(records) - truth["adjacent_duplicates"] - truth["punctuation_only"]
    truth.update(records=len(records), kept=kept,
                 paired=kept - truth["unknown_video"] - truth["no_frames"],
                 frames=spec.n_videos * spec.frames_per_video,
                 spec=asdict(spec), seed=seed)
    return World(records, store, manifest, trials, truth)


def write(world: World, out_dir: str | Path, tr=NullTracer()) -> WorldFiles:
    """Save the files the library reads into `out_dir`, each through the
    library's own writer."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = WorldFiles(records=out / "records.jsonl", features=out / "features.glfx",
                       manifest=out / "manifest.json")
    with tr.span("corpus.save_records"):
        save_records(world.records, files.records)
    with tr.span("pairing.save"):
        world.store.save(files.features)
    world.manifest.save(files.manifest)
    return files


def _trials(rng, spec: WorldSpec, objects: list[str], test_videos: list[str],
            labelled_frames: dict) -> list[dict]:
    """4-way trials on held-out videos: one frame of the named object and
    three frames of three other objects, target slot drawn at random."""
    by_object: dict[int, list[tuple[str, float]]] = {}
    for vid in test_videos:
        times, labels = labelled_frames[vid]
        for t, lab in zip(times.tolist(), labels.tolist()):
            by_object.setdefault(lab, []).append((vid, t))
    seen = sorted(by_object)
    if len(seen) < 4:
        raise ValueError("held-out videos show fewer than 4 objects")
    trials = []
    for _ in range(spec.n_trials):
        picks = rng.choice(len(seen), size=4, replace=False)
        frames = []
        for p in picks:
            pool = by_object[seen[int(p)]]
            frames.append(list(pool[int(rng.integers(len(pool)))]))
        answer = int(rng.integers(4))
        frames[0], frames[answer] = frames[answer], frames[0]
        trials.append({"word": objects[seen[int(picks[0])]], "frames": frames,
                       "answer": answer})
    return trials
