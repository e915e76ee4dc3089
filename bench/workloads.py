"""The benchmark's three workloads, driven through the library's public API.

Each workload is a closed loop in one process: the next round, step or trial
starts when the previous one returns. Every call into the library is timed
from outside, inside a span named `<module>.<function>`.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from groundlex.corpus import (
    EOS_ID, PAD_ID, SplitManifest, build_vocabulary, dedup_filter, load_records,
    pad_batch, split_stats,
)
from groundlex.encoders import (
    Model, ModelConfig, encode_frames, encode_utterances, lm_logits,
    load_checkpoint, save_checkpoint,
)
from groundlex.objectives import contrastive_loss, joint_loss, lm_loss
from groundlex.optim import AdamWState, LRSchedule, adamw_step, lr_at
from groundlex.pairing import build_pairs, load_feature_store, sample_frame
from groundlex.tensor import no_grad

from spans import self_ms_by_name, tail
from synth_world import World, WorldFiles, WorldSpec, build, write

# Set-up is timed this many times per run and the median reported.
SETUP_REPEATS = 9
# The first prepare rounds of a process run slower while the heap grows.
PREPARE_WARMUP_ROUNDS = 3
LOSS_TAIL_STEPS = 10
# train_cvcl_wide must beat 4-way chance (0.25) by at least this much.
WIDE_ACCURACY_MARGIN = 0.25
PEAK_LR = 1e-3

PREPARE_WORLD = WorldSpec(n_objects=60, n_filler=1940, n_videos=40, frames_per_video=1250,
                          utterances_per_video=250, min_words=4, max_words=11, n_trials=8)


@dataclass(frozen=True)
class TrainSpec:
    variant: str
    batch: int
    max_len: int
    world: WorldSpec
    warmup_steps: int
    # Timed steps per requested second. The step count is fixed by this and
    # --seconds, never by measured speed, so a seed always yields the same
    # trajectory and checkpoint.
    steps_per_second: float
    n_layers: int = 2
    n_heads: int = 8
    embed_dim: int = 512


TRAIN_SPECS = {
    "train_cvcl_wide": TrainSpec(
        variant="cvcl", batch=128, max_len=12, warmup_steps=40, steps_per_second=10.0,
        world=WorldSpec(n_objects=60, n_filler=1940, n_videos=12, frames_per_video=1000,
                        utterances_per_video=400, min_words=4, max_words=11, n_trials=400)),
    "train_cvcl_t_lm": TrainSpec(
        variant="cvcl_t_lm", batch=8, max_len=24, warmup_steps=2, steps_per_second=1.0,
        world=WorldSpec(n_objects=60, n_filler=1940, n_videos=12, frames_per_video=1000,
                        utterances_per_video=400, min_words=20, max_words=23, n_trials=120)),
}


@dataclass
class Gates:
    """Correctness gates; every check counts as one attempted operation."""

    results: list[dict] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.results.append({"gate": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]]  # workload-level name -> (value, unit)
    info: dict
    gates: Gates
    attempted: int = 0  # rounds, steps and trials (gates are added on top)
    errors: list[str] = field(default_factory=list)  # one per round or step that raised


@dataclass
class Prepared:
    records: list
    kept: list
    vocab: object
    store: object
    pairs: list
    manifest: SplitManifest
    dedup: object
    pair_report: object
    stats: dict


def prepare(files: WorldFiles, tr, max_len: int) -> Prepared:
    """load_records -> dedup_filter -> build_vocabulary -> load_feature_store
    -> build_pairs -> split_stats."""
    with tr.span("corpus.load_records"):
        records = load_records(files.records)
    with tr.span("corpus.dedup_filter"):
        kept, dedup = dedup_filter(records)
    with tr.span("corpus.build_vocabulary"):
        vocab = build_vocabulary([r.text for r in kept])
    with tr.span("pairing.load_feature_store"):
        store = load_feature_store(files.features)
    with tr.span("pairing.build_pairs"):
        pairs, pair_report = build_pairs(kept, store, vocab, max_len)
    with tr.span("corpus.split_stats"):
        manifest = SplitManifest.load(files.manifest)
        stats = split_stats(manifest, kept)
    return Prepared(records, kept, vocab, store, pairs, manifest, dedup, pair_report, stats)


def check_prepared(p: Prepared, truth: dict, gates: Gates) -> None:
    d, r = p.dedup, p.pair_report
    gates.check("dedup.adjacent_duplicates", d.adjacent_duplicates_dropped
                == truth["adjacent_duplicates"], d.as_dict())
    gates.check("dedup.repeated_phrases", d.phrase_collapsed_utterances
                == truth["repeated_phrases"], d.as_dict())
    gates.check("dedup.punctuation_only", d.empty_after_clean_dropped
                == truth["punctuation_only"], d.as_dict())
    gates.check("pairs.unknown_video", r.dropped_unknown_video == truth["unknown_video"],
                r.as_dict())
    gates.check("pairs.no_frames", r.dropped_no_frames == truth["no_frames"], r.as_dict())
    gates.check("pairs.paired", r.paired == truth["paired"], r.as_dict())
    gates.check("records.accounted", len(p.records) == r.paired + r.dropped_unknown_video
                + r.dropped_no_frames + d.total_dropped(), len(p.records))
    split_utts = sum(part["utterances"] for part in p.stats["partitions"].values())
    gates.check("split_stats.utterances", split_utts == len(p.kept), split_utts)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _world_hash(files: WorldFiles) -> str:
    return hashlib.sha256("".join(
        _sha256(p) for p in (files.records, files.features, files.manifest)).encode()).hexdigest()


def glfx_bytes(n_frames: int, video_id_len: int, feature_dim: int) -> int:
    """Size of a GLFX v1 file: 20-byte header, then per frame a u32 id
    length, the id, an f64 timestamp and F f64 features."""
    return 20 + n_frames * (4 + video_id_len + 8 + 8 * feature_dim)


def check_glfx_size(files: WorldFiles, truth: dict, spec: WorldSpec, gates: Gates) -> None:
    size = files.features.stat().st_size
    gates.check("glfx.size", size == glfx_bytes(truth["frames"], 4, spec.feature_dim), size)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_rounds(world: World, world_dir: Path, tr, gates: Gates, after=None):
    """Time set-up SETUP_REPEATS times: write the world's files through the
    library, then `after(files)`. The world is built before, untimed, so
    only library calls are on the clock. Return (median wall s, last files,
    last `after` result, info)."""
    walls, hashes, result = [], [], None
    for _ in range(SETUP_REPEATS):
        result = None  # let the previous round's data go before the next one
        shutil.rmtree(world_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with tr.span("setup"):
            files = write(world, world_dir, tr)
            if after is not None:
                result = after(files)
        walls.append(time.perf_counter() - t0)
        hashes.append(_world_hash(files))
    gates.check("world.byte_identical", len(set(hashes)) == 1, hashes)
    return median(walls), files, result, {"setup_walls_s": walls, "world_sha256": hashes[0]}


# ---------------------------------------------------------------------------
# prepare_ingest
# ---------------------------------------------------------------------------

def run_prepare_ingest(seed: int, seconds: float, tr, work: Path,
                       spec: WorldSpec = PREPARE_WORLD) -> Outcome:
    gates = Gates()
    world = build(spec, seed)
    truth = world.truth
    setup_s, files, _, setup_info = _setup_rounds(world, work / "world", tr, gates)
    del world

    def one_round() -> tuple[float, dict]:
        """Wall time of one prepare round and a summary of its outputs."""
        t0 = time.perf_counter()
        with tr.span("round"):
            p = prepare(files, tr, max_len=48)
        wall = time.perf_counter() - t0
        check_prepared(p, truth, gates)
        return wall, {"dedup": p.dedup.as_dict(), "pairs": p.pair_report.as_dict(),
                      "vocabulary_size": len(p.vocab), "counts": _prepare_counts(p, truth, spec)}

    check_glfx_size(files, truth, spec, gates)
    tr.recording = False
    for _ in range(PREPARE_WARMUP_ROUNDS):
        one_round()
    gc.collect()  # start timing from the same collector state in every run
    tr.recording = True
    walls, summary, errors = [], {}, []
    attempted = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            wall, summary = one_round()
            walls.append(wall)
        except Exception as exc:  # a failed round counts; the loop goes on
            errors.append(repr(exc))
            if attempted > 3 and not walls:
                break
    n_records = truth["records"]
    round_ms = [1000.0 * w for w in walls]
    metrics = {
        "setup_s": (setup_s, "s"),
        "prepare_utts_per_s": (n_records / median(walls), "utt/s"),
        "round_ms_p50": (median(round_ms), "ms"),
    }
    info = dict(setup_info, **summary, round_ms=round_ms, warmup_rounds=PREPARE_WARMUP_ROUNDS,
                shapes={"records": n_records, "frames": truth["frames"], "F": spec.feature_dim},
                glfx_source="page cache (written during set-up)", truth=truth)
    t = tail(round_ms)
    if t:
        info["round_ms_tail"] = {"percentile": t[0], "value": t[1], "samples": t[2]}
    return Outcome(metrics, info, gates, attempted, errors)


def _prepare_counts(p: Prepared, truth: dict, spec: WorldSpec) -> dict:
    return {
        "corpus.dedup_filter.kept_ratio": len(p.kept) / len(p.records),
        "pairing.build_pairs.paired_ratio": p.pair_report.paired / len(p.kept),
        "pairing.glfx_mb": glfx_bytes(truth["frames"], 4, spec.feature_dim) / 1e6,
    }


# ---------------------------------------------------------------------------
# train_* workloads
# ---------------------------------------------------------------------------

def _config(ts: TrainSpec, vocab_size: int) -> ModelConfig:
    return ModelConfig(variant=ts.variant, feature_dim=ts.world.feature_dim,
                       embed_dim=ts.embed_dim, vocab_size=vocab_size, max_len=ts.max_len,
                       n_layers=ts.n_layers, n_heads=ts.n_heads)


def make_batch(pairs: list, idx: np.ndarray, rng: np.random.Generator):
    """Frame features (N, F) via sample_frame and padded ids (N, T)."""
    feats = np.stack([sample_frame(pairs[i], rng).features for i in idx])
    ids = np.asarray(pad_batch([pairs[i].token_ids for i in idx]), dtype=np.intp)
    return feats, ids


def lm_targets(ids: np.ndarray) -> np.ndarray:
    """Ids shifted left by one with a trailing PAD_ID: position t predicts
    token t + 1, and pads stay at the end as pad_batch leaves them."""
    return np.concatenate([ids[:, 1:], np.full((ids.shape[0], 1), PAD_ID, ids.dtype)], axis=1)


def forward_loss(model: Model, feats: np.ndarray, ids: np.ndarray, rng, tr):
    with tr.span("encoders.encode_frames"):
        f = encode_frames(model, feats, train=True, rng=rng)
    with tr.span("encoders.encode_utterances"):
        u = encode_utterances(model, ids, train=True, rng=rng)
    with tr.span("objectives.contrastive_loss"):
        loss, _ = contrastive_loss(f, u)
    if model.config.uses_lm_head:
        with tr.span("encoders.lm_logits"):
            logits = lm_logits(model, ids, train=True, rng=rng)
        with tr.span("objectives.lm_loss"):
            loss = joint_loss(lm_loss(logits, lm_targets(ids)), loss)
    return loss


def score_trial(model: Model, word_ids: list[int], feats: np.ndarray) -> int:
    """Index of the candidate frame closest in cosine to the word alone."""
    with no_grad():
        u = encode_utterances(model, [word_ids]).data[0]
        f = encode_frames(model, feats).data
    sims = (f @ u) / (np.linalg.norm(f, axis=1) * np.linalg.norm(u))
    return int(np.argmax(sims))


def run_train(name: str, seed: int, seconds: float, tr, work: Path,
              ts: TrainSpec | None = None) -> Outcome:
    ts = ts or TRAIN_SPECS[name]
    gates = Gates()

    def prepare_and_init(files):
        p = prepare(files, tr, ts.max_len)
        with tr.span("encoders.model_init"):
            model = Model.init(_config(ts, len(p.vocab)), np.random.default_rng((seed, 11)))
        return p, model

    world = build(ts.world, seed)
    truth = world.truth
    setup_s, files, (p, model), setup_info = _setup_rounds(
        world, work / "world", tr, gates, prepare_and_init)
    check_prepared(p, truth, gates)
    check_glfx_size(files, truth, ts.world, gates)
    train_parts = set(p.manifest.train)
    pairs = [q for q in p.pairs if q.video_id in train_parts]
    trial_inputs = _trial_inputs(world.trials, p, gates)
    del world
    prepared = {"dedup": p.dedup.as_dict(), "pairs": p.pair_report.as_dict(),
                "counts": _prepare_counts(p, truth, ts.world), "vocabulary_size": len(p.vocab)}
    # Training keeps only its pairs and the trial inputs, as a training script
    # would; records, the store and the other partitions go.
    del p

    timed_steps = max(LOSS_TAIL_STEPS + 1, round(seconds * ts.steps_per_second))
    total = ts.warmup_steps + timed_steps
    schedule = LRSchedule(peak_lr=PEAK_LR, warmup_steps=max(1, total // 10), total_steps=total)
    state = AdamWState(learning_rate=PEAK_LR)
    batch_rng = np.random.default_rng((seed, 12))
    drop_rng = np.random.default_rng((seed, 13))
    ckpt = work / "model.glck"

    losses, step_ms, errors = [], [], []
    attempted = 0
    tr.recording = False
    train_start = None
    for step in range(total):
        if step == ts.warmup_steps:
            gc.collect()  # start timing from the same collector state in every run
            tr.recording = True
            train_start = time.perf_counter()
        attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("step"):
                with tr.span("pairing.batch"):
                    idx = batch_rng.choice(len(pairs), size=ts.batch, replace=False)
                    feats, ids = make_batch(pairs, idx, batch_rng)
                model.zero_grad()
                loss = forward_loss(model, feats, ids, drop_rng, tr)
                with tr.span("tensor.backward"):
                    loss.backward()
                with tr.span("optim.adamw_step"):
                    adamw_step(model.params, state, lr_at(schedule, step))
            value = loss.item()
        except Exception as exc:  # a failed step counts; the loop goes on
            errors.append(f"step {step}: {exc!r}")
            continue
        if step >= ts.warmup_steps:
            step_ms.append(1000.0 * (time.perf_counter() - t0))
        losses.append(value)
    with tr.span("encoders.save_checkpoint"):
        save_checkpoint(model, ckpt)
    train_wall = time.perf_counter() - train_start

    gates.check("loss.finite", all(math.isfinite(v) for v in losses) and len(losses) == total,
                f"{len(losses)} of {total} steps")
    final_loss = float(np.mean(losses[-LOSS_TAIL_STEPS:])) if losses else math.nan
    gates.check("loss.decreased", losses and final_loss < losses[0],
                f"first {losses[0] if losses else None}, final {final_loss}")

    peak_mb = backward_peak_mb(model, pairs, seed, ts, tr) if tr.enabled else None

    t0 = time.perf_counter()
    with tr.span("encoders.load_checkpoint"):
        loaded = load_checkpoint(ckpt)
    correct_trials = 0
    for ids, feats, answer in trial_inputs:
        attempted += 1
        with tr.span("encoders.nograd_trial"):
            correct_trials += score_trial(loaded, ids, feats) == answer
    eval_wall = time.perf_counter() - t0
    accuracy = correct_trials / len(trial_inputs)
    check_roundtrip(model, loaded, gates)
    if ts.variant == "cvcl":
        gates.check("eval.beats_chance", accuracy >= 0.25 + WIDE_ACCURACY_MARGIN,
                    f"accuracy {accuracy} vs chance 0.25 + margin {WIDE_ACCURACY_MARGIN}")

    metrics = {
        "setup_s": (setup_s, "s"),
        "train_utts_per_s": (ts.batch * len(step_ms) / train_wall, "utt/s"),
        "step_ms_p50": (median(step_ms), "ms"),
        "eval_trials_per_s": (len(trial_inputs) / eval_wall, "trials/s"),
        "eval_accuracy": (accuracy, "fraction"),
        "final_loss": (final_loss, "nats"),
    }
    info = dict(setup_info, **prepared, variant=ts.variant, timed_steps=len(step_ms),
                step_ms=step_ms, warmup_steps=ts.warmup_steps,
                first_loss=losses[0] if losses else None,
                checkpoint_sha256=_sha256(ckpt), params=loaded.param_count(),
                trials=len(trial_inputs), train_pairs=len(pairs),
                shapes={"N": ts.batch, "T_max": ts.max_len, "D": ts.embed_dim,
                        "F": ts.world.feature_dim, "V": prepared["vocabulary_size"]},
                truth=truth)
    if peak_mb is not None:
        info["counts"]["tensor.backward.peak_mb"] = peak_mb
        info["backward_peak_method"] = ("tracemalloc peak over one extra backward on a fresh "
                                        "batch after the timed loop, outside every span")
    t = tail(step_ms)
    if t:
        info["step_ms_tail"] = {"percentile": t[0], "value": t[1], "samples": t[2]}
    return Outcome(metrics, info, gates, attempted, errors)


def backward_peak_mb(model: Model, pairs: list, seed: int, ts: TrainSpec, tr) -> float:
    """Peak traced heap growth (MB) during one backward pass.

    Runs on its own batch after training, with span recording off, so the
    tracemalloc cost inflates no span; parameters are not updated.
    """
    rng = np.random.default_rng((seed, 14))
    feats, ids = make_batch(pairs, rng.choice(len(pairs), size=ts.batch, replace=False), rng)
    recording, tr.recording = tr.recording, False
    model.zero_grad()
    loss = forward_loss(model, feats, ids, rng, tr)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        model.zero_grad()
        tr.recording = recording
    return peak / 1e6


def _trial_inputs(trials: list[dict], p: Prepared, gates: Gates) -> list:
    frames = [[p.store.resolve(vid, t) for vid, t in trial["frames"]] for trial in trials]
    resolved = all(f is not None for row in frames for f in row)
    gates.check("trials.frames_resolve", resolved)
    gates.check("trials.words_in_vocabulary", all(t["word"] in p.vocab for t in trials))
    if not resolved:
        return []
    return [([p.vocab.id_of(t["word"]), EOS_ID], np.stack([f.features for f in row]), t["answer"])
            for t, row in zip(trials, frames)]


def check_roundtrip(model: Model, loaded: Model, gates: Gates) -> None:
    """Every parameter bit-identical, and the config fields GLCK v1 stores."""
    a, b = model.params, loaded.params
    same = a.keys() == b.keys() and all(
        a[k].data.shape == b[k].data.shape and a[k].data.tobytes() == b[k].data.tobytes()
        for k in a)
    gates.check("checkpoint.params_bit_identical", same)
    fields = ("variant", "feature_dim", "embed_dim", "vocab_size", "max_len",
              "n_layers", "n_heads", "ff_mult")
    ca, cb = model.config.as_dict(), loaded.config.as_dict()
    gates.check("checkpoint.config", all(ca[f] == cb[f] for f in fields),
                {f: (ca[f], cb[f]) for f in fields})


def run(name: str, seed: int, seconds: float, tr, work: Path, spec=None) -> Outcome:
    """Run workload `name`; `spec` overrides its WorldSpec or TrainSpec."""
    if name == "prepare_ingest":
        return run_prepare_ingest(seed, seconds, tr, work, spec or PREPARE_WORLD)
    return run_train(name, seed, seconds, tr, work, spec)


def layer_metrics(tr, outcome: Outcome) -> dict[str, float]:
    """Median self time per call (ms) of each span name, plus exact counts."""
    by_name = self_ms_by_name(tr.spans)
    out = {name: median(v) for name, v in by_name.items()}
    out.update(outcome.info.get("counts", {}))
    return out
