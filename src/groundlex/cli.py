"""The ``groundlex`` command. ``train`` prepares records, features and a
manifest as the library's stages do, trains on the manifest's train videos
(linear warm-up over a tenth of the steps, cosine decay from ``PEAK_LR``;
parameters, batches and dropout each draw from a generator of the seed) and
writes ``model.glck``, ``vocab.json`` and ``run.json`` into RUN_DIR (with the
peak RSS and the median minor faults per step after the first, via ``resource``).
``eval`` scores TRIALS, JSON Lines of ``{"word": w, "frames": [[video_id,
t_s], x4], "answer": i}`` (trial n is line n), and prints the result of
``train.evaluate`` as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    MIN_FREQUENCY, SplitManifest, Vocabulary, build_vocabulary, dedup_filter, load_records,
    pad_batch, split_stats,
)
from .encoders import VARIANTS, Model, ModelConfig, load_checkpoint, save_checkpoint
from .errors import DataError
from .optim import PEAK_LR, AdamWState, LRSchedule, lr_at
from .pairing import FeatureStore, build_pairs, load_feature_store, sample_frame
from .train import CANDIDATES, evaluate, step

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def _train(args: argparse.Namespace) -> None:
    records = load_records(args.records)
    kept, dedup = dedup_filter(records)
    if not kept:
        raise DataError(f"{args.records}: no record has text left after cleaning "
                        f"({len(records)} read)")
    vocab = build_vocabulary([r.text for r in kept])
    if not vocab.token_to_id:
        raise DataError(f"{args.records}: no word occurs more than {MIN_FREQUENCY} times")
    store = load_feature_store(args.features)
    pairs, pair_report = build_pairs(kept, store, vocab, args.max_len)
    manifest = SplitManifest.load(args.manifest)
    stats = split_stats(manifest, kept)
    train_videos = set(manifest.train)
    pairs = [p for p in pairs if p.video_id in train_videos]
    if len(pairs) < args.batch:
        raise DataError(f"{args.manifest}: the train videos give {len(pairs)} pairs, "
                        f"fewer than a batch of {args.batch}")
    config = ModelConfig(variant=args.variant, feature_dim=store.feature_dim,
                         vocab_size=len(vocab), max_len=args.max_len)
    model = Model.init(config, np.random.default_rng((args.seed, 11)))
    batch_rng = np.random.default_rng((args.seed, 12))
    drop_rng = np.random.default_rng((args.seed, 13))
    schedule = LRSchedule(PEAK_LR, max(1, args.steps // 10), args.steps)
    state = AdamWState()
    losses, faults = [], []  # faults: the process's count after each step
    for i in range(args.steps):
        rows = [pairs[j] for j in batch_rng.choice(len(pairs), size=args.batch, replace=False)]
        feats = np.stack([sample_frame(p, batch_rng).features for p in rows])
        ids = np.asarray(pad_batch([p.token_ids for p in rows]), dtype=np.intp)
        losses.append(step(model, state, feats, ids, lr_at(schedule, i), drop_rng))
        if resource:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    out = Path(args.run_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.glck")
    vocab.save(out / "vocab.json")
    run = {"model": config.as_dict(), "seed": args.seed, "batch": args.batch,
           "steps": args.steps, "train_pairs": len(pairs), "dedup": dedup.as_dict(),
           "pairs": pair_report.as_dict(), "split_stats": stats,
           "first_loss": losses[0], "final_loss": losses[-1]}
    if resource:  # ru_maxrss counts KiB on Linux and bytes on macOS
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run["peak_rss_mb"] = maxrss / (2**20 if sys.platform == "darwin" else 2**10)
        run["minor_faults_per_step"] = float(np.median(np.diff(faults))) if args.steps > 1 else None
    (out / "run.json").write_text(json.dumps(run, indent=1, sort_keys=True), encoding="utf-8")


def _read_trials(path: str, store: FeatureStore) -> list[tuple[str, np.ndarray, int]]:
    """Trials for ``evaluate``. A malformed line, an answer outside 0-3 or a
    frame the store does not resolve raises DataError naming file and line."""
    trials = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
                word, frames, answer = obj["word"], obj["frames"], obj["answer"]
                if type(word) is not str or len(frames) != CANDIDATES:
                    raise DataError(f"want a word and {CANDIDATES} [video_id, t] frames")
                if type(answer) is not int or not 0 <= answer < CANDIDATES:
                    raise DataError(f"answer must be an integer in 0-3, got {answer!r}")
                found = [store.resolve(vid, t) for vid, t in frames]
                if None in found:
                    raise DataError(f"frame {frames[found.index(None)]} does not resolve")
            except (KeyError, ValueError, TypeError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: bad trial ({exc})") from exc
            trials.append((word, np.stack([f.features for f in found]), answer))
    return trials


def _eval(args: argparse.Namespace) -> None:
    run = Path(args.run_dir)
    vocab = Vocabulary.load(run / "vocab.json")
    model = load_checkpoint(run / "model.glck")
    if model.config.vocab_size != len(vocab):
        raise DataError(f"{run}: model.glck has {model.config.vocab_size} tokens, vocab.json "
                        f"{len(vocab)}")
    store = load_feature_store(args.features)
    if store.feature_dim != model.config.feature_dim:
        raise DataError(f"{args.features}: frames have {store.feature_dim} features, "
                        f"{run / 'model.glck'} takes {model.config.feature_dim}")
    trials = _read_trials(args.trials, store)
    try:
        result = evaluate(model, vocab, trials)
    except DataError as exc:
        raise DataError(f"{args.trials}: {exc}") from exc
    print(json.dumps(result, sort_keys=True))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="groundlex", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    t = commands.add_parser("train", help="train on the manifest's train videos")
    for name in ("records", "features", "manifest", "run_dir"):
        t.add_argument(name)
    t.add_argument("--variant", choices=VARIANTS, default="cvcl")
    for flag, default in (("--batch", 128), ("--max-len", 48), ("--steps", 100), ("--seed", 0)):
        t.add_argument(flag, type=int, default=default)
    t.set_defaults(run=_train)
    e = commands.add_parser("eval", help="score 4-way trials with a trained run")
    for name in ("run_dir", "features", "trials"):
        e.add_argument(name)
    e.set_defaults(run=_eval)
    args = parser.parse_args(argv)
    if args.run is _train and (min(args.batch, args.max_len, args.steps) < 1 or args.seed < 0):
        parser.error("--batch, --max-len and --steps must be at least 1, --seed at least 0")
    args.run(args)


if __name__ == "__main__":
    main()
