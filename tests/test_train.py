"""The training step, the trial scorer and the ``groundlex`` command, pinned
to the benchmark's own loop in ``bench/workloads.py`` on a tiny world."""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

import groundlex
from groundlex import cli, tensor
from groundlex.corpus import EOS_ID, MIN_FREQUENCY, PAD_ID
from groundlex.encoders import Model, ModelConfig, load_checkpoint
from groundlex.errors import DataError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402
from synth_world import WorldSpec, build  # noqa: E402

SEED = 3
TINY_WORLD = WorldSpec(n_objects=6, n_filler=40, n_videos=6, frames_per_video=160,
                       utterances_per_video=30, min_words=3, max_words=7, n_trials=40,
                       feature_dim=24, noise=0.5, scene_s=(3.0, 6.0))
# The bench runs its warm-up steps and then at least 11 timed ones.
STEPS = 1 + 11
VARIANTS = {"cvcl": (16, 8), "cvcl_t_lm": (4, 8)}  # variant -> (batch, max_len)


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Per variant: the bench's run directory (world files, model.glck), its
    outcome and the world, from one `run_train` at SEED. The spec keeps the
    library's default model sizes, as the bench workloads do."""
    runs = {}
    for variant, (batch, max_len) in VARIANTS.items():
        spec = workloads.TrainSpec(variant=variant, batch=batch, max_len=max_len,
                                   world=TINY_WORLD, warmup_steps=1, steps_per_second=1.0)
        work = tmp_path_factory.mktemp(variant)
        outcome = workloads.run_train(variant, SEED, 0, NullTracer(), work, spec)
        assert outcome.errors == [] and outcome.gates.failed == 0
        runs[variant] = work, outcome, build(TINY_WORLD, SEED)
    return runs


def train_args(work, run_dir, variant, seed=SEED):
    batch, max_len = VARIANTS[variant]
    world = work / "world"
    return ["train", str(world / "records.jsonl"), str(world / "features.glfx"),
            str(world / "manifest.json"), str(run_dir), "--variant", variant,
            "--batch", str(batch), "--max-len", str(max_len), "--steps", str(STEPS),
            "--seed", str(seed)]


def write_trials(path, trials):
    path.write_text("".join(json.dumps(t) + "\n" for t in trials), encoding="utf-8")
    return path


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_writes_the_bench_checkpoint_bit_for_bit(bench_runs, tmp_path, variant):
    work, outcome, _ = bench_runs[variant]
    cli.main(train_args(work, tmp_path, variant))
    assert (tmp_path / "model.glck").read_bytes() == (work / "model.glck").read_bytes()
    run = json.loads((tmp_path / "run.json").read_text())
    info = outcome.info
    assert run["first_loss"] == info["first_loss"]
    assert (run["dedup"], run["pairs"], run["train_pairs"]) == (
        info["dedup"], info["pairs"], info["train_pairs"])
    assert (run["seed"], run["steps"], run["model"]["variant"]) == (SEED, STEPS, variant)
    assert sum(p["utterances"] for p in run["split_stats"]["partitions"].values()) \
        == info["pairs"]["paired"] + info["pairs"]["dropped_unknown_video"] \
        + info["pairs"]["dropped_no_frames"]


@pytest.mark.skipif(cli.resource is None, reason="no resource module")
def test_train_reports_its_peak_rss_and_minor_faults_per_step(bench_runs, tmp_path):
    # ru_maxrss counts KiB on Linux and bytes on macOS; either way a Python
    # process with numpy loaded reads tens to hundreds of MB.
    args = train_args(bench_runs["cvcl"][0], tmp_path / "a", "cvcl")
    cli.main(args)
    run = json.loads((tmp_path / "a" / "run.json").read_text())
    scale = 2**20 if sys.platform == "darwin" else 2**10
    maxrss = cli.resource.getrusage(cli.resource.RUSAGE_SELF).ru_maxrss / scale
    assert 10 < run["peak_rss_mb"] <= maxrss < 10_000
    assert run["minor_faults_per_step"] >= 0
    # The median runs over the steps after the first, so one step has none.
    args[args.index("--steps") + 1] = "1"
    args[args.index(str(tmp_path / "a"))] = str(tmp_path / "b")
    cli.main(args)
    assert json.loads((tmp_path / "b" / "run.json").read_text())["minor_faults_per_step"] is None


# One child process trains cvcl_t_lm at the bench's shapes (N=8, T=24, D=512,
# F=768, V=2003) and prints the minor page faults of each of its 11 steps.
FAULTS_PER_STEP = """
import json, resource
import numpy as np
from groundlex import train
from groundlex.corpus import EOS_ID
from groundlex.encoders import Model, ModelConfig
from groundlex.optim import AdamWState

cfg = ModelConfig("cvcl_t_lm", feature_dim=768, embed_dim=512, vocab_size=2003, max_len=24)
rng = np.random.default_rng(0)
model, state = Model.init(cfg, rng), AdamWState()
ids = rng.integers(EOS_ID + 1, cfg.vocab_size, size=(8, cfg.max_len))
ids[:, -1] = EOS_ID
feats = rng.normal(size=(8, cfg.feature_dim))
faults = []
for _ in range(11):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train.step(model, state, feats, ids, 1e-3, rng)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's mallopt")
def test_a_training_step_faults_in_no_pages_after_warm_up():
    # Memory a step frees stays in the heap, so once three steps have grown
    # it the next step faults in nothing.
    src = str(Path(groundlex.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], check=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True).stdout
    faults = json.loads(out)
    assert statistics.median(faults[3:]) == 0, faults


def test_the_bench_step_runs_the_decoder_once(monkeypatch):
    # Each decoder pass makes one embed node: the bench's LM logits read the
    # pass its utterance encoding ran, as the library's step does.
    made = []
    make = tensor._make
    monkeypatch.setattr(tensor, "_make", lambda data, op, parents, backward: (
        made.append(op) or make(data, op, parents, backward)))
    cfg = ModelConfig("cvcl_t_lm", feature_dim=6, embed_dim=8, vocab_size=11, max_len=8,
                      n_heads=2)
    rng = np.random.default_rng(SEED)
    ids = np.array([[5, 6, 7, EOS_ID], [8, EOS_ID, PAD_ID, PAD_ID]])
    workloads.forward_loss(Model.init(cfg, rng), rng.normal(size=(2, 6)), ids, rng, NullTracer())
    assert made.count("embed") == 1 and made.count("attention") == cfg.n_layers


def test_a_seed_fixes_the_checkpoint(bench_runs, tmp_path):
    work = bench_runs["cvcl"][0]
    for name, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
        cli.main(train_args(work, tmp_path / name, "cvcl", seed))
    a, b, c = ((tmp_path / name / "model.glck").read_bytes() for name in "abc")
    assert a == b != c


def test_train_refuses_a_batch_larger_than_the_train_pairs(bench_runs, tmp_path):
    args = train_args(bench_runs["cvcl"][0], tmp_path, "cvcl")
    args[args.index("--batch") + 1] = "100000"
    with pytest.raises(DataError, match="fewer than a batch of 100000$"):
        cli.main(args)
    assert not tmp_path.joinpath("model.glck").exists()


@pytest.mark.parametrize("variant", VARIANTS)
def test_eval_picks_what_the_bench_scorer_picks(bench_runs, tmp_path, capsys, variant):
    work, outcome, world = bench_runs[variant]
    cli.main(train_args(work, tmp_path / "run", variant))
    files = work / "world"
    trials = write_trials(tmp_path / "trials.jsonl", world.trials)
    cli.main(["eval", str(tmp_path / "run"), str(files / "features.glfx"), str(trials)])
    result = json.loads(capsys.readouterr().out)

    prepared = workloads.prepare(workloads.WorldFiles(files / "records.jsonl",
                                                      files / "features.glfx",
                                                      files / "manifest.json"),
                                 NullTracer(), VARIANTS[variant][1])
    gates = workloads.Gates()
    inputs = workloads._trial_inputs(world.trials, prepared, gates)
    assert gates.failed == 0
    model = load_checkpoint(work / "model.glck")
    assert result["picks"] == [workloads.score_trial(model, ids, feats)
                               for ids, feats, _ in inputs]
    n, k = len(world.trials), result["correct"]
    assert (result["trials"], result["accuracy"]) == (n, outcome.metrics["eval_accuracy"][0])
    ci = binomtest(k, n).proportion_ci(0.95)
    assert result["ci95"] == pytest.approx([ci.low, ci.high], rel=1e-9)
    per_word = result["per_word"]
    assert sum(w["trials"] for w in per_word.values()) == n
    assert sum(w["trials"] * w["accuracy"] for w in per_word.values()) == pytest.approx(k)


def bad_word(t):
    t["word"] = "zzzqx"


def bad_frame(t):
    t["frames"][1] = ["v999", 1.0]


def bad_answer(t):
    t["answer"] = 4


@pytest.mark.parametrize("mutate,message", [
    (bad_word, "{path}: trial 2: word 'zzzqx' is not in the vocabulary"),
    (bad_frame, "{path}:2: bad trial (frame ['v999', 1.0] does not resolve)"),
    (bad_answer, "{path}:2: bad trial (answer must be an integer in 0-3, got 4)"),
    (None, "{path}:2: bad trial ("),
])
def test_eval_names_the_file_and_trial_of_bad_input(bench_runs, tmp_path, mutate, message):
    work, _, world = bench_runs["cvcl"]
    run = tmp_path / "run"
    cli.main(train_args(work, run, "cvcl"))
    trials = [json.loads(json.dumps(t)) for t in world.trials[:3]]
    if mutate is not None:
        mutate(trials[1])
    path = write_trials(tmp_path / "trials.jsonl", trials)
    if mutate is None:  # the second line cut short
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + lines[1][:len(lines[1]) // 2] + "\n" + lines[2])
    with pytest.raises(DataError, match="^" + re.escape(message.format(path=path))):
        cli.main(["eval", str(run), str(work / "world" / "features.glfx"), str(path)])


def test_eval_refuses_a_vocabulary_that_is_not_the_models(bench_runs, tmp_path):
    work, _, world = bench_runs["cvcl"]
    cli.main(train_args(work, tmp_path, "cvcl"))
    tokens = json.loads((tmp_path / "vocab.json").read_text())["tokens"]
    (tmp_path / "vocab.json").write_text(json.dumps({"tokens": tokens[:-1]}))
    trials = write_trials(tmp_path / "trials.jsonl", world.trials)
    with pytest.raises(DataError, match=f"model.glck has {len(tokens)} tokens, "
                                        f"vocab.json {len(tokens) - 1}$"):
        cli.main(["eval", str(tmp_path), str(work / "world" / "features.glfx"), str(trials)])


def test_eval_refuses_features_of_another_width(bench_runs, tmp_path):
    work, _, world = bench_runs["cvcl"]
    cli.main(train_args(work, tmp_path, "cvcl"))
    features = tmp_path / "narrow.glfx"
    build(replace(TINY_WORLD, feature_dim=TINY_WORLD.feature_dim - 1), SEED).store.save(features)
    trials = write_trials(tmp_path / "trials.jsonl", world.trials)
    message = (f"{features}: frames have {TINY_WORLD.feature_dim - 1} features, "
               f"{tmp_path / 'model.glck'} takes {TINY_WORLD.feature_dim}")
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        cli.main(["eval", str(tmp_path), str(features), str(trials)])


@pytest.mark.parametrize("text,read", [
    ("", 0),
    ("\n  \r\n\n", 0),
    (json.dumps({"video_id": "v000", "start_s": 1.0, "end_s": 2.0, "speaker": "mother",
                 "text": "?!"}) + "\n", 1),
], ids=["empty", "blank-lines", "punctuation-only"])
def test_train_refuses_records_with_no_text_naming_the_file(bench_runs, tmp_path, text, read):
    args = train_args(bench_runs["cvcl"][0], tmp_path / "run", "cvcl")
    records = tmp_path / "records.jsonl"
    records.write_text(text)
    args[1] = str(records)
    message = f"{records}: no record has text left after cleaning ({read} read)"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        cli.main(args)
    assert not (tmp_path / "run").exists()


def test_train_refuses_records_with_no_word_above_the_frequency_floor(bench_runs, tmp_path):
    # "the" occurs MIN_FREQUENCY times and every other word once, so the
    # vocabulary would hold the specials alone.
    args = train_args(bench_runs["cvcl"][0], tmp_path / "run", "cvcl")
    records = tmp_path / "records.jsonl"
    records.write_text("".join(json.dumps({"video_id": "v000", "start_s": 1.0 + 2 * i,
                                           "end_s": 2.0 + 2 * i, "speaker": "mother",
                                           "text": f"the {word}"}) + "\n"
                               for i, word in enumerate(["ball", "dog"])))
    args[1] = str(records)
    message = f"{records}: no word occurs more than {MIN_FREQUENCY} times"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        cli.main(args)
    assert not (tmp_path / "run").exists()
