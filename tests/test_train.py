"""The training step, the trial scorer and the ``groundlex`` command, pinned
to the benchmark's own loop in ``bench/workloads.py`` on a tiny world."""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaincinv
from scipy.stats import binomtest

import groundlex
from groundlex import cli, tensor
from groundlex.corpus import EOS_ID, MIN_FREQUENCY, PAD_ID, build_vocabulary
from groundlex.encoders import Model, ModelConfig, load_checkpoint
from groundlex.errors import DataError
from groundlex.optim import AdamWState
from groundlex.pairing import FEATURE_LIMIT, FeatureStore, load_feature_store
from groundlex.train import CANDIDATES, evaluate, step

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
VARIANTS = {"cvcl": (16, 8), "cvcl_t": (4, 8), "cvcl_t_lm": (4, 8)}  # variant -> (batch, max_len)


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
        failed = [(r["gate"], r["detail"]) for r in outcome.gates.results if not r["ok"]]
        assert (outcome.errors, failed) == ([], [])
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
    # The medians run over the steps after the first, so one step has none.
    args[args.index("--steps") + 1] = "1"
    args[args.index(str(tmp_path / "a"))] = str(tmp_path / "b")
    cli.main(args)
    one = json.loads((tmp_path / "b" / "run.json").read_text())
    assert one["minor_faults_per_step"] is None and one["step_ms_p50"] is None


def test_train_reports_its_update_workers_and_blas_park(bench_runs, tmp_path, monkeypatch):
    # AdamW splits over OPENBLAS_NUM_THREADS threads, capped at the CPU
    # affinity count, and only where it can park numpy's OpenBLAS, which the
    # process maps. Where there is no /proc, the park goes unchecked.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        with open("/proc/self/maps") as fh:
            openblas = any("openblas" in line for line in fh)
    except OSError:
        openblas = None
    args = train_args(bench_runs["cvcl"][0], tmp_path, "cvcl")
    args[args.index("--steps") + 1] = "2"
    for env, workers in ((None, cpus), ("1", 1), (str(cpus + 1), cpus)):
        if env is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
        cli.main(args)
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["update_workers"] == (workers if run["blas_parked"] else 1)
        assert run["blas_parked"] is openblas or openblas is None


def test_train_reports_its_median_step_time(bench_runs, tmp_path):
    # The median of the STEPS - 1 times between the ends of steps: at least
    # half of them are as long, and together they fit in the command's wall.
    start = time.perf_counter()
    cli.main(train_args(bench_runs["cvcl"][0], tmp_path, "cvcl"))
    wall_ms = (time.perf_counter() - start) * 1e3
    p50 = json.loads((tmp_path / "run.json").read_text())["step_ms_p50"]
    assert 0 < p50 and (STEPS // 2) * p50 <= wall_ms


# One child process trains a 1-layer cvcl_t_lm (N=32, T=12, D=32, F=768,
# V=200) and prints the minor page faults of each of its 11 steps. Under
# glibc's own thresholds each step at this shape faults ~670 pages; the
# bench's shapes fault none either way, so they would not show the fix.
FAULTS_PER_STEP = """
import json, resource
import numpy as np
from groundlex import train
from groundlex.corpus import EOS_ID
from groundlex.encoders import Model, ModelConfig
from groundlex.optim import AdamWState

cfg = ModelConfig("cvcl_t_lm", feature_dim=768, embed_dim=32, vocab_size=200, max_len=12,
                  n_layers=1)
rng = np.random.default_rng(0)
model, state = Model.init(cfg, rng), AdamWState()
ids = rng.integers(EOS_ID + 1, cfg.vocab_size, size=(32, cfg.max_len))
ids[:, -1] = EOS_ID
feats = rng.normal(size=(32, cfg.feature_dim))
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
    # it the next step faults in nothing. Model.init fixes the thresholds.
    src = str(Path(groundlex.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], check=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True).stdout
    faults = json.loads(out)
    assert statistics.median(faults[3:]) == 0, faults


# A child process imports the command, builds a model if asked, then writes
# and frees a 24 MiB array and prints the resident MB that the free left. The
# first free of a block that size is the one to read: under glibc's defaults
# it raises both thresholds past the block.
KEPT_AFTER_FREE = """
import os, sys
import numpy as np
import groundlex.cli
from groundlex.encoders import Model, ModelConfig

def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

if sys.argv[1] == "init":
    Model.init(ModelConfig("cvcl", feature_dim=8, embed_dim=8, vocab_size=10, max_len=4),
               np.random.default_rng(0))
before = resident_mb()
np.ones(3 << 20)  # 24 MiB, freed at once
print(resident_mb() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/statm"),
                    reason="the allocator thresholds are glibc's mallopt; statm is Linux's")
def test_importing_groundlex_keeps_glibcs_thresholds_and_model_init_fixes_them():
    # Imported, the library leaves glibc's defaults: a freed 24 MiB block goes
    # back to the OS. Model.init fixes the thresholds, and the block stays.
    src = str(Path(groundlex.__file__).resolve().parents[1])
    kept = {step: float(subprocess.run([sys.executable, "-c", KEPT_AFTER_FREE, step],
                                       check=True, text=True, capture_output=True,
                                       env=dict(os.environ, PYTHONPATH=src)).stdout)
            for step in ("import", "init")}
    assert kept["import"] < 2 and kept["init"] > 20, kept


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_on_a_loaded_stores_rows_equals_training_on_the_float64_source(tmp_path,
                                                                               variant):
    # A store holds the float32 cast that encode_frames makes of any
    # features, so steps with dropout on give byte-equal parameters whether
    # they read the loaded store's rows or the float64 values it was built from.
    cfg = ModelConfig(variant, feature_dim=24, embed_dim=16, vocab_size=30, max_len=8,
                      n_heads=2)
    r = np.random.default_rng(SEED)
    source = r.normal(size=(40, cfg.feature_dim))
    store = FeatureStore(cfg.feature_dim)
    store.add_video("v", np.arange(40) / 3.75, source)
    store.save(tmp_path / "feat.glfx")
    rows = load_feature_store(tmp_path / "feat.glfx")._features["v"]
    batches = []
    for _ in range(3):
        lengths = r.integers(2, cfg.max_len + 1, size=6)
        ids = np.where(np.arange(cfg.max_len) < lengths[:, None] - 1,
                       r.integers(EOS_ID + 1, cfg.vocab_size, size=(6, cfg.max_len)), PAD_ID)
        ids[np.arange(6), lengths - 1] = EOS_ID
        batches.append((r.integers(40, size=6), ids))
    params = []
    for read in (lambda idx: source[idx], lambda idx: np.stack([rows[i] for i in idx])):
        assert read([0]).dtype == (np.float64 if not params else np.float32)
        rng = np.random.default_rng(SEED)
        model, state = Model.init(cfg, rng), AdamWState()
        for idx, ids in batches:
            step(model, state, read(idx), ids, 1e-2, rng)
        params.append({k: p.data.tobytes() for k, p in model.params.items()})
    assert params[0] == params[1]


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


def exact_interval(k, n):
    """SciPy's Clopper-Pearson bounds: Beta(k, n - k + 1) at 0.025 and
    Beta(k + 1, n - k) at 0.975."""
    return [betaincinv(k, n - k + 1, 0.025) if k else 0.0,
            betaincinv(k + 1, n - k, 0.975) if k < n else 1.0]


# A child process in which any import of SciPy raises runs `groundlex train`
# and then `groundlex eval`, whose result it prints.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from groundlex import cli
cli.main(json.loads(sys.argv[1]))
cli.main(json.loads(sys.argv[2]))
"""


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_and_eval_run_without_scipy(bench_runs, tmp_path, variant):
    work, _, world = bench_runs[variant]
    trials = write_trials(tmp_path / "trials.jsonl", world.trials)
    run = tmp_path / "run"
    evaluate_args = ["eval", str(run), str(work / "world" / "features.glfx"), str(trials)]
    src = str(Path(groundlex.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY,
                          json.dumps(train_args(work, run, variant)), json.dumps(evaluate_args)],
                         check=True, text=True, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert (run / "model.glck").read_bytes() == (work / "model.glck").read_bytes()
    result = json.loads(out)
    want = exact_interval(result["correct"], result["trials"])
    assert np.abs(np.subtract(result["ci95"], want)).max() <= 1e-12


def test_evaluate_gives_the_exact_binomial_interval():
    # The first k of n trials take the model's pick as their answer and the
    # rest another frame, so evaluate counts k hits; its ci95 must be SciPy's.
    vocab = build_vocabulary(["ball dog"] * (MIN_FREQUENCY + 1))
    model = Model.init(ModelConfig(feature_dim=3, embed_dim=4, vocab_size=len(vocab)),
                       np.random.default_rng(0))
    frames = np.random.default_rng(1).normal(size=(1000, CANDIDATES, 3))
    picks = evaluate(model, vocab, [("ball", f, 0) for f in frames])["picks"]
    for n in (1, 2, 7, 40, 120, 400, 1000):
        for k in sorted({0, 1, n // 4, n // 2, n - 1, n}):
            trials = [("ball", frames[i], picks[i] if i < k else (picks[i] + 1) % CANDIDATES)
                      for i in range(n)]
            result = evaluate(model, vocab, trials)
            assert result["correct"] == k
            assert np.abs(np.subtract(result["ci95"], exact_interval(k, n))).max() <= 1e-12, (k, n)


def bad_word(t):
    t["word"] = "zzzqx"


def bad_frame(t):
    t["frames"][1] = ["v999", 1.0]


def bad_answer(t):
    t["answer"] = 4


@pytest.mark.parametrize("mutate,message", [
    (bad_word, "{path}: trial 2: word 'zzzqx' is not in the vocabulary"),
    (bad_frame, "{path}:2: bad trial (frame ['v999', 1.0] does not resolve)"),
    (bad_answer, "{path}: trial 2: answer must be an integer in 0-3, got 4"),
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


@pytest.mark.parametrize("frame", [["v", False], ["v", True], ["v", "0.5"], ["v", None],
                                   [0, 0.5], [["v"], 0.5]])
def test_eval_refuses_a_frame_time_or_video_id_of_another_type(tmp_path, frame):
    # False used to resolve to the frame at t = 0.
    store = FeatureStore(2)
    store.add_video("v", np.array([0.0, 0.5]), np.zeros((2, 2)))
    good = {"word": "ball", "frames": [["v", 0], ["v", 0.5], ["v", 0], ["v", 0.5]], "answer": 1}
    bad = json.loads(json.dumps(good))
    bad["frames"][2] = frame
    path = write_trials(tmp_path / "trials.jsonl", [good, bad])
    message = f"{path}:2: bad trial (frame {frame!r} is not [video_id, seconds])"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        cli._read_trials(str(path), store)
    assert len(cli._read_trials(str(write_trials(path, [good])), store)) == 1


ANSWER = "answer must be an integer in 0-3, got "
SHAPE = f"candidates must be (4, 3) reals in ±{FEATURE_LIMIT}"
WORD = "word must be a string, got "
ONES = np.ones((4, 3))


def with_one(value):
    frames = np.zeros((4, 3))
    frames[2, 1] = value
    return frames


def scorer():
    """A vocabulary of "ball" and "dog", a cvcl model of 3 features over it, and a good trial."""
    vocab = build_vocabulary(["ball dog"] * (MIN_FREQUENCY + 1))
    model = Model.init(ModelConfig(feature_dim=3, embed_dim=4, vocab_size=len(vocab)),
                       np.random.default_rng(0))
    return vocab, model, ("ball", np.random.default_rng(1).normal(size=(4, 3)), 2)


@pytest.mark.parametrize("word,answer,candidates,message", [
    ("dog", True, ONES, ANSWER + "True"),
    ("dog", False, ONES, ANSWER + "False"),
    ("dog", 7, ONES, ANSWER + "7"),
    ("dog", -1, ONES, ANSWER + "-1"),
    ("dog", 1.0, ONES, ANSWER + "1.0"),
    ("dog", None, ONES, ANSWER + "None"),
    ("dog", 1, np.ones((3, 3)), SHAPE),
    ("dog", 1, np.ones((4, 2)), SHAPE),
    ("dog", 1, np.ones((1, 4, 3)), SHAPE),
    ("dog", 1, ONES.tolist(), SHAPE),
    (["dog"], 1, ONES, WORD + "['dog']"),
    (7, 1, ONES, WORD + "7"),
    (b"dog", 1, ONES, WORD + "b'dog'"),
    ("dog", 1, np.full((4, 3), "0.5"), SHAPE),
    ("dog", 1, ONES.astype(complex), SHAPE),
    ("dog", 1, ONES.astype(object), SHAPE),
    ("dog", 1, with_one(np.nan), SHAPE),
    ("dog", 1, with_one(np.inf), SHAPE),
    ("dog", 1, with_one(-np.inf).astype(np.float32), SHAPE),
    ("dog", 1, with_one(1e39), SHAPE),
    ("dog", 1, with_one(-1e39), SHAPE),
    ("dog", 1, with_one(np.nextafter(FEATURE_LIMIT, np.inf)), SHAPE),
    ("dog", 1, with_one(np.nextafter(-FEATURE_LIMIT, -np.inf)), SHAPE),
    ("dog", 1, with_one(FEATURE_LIMIT + 1).astype(np.int64), SHAPE),
    ("dog", 1, with_one(-2**63).astype(np.int64), SHAPE),
    ("dog", 1, ONES * (np.arange(4) != 1)[:, None], "candidate 1 embeds to the zero vector"),
], ids=["true", "false", "seven", "negative", "float", "none", "three-frames",
        "narrow", "three-d", "list", "unhashable-word", "int-word", "bytes-word", "strings",
        "complex", "objects", "nan", "inf", "float32-minus-inf", "beyond-float32",
        "below-float32", "just-beyond-the-limit", "just-below-the-limit",
        "int-beyond-the-limit", "int64-min", "zero-candidate"])
def test_evaluate_names_the_trial_of_a_malformed_answer_or_candidates(word, answer, candidates,
                                                                      message):
    # An answer of True used to score as 1, and an answer of 7 as a silent
    # miss; an unhashable word raised TypeError, string candidates ValueError,
    # and a NaN candidate a NumericsError with no trial in it; a float64
    # candidate beyond float32's range overflowed in encode_frames' cast. An
    # all-zero candidate, which a fresh model embeds to the zero vector, had
    # a NaN cosine and was picked.
    vocab, model, good = scorer()
    with pytest.raises(DataError, match="^" + re.escape(f"trial 2: {message}") + "$"):
        evaluate(model, vocab, [good, (word, candidates, answer)])
    assert evaluate(model, vocab, [good])["trials"] == 1


def test_evaluate_takes_a_candidate_at_the_float32_max():
    # The bound is FEATURE_LIMIT, the stores' own, and holds at its edge. The
    # model ignores feature 1, so that value meets no arithmetic.
    vocab, model, good = scorer()
    model.params["vis.proj_w"].data[:, 1] = 0.0
    for value in (FEATURE_LIMIT, -FEATURE_LIMIT):
        frames = good[1].copy()
        frames[2, 1] = value
        assert evaluate(model, vocab, [good, ("dog", frames, 1)])["trials"] == 2


def test_evaluate_names_the_first_trial_of_a_word_that_embeds_to_zero():
    # A cvcl word is the mean of its and <eos>'s token and position rows.
    vocab, model, good = scorer()
    for table, rows in (("lang.tok_emb", [vocab.id_of("dog"), EOS_ID]), ("lang.pos_emb", [0, 1])):
        model.params[table].data[rows] = 0.0
    trials = [good, ("dog", good[1], 0), ("dog", good[1], 1)]
    with pytest.raises(DataError, match=r"^trial 2: word 'dog' embeds to the zero vector$"):
        evaluate(model, vocab, trials)


def test_evaluate_refuses_candidates_that_would_overflow_the_vision_layer_norm():
    # N(0, 1) candidates scaled by 1e18 overflow the layer norm's float32
    # variance at F = 768 and D = 512, and used to embed as vis.ln_b: every
    # cosine NaN and candidate 0 picked.
    vocab = build_vocabulary(["ball dog"] * (MIN_FREQUENCY + 1))
    model = Model.init(ModelConfig(vocab_size=len(vocab)), np.random.default_rng(0))
    frames = np.random.default_rng(1).normal(size=(CANDIDATES, 768))
    assert len(evaluate(model, vocab, [("ball", frames, 0)])["picks"]) == 1
    message = f"trial 2: candidates must be (4, 768) reals in ±{FEATURE_LIMIT}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
            evaluate(model, vocab, [("ball", frames, 0), ("dog", frames * 1e18, 0)])


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


def test_train_refuses_a_feature_store_with_no_features(bench_runs, tmp_path):
    # GLFX holds F = 0 and such a store loads, but no model takes it.
    work, _, world = bench_runs["cvcl"]
    empty = FeatureStore(0)
    for vid, ts in world.store._timestamps.items():
        empty.add_video(vid, ts, np.zeros((len(ts), 0)))
    features = tmp_path / "empty.glfx"
    empty.save(features)
    args = train_args(work, tmp_path / "run", "cvcl")
    args[2] = str(features)
    message = f"{features}: the frames have no features (F = 0)"
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
