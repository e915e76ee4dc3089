"""Tests for the benchmark's own helpers.

Run with: python -m pytest bench
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groundlex.corpus import (
    build_vocabulary, collapse_repeated_phrases, dedup_filter, load_records,
)
from groundlex.pairing import build_pairs, load_feature_store

import run
import workloads
from spans import Span, Tracer, self_ms_by_name, self_times, tail
import synth_world
from synth_world import WorldSpec, build, has_adjacent_repeat, write

TINY_WORLD = WorldSpec(n_objects=6, n_filler=40, n_videos=6, frames_per_video=160,
                       utterances_per_video=30, min_words=3, max_words=6, n_trials=40,
                       feature_dim=24, noise=0.5, scene_s=(3.0, 6.0))


def _digest(files) -> list[str]:
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in (files.records, files.features, files.manifest)]


# --- world generator ---------------------------------------------------------

def test_same_seed_gives_byte_identical_files(tmp_path):
    wa, wb = build(TINY_WORLD, 7), build(TINY_WORLD, 7)
    a, b = write(wa, tmp_path / "a"), write(wb, tmp_path / "b")
    c = write(build(TINY_WORLD, 8), tmp_path / "c")
    assert _digest(a) == _digest(b)
    assert (wa.trials, wa.truth) == (wb.trials, wb.truth)
    assert _digest(a)[0] != _digest(c)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_defects_match_library_reports(tmp_path, seed):
    world = build(TINY_WORLD, seed)
    files, truth = write(world, tmp_path), world.truth
    records = load_records(files.records)
    kept, dedup = dedup_filter(records)
    store = load_feature_store(files.features)
    _, report = build_pairs(kept, store, build_vocabulary([r.text for r in kept]))
    assert len(records) == truth["records"]
    n = TINY_WORLD.n_videos
    assert dedup.adjacent_duplicates_dropped == truth["adjacent_duplicates"] \
        == n * synth_world.DUP_PER_VIDEO
    assert dedup.phrase_collapsed_utterances == truth["repeated_phrases"] \
        == n * synth_world.REPEAT_PER_VIDEO
    assert dedup.empty_after_clean_dropped == truth["punctuation_only"] \
        == n * synth_world.PUNCT_PER_VIDEO
    assert report.dropped_unknown_video == truth["unknown_video"] \
        == synth_world.UNKNOWN_VIDEOS * synth_world.UNKNOWN_PER_VIDEO
    assert report.dropped_no_frames == truth["no_frames"] == n * synth_world.NOFRAME_PER_VIDEO
    assert report.paired == truth["paired"]
    assert len(store) == truth["frames"] == n * TINY_WORLD.frames_per_video


def test_repeated_phrase_records_collapse_to_unique_natural_text(tmp_path):
    files = write(build(TINY_WORLD, 3), tmp_path)
    texts = [r.text for r in load_records(files.records)]
    collapsed = [collapse_repeated_phrases(t) for t in texts if t.islower() and " " in t]
    changed = [t for t in texts if collapse_repeated_phrases(t) != t]
    assert len(changed) == TINY_WORLD.n_videos * synth_world.REPEAT_PER_VIDEO
    assert all(not has_adjacent_repeat(collapse_repeated_phrases(t).split()) for t in changed)
    assert len(set(collapsed)) == len(collapsed)


def test_has_adjacent_repeat():
    assert has_adjacent_repeat("a b b".split())
    assert has_adjacent_repeat("x a b a b y".split())
    assert not has_adjacent_repeat("a b a c a".split())


# --- tail percentile rule ------------------------------------------------------

def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 1000)
    assert tail([float(i) for i in range(1, 10001)]) == (99.9, 9990.0, 10000)
    assert tail([float(i) for i in range(1, 41)]) == (75.0, 30.0, 40)
    assert tail([float(i) for i in range(1, 21)]) == (50.0, 10.0, 20)


def test_tail_is_undefined_below_twenty_samples():
    assert tail([float(i) for i in range(19)]) is None
    assert tail([]) is None


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail(samples) == tail(sorted(samples)) == (75.0, 5.0, 40)


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),   # overlaps a: the union 1..6 counts once
        Span(3, "a.child", 2.0, 3.0, 1),
        Span(4, "c", 8.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert self_ms_by_name(spans)["root"] == [pytest.approx(4000.0)]


def test_self_time_clips_children_to_parent():
    spans = [Span(0, "p", 0.0, 2.0, None), Span(1, "c", 1.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_pauses():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        tr.recording = False
        with tr.span("hidden"):
            pass
        tr.recording = True
    names = {s.name: s for s in tr.spans}
    assert set(names) == {"outer", "inner"}
    assert names["inner"].parent == names["outer"].span_id
    assert names["outer"].parent is None


# --- tiny-shape smoke runs ---------------------------------------------------

def _tiny_train(variant: str, batch: int, max_len: int) -> workloads.TrainSpec:
    world = replace(TINY_WORLD, max_words=min(TINY_WORLD.max_words, max_len - 1))
    return workloads.TrainSpec(variant=variant, batch=batch, max_len=max_len, world=world,
                               warmup_steps=1, steps_per_second=100.0,
                               n_layers=1, n_heads=2, embed_dim=16)


def _assert_clean(outcome):
    failed = [g for g in outcome.gates.results if not g["ok"]]
    assert failed == []
    assert outcome.errors == []
    assert all(math.isfinite(v) for v, _ in outcome.metrics.values())


def test_smoke_prepare_ingest(tmp_path):
    out = workloads.run("prepare_ingest", 1, 0.2, Tracer(), tmp_path, TINY_WORLD)
    _assert_clean(out)
    assert out.metrics["prepare_utts_per_s"][0] > 0


@pytest.mark.parametrize("name,variant,batch,max_len", [
    ("train_cvcl_wide", "cvcl", 16, 8),
    ("train_cvcl_t_lm", "cvcl_t_lm", 4, 8),
])
def test_smoke_train(tmp_path, name, variant, batch, max_len):
    ts = _tiny_train(variant, batch, max_len)
    tr = Tracer()
    out = workloads.run(name, 1, 1, tr, tmp_path, ts)
    _assert_clean(out)
    assert out.info["timed_steps"] == 100
    layers = workloads.layer_metrics(tr, out)
    assert layers["tensor.backward"] > 0 and layers["tensor.backward.peak_mb"] > 0
    assert ("encoders.lm_logits" in layers) == (variant == "cvcl_t_lm")
    again = workloads.run(name, 1, 1, Tracer(), tmp_path / "again", ts)
    assert again.info["checkpoint_sha256"] == out.info["checkpoint_sha256"]
    assert again.metrics["final_loss"] == out.metrics["final_loss"]


def test_lm_targets_shift_left_with_trailing_pad():
    ids = np.array([[5, 6, 2, 0], [7, 2, 0, 0]])
    assert workloads.lm_targets(ids).tolist() == [[6, 2, 0, 0], [2, 0, 0, 0]]


def test_run_refuses_without_library_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "prepare_ingest", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_gate_makes_run_exit_nonzero(monkeypatch, capsys, tmp_path):
    def failing(name, seed, seconds, tr, work, spec=None):
        gates = workloads.Gates()
        gates.check("always.fails", False)
        metrics = {"setup_s": (1.0, "s"), "train_utts_per_s": (2.0, "utt/s"),
                   "step_ms_p50": (3.0, "ms")}
        return workloads.Outcome(metrics, {"shapes": {}}, gates, attempted=1)

    monkeypatch.setattr(workloads, "run", failing)
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.run_one("train_cvcl_wide", 1, 1, False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["metrics"]["utts_per_s"]["value"] == 2.0
