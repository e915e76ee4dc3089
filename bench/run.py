"""groundlex benchmark: prepare -> train -> 4-way eval on a seeded synthetic world.

Run one workload:

    python3 bench/run.py --workload train_cvcl_wide --seed 1 --seconds 25 --trace 0

or all three, each untraced and then traced in its own fresh process, with
the tracing overhead:

    python3 bench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Untraced runs report the end-to-end
metrics; traced runs (`--trace 1`) report the per-layer metrics. A failed
correctness gate makes the command exit with status 1. Working files go to
`.bench_work/` at the repository root and the generated world is removed at
the end of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("prepare_ingest", "train_cvcl_wide", "train_cvcl_t_lm")

# End-to-end metric -> the workload metric it reports, for prepare_ingest and
# for the train_* workloads.
END_TO_END = {
    "setup_s": ("setup_s", "setup_s"),
    "utts_per_s": ("prepare_utts_per_s", "train_utts_per_s"),
    "op_ms_p50": ("round_ms_p50", "step_ms_p50"),
}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(), "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import NullTracer, Tracer

    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tr = Tracer() if trace else NullTracer()
    try:
        outcome = workloads.run(workload, seed, seconds, tr, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rss = workloads.peak_rss_mb()
    gates = outcome.gates
    attempted = outcome.attempted + len(gates.results)
    failed = len(outcome.errors) + gates.failed
    correct = failed == 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = 0 if workload == "prepare_ingest" else 1
    if trace:
        values = workloads.layer_metrics(tr, outcome)
        op_span = "round" if kind == 0 else "step"
        values["trace.op_ms_p50"] = median(
            [1000.0 * (s.end - s.start) for s in tr.spans if s.name == op_span])
        declared_metrics = declared["per_layer"]
        tr.write(results / f"{workload}-seed{seed}.spans.jsonl")
    else:
        values = {name: outcome.metrics[keys[kind]][0] for name, keys in END_TO_END.items()}
        values["peak_rss_mb"] = rss
        declared_metrics = declared["end_to_end"]
    metrics = {}
    for m in declared_metrics:
        name = m["name"]
        if trace and name not in values:
            # "<span>.ms" is the span's median self time per call; a layer
            # the workload never calls reads 0.
            value = values.get(name[:-len(".ms")] if name.endswith(".ms") else name, 0.0)
        else:
            value = values[name]
        metrics[name] = {"value": value, "unit": m["unit"]}

    report = {"workload": workload, "seconds": seconds, "trace": trace,
              "environment": environment(seed),
              "workload_metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in outcome.metrics.items()},
              "peak_rss_mb": rss, "op_error_rate": failed / attempted,
              "gates": gates.results, "errors": outcome.errors, "info": outcome.info,
              "metrics": metrics}
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))

    print(f"# {workload} seed={seed} trace={int(trace)} nproc={NPROC} "
          f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')} "
          f"shapes={json.dumps(outcome.info['shapes'], sort_keys=True)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload:16s} {name:24s} {value:14.6g} {unit}")
    print(f"{workload:16s} {'peak_rss_mb':24s} {rss:14.6g} MB")
    print(f"{workload:16s} {'op_error_rate':24s} {failed / attempted:14.6g} fraction")
    for key in ("step_ms_tail", "round_ms_tail"):
        if key in outcome.info:
            t = outcome.info[key]
            print(f"{workload:16s} {key:24s} {t['value']:14.6g} ms "
                  f"(p{t['percentile']:g} of {t['samples']} samples)")
    if "checkpoint_sha256" in outcome.info:
        print(f"{workload:16s} {'checkpoint_sha256':24s} {outcome.info['checkpoint_sha256']}")
    for g in gates.results:
        if not g["ok"]:
            print(f"GATE FAILED {g['gate']}: {g['detail']}", file=sys.stderr)
    for e in outcome.errors:
        print(f"OPERATION FAILED {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    status, summary = 0, {}
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            runs[trace] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if runs[0] and runs[1]:
            plain = runs[0]["metrics"]["op_ms_p50"]["value"]
            traced = runs[1]["metrics"]["trace.op_ms_p50"]["value"]
            overhead = traced / plain - 1.0
            print(f"{workload:16s} {'tracing_overhead':24s} {100 * overhead:14.4g} % "
                  f"(traced op p50 {traced:.4g} ms vs untraced {plain:.4g} ms)")
            runs["tracing_overhead"] = overhead
        summary[workload] = runs
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "groundlex").is_dir():
        print(f"error: no groundlex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # Cap BLAS threads at the core count before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.exit(main())
