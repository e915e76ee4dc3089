"""AdamW with decoupled weight decay, and the linear-warmup + cosine schedule.

The AdamW hyperparameters other than the learning rate are constants:
``WEIGHT_DECAY`` = 0.1, ``BETA1`` = 0.9, ``BETA2`` = 0.999 and ``EPSILON``
= 1e-8. Training runs schedule the learning rate up to ``PEAK_LR`` = 1e-3.

``adamw_step`` splits its update over threads only where it can first park the
spinning workers of numpy's OpenBLAS (``blas_park``); no other thread may be in
a BLAS call meanwhile (the library makes none). Results are bit-identical at
any thread count. The module reads nothing under ``/proc``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ShapeError
from .tensor import Tensor

# Bytes per operand per block: 65,536 float32 or 32,768 float64 values. The
# six operands of a block (1.5 MiB) fit in L2. Each block has a fixed Python
# cost, so in either dtype a block is as large as that allows.
_BLOCK_BYTES = 1 << 18

WEIGHT_DECAY = 0.1
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
PEAK_LR = 1e-3

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_scratch = threading.local()  # dtype -> this thread's (2, block) scratch, kept across calls


@functools.cache
def blas_park():
    """numpy's OpenBLAS ``blas_thread_shutdown_``, or None where numpy's BLAS
    has none. RTLD_NOLOAD opens numpy's loaded linalg module, never a new
    library; a symbol lookup on it also searches the libraries it links."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    return getattr(lib, "blas_thread_shutdown_", None)


def update_workers() -> int:
    """The threads ``adamw_step`` splits over: 1 where ``blas_park()`` is None, else
    ``OPENBLAS_NUM_THREADS`` when set, else the CPU affinity count, and never more."""
    value = os.environ.get("OPENBLAS_NUM_THREADS", "") if blas_park() is not None else "1"
    return max(1, min(int(value), _CPUS)) if value.isdigit() else _CPUS


@functools.cache
def _pool(pid: int) -> ThreadPoolExecutor:  # by pid: a forked child starts its own
    return ThreadPoolExecutor(_CPUS - 1, "groundlex-adamw")


@dataclass
class AdamWState:
    """Per-parameter moment buffers and the step count. Nothing reads
    ``learning_rate``: ``bench/workloads.py`` still sets it, and ROADMAP
    item 1b deletes it."""

    learning_rate: float = 1e-4
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float) -> AdamWState:
    """One AdamW update in place, reading gradients from ``param.grad``.

    Weight decay is decoupled: parameters shrink by (1 - lr * WEIGHT_DECAY)
    independently of the moment-based step. With lr == 0 the parameters keep
    their values, and the moments and step_count advance as at any lr.
    Before anything changes, an lr that is a bool, not a real number,
    negative or non-finite raises ValueError; a missing or misshapen gradient
    ShapeError, and a NaN or Inf in one NumericsError, naming the parameter.

    Once the whole update has run, every ``param.grad`` is None: read a
    gradient (its norm, say) between the backward and this call. A call that
    raises changes nothing, gradients included.

    Each parameter, its gradient and its two moments are walked as flat views
    in blocks of ``_BLOCK_BYTES`` bytes, so a block's whole update chain stays
    in cache. Parameters and moments are updated in place (``Tensor`` data is
    C-contiguous, so the flat views alias it); the moments are allocated on a
    parameter's first update and reused after that. The only other memory a
    call allocates is a block-sized mask, and two scratch arrays per dtype
    that each thread keeps.
    Moments and scratch take each parameter's own dtype, so a float32
    parameter updates in float32 and a float64 one in float64. The
    elementwise operations and their order match the unblocked formula, so
    results are bit-identical to it.

    The checks and moments run on the caller. The blocks are then dealt in
    turn to ``update_workers()`` threads, the caller and a pool started by the
    first split, bit-identically at any count. Every split first parks the
    workers of numpy's OpenBLAS, which spin after a GEMM, with ``blas_park()``
    (its fork handler's call; the next GEMM restarts them); where there is no
    park there is no split. No other thread may be in a BLAS call meanwhile.
    """
    if isinstance(lr, bool) or not isinstance(lr, numbers.Real):
        raise ValueError(f"lr must be a real number, got {lr!r}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    finite = np.empty(_BLOCK_BYTES // 4, dtype=bool)
    for name, p in params.items():
        if p.grad is None:
            raise ShapeError(f"adamw_step: parameter {name!r} has no gradient")
        if p.grad.shape != p.data.shape:
            raise ShapeError(f"adamw_step: parameter {name!r}", p.shape, p.grad.shape)
        gf = p.grad.reshape(-1)
        for lo in range(0, gf.size, finite.size):
            ok = np.isfinite(gf[lo:lo + finite.size], out=finite[:gf.size - lo])
            if not ok.all():
                raise NumericsError("adamw_step", f"parameter {name!r} has a non-finite "
                                    f"gradient at flat index {lo + int(np.argmin(ok))}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    decay = 1.0 - lr * WEIGHT_DECAY
    blocks = []
    for name, p in params.items():
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(p.data)
            state.second_moment[name] = np.zeros_like(p.data)
        flat = (p.data, p.grad, state.first_moment[name], state.second_moment[name])
        n = _BLOCK_BYTES // p.data.dtype.itemsize
        blocks += [[f.reshape(-1)[lo:lo + n] for f in flat] for lo in range(0, p.data.size, n)]

    def update(share: list) -> None:  # [parameter, gradient, moment 1, moment 2] blocks
        scratch = _scratch.__dict__
        for pb, gb, mb, vb in share:
            if pb.dtype not in scratch:
                scratch[pb.dtype] = np.empty((2, _BLOCK_BYTES // pb.itemsize), pb.dtype)
            t1, t2 = scratch[pb.dtype][:, :pb.size]
            mb *= BETA1
            np.multiply(gb, 1.0 - BETA1, out=t1)
            mb += t1
            vb *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=t1)
            t1 *= gb
            vb += t1
            pb *= decay
            np.divide(vb, bc2, out=t1)
            np.sqrt(t1, out=t1)
            t1 += EPSILON
            np.divide(mb, bc1, out=t2)
            t2 *= lr
            t2 /= t1
            pb -= t2

    workers = max(1, min(update_workers(), len(blocks)))
    if workers > 1:
        blas_park()()
    futures = [_pool(os.getpid()).submit(update, blocks[k::workers]) for k in range(1, workers)]
    update(blocks[::workers])
    for f in futures:
        f.result()
    for p in params.values():
        p.grad = None
    return state


@dataclass(frozen=True)
class LRSchedule:
    """Linear warmup to ``peak_lr``, then cosine annealing to zero."""

    peak_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if isinstance(self.peak_lr, bool) or not isinstance(self.peak_lr, numbers.Real):
            raise ValueError(f"peak_lr must be a real number, got {self.peak_lr!r}")
        if not (math.isfinite(self.peak_lr) and self.peak_lr >= 0.0):
            raise ValueError(f"peak_lr must be finite and >= 0, got {self.peak_lr}")
        for name in ("warmup_steps", "total_steps"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be positive")
        if self.total_steps < self.warmup_steps:
            raise ValueError("total_steps must be >= warmup_steps")


def lr_at(schedule: LRSchedule, step: int) -> float:
    """Learning rate at `step`; steps past total_steps clamp to the final value
    (runs can stop early or overshoot bookkeeping by a step)."""
    if type(step) is not int or step < 0:
        raise ValueError(f"step must be an integer >= 0, got {step!r}")
    if step < schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    if span == 0:
        return schedule.peak_lr
    progress = min(step - schedule.warmup_steps, span) / span
    return schedule.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
