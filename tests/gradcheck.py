"""Test helpers: a scalar sum op, the finite-difference gradient check that
the op tests compare every backward with, and the directional check that
reaches the shapes the models train at."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from groundlex.errors import NumericsError, ShapeError
from groundlex.tensor import Tensor, _accum, _make, no_grad


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The sum over `axis` (all axes when None), as one tape node."""
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(data), "sum", (a,), bw)


def grad_check(f: Callable[[Sequence[Tensor]], Tensor], tensors: Iterable[Tensor],
               epsilon: float = 1e-5) -> float:
    """Max relative error between backward() gradients and central differences.

    Relative error per coordinate: |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    A tensor that the backward does not reach has a zero gradient.
    """
    tensors = list(tensors)
    for t in tensors:
        t.grad = None
    loss = f(tensors)
    if loss.size != 1:
        raise ShapeError("grad_check", loss.shape)
    loss.backward()
    ad_grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    with no_grad():
        for t, g_ad in zip(tensors, ad_grads):
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                up = f(tensors).item()
                flat[i] = orig - epsilon
                down = f(tensors).item()
                flat[i] = orig
                g_fd = (up - down) / (2.0 * epsilon)
                g = g_ad.reshape(-1)[i]
                if not (math.isfinite(g_fd) and math.isfinite(g)):
                    raise NumericsError("grad_check")
                err = abs(g - g_fd) / max(1.0, abs(g), abs(g_fd))
                if err > worst:
                    worst = err
    return worst


def directional_check(f: Callable[[], Tensor], groups: dict[str, Sequence[Tensor]],
                      rng: np.random.Generator, epsilon: float = 1e-4) -> dict[str, float]:
    """Per group of tensors, the relative error between the derivative of f()
    along one random unit direction v over the group's values, from one
    backward (<grad L, v>), and the central difference (L(θ + εv) − L(θ − εv))
    / 2ε: |d_ad − d_fd| / max(|d_ad|, |d_fd|). Two forwards per group at any
    size, as JAX's check_grads and PyTorch's fast gradcheck project. The
    two forwards run under ``no_grad``, as ``grad_check``'s do."""
    for ts in groups.values():
        for t in ts:
            t.grad = None
    loss = f()
    if loss.size != 1:
        raise ShapeError("directional_check", loss.shape)
    loss.backward()
    errors = {}
    for name, ts in groups.items():
        vs = [rng.standard_normal(t.shape) for t in ts]
        norm = math.sqrt(sum(float(np.vdot(v, v)) for v in vs))
        d_ad = sum(float(np.vdot(t.grad, v)) for t, v in zip(ts, vs)
                   if t.grad is not None) / norm
        saved = [t.data.copy() for t in ts]
        values = []
        with no_grad():
            for step in (epsilon / norm, -epsilon / norm):
                for t, s, v in zip(ts, saved, vs):
                    np.add(s, step * v, out=t.data)
                values.append(f().item())
        for t, s in zip(ts, saved):
            t.data[...] = s
        d_fd = (values[0] - values[1]) / (2.0 * epsilon)
        if not (math.isfinite(d_ad) and math.isfinite(d_fd)):
            raise NumericsError("directional_check", name)
        errors[name] = abs(d_ad - d_fd) / max(abs(d_ad), abs(d_fd))
    return errors
