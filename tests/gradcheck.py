"""Test helpers: a scalar sum op and the finite-difference gradient check
that the op tests compare every backward with."""

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
    """
    tensors = list(tensors)
    for t in tensors:
        t.zero_grad()
    loss = f(tensors)
    if loss.size != 1:
        raise ShapeError("grad_check", loss.shape)
    loss.backward()
    ad_grads = [t.grad.copy() for t in tensors]

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
