"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Micrograd-style: every operation that touches a tracked tensor records its
parents and a backward function on the output. The function takes the
output's gradient as its argument and never refers to the output, so the
tape holds no reference cycles: dropping the loss frees its graph at once,
whether or not ``backward()`` ran. ``backward()`` on a scalar walks the graph
in reverse topological order and consumes it, like PyTorch's default
``retain_graph=False``. The graph is rebuilt on every forward pass. A leaf's
gradient lives from the backward that makes it to ``Model.zero_grad()`` or
the ``adamw_step`` that uses it, which drop it.

No higher-order gradients, no views: every op materialises its output.
``matmul(a, w, bias)`` is ``a @ w.T + bias``, ``w`` stored (out, in) as in
``torch.nn.functional.linear``; ``attention`` is always causal and splits heads
in its own passes.
``embed`` (token gather, position add, dropout) is the decoder's input as one
node, and ``embedding_mean`` is the whole ``cvcl`` utterance encoder (the same
gather, add and dropout, then the masked mean) as one node; both run on one
(N, T, D) buffer built by ``_embed_rows``.
No op broadcasts a gradient: ``add`` takes tensors of one shape, ``mul`` a
tensor of the left one's shape or a constant that broadcasts to it. Outputs
and gradients keep the tensor operands' dtype; a constant number or array
takes the left tensor's, so a float32 graph never promotes to float64.
Batches are 2-D: ``embed`` and ``embedding_mean`` take ids (N, T), and a
single row is not promoted to one. ``l2_normalize`` raises NumericsError on
an exact zero row, which has no direction.
Every dropout mask, ``dropout``'s, ``embed``'s and ``embedding_mean``'s, is
drawn by ``_dropout_mask`` from raw 16-bit lanes of the generator's output,
not from float64 uniforms, so float32 and float64 runs drop the same values.
Eval passes keep_prob 1, at which dropout is the identity and draws nothing;
``layer_norm``'s variance floor is ``LAYER_NORM_EPS``.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf

from .errors import NumericsError, ShapeError

# Graph recording switch, flipped by ``no_grad``. Every op output is also
# checked for NaN/Inf; that costs one pass, and desk-scale runs are small.
_grad_enabled = True

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# The variance floor of ``layer_norm``.
LAYER_NORM_EPS = 1e-5

# glibc's mmap and trim thresholds rise with the largest mapped block freed so
# far; below a step's heap growth, each step returns it to the OS and faults it
# back. Fixed once per process (mmap at glibc's 32 MiB ceiling, trim at 1 GiB),
# a step's memory stays in the heap. Without mallopt, nothing changes.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float32 or float64 array (other data becomes float64) and ``grad``.

    ``grad`` starts as None. The first gradient ``backward()`` passes the
    tensor becomes a C-contiguous copy of its own, and later ones add into
    it; ``zero_grad()`` zeroes a bare leaf's buffer, making it if need be.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in _FLOAT_DTYPES:
            data = data.astype(np.float64)
        self.data = np.ascontiguousarray(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item", self.shape)
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; accumulates into leaf ``grad``s.

        Consumes the tape: every node it runs loses its ``_parents`` and
        ``_backward``, and every node below this one loses its ``grad``, so
        each intermediate gradient is freed once its parents have it. A
        second call on the same tensor reaches no leaf and changes no
        ``grad``.
        """
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents, node.grad = None, (), None
        # An op may overwrite the gradient it is passed, so the root keeps a new seed.
        self.grad = np.ones_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; a first ``g`` is copied, as ops overwrite theirs."""
    if t.grad is not None:
        t.grad += g
    elif g.shape != t.shape:
        raise ShapeError("gradient", t.shape, g.shape)
    else:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")


def _make(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    if not np.isfinite(data).all():
        raise NumericsError(op)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError("add", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _make(a.data + b.data, "add", (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    """a * b: b is a tensor of a's shape, or a constant that broadcasts to it
    (a number, an array in a's dtype, or a tensor that needs no gradient)."""
    tracked = isinstance(b, Tensor) and b.requires_grad
    c = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=a.data.dtype)
    if c.shape != a.shape and (tracked or c.ndim > a.ndim or any(
            k not in (1, n) for k, n in zip(reversed(c.shape), reversed(a.shape)))):
        raise ShapeError("mul", a.shape, c.shape)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * c)
        if tracked:
            _accum(b, g * a.data)

    return _make(a.data * c, "mul", (a, b) if tracked else (a,), bw)


def matmul(a: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ w.T + bias`` as in ``torch.nn.functional.linear``: `a` (..., K), a
    weight `w` (M, K) stored (out, in), an optional `bias` (M,) added in place.

    One GEMM over ``a2 = a.reshape(-1, K)``. With ``g2 = grad.reshape(-1, M)``
    the input gradient is ``g2 @ w``, the weight gradient ``g2.T @ a2``, and
    the bias gradient the output gradient summed over axis 0 until it is (M,).
    """
    parents = (a, w) if bias is None else (a, w, bias)
    if (a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[1]
            or (bias is not None and bias.shape != (w.shape[0],))):
        raise ShapeError("matmul", *(t.shape for t in parents))
    a2 = a.data.reshape(-1, a.shape[-1])
    data = (a2 @ w.data.T).reshape(a.shape[:-1] + (w.shape[0],))
    if bias is not None:
        data += bias.data

    def bw(g):
        g2 = g.reshape(-1, w.shape[0])
        if a.requires_grad:
            _accum(a, (g2 @ w.data).reshape(a.shape))
        if w.requires_grad:
            _accum(w, g2.T @ a2)
        if bias is not None and bias.requires_grad:
            while g.ndim > 1:
                g = g.sum(axis=0)
            _accum(bias, g)

    return _make(data, "matmul", parents, bw)


# ---------------------------------------------------------------------------
# lookup / gather ops
# ---------------------------------------------------------------------------

def _scatter_rows(table: Tensor, ids: np.ndarray, g: np.ndarray) -> None:
    """Accumulate the rows of ``g`` (ids.shape + (D,)) into the table rows
    ``ids`` name, as a one-hot sparse (V, M) times (M, D) product, M = ids.size."""
    m = ids.size
    onehot = csr_matrix((np.ones(m, g.dtype), (ids.reshape(-1), np.arange(m))),
                        shape=(table.shape[0], m))
    _accum(table, onehot @ g.reshape(m, table.shape[1]))


def _embed_rows(op: str, table: Tensor, pos: Tensor, ids: np.ndarray, keep_prob: float,
                rng: np.random.Generator | None):
    """The (N, T, D) buffer dropout(table[ids] + pos[:T]) and its backward.

    ids (N, T), table (V, D) and pos (>= T, D). The buffer holds the gather,
    the position rows added by broadcasting and the inverted-dropout mask m
    that ``dropout`` would draw (none at keep_prob 1). The backward takes a
    gradient g (N, T, D) and overwrites it with g * m; each table row then
    sums it over its occurrences in input order, as a one-hot sparse product,
    and pos[t] sums it over the batch.
    """
    ids = np.asarray(ids)
    if (ids.ndim != 2 or table.ndim != 2 or pos.ndim != 2
            or pos.shape[1] != table.shape[1] or ids.shape[1] > pos.shape[0]
            or (ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]))):
        raise ShapeError(op, table.shape, pos.shape, ids.shape)
    t = ids.shape[1]
    buf = table.data[ids]
    buf += pos.data[:t]
    mask = _dropout_mask(buf.shape, keep_prob, rng, buf.dtype)
    if mask is not None:
        buf *= mask

    def scatter(g):
        if mask is not None:
            np.multiply(g, mask, out=g)
        if table.requires_grad:
            _scatter_rows(table, ids, g)
        if pos.requires_grad:
            gp = np.zeros_like(pos.data)
            gp[:t] = g.sum(axis=0)
            _accum(pos, gp)

    return buf, scatter


def embed(table: Tensor, pos: Tensor, ids: np.ndarray, keep_prob: float = 1.0,
          rng: np.random.Generator | None = None) -> Tensor:
    """dropout(table[ids] + pos[:T]) as one node: ids (N, T) -> (N, T, D).

    The decoder's input. The mask multiplies the gradient in place: the
    tape passes each op a buffer that it drops after the op's backward.
    """
    buf, scatter = _embed_rows("embed", table, pos, ids, keep_prob, rng)
    return _make(buf, "embed", (table, pos), scatter)


def embedding_mean(table: Tensor, pos: Tensor, ids: np.ndarray, valid: np.ndarray,
                   keep_prob: float = 1.0, rng: np.random.Generator | None = None) -> Tensor:
    """Mean over the valid positions of dropout(table[ids] + pos[:T]).

    ids and boolean ``valid`` (N, T), table (V, D) and pos (>= T, D) -> (N, D).
    ``embed``'s buffer also holds the pad zeros; it is summed over T and
    scaled by 1/c, c the valid positions of each row. The gradient at (n, t)
    is ``(g[n] / c[n]) * valid[n, t] * m[n, t]``, with m the dropout mask,
    and reaches the table and pos as ``embed``'s does.
    """
    ids = np.asarray(ids)
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != ids.shape:
        raise ShapeError("embedding_mean", table.shape, pos.shape, ids.shape, valid.shape)
    buf, scatter = _embed_rows("embedding_mean", table, pos, ids, keep_prob, rng)
    counts = valid.sum(axis=1, keepdims=True)
    if not counts.all():
        raise NumericsError("embedding_mean", "row with no valid position")
    kept = valid[:, :, None].astype(buf.dtype)  # a float mask multiplies faster than bool
    buf *= kept
    inv = 1.0 / counts.astype(buf.dtype)
    data = buf.sum(axis=1) * inv

    def bw(g):
        # The tape runs this once, so the forward buffer becomes the gradient.
        np.multiply((g * inv)[:, None, :], kept, out=buf)
        scatter(buf)

    return _make(data, "embedding_mean", (table, pos), bw)


def take_per_row(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one position per batch row: a (N,T,D), idx (N,) -> (N,D)."""
    idx = np.asarray(idx)
    n = a.shape[0]
    rows = np.arange(n)
    data = a.data[rows, idx]

    def bw(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[rows, idx] = g
            _accum(a, buf)

    return _make(data, "take_per_row", (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities and normalisation
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    data = a.data * cdf

    def bw(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
            _accum(a, g * (cdf + a.data * pdf))

    return _make(data, "gelu", (a,), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Causal multi-head scaled dot-product attention over q, k, v (N, T, D).

    Query i sees keys 0..i, and later keys get exactly zero weight. Each
    query sees its own key, so every row's max is finite and no row is empty.
    The products run on contiguous (N, H, T, dh) q, v and (N, H, dh, T) k
    arrays; the backward reuses the saved probabilities.
    """
    if (q.ndim != 3 or k.shape != q.shape or v.shape != q.shape
            or heads < 1 or q.shape[2] % heads):
        raise ShapeError("attention", q.shape, k.shape, v.shape, (heads,))
    n, t, d = q.shape
    dh = d // heads
    mask = np.tril(np.ones((t, t), dtype=bool))

    def split(x, axes=(0, 2, 1, 3)):  # (N, T, D) -> (N, H, T, dh)
        return np.ascontiguousarray(x.reshape(n, t, heads, dh).transpose(axes))

    def merge(x, axes=(0, 2, 1, 3)):  # (N, H, T, dh) -> (N, T, D)
        return x.transpose(axes).reshape(n, t, d)

    qh, kt, vh = split(q.data), split(k.data, (0, 2, 3, 1)), split(v.data)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)
    x = (qh @ kt) * scale
    x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        gc = split(g)
        gp = gc @ vh.swapaxes(-1, -2)
        gx = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            _accum(q, merge(gx @ kt.swapaxes(-1, -2)))
        if k.requires_grad:
            _accum(k, merge(qh.swapaxes(-1, -2) @ gx, (0, 3, 1, 2)))
        if v.requires_grad:
            _accum(v, merge(p.swapaxes(-1, -2) @ gc))

    return _make(merge(p @ vh), "attention", (q, k, v), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray, valid: np.ndarray | None = None,
                  axis: int = -1) -> Tensor:
    """Mean of -log softmax(logits)[target] along ``axis``, in nats.

    targets (logits' shape without ``axis``) are integer classes in [0, C),
    C = logits.shape[axis]. ``valid`` (boolean, shaped like targets) keeps the
    rows that count; every row counts when it is None. The mean runs over the
    n kept rows. With p = softmax(logits) the gradient is ``(p - onehot(target))
    * valid * g / n``, computed in place in the exponentials of a C-order copy
    with ``axis`` last: none when it is last already, Sᵀ at axis 0 of a matrix S.
    """
    targets = np.asarray(targets, dtype=np.intp)
    keep = np.ones(targets.shape, bool) if valid is None else np.asarray(valid, bool)
    if not -logits.ndim <= axis < logits.ndim:
        raise ShapeError(f"cross_entropy: axis {axis} is out of range for {logits.shape}")
    x = np.ascontiguousarray(np.moveaxis(logits.data, axis, -1))
    moved = x.shape
    if targets.shape != moved[:-1] or keep.shape != targets.shape:
        raise ShapeError("cross_entropy", logits.shape, targets.shape, keep.shape)
    classes = moved[-1]
    t, keep = targets.reshape(-1), keep.reshape(-1)
    if t.size and (t.min() < 0 or t.max() >= classes):
        raise ShapeError("cross_entropy", logits.shape, targets.shape)
    n = int(keep.sum())
    if n == 0:
        raise NumericsError("cross_entropy", "no row to average over")
    rows = np.arange(t.size)
    x = x.reshape(-1, classes)
    e = x - x.max(axis=-1, keepdims=True)
    picked = e[rows, t]
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    picked -= np.log(s[:, 0])
    picked *= keep
    data = np.asarray(picked.sum() * (-1.0 / n), dtype=x.dtype)

    def bw(g):
        if logits.requires_grad:
            # The tape runs this once, so the exponentials become the gradient.
            np.divide(e, s, out=e)
            e[rows, t] -= 1.0
            np.multiply(e, (keep * (g / n))[:, None], out=e)
            _accum(logits, np.moveaxis(e.reshape(moved), -1, axis))

    return _make(data, "cross_entropy", (logits,), bw)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise the last axis (variance floor ``LAYER_NORM_EPS``), then apply
    the affine (gamma, beta)."""
    if gamma.shape != (a.shape[-1],) or beta.shape != (a.shape[-1],):
        raise ShapeError("layer_norm", a.shape, gamma.shape, beta.shape)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (a.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).reshape(-1, a.shape[-1]).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, a.shape[-1]).sum(axis=0))
        if a.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(a, inv * (gx - m1 - xhat * m2))

    return _make(data, "layer_norm", (a, gamma, beta), bw)


def l2_normalize(a: Tensor) -> Tensor:
    """Scale to unit L2 norm along the last axis. An exact zero vector has
    no direction and raises NumericsError."""
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    if not norm.all():
        raise NumericsError("l2_normalize", "zero vector")
    y = a.data / norm

    def bw(g):
        if a.requires_grad:
            _accum(a, (g - y * (g * y).sum(axis=-1, keepdims=True)) / norm)

    return _make(y, "l2_normalize", (a,), bw)


def _dropout_mask(shape: tuple[int, ...], keep_prob: float, rng: np.random.Generator | None,
                  dtype) -> np.ndarray | None:
    """The inverted-dropout mask: 1/keep_prob where a value is kept, else 0.
    None when nothing is dropped (keep_prob 1).

    Each of the n values gets one 16-bit lane of the raw generator output,
    ``random_raw(ceil(n/4))`` viewed as uint16, and is kept where its lane is
    below K = round(keep_prob * 65536). The keep probability is therefore
    K/65536, within 2**-17 of keep_prob, and E[mask] = K / (65536 * keep_prob).
    The draw does not depend on dtype, so float32 and float64 runs drop alike.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return None
    if rng is None:
        raise ValueError("dropout needs an explicit RNG at train time")
    k = round(keep_prob * 65536)
    if k == 0:
        raise ValueError(f"dropout keep_prob {keep_prob} keeps no 16-bit lane")
    n = math.prod(shape)
    lanes = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return np.divide(lanes.reshape(shape) < k, keep_prob, dtype=dtype)


def dropout(a: Tensor, keep_prob: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: kept values scale by 1/keep_prob. At keep_prob 1, as
    at evaluation, it returns `a` itself and needs no RNG."""
    mask = _dropout_mask(a.shape, keep_prob, rng, a.data.dtype)
    return a if mask is None else mul(a, mask)
