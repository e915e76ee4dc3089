"""Dual-encoder architectures over a shared embedding space.

Three variants share one vision adapter (linear projection + layer norm +
dropout over frozen frame features) and differ in the language side:

  cvcl       one ``embedding_mean``: token + learned absolute position
             embeddings, dropout (train only), then the mean over non-pad
             positions
  cvcl_t     one ``embed`` (the same embeddings and dropout) into a 2-layer
             causal transformer decoder, utterance = hidden at <eos>
  cvcl_t_lm  same decoder plus a tied-weight next-word head

At train time every dropout keeps 1 - ``ModelConfig.dropout`` of its values;
at eval it keeps all of them and is the identity.

Every batch is 2-D, frame features (N, F) and integer token ids (N, T) with
T <= ``max_len``; a single row is a batch of one, and a bare row raises.
A decoder row is tokens, <eos>, then only pads, so under the causal rule no
query at or before <eos> sees a pad and the decoder needs no pad mask.

A ``cvcl_t_lm`` training step runs the decoder once, by a one-way handoff. A
train-mode ``encode_utterances`` on ``cvcl_t_lm`` leaves its pass on the
model, and every ``lm_logits`` call clears it. A train-mode ``lm_logits``
reuses that pass, drawing nothing from `rng`, on equal ids and the same `rng`
object if the pass was made on a tape exactly when grad is on now, and a taped
pass only while its tape is live (``backward()`` has not consumed it nor its
loss been dropped); otherwise it runs its own. So ``train.loss`` is one
function with or without a tape. The hidden states sum both heads' gradients,
and a parameter edited in place between the calls is not seen by the second,
as for ``backward()``.

All parameters live in a flat name -> Tensor dict so the optimizer and the
checkpoint format stay trivial. Parameters are float32, and every
activation, gradient and optimizer moment keeps the parameters' dtype.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import struct
import weakref
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor
from .binio import bytes_left, read_exact, read_utf8, replacing, unpack
from .corpus import EOS_ID, PAD_ID
from .errors import DataError, ShapeError
from .tensor import (
    Tensor, add, attention, dropout, embed, embedding_mean, gelu, layer_norm, matmul,
    take_per_row,
)

VARIANTS = ("cvcl", "cvcl_t", "cvcl_t_lm")

GLCK_MAGIC = b"GLCK"
GLCK_VERSION = 5
PARAM_DTYPE = np.dtype(np.float32)


@dataclass
class ModelConfig:
    """Variant and sizes, checked when built; ``vocab_size`` >= 4: <pad>, <unk>, <eos>, a word."""

    variant: str = "cvcl"
    feature_dim: int = 768
    embed_dim: int = 512
    vocab_size: int = 0
    max_len: int = 48
    n_layers: int = 2
    n_heads: int = 8
    ff_mult: int = 4
    dropout: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        for name, low in (("feature_dim", 1), ("embed_dim", 1), ("max_len", 1), ("n_heads", 1),
                          ("ff_mult", 1), ("n_layers", 0), ("vocab_size", 4)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not isinstance(self.dropout, (int, float)) or isinstance(self.dropout, bool):
            raise ValueError(f"dropout must be a real number, got {self.dropout!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.uses_transformer and self.embed_dim % self.n_heads:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by "
                             f"{self.n_heads} heads")

    @property
    def uses_transformer(self) -> bool:
        return self.variant in ("cvcl_t", "cvcl_t_lm")

    @property
    def uses_lm_head(self) -> bool:
        return self.variant == "cvcl_t_lm"

    def as_dict(self) -> dict:
        return asdict(self)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable parameter, in init order; weights are (out, in)."""
    d = cfg.embed_dim
    shapes = {"vis.proj_w": (d, cfg.feature_dim), "vis.proj_b": (d,),
              "vis.ln_g": (d,), "vis.ln_b": (d,),
              "lang.tok_emb": (cfg.vocab_size, d), "lang.pos_emb": (cfg.max_len, d)}
    if cfg.uses_transformer:
        ff = cfg.ff_mult * d
        for i in range(cfg.n_layers):
            pre = f"lang.layer{i}."
            shapes[pre + "ln1_g"] = shapes[pre + "ln1_b"] = (d,)
            for name in ("wq", "wk", "wv", "wo"):
                shapes[pre + name] = (d, d)
                shapes[pre + name[1] + "b"] = (d,)
            shapes[pre + "ln2_g"] = shapes[pre + "ln2_b"] = (d,)
            shapes[pre + "ff1_w"], shapes[pre + "ff1_b"] = (ff, d), (ff,)
            shapes[pre + "ff2_w"], shapes[pre + "ff2_b"] = (d, ff), (d,)
        shapes["lang.lnf_g"] = shapes["lang.lnf_b"] = (d,)
    return shapes


@functools.cache
def _hold_freed_memory() -> None:
    """Fix glibc's mmap threshold at its 32 MiB ceiling and its trim threshold
    at 1 GiB, once per process; without ``mallopt``, nothing changes. Left to
    glibc, both rise with the largest mapped block freed so far, and a step
    whose heap grows past them returns tens of MiB to the OS and faults them
    back in the next (5.3K faults, ~10% of a ``cvcl_t_lm`` step). A process
    that builds no model keeps glibc's defaults; a run whose model does not
    come from ``Model.init`` must call this itself."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


@dataclass
class Model:
    """Parameter bundle plus its configuration, and the decoder pass that a train-mode
    ``encode_utterances`` on ``cvcl_t_lm`` leaves for ``lm_logits`` (module docstring)."""

    config: ModelConfig
    params: dict[str, Tensor]
    _last_pass: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator) -> "Model":
        """Fresh trainable parameters: embeddings ~ N(0, 0.02^2), projections
        Xavier-uniform, each drawn (in, out), the draw every seed depends on, and
        stored (out, in); layer-norm affines at (1, 0). Draws follow the
        ``param_shapes`` order, in float64, 64 rows of a draw at a time, each slab
        cast into the C-order float32 parameter before the next, so init holds one
        64-row float64 slab at a time. It calls ``_hold_freed_memory`` before the
        first draw; ``ModelConfig`` bounds the sizes."""
        _hold_freed_memory()
        params: dict[str, Tensor] = {}
        for name, shape in param_shapes(cfg).items():
            data = np.empty(shape, PARAM_DTYPE)
            if len(shape) == 1:
                data[:] = 1.0 if name.endswith("_g") else 0.0
            else:
                rows = data if name.endswith("_emb") else data.T  # as drawn: (in, out)
                bound = math.sqrt(6.0 / sum(shape))
                for slab in (rows[i:i + 64] for i in range(0, len(rows), 64)):
                    slab[...] = (rng.normal(0.0, 0.02, slab.shape) if name.endswith("_emb")
                                 else rng.uniform(-bound, bound, slab.shape))
            params[name] = Tensor(data, requires_grad=True)
        return cls(config=cfg, params=params)

    def zero_grad(self) -> None:
        """Drop every gradient; the next backward makes new ones."""
        for p in self.params.values():
            p.grad = None

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def encode_frames(model: Model, features: np.ndarray, train: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Project frozen frame features into the shared space: linear -> layer
    norm -> dropout (train only). features: (N, F) -> (N, D), cast to the
    parameters' dtype; features of any other shape raise ShapeError."""
    cfg, p = model.config, model.params
    features = np.asarray(features, dtype=p["vis.proj_w"].data.dtype)
    if features.ndim != 2 or features.shape[1] != cfg.feature_dim:
        raise ShapeError("encode_frames", features.shape, (cfg.feature_dim,))
    x = Tensor(features)  # inputs never require grad: the backbone is frozen
    h = matmul(x, p["vis.proj_w"], p["vis.proj_b"])
    h = layer_norm(h, p["vis.ln_g"], p["vis.ln_b"])
    return dropout(h, _keep_prob(cfg, train), rng)


def _keep_prob(cfg: ModelConfig, train: bool) -> float:
    """The share of values every dropout keeps: all of them at eval."""
    return 1.0 - cfg.dropout if train else 1.0


def _attention_block(cfg: ModelConfig, p: dict[str, Tensor], layer: int, h: Tensor,
                     keep: float, rng: np.random.Generator | None) -> Tensor:
    pre = f"lang.layer{layer}."
    x = layer_norm(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
    q = matmul(x, p[pre + "wq"], p[pre + "qb"])
    k = matmul(x, p[pre + "wk"], p[pre + "kb"])
    v = matmul(x, p[pre + "wv"], p[pre + "vb"])
    ctx = attention(q, k, v, cfg.n_heads)
    out = dropout(matmul(ctx, p[pre + "wo"], p[pre + "ob"]), keep, rng)
    h = add(h, out)

    x = layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
    x = gelu(matmul(x, p[pre + "ff1_w"], p[pre + "ff1_b"]))
    x = dropout(matmul(x, p[pre + "ff2_w"], p[pre + "ff2_b"]), keep, rng)
    return add(h, x)


def _transformer_hidden(model: Model, ids: np.ndarray, keep: float,
                        rng: np.random.Generator | None) -> Tensor:
    """Final-layer hidden states (N, T, D) of rows of tokens, <eos>, then pads."""
    cfg, p = model.config, model.params
    not_pad = ids != PAD_ID
    after_pad = (not_pad[:, 1:] > not_pad[:, :-1]).any(axis=1)
    if after_pad.any():
        raise DataError(f"utterance {np.argmax(after_pad)}: a token follows <pad>; "
                        "the decoder takes right-padded rows")

    h = embed(p["lang.tok_emb"], p["lang.pos_emb"], ids, keep, rng)
    for layer in range(cfg.n_layers):
        h = _attention_block(cfg, p, layer, h, keep, rng)
    return layer_norm(h, p["lang.lnf_g"], p["lang.lnf_b"])


def _token_ids(ids_batch, op: str) -> np.ndarray:
    """Integer ids (N, T) as intp; floats and bools, even in a list, raise DataError."""
    ids = np.asarray(ids_batch)
    if ids.dtype.kind not in "iu":
        raise DataError(f"{op}: token ids must be integers, got dtype {ids.dtype}")
    if ids.ndim != 2:
        raise ShapeError(op, ids.shape)
    if not isinstance(ids_batch, np.ndarray) and any(
            isinstance(t, (bool, np.bool_)) for row in ids_batch for t in row):
        raise DataError(f"{op}: token ids must be integers, got a bool")
    return ids.astype(np.intp, copy=False)


def _eos_positions(ids: np.ndarray) -> np.ndarray:
    eos = ids == EOS_ID
    missing = ~eos.any(axis=1)
    if missing.any():
        raise DataError(f"utterance {np.argmax(missing)} has no <eos> token")
    return ids.shape[1] - 1 - np.argmax(eos[:, ::-1], axis=1)


def encode_utterances(model: Model, ids_batch, train: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
    """Utterance embeddings (N, D) of ids (N, T). ``cvcl``: the mean over
    non-pad positions of token + position embeddings, with dropout before the
    mean at train time. The transformer variants: the final hidden state at
    <eos>. Ids that are not 2-D, or T > ``max_len``, raise ShapeError, and a
    non-integer dtype or a bool among the ids DataError."""
    cfg, p = model.config, model.params
    ids = _token_ids(ids_batch, "encode_utterances")
    if cfg.uses_transformer:
        hidden = _transformer_hidden(model, ids, _keep_prob(cfg, train), rng)
        if train and cfg.uses_lm_head:  # weak on a tape: the record keeps no graph alive
            taped = tensor._grad_enabled
            model._last_pass = (ids.copy(), rng, taped, weakref.ref(hidden) if taped else hidden)
        return take_per_row(hidden, _eos_positions(ids))
    not_pad = ids != PAD_ID
    if not not_pad.any(axis=1).all():
        raise DataError("utterance with only <pad> tokens")
    return embedding_mean(p["lang.tok_emb"], p["lang.pos_emb"], ids, not_pad,
                          _keep_prob(cfg, train), rng)


def lm_logits(model: Model, ids_batch, train: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """Next-word logits (N, T, V) of ``cvcl_t_lm``, the one variant that ``uses_lm_head``
    (any other raises ValueError): a bias-free linear layer whose weight is the token
    table. Every call clears the pass ``encode_utterances`` left, which a train-mode
    call may reuse (see the module docstring)."""
    if not model.config.uses_lm_head:
        raise ValueError("language-model logits need the cvcl_t_lm variant")
    ids = _token_ids(ids_batch, "lm_logits")
    _eos_positions(ids)  # same precondition as encoding
    last, model._last_pass, hidden = model._last_pass, None, None
    if (train and last is not None and last[1] is rng and last[2] == tensor._grad_enabled
            and np.array_equal(last[0], ids)):
        hidden = last[3]() if last[2] else last[3]
    if hidden is None or tensor._grad_enabled and hidden._backward is None:
        hidden = _transformer_hidden(model, ids, _keep_prob(model.config, train), rng)
    return matmul(hidden, model.params["lang.tok_emb"])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str | Path) -> None:
    """GLCK v5: magic, version u32, the config as u32-length-prefixed UTF-8
    JSON of ``ModelConfig.as_dict()``, then the little-endian f32 values of
    every parameter ``param_shapes`` names (weights (out, in); v4 held them
    (in, out)), in sorted name order. A parameter missing, extra or misshapen
    against the config raises ShapeError naming the first such name; a failed
    write leaves `path` as it was (``replacing``)."""
    shapes = param_shapes(model.config)
    found = {name: p.shape for name, p in model.params.items()}
    if found != shapes:
        name = min(n for n in shapes.keys() | found.keys() if found.get(n) != shapes.get(n))
        raise ShapeError(f"save_checkpoint: parameter {name!r} has shape {found.get(name)}, "
                         f"config expects {shapes.get(name)}")
    config = json.dumps(model.config.as_dict(), sort_keys=True).encode("utf-8")
    with replacing(path) as fh:
        fh.write(GLCK_MAGIC)
        fh.write(struct.pack("<II", GLCK_VERSION, len(config)))
        fh.write(config)
        for name in sorted(shapes):
            fh.write(np.ascontiguousarray(model.params[name].data, dtype="<f4"))


def load_checkpoint(path: str | Path) -> Model:
    """Read a GLCK file. A short file, a bad config or text field, a NaN or
    infinite value, or bytes after the last parameter raise DataError naming
    the path, and a short parameter block names its parameter too; values
    that disagree with the stored config show as a short file or as bytes
    left over."""
    with open(path, "rb") as fh:
        if read_exact(fh, 4, path) != GLCK_MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic)")
        version, clen = unpack(fh, "<II", path)
        if version != GLCK_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        config = read_utf8(fh, clen, path)
        try:
            cfg = ModelConfig(**json.loads(config))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad config header {config!r} ({exc})") from None
        params: dict[str, Tensor] = {}
        for name, shape in sorted(param_shapes(cfg).items()):
            try:
                data = np.frombuffer(read_exact(fh, 4 * math.prod(shape), path), dtype="<f4")
            except DataError as exc:
                raise DataError(f"{exc}, in parameter {name!r}") from None
            bad = ~np.isfinite(data)
            if bad.any():
                raise DataError(f"{path}: parameter {name!r} has a non-finite value "
                                f"at flat index {int(np.argmax(bad))}")
            params[name] = Tensor(data.reshape(shape).astype(PARAM_DTYPE), requires_grad=True)
        if bytes_left(fh):
            raise DataError(f"{path}: unexpected bytes after the last of {len(params)} "
                            f"parameters, from byte {fh.tell()}")
    return Model(config=cfg, params=params)
