"""Training objectives: symmetric contrastive alignment, next-word
cross-entropy, and their weighted combination.

Both weights are constants: the contrastive logits are cosines over
``TEMPERATURE`` = 0.07, and the joint loss is the LM loss plus ``LAMBDA_C``
= 0.3 times the contrastive loss.
"""

from __future__ import annotations

import numpy as np

from .corpus import PAD_ID
from .errors import DataError, ShapeError
from .tensor import Tensor, add, cross_entropy, l2_normalize, matmul, mul, transpose


# The contrastive softmax temperature: fixed, never trained.
TEMPERATURE = 0.07
# The weight of the contrastive term in the joint loss of ``cvcl_t_lm``.
LAMBDA_C = 0.3


def contrastive_loss(frame_embs: Tensor, utt_embs: Tensor) -> tuple[Tensor, dict[str, float]]:
    """Symmetric in-batch contrastive loss over matched rows.

    Rows are L2-normalized first (so logits are cosine similarities over the
    temperature). Each direction is one N-way ``cross_entropy`` against the
    batch with row i matched to column i: ``cross_entropy(S, arange(N))`` for
    frames and ``cross_entropy(S.T, arange(N))`` for utterances. The two
    average: 1/2 frame-side + 1/2 utterance-side. Returns the scalar loss
    plus per-direction values for logging.
    """
    if frame_embs.shape != utt_embs.shape or frame_embs.ndim != 2:
        raise ShapeError("contrastive_loss", frame_embs.shape, utt_embs.shape)
    frame_embs = l2_normalize(frame_embs)
    utt_embs = l2_normalize(utt_embs)
    sims = mul(matmul(frame_embs, utt_embs), 1.0 / TEMPERATURE)
    # rows: one frame vs all utterances; columns: one utterance vs all frames
    matched = np.arange(sims.shape[0])
    loss_frame = cross_entropy(sims, matched)
    loss_utterance = cross_entropy(transpose(sims), matched)
    loss = mul(add(loss_frame, loss_utterance), 0.5)
    return loss, {"frame": loss_frame.item(), "utterance": loss_utterance.item()}


def lm_loss(logits: Tensor, target_ids: np.ndarray) -> Tensor:
    """Mean next-word cross-entropy in nats over non-pad targets.

    One masked ``cross_entropy`` call. logits (N, T, V) or (T, V) at
    position t predict target_ids[..., t]; callers shift the ids. Every
    ``PAD_ID`` target is padding, wherever it stands, and is excluded from
    the mean: no word encodes to ``PAD_ID``.
    """
    targets = np.asarray(target_ids, dtype=np.intp)
    if logits.ndim < 2 or targets.shape != logits.shape[:-1]:
        raise ShapeError("lm_loss", logits.shape, targets.shape)
    valid = targets != PAD_ID
    if not valid.any():
        raise DataError("lm_loss: every target position is <pad>")
    return cross_entropy(logits, targets, valid)


def joint_loss(lm: Tensor, contrastive: Tensor) -> Tensor:
    """Language-modeling loss plus ``LAMBDA_C`` times the contrastive loss."""
    return add(lm, mul(contrastive, LAMBDA_C))
