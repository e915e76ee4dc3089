"""The training step and the 4-way trial scorer: a trial shows a word and
four candidate frames, and the model picks the frame closest in cosine to
the word alone."""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv

from .corpus import EOS_ID, PAD_ID, Vocabulary
from .encoders import Model, encode_frames, encode_utterances, lm_logits
from .errors import DataError
from .objectives import contrastive_loss, joint_loss, lm_loss
from .optim import AdamWState, adamw_step
from .tensor import Tensor, no_grad

CANDIDATES = 4  # frames per trial; chance is one in CANDIDATES


def loss(model: Model, feats: np.ndarray, ids: np.ndarray,
         rng: np.random.Generator) -> Tensor:
    """The loss of frame features (N, F) and right-padded integer ids (N, T),
    with dropout drawn from `rng` for frames, then for utterances; the
    ``cvcl_t_lm`` LM logits reuse the utterance encoding's one decoder pass
    and draw nothing. The loss is contrastive, and for ``cvcl_t_lm``
    ``joint_loss`` of it and the loss of predicting token t + 1 at position t
    (``<pad>`` at the last, left out)."""
    frames = encode_frames(model, feats, train=True, rng=rng)
    utterances = encode_utterances(model, ids, train=True, rng=rng)
    value, _ = contrastive_loss(frames, utterances)
    if model.config.uses_lm_head:
        targets = np.concatenate([ids[:, 1:], np.full((len(ids), 1), PAD_ID, ids.dtype)], axis=1)
        value = joint_loss(lm_loss(lm_logits(model, ids, train=True, rng=rng), targets), value)
    return value


def step(model: Model, state: AdamWState, feats: np.ndarray, ids: np.ndarray,
         lr: float, rng: np.random.Generator) -> float:
    """One update at learning rate `lr`; returns the loss before it."""
    model.zero_grad()
    value = loss(model, feats, ids, rng)
    value.backward()
    adamw_step(model.params, state, lr)
    return value.item()


def evaluate(model: Model, vocab: Vocabulary,
             trials: list[tuple[str, np.ndarray, int]]) -> dict:
    """Score trials of (word, candidate frames (4, F), answer index) with one
    no-grad forward per side, each distinct word once as [word, <eos>].
    Returns the picks, the accuracy with its exact (Clopper-Pearson) binomial
    95% interval beside 0.25 chance, and each word's accuracy. A word outside
    the vocabulary raises DataError naming the trial, counted from 1."""
    if not trials:
        raise DataError("evaluate: no trials")
    for i, (word, _, _) in enumerate(trials, 1):
        if word not in vocab:
            raise DataError(f"trial {i}: word {word!r} is not in the vocabulary")
    n = len(trials)
    feats = np.stack([f for _, f, _ in trials])
    words = sorted({w for w, _, _ in trials})
    row = np.searchsorted(words, [w for w, _, _ in trials])
    with no_grad():
        u = encode_utterances(model, [[vocab.id_of(w), EOS_ID] for w in words]).data[row]
        f = encode_frames(model, feats.reshape(n * CANDIDATES, -1)).data.reshape(n, CANDIDATES, -1)
    sims = np.einsum("nkd,nd->nk", f, u) / (np.linalg.norm(f, axis=2)
                                            * np.linalg.norm(u, axis=1)[:, None])
    picks = sims.argmax(axis=1)
    hits = picks == np.array([a for _, _, a in trials])
    k = int(hits.sum())
    per_word = {w: {"trials": int((row == j).sum()), "accuracy": float(hits[row == j].mean())}
                for j, w in enumerate(words)}
    return {"trials": n, "correct": k, "accuracy": k / n,
            "ci95": [float(betaincinv(k, n - k + 1, 0.025)) if k else 0.0,
                     float(betaincinv(k + 1, n - k, 0.975)) if k < n else 1.0],
            "chance": 1.0 / CANDIDATES, "per_word": per_word, "picks": picks.tolist()}
