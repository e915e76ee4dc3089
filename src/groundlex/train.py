"""The training step and the 4-way trial scorer: a trial shows a word and
four candidate frames, and the model picks the frame closest in cosine to
the word alone."""

from __future__ import annotations

import math

import numpy as np

from .corpus import EOS_ID, PAD_ID, Vocabulary
from .encoders import Model, encode_frames, encode_utterances, lm_logits
from .errors import DataError, NumericsError
from .objectives import contrastive_loss, joint_loss, lm_loss
from .optim import AdamWState, adamw_step
from .pairing import FEATURE_LIMIT, _within_limit
from .tensor import Tensor, l2_normalize, no_grad

CANDIDATES = 4  # frames per trial; chance is one in CANDIDATES


def loss(model: Model, feats: np.ndarray, ids: np.ndarray,
         rng: np.random.Generator) -> Tensor:
    """The loss of frame features (N, F) and right-padded integer ids (N, T),
    with dropout drawn from `rng` for frames, then for utterances; the
    ``cvcl_t_lm`` LM logits reuse the utterance encoding's one decoder pass
    and draw nothing, on a tape or under ``no_grad`` alike, so the value is
    the same either way. The loss is contrastive, and for ``cvcl_t_lm``
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
    """Score trials of (word, candidate frames (4, F), answer index) by cosine: one
    no-grad forward per side, each distinct word once as [word, <eos>], then unit rows
    (``l2_normalize``). Returns the picks, the accuracy with its exact (Clopper-Pearson)
    binomial 95% interval beside 0.25 chance (``_clopper_pearson``), and each word's
    accuracy. A word that is not a string in the vocabulary, an answer that is not an int
    in 0-3, candidates not a real (4, F) array ``_within_limit``, or a word or candidate
    that embeds to the zero vector raise DataError naming the trial, from 1 (a word's first)."""
    if not trials:
        raise DataError("evaluate: no trials")
    want = (CANDIDATES, model.config.feature_dim)
    for i, (word, frames, answer) in enumerate(trials, 1):
        if not isinstance(word, str):
            raise DataError(f"trial {i}: word must be a string, got {word!r}")
        if word not in vocab:
            raise DataError(f"trial {i}: word {word!r} is not in the vocabulary")
        if type(answer) is not int or not 0 <= answer < CANDIDATES:
            raise DataError(f"trial {i}: answer must be an integer in 0-3, got {answer!r}")
        if (not isinstance(frames, np.ndarray) or frames.shape != want
                or frames.dtype.kind not in "iuf" or not _within_limit(frames).all()):
            raise DataError(f"trial {i}: candidates must be {want} reals in ±{FEATURE_LIMIT}")
    n = len(trials)
    feats = np.stack([f for _, f, _ in trials])
    words = sorted({w for w, _, _ in trials})
    row = np.searchsorted(words, [w for w, _, _ in trials])
    with no_grad():
        u = encode_utterances(model, [[vocab.id_of(w), EOS_ID] for w in words]).data[row]
        f = encode_frames(model, feats.reshape(n * CANDIDATES, -1)).data.reshape(n, CANDIDATES, -1)
        try:  # each trial's word, then its candidates
            unit = l2_normalize(Tensor(np.concatenate([u[:, None], f], axis=1))).data
        except NumericsError as exc:
            i, at = divmod(exc.row, 1 + CANDIDATES)
            side = f"candidate {at - 1}" if at else f"word {trials[i][0]!r}"
            raise DataError(f"trial {i + 1}: {side} embeds to the zero vector") from exc
    picks = np.einsum("nkd,nd->nk", unit[:, 1:], unit[:, 0]).argmax(axis=1)
    hits = picks == np.array([a for _, _, a in trials])
    k = int(hits.sum())
    per_word = {w: {"trials": int((row == j).sum()), "accuracy": float(hits[row == j].mean())}
                for j, w in enumerate(words)}
    return {"trials": n, "correct": k, "accuracy": k / n,
            "ci95": _clopper_pearson(k, n),
            "chance": 1.0 / CANDIDATES, "per_word": per_word, "picks": picks.tolist()}


def _clopper_pearson(k: int, n: int) -> list[float]:
    """The exact 95% interval of k hits in n trials (Clopper & Pearson, 1934): the p
    where P(X >= k) = 0.025 (0 if k = 0) and where P(X <= k) = 0.025 (1 if k = n), X ~
    Binomial(n, p), by 80 halvings of (0, 1), each tail summed directly in log space."""
    j = np.arange(n + 1)
    log_choose = math.lgamma(n + 1) - np.array([math.lgamma(i + 1) + math.lgamma(n - i + 1)
                                                for i in range(n + 1)])

    def solve(tail, rises):  # P(X >= k) rises with p, P(X <= k) falls
        lo, hi = 0.0, 1.0
        for _ in range(80):
            p = (lo + hi) / 2
            terms = log_choose[tail] + j[tail] * math.log(p) + (n - j[tail]) * math.log1p(-p)
            top = terms.max()
            above = top + math.log(np.exp(terms - top).sum()) > math.log(0.025)
            lo, hi = (lo, p) if above == rises else (p, hi)
        return (lo + hi) / 2

    return [solve(slice(k, None), True) if k else 0.0,
            solve(slice(k + 1), False) if k < n else 1.0]
