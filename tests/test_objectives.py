"""Contrastive / LM / joint losses vs closed forms and scalar-loop oracles."""

import math

import numpy as np
import pytest

from groundlex.corpus import PAD_ID
from groundlex.errors import DataError, ShapeError
from groundlex.objectives import (
    LAMBDA_C, TEMPERATURE, contrastive_loss, joint_loss, lm_loss,
)
from groundlex.tensor import Tensor
from gradcheck import grad_check


def unit_rows(n, d, rng):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_single_pair_loss_is_exactly_zero():
    rng = np.random.default_rng(0)
    loss, parts = contrastive_loss(Tensor(unit_rows(1, 8, rng)),
                                   Tensor(unit_rows(1, 8, rng)))
    assert loss.item() == 0.0
    assert parts["frame"] == 0.0 and parts["utterance"] == 0.0


def test_random_batches_near_log_n():
    # Monte-Carlo oracle: mean over 1000 random 4-pair batches stays within
    # +-0.35 of ln 4.
    rng = np.random.default_rng(1)
    total = 0.0
    for _ in range(1000):
        loss, _ = contrastive_loss(Tensor(unit_rows(4, 512, rng)),
                                   Tensor(unit_rows(4, 512, rng)))
        total += loss.item()
    assert abs(total / 1000 - math.log(4)) < 0.35


def test_perfectly_aligned_orthogonal_pairs_closed_form():
    n = 4
    embs = np.eye(n, 16)
    loss, _ = contrastive_loss(Tensor(embs), Tensor(embs.copy()))
    assert TEMPERATURE == 0.07
    expected = math.log(1 + (n - 1) * math.exp(-1 / TEMPERATURE))
    assert abs(loss.item() - expected) < 1e-12
    assert abs(loss.item()) < 1e-5


def test_direction_swap_identity():
    # L_frame(V, U) == L_utterance(U, V) by symmetry of the two softmaxes.
    rng = np.random.default_rng(2)
    v, u = Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(5, 8)))
    _, parts_vu = contrastive_loss(v, u)
    _, parts_uv = contrastive_loss(u, v)
    assert parts_vu["frame"] == pytest.approx(parts_uv["utterance"], abs=1e-12)
    assert parts_vu["utterance"] == pytest.approx(parts_uv["frame"], abs=1e-12)


def test_row_scaling_invariance_when_normalized():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4, 8))
    u = rng.normal(size=(4, 8))
    base, _ = contrastive_loss(Tensor(v), Tensor(u))
    scales = rng.uniform(0.1, 10.0, size=(4, 1))
    scaled, _ = contrastive_loss(Tensor(v * scales), Tensor(u * 7.0))
    assert scaled.item() == pytest.approx(base.item(), abs=1e-9)


def test_pair_permutation_invariance():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(6, 8))
    u = rng.normal(size=(6, 8))
    base, _ = contrastive_loss(Tensor(v), Tensor(u))
    perm = rng.permutation(6)
    permuted, _ = contrastive_loss(Tensor(v[perm]), Tensor(u[perm]))
    assert permuted.item() == pytest.approx(base.item(), abs=1e-12)


def test_contrastive_gradient_passes_grad_check():
    rng = np.random.default_rng(5)
    v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    u = Tensor(rng.normal(size=(4, 8)), requires_grad=True)

    def f(ts):
        loss, _ = contrastive_loss(ts[0], ts[1])
        return loss

    assert grad_check(f, [v, u]) < 1e-4


def test_contrastive_shape_mismatch():
    with pytest.raises(ShapeError):
        contrastive_loss(Tensor(np.zeros((4, 8))), Tensor(np.zeros((3, 8))))


# --- language-modeling loss ------------------------------------------------------

def test_lm_loss_uniform_logits():
    logits = Tensor(np.zeros((3, 10)))
    targets = np.array([1, 2, 3])
    assert lm_loss(logits, targets).item() == pytest.approx(math.log(10))


def test_lm_loss_confident_correct_goes_to_zero():
    v = 6
    targets = np.array([2, 4, 1])
    logits = np.full((3, v), -50.0)
    logits[np.arange(3), targets] = 50.0
    assert lm_loss(Tensor(logits), targets).item() < 1e-12


def test_lm_loss_matches_scalar_loop_oracle():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 5))
    targets = np.array([4, PAD_ID, 2])
    got = lm_loss(Tensor(logits), targets).item()
    # independent scalar-loop cross-entropy over the non-pad targets
    total, count = 0.0, 0
    for t in range(3):
        if targets[t] == PAD_ID:
            continue
        row = logits[t]
        denom = sum(math.exp(x) for x in row)
        total += -math.log(math.exp(row[targets[t]]) / denom)
        count += 1
    assert count == 2
    assert got == pytest.approx(total / count, rel=1e-12)


def test_lm_loss_excludes_pad_targets():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(1, 4, 6))
    targets = np.array([[3, 2, PAD_ID, PAD_ID]])
    got = lm_loss(Tensor(logits), targets).item()
    expected = lm_loss(Tensor(logits[:, :2]), targets[:, :2]).item()
    assert got == pytest.approx(expected, rel=1e-12)


def test_lm_loss_excludes_a_pad_target_anywhere():
    # A PAD_ID target mid-row is padding too, not an ordinary class.
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(2, 4, 6))
    targets = np.array([[3, PAD_ID, 5, PAD_ID], [PAD_ID, 4, 1, 2]])
    got = lm_loss(Tensor(logits), targets).item()
    keep = targets != PAD_ID
    expected = lm_loss(Tensor(logits[keep]), targets[keep]).item()
    assert got == pytest.approx(expected, rel=1e-12)


def test_lm_loss_all_pad_errors():
    with pytest.raises(DataError):
        lm_loss(Tensor(np.zeros((1, 2, 4))), np.array([[PAD_ID, PAD_ID]]))


@pytest.mark.parametrize("targets", [[[1.7, 2.2]], [[1.0, 2.0]], [[True, True]]],
                         ids=["fractional", "integral-float", "bool"])
def test_lm_loss_takes_only_integer_targets(targets):
    # 1.7 would be read as class 1 and True as class 1; integer dtypes agree.
    logits = Tensor(np.random.default_rng(10).normal(size=(1, 2, 5)))
    with pytest.raises(ShapeError, match="^cross_entropy: "):
        lm_loss(logits, np.array(targets))
    want = lm_loss(logits, np.array([[1, 2]])).item()
    for dtype in (np.uint8, np.int32, np.int64):
        assert lm_loss(logits, np.array([[1, 2]], dtype)).item() == want


def test_lm_loss_gradient():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    targets = np.array([[1, 4, PAD_ID], [2, 0, 3]])
    assert grad_check(lambda ts: lm_loss(ts[0], targets), [logits]) < 1e-6


# --- joint loss --------------------------------------------------------------------

def test_joint_default_weight():
    assert LAMBDA_C == 0.3
    lm = Tensor(np.asarray(2.0))
    con = Tensor(np.asarray(1.0))
    assert joint_loss(lm, con).item() == pytest.approx(2.3)


def test_joint_linearity():
    a, b, c = (Tensor(np.asarray(x)) for x in (1.1, 0.4, 0.25))
    left = joint_loss(a, b).item() + joint_loss(a, c).item()
    right = joint_loss(a, Tensor(np.asarray(0.65))).item()
    assert left - right == pytest.approx(a.item(), abs=1e-12)


def test_joint_gradient_flows_to_both_terms():
    rng = np.random.default_rng(9)
    v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    u = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    targets = np.array([[1, 4, 2], [2, 0, 3]])

    def f(ts):
        con, _ = contrastive_loss(ts[0], ts[1])
        return joint_loss(lm_loss(ts[2], targets), con)

    assert grad_check(f, [v, u, logits]) < 1e-4
