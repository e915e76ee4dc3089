"""Autodiff engine: op semantics, backward vs finite differences, invariants."""

import math

import numpy as np
import pytest

import groundlex.tensor as gt
from groundlex.corpus import EOS_ID, PAD_ID
from groundlex.errors import NumericsError, ShapeError
from groundlex.objectives import contrastive_loss
from groundlex.tensor import (
    Tensor, add, attention, cross_entropy, dropout, embed, embedding_mean, gelu,
    l2_normalize, layer_norm, matmul, mul, no_grad, take_per_row, transpose,
)
from gradcheck import grad_check, tsum


def rng(seed=0):
    return np.random.default_rng(seed)


def test_l2_normalize_three_four_five():
    out = l2_normalize(Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8])


def test_layer_norm_constant_input_is_zero():
    g = Tensor(np.ones(3))
    b = Tensor(np.zeros(3))
    for x in (0.0, 5.0, -2.5):
        out = layer_norm(Tensor([x, x, x]), g, b)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0])


def test_backward_linear():
    w = Tensor([1.0, 2.0], requires_grad=True)
    x = Tensor([3.0, 4.0])
    loss = tsum(mul(w, x))
    loss.backward()
    np.testing.assert_allclose(w.grad, [3.0, 4.0])


def test_backward_squared_norm():
    w = Tensor([1.5, -2.0, 0.5], requires_grad=True)
    loss = tsum(mul(w, w))
    loss.backward()
    np.testing.assert_allclose(w.grad, 2.0 * w.data)


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        mul(w, w).backward()


def test_unused_leaf_gets_zero_grad():
    # No backward reaches u: it holds no buffer until zero_grad() zeroes one.
    w = Tensor([1.0, 2.0], requires_grad=True)
    u = Tensor([5.0], requires_grad=True)
    tsum(mul(w, w)).backward()
    assert u.grad is None
    u.zero_grad()
    np.testing.assert_array_equal(u.grad, [0.0])


def test_backward_consumes_the_tape():
    w = Tensor([1.0, 2.0], requires_grad=True)
    h = mul(w, w)
    loss = tsum(h)
    loss.backward()
    assert h._parents == () and h._backward is None and h.grad is None
    assert loss._parents == () and loss._backward is None
    np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_second_backward_leaves_leaf_grads_unchanged():
    w = Tensor(rng(5).normal(size=(3, 4)), requires_grad=True)
    loss = tsum(gelu(matmul(w, w)))
    loss.backward()
    first = w.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(w.grad, first)


def test_softmax_cross_entropy_gradient_uniform_logits():
    # Uniform logits, 4 classes, true class 0. Frozen value verified against
    # the finite-difference oracle below.
    logits = Tensor(np.zeros(4), requires_grad=True)

    def f(ts):
        return cross_entropy(ts[0], np.asarray(0))

    assert grad_check(f, [logits]) < 1e-7
    logits.zero_grad()
    f([logits]).backward()
    np.testing.assert_allclose(logits.grad, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_grad_check_sum_of_squares():
    x = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
    assert grad_check(lambda ts: tsum(mul(ts[0], ts[0])), [x]) < 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_grad_check_op_compositions(seed):
    r = rng(seed)
    a = Tensor(r.normal(size=(1, 3, 5)), requires_grad=True)
    b = Tensor(r.normal(size=(4, 5)), requires_grad=True)
    g = Tensor(r.normal(size=4) + 1.0, requires_grad=True)
    c = Tensor(r.normal(size=4), requires_grad=True)

    def f(ts):
        h = matmul(ts[0], ts[1])
        h = layer_norm(h, ts[2], ts[3])
        h = gelu(h)
        h = l2_normalize(h)
        return add(tsum(mul(h, h)), tsum(attention(h, h, h, heads=2)))

    assert grad_check(f, [a, b, g, c]) < 1e-6


def test_backward_random_compositions_match_finite_differences():
    # >= 100 random small instances across the supported op set.
    errs = []
    for seed in range(100):
        r = rng(seed + 1000)
        pick = seed % 5
        # attention takes (N, T, D): the same six draws as one (1, 2, 3) batch
        x = Tensor(r.normal(size=(1, 2, 3) if pick == 0 else (2, 3)), requires_grad=True)
        w = Tensor(r.normal(size=(3, 3)), requires_grad=True)
        targets = r.integers(3, size=2)

        def f(ts):
            h = matmul(ts[0], ts[1])
            if pick == 0:
                h = attention(h, h, h, heads=1)
            elif pick == 1:
                h = cross_entropy(h, targets)
            elif pick == 2:
                h = gelu(h)
            elif pick == 3:
                h = l2_normalize(h)
            else:
                h = transpose(h)
            return tsum(mul(h, h))

        errs.append(grad_check(f, [x, w]))
    assert max(errs) < 1e-4


def _matmul_batched_reference(a, w, g):
    """The batched matmul path every product once took, on the (out, in)
    weight `w`: forward, then the input and weight gradients summed down to
    their operand shapes."""
    return a @ w.T, g @ w, (g.swapaxes(-1, -2) @ a).sum(axis=0)


@pytest.mark.parametrize("a_shape,w_shape", [
    ((8, 24, 512), (2048, 512)),  # ff1
    ((8, 24, 2048), (512, 2048)),  # ff2
    ((8, 24, 512), (2003, 512)),  # tied LM head: hidden @ tok_emb.T
])
def test_matmul_2d_right_operand_matches_batched_reference(a_shape, w_shape):
    r = rng(21)
    a = Tensor(r.normal(size=a_shape), requires_grad=True)
    w = Tensor(r.normal(size=w_shape), requires_grad=True)
    out = matmul(a, w)
    g = r.normal(size=out.shape)
    tsum(mul(out, Tensor(g))).backward()
    ref_out, ref_ga, ref_gb = _matmul_batched_reference(a.data, w.data, g)
    # The weight gradient sums N*T rows in one GEMM instead of N batched
    # products plus a sum, so entries near zero differ by rounding only.
    for got, ref in ((out.data, ref_out), (a.grad, ref_ga), (w.grad, ref_gb)):
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


def test_grad_check_3d_activation_through_2d_weights():
    r = rng(13)
    x = Tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
    w1 = Tensor(r.normal(size=(5, 4)), requires_grad=True)
    b1 = Tensor(r.normal(size=5), requires_grad=True)
    tok = Tensor(r.normal(size=(6, 5)), requires_grad=True)

    def f(ts):
        h = gelu(matmul(ts[0], ts[1], ts[2]))
        logits = matmul(h, ts[3])
        return tsum(mul(logits, logits))

    assert grad_check(f, [x, w1, b1, tok]) < 1e-6


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (3, 4)])
def test_grad_check_matmul_with_bias(a_shape):
    r = rng(22)
    x = Tensor(r.normal(size=a_shape), requires_grad=True)
    w = Tensor(r.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(r.normal(size=5), requires_grad=True)

    def f(ts):
        out = matmul(ts[0], ts[1], ts[2])
        return tsum(mul(out, out))

    assert grad_check(f, [x, w, b]) < 1e-6


@pytest.mark.parametrize("a_shape,w_shape", [
    ((8, 24, 512), (2048, 512)),  # ff1 at the cvcl_t_lm bench shape
    ((128, 64), (512, 64)),       # a 2-D vision projection
])
def test_matmul_bias_bit_equal_to_matmul_then_add_in_float32(a_shape, w_shape):
    # The chain every affine layer ran before the bias moved into matmul:
    # the GEMM, a broadcast bias add, and the bias gradient summed over
    # axis 0 until it is 1-D.
    r = rng(23)
    a, w, b, g = (r.normal(size=s).astype(np.float32)
                  for s in (a_shape, w_shape, w_shape[:1], a_shape[:-1] + w_shape[:1]))
    ta, tw, tb = (Tensor(x, requires_grad=True) for x in (a, w, b))
    out = matmul(ta, tw, tb)
    tsum(mul(out, Tensor(g))).backward()
    a2, g2 = a.reshape(-1, a_shape[-1]), g.reshape(-1, w_shape[0])
    ref_gb = g
    while ref_gb.ndim > 1:
        ref_gb = ref_gb.sum(axis=0)
    for got, ref in ((out.data, (a2 @ w.T).reshape(g.shape) + b),
                     (ta.grad, (g2 @ w).reshape(a_shape)),
                     (tw.grad, g2.T @ a2), (tb.grad, ref_gb)):
        assert got.dtype == ref.dtype == np.float32
        assert got.tobytes() == ref.tobytes()


def test_matmul_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError) as e:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "matmul" in str(e.value)
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


@pytest.mark.parametrize("bias_shape", [(1, 4), (3,), (4, 1)])
def test_matmul_rejects_a_bias_that_is_not_one_row_of_the_output(bias_shape):
    with pytest.raises(ShapeError, match=r"matmul: .* vs \(4, 3\) vs "):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(bias_shape)))


def test_add_takes_two_tensors_of_one_shape():
    with pytest.raises(ShapeError, match=r"add: shape mismatch \(2, 3\) vs \(3,\)"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_mul_rejects_operands_that_do_not_fit_its_left_shape():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match="mul"):
        mul(a, Tensor(np.ones(3), requires_grad=True))
    with pytest.raises(ShapeError, match="mul"):
        mul(Tensor(np.ones(3), requires_grad=True), np.ones((2, 3)))  # would grow a
    with pytest.raises(ShapeError, match="mul"):
        mul(a, np.ones(2))  # does not broadcast to (2, 3)


def test_mul_takes_a_scalar_and_a_same_shape_constant_mask():
    a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    mask = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.float32)
    out = mul(mul(a, 0.5), mask)
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(out.data, a.data * np.float32(0.5) * mask)
    tsum(out).backward()
    np.testing.assert_array_equal(a.grad, np.float32(0.5) * mask)


def test_nan_detection_names_op():
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError) as e:
            add(Tensor([1e308]), Tensor([1e308]))
    assert "add" in str(e.value)


def test_l2_normalize_unit_norm_property():
    r = rng(3)
    for _ in range(50):
        x = Tensor(r.normal(size=(4, 6)) * r.uniform(0.01, 100))
        out = l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)


def test_l2_normalize_zero_row_raises_directly_and_through_the_contrastive_loss():
    # A zero row has no direction. Live embeddings never hit one: they come
    # out of layer_norm or are a dropout-masked mean over many values.
    x = rng(23).normal(size=(3, 4))
    x[1] = 0.0
    with pytest.raises(NumericsError, match="^l2_normalize: zero vector"):
        l2_normalize(Tensor(x, requires_grad=True))
    other = Tensor(rng(24).normal(size=(3, 4)), requires_grad=True)
    for frames, utts in ((Tensor(x), other), (other, Tensor(x))):
        with pytest.raises(NumericsError, match="^l2_normalize: "):
            contrastive_loss(frames, utts)


def _embedding_add_at_reference(table_shape, ids, g):
    """The rows of g scattered into a zero table by ``np.add.at``, in g's
    dtype: independent of the library's one-hot sparse product."""
    buf = np.zeros(table_shape, g.dtype)
    np.add.at(buf, ids.reshape(-1), g.reshape(-1, table_shape[1]))
    return buf


def gather(table, ids):
    """Test-local row lookup on the tape: a numpy gather forward and an
    ``np.add.at`` scatter backward."""
    ids = np.asarray(ids)

    def bw(g):
        if table.requires_grad:
            gt._accum(table, _embedding_add_at_reference(table.shape, ids, g))

    return gt._make(table.data[ids], "gather", (table,), bw)


def positions(n, t):
    return np.broadcast_to(np.arange(t), (n, t))


def test_embedding_lookup_and_grad():
    table = Tensor(rng(5).normal(size=(7, 3)), requires_grad=True)
    pos = Tensor(rng(6).normal(size=(3, 3)), requires_grad=True)
    ids = np.array([[0, 2], [2, 6]])
    out = embed(table, pos, ids)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[1, 0], table.data[2] + pos.data[0])
    tsum(out).backward()
    # row 2 used twice, rows 0 and 6 once, rest unused
    np.testing.assert_allclose(table.grad[2], 2.0)
    np.testing.assert_allclose(table.grad[0], 1.0)
    np.testing.assert_allclose(table.grad[1], 0.0)
    # positions 0 and 1 are each used by both rows; position 2 by none
    np.testing.assert_array_equal(pos.grad, [[2.0] * 3, [2.0] * 3, [0.0] * 3])


@pytest.mark.parametrize("case", ["repeated", "positions", "empty"])
def test_embedding_grad_bit_equal_to_add_at(case):
    # embed's table and pos gradients against np.add.at, with 48 position rows.
    r = rng(17)
    if case == "repeated":
        table_shape = (2003, 512)
        ids = r.integers(0, 40, size=(128, 12))  # 40 rows, each used ~38 times
    elif case == "positions":
        table_shape = (48, 512)
        ids = positions(8, 24)
    else:
        table_shape = (11, 8)
        ids = np.zeros((0, 5), dtype=np.intp)
    table = Tensor(r.normal(size=table_shape), requires_grad=True)
    pos = Tensor(r.normal(size=(48, table_shape[1])), requires_grad=True)
    out = embed(table, pos, ids)
    g = r.normal(size=out.shape)
    tsum(mul(out, Tensor(g))).backward()
    np.testing.assert_array_equal(table.grad,
                                  _embedding_add_at_reference(table_shape, ids, g))
    np.testing.assert_array_equal(pos.grad, _embedding_add_at_reference(
        pos.shape, positions(*ids.shape), g))


# --- embed and embedding_mean against the chains they replaced ------------------------

def embed_chain(table, pos, ids, keep_prob, rng):
    """The 4-node chain the decoder ran before embed: two gathers, add and
    dropout."""
    h = add(gather(table, ids), gather(pos, positions(*ids.shape)))
    return dropout(h, keep_prob, rng)


def embedding_mean_chain(table, pos, ids, valid, keep_prob, rng):
    """The 7-node chain the cvcl encoder ran before embedding_mean: embed's
    chain, the pad mul, the sum over T and the 1/count mul."""
    h = embed_chain(table, pos, ids, keep_prob, rng)
    mask = valid[:, :, None].astype(h.data.dtype)
    counts = valid.sum(axis=1, keepdims=True).astype(h.data.dtype)
    return mul(tsum(mul(h, Tensor(mask)), axis=1), Tensor(1.0 / counts))


def padded_ids(r, n, t, vocab):
    """(N, T) ids in [3, vocab) with 1..T real tokens per row, then PAD_ID."""
    ids = r.integers(3, vocab, size=(n, t))
    lengths = r.integers(1, t + 1, size=n)
    lengths[:2] = (t, 1)
    ids[np.arange(t) >= lengths[:, None]] = PAD_ID
    return ids


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("keep_prob", [0.9, 1.0])
def test_embedding_mean_bit_equal_to_old_chain_at_model_shape(dtype, keep_prob):
    # (N, T, D) = (128, 12, 512) of the cvcl bench, V = 300 so ids repeat,
    # 48 position rows; each side draws its dropout mask from rng(41).
    r = rng(40)
    ids = padded_ids(r, 128, 12, 300)
    valid = ids != PAD_ID
    tables = (r.normal(0.0, 0.02, size=(300, 512)), r.normal(0.0, 0.02, size=(48, 512)))
    g = r.normal(size=(128, 512)).astype(dtype)
    results = []
    for op in (embedding_mean, embedding_mean_chain):
        table, pos = (Tensor(x.astype(dtype), requires_grad=True) for x in tables)
        out = op(table, pos, ids, valid, keep_prob, rng(41))
        tsum(mul(out, Tensor(g))).backward()
        results.append((out.data, table.grad, pos.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
    assert np.all(results[0][2][12:] == 0.0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("keep_prob", [0.9, 1.0])
def test_embed_bit_equal_to_old_chain_at_model_shape(dtype, keep_prob):
    # (N, T, D) = (8, 24, 512) of the cvcl_t_lm bench, V = 300 so ids repeat,
    # 48 position rows; each side draws its dropout mask from rng(43).
    r = rng(42)
    ids = padded_ids(r, 8, 24, 300)
    tables = (r.normal(0.0, 0.02, size=(300, 512)), r.normal(0.0, 0.02, size=(48, 512)))
    g = r.normal(size=(8, 24, 512)).astype(dtype)
    results = []
    for op in (embed, embed_chain):
        table, pos = (Tensor(x.astype(dtype), requires_grad=True) for x in tables)
        out = op(table, pos, ids, keep_prob, rng(43))
        tsum(mul(out, Tensor(g))).backward()
        results.append((out.data, table.grad, pos.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
    assert np.all(results[0][2][24:] == 0.0)


def test_embed_grad_check_with_pads_and_dropout():
    # table (7, 4), pos (5, 4), ids (3, 4) with pads and T < the 5 position
    # rows, keep_prob 0.5: every call draws its mask from a new rng(44).
    table = Tensor(rng(45).normal(size=(7, 4)), requires_grad=True)
    pos = Tensor(rng(46).normal(size=(5, 4)), requires_grad=True)
    ids = np.array([[3, 5, 3, 6], [4, 6, PAD_ID, PAD_ID], [6, PAD_ID, PAD_ID, PAD_ID]])
    w = Tensor(rng(47).normal(size=(3, 4, 4)))

    def f(ts):
        return tsum(mul(embed(ts[0], ts[1], ids, 0.5, rng(44)), w))

    assert grad_check(f, [table, pos]) < 1e-6
    assert np.all(pos.grad[4] == 0.0) and np.any(pos.grad[:4] != 0.0)
    assert np.all(table.grad[[1, 2]] == 0.0) and np.any(table.grad[PAD_ID] != 0.0)


def test_embed_backward_leaves_the_output_gradient_unchanged():
    # A one-value output can be the root of backward(), which keeps its
    # gradient of 1 although the mask (0 or 2 here) multiplies in place the
    # gradient that backward() passed to embed.
    table, pos = Tensor(np.ones((5, 1)), requires_grad=True), Tensor(np.zeros((1, 1)))
    out = embed(table, pos, np.array([[3]]), 0.5, rng(0))
    out.backward()
    np.testing.assert_array_equal(out.grad, [[[1.0]]])
    assert table.grad[3, 0] == out.data[0, 0, 0]


@pytest.mark.parametrize("ids,pos_shape", [
    ([[3, 6]], (4, 3)),            # id 6 outside a 6-row table
    ([[-1, 3]], (4, 3)),           # negative id
    ([[3, 4, 5, 3, 4]], (4, 3)),   # T = 5 > the 4 position rows
    ([3, 4], (4, 3)),              # ids not (N, T)
    ([[3, 4]], (4, 2)),            # pos narrower than the table
])
def test_embed_rejects_bad_shapes(ids, pos_shape):
    table, pos = Tensor(np.zeros((6, 3))), Tensor(np.zeros(pos_shape))
    with pytest.raises(ShapeError, match="^embed: "):
        embed(table, pos, np.array(ids))


def test_embedding_mean_grad_check_with_pads_and_dropout():
    # table (7, 4), pos (5, 4), ids (3, 4) with pads and T < the 5 position
    # rows, keep_prob 0.5: every call draws its mask from a new rng(36).
    table = Tensor(rng(37).normal(size=(7, 4)), requires_grad=True)
    pos = Tensor(rng(38).normal(size=(5, 4)), requires_grad=True)
    ids = np.array([[3, 5, 3, 6], [4, 6, PAD_ID, PAD_ID], [6, PAD_ID, PAD_ID, PAD_ID]])
    w = Tensor(rng(39).normal(size=(3, 4)))

    def f(ts):
        return tsum(mul(embedding_mean(ts[0], ts[1], ids, ids != PAD_ID, 0.5, rng(36)), w))

    assert grad_check(f, [table, pos]) < 1e-6
    assert np.all(pos.grad[4] == 0.0) and np.any(pos.grad[:4] != 0.0)
    assert np.all(table.grad[[0, 1, 2]] == 0.0)


@pytest.mark.parametrize("ids,valid_shape,pos_rows", [
    ([[3, 6]], (1, 2), 4),            # id 6 outside a 6-row table
    ([[-1, 3]], (1, 2), 4),           # negative id
    ([[3, 4]], (2, 1), 4),            # valid is not shaped like ids
    ([[3, 4, 5, 3, 4]], (1, 5), 4),   # T = 5 > the 4 position rows
    ([3, 4], (2,), 4),                # ids not (N, T)
])
def test_embedding_mean_rejects_bad_shapes(ids, valid_shape, pos_rows):
    table, pos = Tensor(np.zeros((6, 3))), Tensor(np.zeros((pos_rows, 3)))
    with pytest.raises(ShapeError, match="^embedding_mean: "):
        embedding_mean(table, pos, np.array(ids), np.ones(valid_shape, dtype=bool))


def test_embedding_mean_row_without_valid_position_raises():
    table, pos = Tensor(np.zeros((6, 3))), Tensor(np.zeros((4, 3)))
    ids = np.array([[3, 4], [PAD_ID, PAD_ID]])
    with pytest.raises(NumericsError, match="^embedding_mean: row with no valid position$"):
        embedding_mean(table, pos, ids, ids != PAD_ID)


def test_embedding_mean_dropout_needs_an_rng():
    table, pos = Tensor(np.zeros((6, 3))), Tensor(np.zeros((4, 3)))
    ids = np.array([[3, 4]])
    with pytest.raises(ValueError, match="explicit RNG"):
        embedding_mean(table, pos, ids, ids != PAD_ID, keep_prob=0.9)
    with pytest.raises(ValueError, match="keep_prob"):
        embedding_mean(table, pos, ids, ids != PAD_ID, keep_prob=0.0, rng=rng(0))


def test_take_per_row():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4), requires_grad=True)
    out = take_per_row(x, np.array([1, 2]))
    np.testing.assert_array_equal(out.data, [x.data[0, 1], x.data[1, 2]])
    tsum(out).backward()
    assert x.grad[0, 1].sum() == 4 and x.grad.sum() == 8


def test_dropout_scaling():
    x = Tensor(np.ones((1000,)))
    out = dropout(x, 0.5, rng(0))
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 2.0)  # inverted dropout scales by 1/keep
    assert abs(out.data.mean() - 1.0) < 0.1


def test_dropout_deterministic_under_seed():
    x = Tensor(np.ones(64))
    a = dropout(x, 0.7, np.random.default_rng(42)).data
    b = dropout(x, 0.7, np.random.default_rng(42)).data
    np.testing.assert_array_equal(a, b)


def test_dropout_mask_keeps_k_in_65536_lanes():
    # K = round(0.9 * 65536) = 58982; over 2**20 values the kept fraction has
    # a standard deviation of ~2.9e-4 around K/65536.
    n, k = 1 << 20, 58982
    kept = gt._dropout_mask((n,), 0.9, rng(37), np.float64) != 0
    p = k / 65536
    assert abs(kept.mean() - p) < 5 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("keep_prob", [0.9, 0.5, 0.3])
def test_dropout_mask_values_are_zero_or_the_inverse_keep_prob(dtype, keep_prob):
    mask = gt._dropout_mask((128, 12, 16), keep_prob, rng(38), dtype)
    assert mask.dtype == dtype and mask.shape == (128, 12, 16)
    values = np.unique(mask)
    np.testing.assert_array_equal(values, np.array([0.0, 1.0 / keep_prob], dtype))


def test_dropout_mask_is_the_same_in_float32_and_float64():
    m32 = gt._dropout_mask((8, 24, 512), 0.9, rng(39), np.float32)
    m64 = gt._dropout_mask((8, 24, 512), 0.9, rng(39), np.float64)
    np.testing.assert_array_equal(m32, m64.astype(np.float32))


@pytest.mark.parametrize("shape", [(1,), (4,), (5,), (7,), (2, 3, 4), (3, 5, 7)])
def test_dropout_mask_advances_the_generator_by_a_quarter_word_per_value(shape):
    ours, ref = rng(40), rng(40)
    gt._dropout_mask(shape, 0.9, ours, np.float32)
    ref.bit_generator.random_raw(-(-math.prod(shape) // 4))
    assert ours.bit_generator.state == ref.bit_generator.state


# 2**-17 * 65536 = 0.5 rounds half to even, to K = 0.
@pytest.mark.parametrize("keep_prob", [1e-6, 2.0 ** -17])
def test_dropout_mask_keep_prob_with_no_lane_raises(keep_prob):
    with pytest.raises(ValueError, match="keeps no 16-bit lane"):
        dropout(Tensor(np.ones(8)), keep_prob, rng(0))


def test_no_grad_blocks_graph():
    w = Tensor([2.0], requires_grad=True)
    with no_grad():
        out = mul(w, w)
    assert out._backward is None and not out.requires_grad


def causal_pad_mask(not_pad):
    """(N, T, T) keys each query may see: causal, and not a pad column."""
    t = not_pad.shape[1]
    return np.tril(np.ones((t, t), dtype=bool))[None, :, :] & not_pad[:, None, :]


def test_attention_grad_with_causal_mask():
    # (N, T, D, H) = (2, 4, 8, 2), causal as in the decoder.
    q, k, v = (Tensor(rng(21 + i).normal(size=(2, 4, 8)), requires_grad=True)
               for i in range(3))
    w = Tensor(rng(24).normal(size=(2, 4, 8)))

    def f(ts):
        return tsum(mul(attention(ts[0], ts[1], ts[2], heads=2), w))

    assert grad_check(f, [q, k, v]) < 1e-6


def test_attention_gives_disallowed_keys_exactly_zero_weight():
    # Key j is disallowed for every query i < j: moving it leaves those
    # queries bit-unchanged, and they pass it an exactly zero gradient.
    r = rng(25)
    q, k, v = (r.normal(size=(2, 4, 8)) for _ in range(3))
    w = r.normal(size=(2, 4, 8))

    def run(k, v, w=w):
        ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        out = attention(*ts, heads=2)
        tsum(mul(out, Tensor(w))).backward()
        return out.data, ts[1].grad, ts[2].grad

    out = run(k, v)[0]
    for n, j in [(0, 3), (0, 2), (1, 3), (1, 1), (1, 0)]:
        k2, v2 = k.copy(), v.copy()
        k2[n, j] += 5.0
        v2[n, j] -= 5.0
        out2 = run(k2, v2)[0]
        np.testing.assert_array_equal(out2[n, :j], out[n, :j])
        assert not np.array_equal(out2[n, j:], out[n, j:])
        np.testing.assert_array_equal(np.delete(out2, n, axis=0), np.delete(out, n, axis=0))
    for i in range(4):  # only query i has a gradient: keys after it get none
        wi = np.zeros_like(w)
        wi[:, i] = w[:, i]
        _, gk, gv = run(k, v, wi)
        np.testing.assert_array_equal(gk[:, i + 1:], 0.0)
        np.testing.assert_array_equal(gv[:, i + 1:], 0.0)
        assert np.abs(gv[:, :i + 1]).min() > 0.0


def test_take_per_row_grad_at_eos_positions():
    # Hidden states (N, T, D) = (3, 5, 4) picked at each row's <eos>, with
    # <pad> after it in the shorter rows, as the transformer encoder does.
    ids = np.array([[7, 8, 9, 10, EOS_ID],
                    [7, EOS_ID, PAD_ID, PAD_ID, PAD_ID],
                    [7, 8, EOS_ID, PAD_ID, PAD_ID]])
    eos = np.array([np.flatnonzero(row == EOS_ID)[-1] for row in ids])
    x = Tensor(rng(25).normal(size=(3, 5, 4)), requires_grad=True)
    w = Tensor(rng(26).normal(size=(3, 4)))

    def f(ts):
        return tsum(mul(take_per_row(ts[0], eos), w))

    assert grad_check(f, [x]) < 1e-6
    x.zero_grad()
    f([x]).backward()
    picked = np.zeros((3, 5), dtype=bool)
    picked[np.arange(3), eos] = True
    np.testing.assert_array_equal(x.grad[picked], w.data)
    np.testing.assert_array_equal(x.grad[~picked], 0.0)


def test_layer_norm_grad_over_batch_time_features():
    # (N, T, D) = (2, 3, 4), as the decoder's layer norms see it, with the
    # input, gamma and beta all requiring grad. A random weighting, because a
    # plain sum of the output does not depend on the input.
    x = Tensor(rng(27).normal(size=(2, 3, 4)), requires_grad=True)
    g = Tensor(rng(28).normal(size=4) + 1.0, requires_grad=True)
    b = Tensor(rng(29).normal(size=4), requires_grad=True)
    w = Tensor(rng(30).normal(size=(2, 3, 4)))

    def f(ts):
        return tsum(mul(layer_norm(ts[0], ts[1], ts[2]), w))

    assert grad_check(f, [x, g, b]) < 1e-6


def test_gelu_grad_over_batch_time_features():
    # (N, T, D) = (2, 3, 4), as the feed-forward blocks see it.
    x = Tensor(rng(31).normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng(32).normal(size=(2, 3, 4)))
    assert grad_check(lambda ts: tsum(mul(gelu(ts[0]), w)), [x]) < 1e-6


def test_dropout_grad_with_a_fixed_mask():
    # (N, T, D) = (2, 3, 4) at keep_prob 0.5. Every call draws its mask from a
    # new RNG of one seed, so the mask is fixed and finite differences are exact.
    x = Tensor(rng(33).normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng(34).normal(size=(2, 3, 4)))

    def f(ts):
        return tsum(mul(dropout(ts[0], 0.5, rng(35)), w))

    assert grad_check(f, [x]) < 1e-6
    kept = rng(35).bit_generator.random_raw(6).view(np.uint16)[:24].reshape(2, 3, 4) < 32768
    assert kept.any() and not kept.all()
    x.zero_grad()
    f([x]).backward()
    np.testing.assert_array_equal(x.grad[kept], 2.0 * w.data[kept])
    np.testing.assert_array_equal(x.grad[~kept], 0.0)


@pytest.mark.parametrize("q_shape,k_shape,heads", [
    ((2, 3, 4), (2, 3, 5), 2),   # k differs from q
    ((2, 3, 4), (2, 3, 4), 3),   # D not divisible by heads
    ((2, 3, 4), (2, 3, 4), 0),
    ((3, 4), (3, 4), 2),         # not (N, T, D)
])
def test_attention_rejects_bad_shapes(q_shape, k_shape, heads):
    q, k = Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape))
    with pytest.raises(ShapeError, match="^attention: "):
        attention(q, k, q, heads)


# --- attention against the composition it replaced ------------------------------

def unfused_attention(q, k, v, allowed, heads, g):
    """The reshape/transpose/matmul/scale/softmax chain the decoder ran before
    the attention op, forward and backward, in plain numpy: the output for
    q, k, v (N, T, D) and the q, k, v gradients for output gradient g."""
    n, t, d = q.shape
    dh = d // heads
    qh, kh, vh = (x.reshape(n, t, heads, dh).transpose(0, 2, 1, 3) for x in (q, k, v))
    mask = np.broadcast_to(allowed[:, None, :, :], (n, heads, t, t))
    scores = (qh @ kh.swapaxes(-1, -2)) / np.sqrt(dh)
    e = np.exp(np.where(mask, scores - np.where(mask, scores, -np.inf).max(-1, keepdims=True),
                        -np.inf))
    p = e / e.sum(axis=-1, keepdims=True)
    out = (p @ vh).transpose(0, 2, 1, 3).reshape(n, t, d)
    gc = g.reshape(n, t, heads, dh).transpose(0, 2, 1, 3)
    gp = gc @ vh.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / np.sqrt(dh)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n, t, d)

    return out, merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh), merge(p.swapaxes(-1, -2) @ gc)


def test_attention_matches_old_unfused_composition_at_model_shape():
    # (N, T, D, H) of the cvcl_t_lm bench, every row all tokens.
    r = rng(26)
    q, k, v, g = (r.normal(size=(8, 24, 512)) for _ in range(4))
    ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    out = attention(*ts, heads=8)
    tsum(mul(out, Tensor(g))).backward()
    ref = unfused_attention(q, k, v, causal_pad_mask(np.ones((8, 24), dtype=bool)), 8, g)
    for got, want in zip((out.data, ts[0].grad, ts[1].grad, ts[2].grad), ref):
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_attention_on_right_padded_rows_matches_old_pad_masked_composition():
    # (N, T, D, H) of the cvcl_t_lm bench; rows keep 24 down to 1 tokens
    # before their trailing pads. The old decoder also hid pad keys. Causal
    # attention sees them only from pad queries, which nothing reads, so the
    # outputs at token rows agree, and so do the q, k and v gradients for an
    # output gradient that is zero at pad rows, as the losses give.
    r = rng(27)
    not_pad = np.arange(24) < np.array([24, 23, 20, 16, 9, 5, 2, 1])[:, None]
    q, k, v, g = (r.normal(size=(8, 24, 512)) for _ in range(4))
    g *= not_pad[:, :, None]
    ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    out = attention(*ts, heads=8)
    tsum(mul(out, Tensor(g))).backward()
    ref = unfused_attention(q, k, v, causal_pad_mask(not_pad), 8, g)
    for got, want in zip((out.data[not_pad], ts[0].grad, ts[1].grad, ts[2].grad),
                         (ref[0][not_pad],) + ref[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# --- cross_entropy against the composition it replaced ---------------------------
# The three ops below are the log-softmax, pick-along-the-last-axis and diagonal
# ops the losses were built from before cross_entropy, kept as the reference.

def ref_logprobs(a, axis=-1):
    z = a.data - a.data.max(axis=axis, keepdims=True)
    data = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def bw(g):
        gt._accum(a, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return gt._make(data, "ref_logprobs", (a,), bw)


def ref_pick(a, idx):
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        gt._accum(a, buf)

    return gt._make(data, "ref_pick", (a,), bw)


def ref_diagonal(a):
    rows = np.arange(a.shape[0])

    def bw(g):
        buf = np.zeros_like(a.data)
        buf[rows, rows] = g
        gt._accum(a, buf)

    return gt._make(a.data[rows, rows].copy(), "ref_diagonal", (a,), bw)


def loss_and_grad(f, data):
    x = Tensor(data, requires_grad=True)
    loss = f(x)
    loss.backward()
    return loss.item(), x.grad


def assert_close_to_reference(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_cross_entropy_matches_old_lm_composition_at_model_shape():
    # (N, T, V) of the cvcl_t_lm bench; rows keep 24 down to 1 targets before
    # their trailing pads.
    r = rng(12)
    logits = 3.0 * r.normal(size=(8, 24, 2003))
    targets = r.integers(3, 2003, size=(8, 24))
    lengths = np.array([24, 23, 20, 16, 9, 5, 2, 1])
    valid = np.arange(24) < lengths[:, None]
    targets[~valid] = 0
    n = int(valid.sum())

    def reference(x):
        picked = ref_pick(ref_logprobs(x), targets)
        return mul(tsum(mul(picked, Tensor(valid.astype(float)))), -1.0 / n)

    loss, grad = loss_and_grad(lambda x: cross_entropy(x, targets, valid), logits)
    ref_loss, ref_grad = loss_and_grad(reference, logits)
    assert_close_to_reference(loss, ref_loss)
    assert_close_to_reference(grad, ref_grad)


@pytest.mark.parametrize("axis", [1, 0])
def test_cross_entropy_matches_old_contrastive_composition_at_model_shape(axis):
    # (N, N) similarities of the cvcl_wide bench: cosines over temperature 0.07.
    sims = rng(13).uniform(-1.0, 1.0, size=(128, 128)) / 0.07
    matched = np.arange(128)

    def new(x):
        return cross_entropy(x if axis == 1 else transpose(x), matched)

    loss, grad = loss_and_grad(new, sims)
    ref_loss, ref_grad = loss_and_grad(
        lambda x: mul(tsum(ref_diagonal(ref_logprobs(x, axis=axis))), -1.0 / 128), sims)
    assert_close_to_reference(loss, ref_loss)
    assert_close_to_reference(grad, ref_grad)


@pytest.mark.parametrize("shape,valid", [
    ((3, 5), None),
    ((2, 3, 4), None),
    ((2, 3, 4), np.array([[True, False, True], [True, True, False]])),
])
def test_cross_entropy_grad_check(shape, valid):
    r = rng(14)
    x = Tensor(r.normal(size=shape), requires_grad=True)
    targets = r.integers(shape[-1], size=shape[:-1])
    assert grad_check(lambda ts: cross_entropy(ts[0], targets, valid), [x]) < 1e-7


@pytest.mark.parametrize("targets,valid,error", [
    (np.array([0, 4]), None, ShapeError),
    (np.array([0, -1]), None, ShapeError),
    (np.array([0, 1, 2]), None, ShapeError),
    (np.array([0, 1]), np.array([True]), ShapeError),
    (np.array([0, 1]), np.array([False, False]), NumericsError),
])
def test_cross_entropy_rejects_bad_targets_and_masks(targets, valid, error):
    with pytest.raises(error, match="cross_entropy"):
        cross_entropy(Tensor(np.zeros((2, 4))), targets, valid)
