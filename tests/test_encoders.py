"""Encoder forward semantics, causality, gradients, checkpoint format."""

import gc
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from groundlex.corpus import EOS_ID, PAD_ID
from groundlex.encoders import (
    GLCK_VERSION, Model, ModelConfig, encode_frames, encode_utterances, lm_logits,
    load_checkpoint, save_checkpoint,
)
from groundlex.errors import DataError, ShapeError
from groundlex.objectives import LAMBDA_C, contrastive_loss, lm_loss
from groundlex.optim import AdamWState, adamw_step
from groundlex import tensor, train
from groundlex.tensor import Tensor, layer_norm, mul
from gradcheck import grad_check, tsum


def toy_config(variant="cvcl", **kw):
    base = dict(variant=variant, feature_dim=6, embed_dim=8, vocab_size=11,
                max_len=8, n_layers=2, n_heads=2, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def toy_model(variant="cvcl", seed=0, dtype="float32", **kw):
    """A toy model; ``dtype="float64"`` casts its float32 parameters, which is
    exact, for tests against a float64 oracle."""
    model = Model.init(toy_config(variant, **kw), np.random.default_rng(seed))
    return in_dtype(model, dtype)


def in_dtype(model, dtype):
    return Model(config=model.config,
                 params={name: Tensor(p.data.astype(dtype), requires_grad=True)
                         for name, p in model.params.items()})


# --- vision adapter -----------------------------------------------------------

def test_encode_frames_identity_projection_is_layer_norm():
    model = toy_model(feature_dim=8, dtype="float64")
    model.params["vis.proj_w"].data[:] = np.eye(8)
    model.params["vis.proj_b"].data[:] = 0.0
    feats = np.random.default_rng(1).normal(size=(3, 8))
    out = encode_frames(model, feats, train=False)
    expected = layer_norm(Tensor(feats), model.params["vis.ln_g"],
                          model.params["vis.ln_b"]).data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_encode_frames_train_eval_differ_only_by_dropout():
    model = toy_model(dtype="float64")
    feats = np.random.default_rng(2).normal(size=(4, 6))
    eval_out = encode_frames(model, feats, train=False)
    train_out = encode_frames(model, feats, train=True,
                              rng=np.random.default_rng(0))
    mask = train_out.data != 0
    keep = 1.0 - model.config.dropout
    np.testing.assert_allclose(train_out.data[mask],
                               (eval_out.data / keep)[mask], atol=1e-12)


def test_encode_frames_rejects_wrong_dim():
    model = toy_model()
    with pytest.raises(ShapeError):
        encode_frames(model, np.zeros((2, 5)))


@pytest.mark.parametrize("variant", ["cvcl", "cvcl_t", "cvcl_t_lm"])
def test_batches_that_are_not_two_dimensional_raise_shape_error(variant):
    # One row is a batch of one, (1, T) or (1, F); a bare row is refused.
    model = toy_model(variant)
    row = [3, 4, EOS_ID]
    encode_utterances(model, [row])
    encode_frames(model, np.zeros((1, 6)))
    calls = [lambda ids: encode_utterances(model, ids)]
    if model.config.uses_lm_head:
        calls.append(lambda ids: lm_logits(model, ids))
    too_long = [[3] * model.config.max_len + [EOS_ID]]
    for call in calls:
        for ids in (row, [[row]], too_long):
            with pytest.raises(ShapeError):
                call(ids)
    with pytest.raises(ShapeError, match="^encode_frames: "):
        encode_frames(model, np.zeros(6))


def test_encode_frames_grad_reaches_projection_not_features():
    model = toy_model(dtype="float64")
    feats = np.random.default_rng(3).normal(size=(2, 6))

    def f(_):
        out = encode_frames(model, feats, train=False)
        return tsum(mul(out, out))

    err = grad_check(f, [model.params["vis.proj_w"], model.params["vis.ln_g"]])
    assert err < 1e-5
    assert np.abs(model.params["vis.proj_w"].grad).sum() > 0


def test_whole_cvcl_t_lm_model_matches_finite_differences():
    # Every parameter of a float64 cvcl_t_lm under the bench's loss at
    # dropout 0: F=3, D=4, 2 heads, 2 layers, ff_mult 2, V=7, T=4, N=3, so
    # 420 scalars. The tied token table sums three gradients: the utterance
    # encoder's embed, the LM's embed and the LM head. At the helper's default
    # epsilon (1e-5) the embeddings' truncation error alone reads 5.4e-6.
    model = toy_model("cvcl_t_lm", seed=21, dtype="float64", feature_dim=3, embed_dim=4,
                      vocab_size=7, max_len=4, n_layers=2, n_heads=2, ff_mult=2, dropout=0.0)
    assert model.param_count() == 420
    ids = np.array([[3, 4, 5, EOS_ID], [6, 3, EOS_ID, PAD_ID], [5, EOS_ID, PAD_ID, PAD_ID]])
    feats = np.random.default_rng(22).normal(size=(3, 3))

    def f(_):
        return train.loss(model, feats, ids, None)  # dropout 0 draws nothing

    assert grad_check(f, model.params.values(), epsilon=1e-6) < 1e-6


# --- embedding encoder ----------------------------------------------------------

def test_embedding_single_token_is_tok_plus_pos():
    model = toy_model()
    out = encode_utterances(model, [[5]])
    expected = model.params["lang.tok_emb"].data[5] + model.params["lang.pos_emb"].data[0]
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_embedding_zero_positions_permutation_invariant():
    model = toy_model(dtype="float64")
    model.params["lang.pos_emb"].data[:] = 0.0
    a = encode_utterances(model, [[3, 4, 5, EOS_ID]])
    b = encode_utterances(model, [[5, 3, EOS_ID, 4]])
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_embedding_positions_carry_length_not_order():
    # mean(tok + pos) = mean(tok) + mean(pos[:T]): reordering tokens cannot
    # change the output, but utterance length moves the positional mean.
    model = toy_model(seed=7, dtype="float64")
    a = encode_utterances(model, [[3, 4, 5]])
    b = encode_utterances(model, [[5, 3, 4]])
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)
    tok_mean = model.params["lang.tok_emb"].data[[3, 4, 5]].mean(axis=0)
    pos_mean = model.params["lang.pos_emb"].data[:3].mean(axis=0)
    np.testing.assert_allclose(a.data[0], tok_mean + pos_mean, atol=1e-12)
    shorter = encode_utterances(model, [[3, 4]])
    assert np.abs(shorter.data - a.data).max() > 1e-9


def test_embedding_pads_excluded_from_average():
    model = toy_model()
    bare = encode_utterances(model, [[3, 4]])
    padded = encode_utterances(model, [[3, 4, PAD_ID, PAD_ID]])
    np.testing.assert_allclose(bare.data, padded.data, atol=1e-12)


def test_embedding_all_pad_errors():
    model = toy_model()
    with pytest.raises(DataError):
        encode_utterances(model, [[PAD_ID, PAD_ID]])


# --- transformer encoder ----------------------------------------------------------

def test_transformer_causality_bitwise():
    model = toy_model("cvcl_t")
    base = [[3, 4, 5, 6, EOS_ID]]
    changed = [[3, 4, 5, 7, EOS_ID]]
    from groundlex.encoders import _transformer_hidden
    h_base = _transformer_hidden(model, np.asarray(base, dtype=np.intp), 1.0, None)
    h_changed = _transformer_hidden(model, np.asarray(changed, dtype=np.intp), 1.0, None)
    # positions before the perturbed token are bit-identical
    np.testing.assert_array_equal(h_base.data[0, :3], h_changed.data[0, :3])
    assert np.abs(h_base.data[0, 3:] - h_changed.data[0, 3:]).max() > 0


def test_transformer_uses_both_positions():
    model = toy_model("cvcl_t")
    a = encode_utterances(model, [[3, EOS_ID]])
    b = encode_utterances(model, [[4, EOS_ID]])
    assert np.abs(a.data - b.data).max() > 1e-8


def test_transformer_requires_eos():
    model = toy_model("cvcl_t")
    with pytest.raises(DataError):
        encode_utterances(model, [[3, 4, 5]])


def test_eos_positions_are_each_rows_last_eos():
    from groundlex.encoders import _eos_positions
    ids = np.array([[3, EOS_ID, 4, EOS_ID], [EOS_ID, PAD_ID, PAD_ID, PAD_ID], [3, 4, 5, EOS_ID]])
    want = [np.flatnonzero(row == EOS_ID)[-1] for row in ids]  # the per-row reference
    np.testing.assert_array_equal(_eos_positions(ids), want)
    with pytest.raises(DataError, match="^utterance 1 has no <eos> token$"):
        _eos_positions(np.array([[3, EOS_ID], [3, 4]]))


def test_transformer_pad_after_eos_is_ignored():
    model = toy_model("cvcl_t")
    a = encode_utterances(model, [[3, 4, EOS_ID]])
    b = encode_utterances(model, [[3, 4, EOS_ID, PAD_ID, PAD_ID]])
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


@pytest.mark.parametrize("variant", ["cvcl", "cvcl_t", "cvcl_t_lm"])
def test_decoder_takes_only_right_padded_rows(variant):
    # The decoder has no pad mask: a token after a pad, as in a left-padded
    # row or a row with a gap, would see that pad, so it raises. cvcl masks
    # its pads and takes them anywhere.
    model = toy_model(variant)
    rows = [(0, [[PAD_ID, 3, EOS_ID]]), (0, [[3, PAD_ID, 4, EOS_ID]]),
            (1, [[3, EOS_ID, PAD_ID, PAD_ID], [3, PAD_ID, 4, EOS_ID]])]
    for bad, ids in rows:
        if not model.config.uses_transformer:
            assert encode_utterances(model, ids).shape == (len(ids), 8)
            continue
        for call in (encode_utterances, lm_logits):
            with pytest.raises(DataError, match=f"^utterance {bad}: a token follows <pad>; "):
                call(model, ids)


@pytest.mark.parametrize("variant", ["cvcl", "cvcl_t", "cvcl_t_lm"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_, np.int8, np.uint8,
                                   np.int32, np.int64])
def test_token_ids_must_have_an_integer_dtype(variant, dtype):
    # At a float or bool dtype, 3.7 would be read as 3 and True as 1.
    model = toy_model(variant)
    ids = np.array([[3, 4, EOS_ID]])
    calls = [encode_utterances] + ([lm_logits] if model.config.uses_transformer else [])
    for call in calls:
        want = call(model, ids).data
        if np.dtype(dtype).kind in "iu":
            np.testing.assert_array_equal(call(model, ids.astype(dtype)).data, want)
            continue
        with pytest.raises(DataError, match="token ids must be integers, got dtype "):
            call(model, ids.astype(dtype))
    with pytest.raises(DataError, match="token ids must be integers"):
        encode_utterances(model, [[3.7, EOS_ID]])


def reference_single_head_layer(p, pre, x):
    """Straight-line single-head attention + feed-forward block, written
    independently of the tensor engine (plain numpy, no reshapes)."""
    def ln(v, g, b, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * g + b

    def sm(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    g1, b1 = p[pre + "ln1_g"].data, p[pre + "ln1_b"].data
    h = ln(x, g1, b1)
    q = h @ p[pre + "wq"].data.T + p[pre + "qb"].data
    k = h @ p[pre + "wk"].data.T + p[pre + "kb"].data
    v = h @ p[pre + "wv"].data.T + p[pre + "vb"].data
    t, d = q.shape
    scores = q @ k.T / np.sqrt(d)
    scores[0, 1] = -1e30  # causal: position 0 cannot see position 1
    ctx = sm(scores) @ v
    out = ctx @ p[pre + "wo"].data.T + p[pre + "ob"].data
    x = x + out
    h = ln(x, p[pre + "ln2_g"].data, p[pre + "ln2_b"].data)
    from scipy.special import erf
    act = h @ p[pre + "ff1_w"].data.T + p[pre + "ff1_b"].data
    act = 0.5 * act * (1 + erf(act / np.sqrt(2)))
    return x + act @ p[pre + "ff2_w"].data.T + p[pre + "ff2_b"].data


def test_transformer_matches_reference_recomputation():
    # one layer, one head, two tokens: compare against a straight-line oracle
    model = toy_model("cvcl_t", n_layers=1, n_heads=1, seed=5, dtype="float64")
    ids = np.asarray([[4, EOS_ID]], dtype=np.intp)
    from groundlex.encoders import _transformer_hidden
    got = _transformer_hidden(model, ids, 1.0, None).data[0]

    p = model.params
    x = p["lang.tok_emb"].data[ids[0]] + p["lang.pos_emb"].data[:2]
    x = reference_single_head_layer(p, "lang.layer0.", x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = (x - mu) / np.sqrt(var + 1e-5) * p["lang.lnf_g"].data + p["lang.lnf_b"].data
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


# --- language-model head --------------------------------------------------------

def test_lm_logits_tied_weights_same_object():
    model = toy_model("cvcl_t_lm")
    ids = [[3, 4, EOS_ID]]
    before = lm_logits(model, ids).data.copy()
    model.params["lang.tok_emb"].data[4] += 0.5
    logits = lm_logits(model, ids)
    after = logits.data
    assert np.abs(after - before).max() > 0
    # unembedding column 4 moved together with embedding row 4
    assert np.abs(after[..., 4] - before[..., 4]).max() > 0
    # the head's matmul reads the table as stored, not a transposed copy
    hidden, table = logits._parents
    assert hidden.shape == (1, 3, model.config.embed_dim)
    assert table is model.params["lang.tok_emb"]


def test_lm_logits_requires_transformer():
    model = toy_model("cvcl")
    with pytest.raises(ValueError):
        lm_logits(model, [[3, EOS_ID]])


def test_lm_logits_shape():
    model = toy_model("cvcl_t_lm")
    out = lm_logits(model, [[3, 4, 5, EOS_ID]])
    assert out.shape == (1, 4, 11)


# --- variant dispatch -----------------------------------------------------------

def test_encode_utterances_dispatch():
    emb = toy_model("cvcl")
    trf = toy_model("cvcl_t")
    ids = [[3, 4, EOS_ID]]
    assert encode_utterances(emb, ids).shape == (1, 8)
    assert encode_utterances(trf, ids).shape == (1, 8)


def test_outputs_finite_for_random_inputs():
    rng = np.random.default_rng(0)
    for variant in ("cvcl", "cvcl_t"):
        model = toy_model(variant)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            ids = [[int(rng.integers(3, 11)) for _ in range(4)] + [EOS_ID]
                   for _ in range(n)]
            out = encode_utterances(model, ids)
            assert np.isfinite(out.data).all()
            feats = rng.normal(size=(n, 6)) * 10
            assert np.isfinite(encode_frames(model, feats).data).all()


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(variant="bogus")
    with pytest.raises(ValueError):
        ModelConfig(variant="cvcl_t", embed_dim=10, n_heads=4, vocab_size=11)


BAD_CONFIG_FIELDS = [
    ("feature_dim", 0), ("embed_dim", -4), ("max_len", 0), ("n_heads", 0),
    ("ff_mult", 0), ("n_layers", -1), ("vocab_size", -1), ("dropout", -0.1),
    ("dropout", 1.0), ("dropout", 1.5),
    # A size must be an int, not a float or a bool, and dropout a number.
    ("n_layers", 2.5), ("embed_dim", 8.0), ("feature_dim", 6.0), ("n_heads", True),
    ("vocab_size", None), ("dropout", "0.1"), ("dropout", False),
]


@pytest.mark.parametrize("name,value", BAD_CONFIG_FIELDS)
def test_model_config_rejects_bad_field(name, value):
    with pytest.raises(ValueError, match=name):
        toy_config("cvcl_t", **{name: value})


def test_model_config_accepts_the_bounds():
    cfg = toy_config("cvcl_t", n_layers=0, vocab_size=0, dropout=0.0)
    assert (cfg.n_layers, cfg.vocab_size, cfg.dropout) == (0, 0, 0.0)


def with_config(blob: bytes, **changes) -> bytes:
    """A GLCK file with fields of its config header replaced."""
    (clen,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + clen])
    config.update(changes)
    new = json.dumps(config, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + clen:]


@pytest.mark.parametrize("name,value", BAD_CONFIG_FIELDS)
def test_checkpoint_with_bad_config_field_raises_data_error(tmp_path, name, value):
    path = tmp_path / "model.glck"
    save_checkpoint(toy_model("cvcl_t", seed=7), path)
    path.write_bytes(with_config(path.read_bytes(), **{name: value}))
    with pytest.raises(DataError, match=f"bad config header .*{name}") as e:
        load_checkpoint(path)
    assert str(path) in str(e.value)


# --- checkpoints -------------------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path):
    for variant in ("cvcl", "cvcl_t_lm"):
        model = toy_model(variant, seed=3)
        path = tmp_path / f"{variant}.glck"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == np.float32, name
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
        # after the header, only the little-endian float32 values, in name order
        blob = path.read_bytes()
        (clen,) = struct.unpack("<I", blob[8:12])
        assert blob[12 + clen:] == b"".join(
            model.params[name].data.astype("<f4").tobytes() for name in sorted(model.params))
        ids = [[3, 4, EOS_ID]]
        np.testing.assert_array_equal(encode_utterances(model, ids).data,
                                      encode_utterances(loaded, ids).data)


@pytest.mark.parametrize("value,index", [(np.nan, (0, 0)), (np.inf, (1, 2))])
def test_checkpoint_with_a_non_finite_value_is_rejected(tmp_path, value, index):
    model = toy_model("cvcl", seed=3)
    model.params["vis.proj_w"].data[index] = value
    path = tmp_path / "model.glck"
    save_checkpoint(model, path)
    flat = index[0] * model.params["vis.proj_w"].shape[1] + index[1]
    with pytest.raises(DataError, match=f"parameter 'vis.proj_w' has a non-finite value "
                                        f"at flat index {flat}$") as e:
        load_checkpoint(path)
    assert str(path) in str(e.value)


def test_version_2_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "model.glck"
    save_checkpoint(toy_model("cvcl", seed=3), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    with pytest.raises(DataError, match="unsupported checkpoint version 2$"):
        load_checkpoint(path)


def test_version_3_checkpoint_is_refused(tmp_path):
    # v3 restated every parameter's name, ndim and shape, and their count.
    # v4 held the weights (in, out): a square one would load transposed.
    path = tmp_path / "model.glck"
    save_checkpoint(toy_model("cvcl", seed=3), path)
    blob = path.read_bytes()
    for version in (3, 4):
        path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version}$"):
            load_checkpoint(path)


def test_float32_checkpoint_cut_inside_values_names_the_offset(tmp_path):
    model = toy_model("cvcl", seed=3)
    path = tmp_path / "model.glck"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    last = model.params[max(model.params)].data
    start = len(blob) - 4 * last.size
    cut = start + 6
    path.write_bytes(blob[:cut])
    with pytest.raises(DataError) as e:
        load_checkpoint(path)
    assert str(e.value) == (f"{path}: file truncated at byte {cut} "
                            f"(needed {4 * last.size} bytes from byte {start}), "
                            f"in parameter {max(model.params)!r}")


@pytest.mark.parametrize("extra", ["byte", "block"])
def test_checkpoint_with_bytes_after_the_last_parameter_is_rejected(tmp_path, extra):
    model = toy_model("cvcl", seed=3)
    path = tmp_path / "model.glck"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    block = model.params[max(model.params)].data.astype("<f4").tobytes()
    path.write_bytes(blob + (b"\x00" if extra == "byte" else block))
    with pytest.raises(DataError) as e:
        load_checkpoint(path)
    assert str(e.value) == (f"{path}: unexpected bytes after the last of "
                            f"{len(model.params)} parameters, from byte {len(blob)}")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.glck"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_truncated_checkpoint_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "model.glck"
    save_checkpoint(toy_model("cvcl_t_lm", seed=4), path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.glck"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataError) as e:
            load_checkpoint(cut)
        msg = str(e.value)
        assert str(cut) in msg
        assert f"truncated at byte {n}" in msg


def test_huge_declared_config_fails_without_allocating_it(tmp_path):
    # A 14-byte GLCK whose header declares a 100 MB config.
    path = tmp_path / "model.glck"
    path.write_bytes(b"GLCK" + struct.pack("<II", GLCK_VERSION, 100_000_000) + b"{}")
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as e:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == (f"{path}: file truncated at byte 14 "
                            f"(needed 100000000 bytes from byte 12)")
    assert peak < 1_000_000, peak


def test_checkpoint_keeps_the_whole_config(tmp_path):
    model = toy_model("cvcl_t_lm", seed=6, dropout=0.3, ff_mult=2)
    path = tmp_path / "model.glck"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.config.dropout == 0.3


@pytest.mark.parametrize("offset", ["config"])
def test_corrupt_checkpoint_text_raises_data_error_with_offset(tmp_path, offset):
    path = tmp_path / "model.glck"
    save_checkpoint(toy_model("cvcl_t", seed=7), path)
    blob = bytearray(path.read_bytes())
    at = 12  # the first byte of the config text
    blob[at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"invalid UTF-8 at byte {at}$") as e:
        load_checkpoint(path)
    assert str(path) in str(e.value)


def test_checkpoint_with_bad_config_raises_data_error(tmp_path):
    path = tmp_path / "model.glck"
    save_checkpoint(toy_model("cvcl_t", seed=7), path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b'"variant": "cvcl_t"', b'"variant": "cvcl_x"', 1))
    with pytest.raises(DataError, match="bad config header .*unknown variant 'cvcl_x'"):
        load_checkpoint(path)


@pytest.mark.parametrize("change,expected", [
    ("shape", r"'vis\.proj_b' has shape \(9,\), config expects \(8,\)"),
    ("missing", r"'vis\.ln_g' has shape None, config expects \(8,\)"),
    ("extra", r"'vis\.extra' has shape \(8,\), config expects None"),
])
def test_checkpoint_parameters_must_match_config(tmp_path, change, expected):
    # The writer is the one place where parameters can disagree with the config.
    model = toy_model("cvcl", seed=8)
    if change == "shape":
        model.params["vis.proj_b"] = Tensor(np.zeros(9), requires_grad=True)
    elif change == "missing":
        del model.params["vis.ln_g"]
    else:
        model.params["vis.extra"] = Tensor(np.zeros(8), requires_grad=True)
    path = tmp_path / "model.glck"
    with pytest.raises(ShapeError, match="^save_checkpoint: parameter " + expected):
        save_checkpoint(model, path)
    assert not path.exists()


@pytest.mark.parametrize("delta", [1, -1])
def test_checkpoint_whose_config_disagrees_with_its_values_is_rejected(tmp_path, delta):
    # A config with one token more asks for a longer table than the file holds;
    # one token fewer leaves the file's last D values unread.
    model = toy_model("cvcl_t_lm", seed=5)
    path = tmp_path / "model.glck"
    save_checkpoint(model, path)
    vocab, d = model.config.vocab_size, model.config.embed_dim
    blob = with_config(path.read_bytes(), vocab_size=vocab + delta)
    path.write_bytes(blob)
    with pytest.raises(DataError) as e:
        load_checkpoint(path)
    if delta > 0:
        # Each block after the table that grew starts D values late, so the
        # file runs out in the last block in sorted name order.
        assert str(e.value).startswith(f"{path}: file truncated at byte {len(blob)} ")
        assert str(e.value).endswith(f", in parameter {max(model.params)!r}")
    else:
        assert str(e.value) == (f"{path}: unexpected bytes after the last of "
                                f"{len(model.params)} parameters, from byte {len(blob) - 4 * d}")


def test_init_params_draw_order_is_unchanged():
    # The draw sequence every seeded run and checkpoint depends on: float64
    # draws, as before float32 training, then cast to float32. Weights are
    # drawn (in, out), as when they were stored that way, and stored (out, in).
    cfg = toy_config("cvcl_t_lm")
    d, ff = cfg.embed_dim, cfg.ff_mult * cfg.embed_dim
    rng = np.random.default_rng(9)

    def xavier(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out)).T

    expected = {"vis.proj_w": xavier(cfg.feature_dim, d),
                "lang.tok_emb": rng.normal(0.0, 0.02, size=(cfg.vocab_size, d)),
                "lang.pos_emb": rng.normal(0.0, 0.02, size=(cfg.max_len, d))}
    for i in range(cfg.n_layers):
        for name in ("wq", "wk", "wv", "wo"):
            expected[f"lang.layer{i}.{name}"] = xavier(d, d)
        expected[f"lang.layer{i}.ff1_w"] = xavier(d, ff)
        expected[f"lang.layer{i}.ff2_w"] = xavier(ff, d)
    params = Model.init(cfg, np.random.default_rng(9)).params
    assert len(params) == 6 + 16 * cfg.n_layers + 2
    for name, p in params.items():
        assert p.data.dtype == np.float32, name
        if name in expected:
            assert p.data.flags.c_contiguous, name
            assert p.data.tobytes() == expected[name].astype(np.float32).tobytes(), name
        else:
            fill = 1.0 if name.endswith("_g") else 0.0
            assert p.data.ndim == 1 and np.all(p.data == fill), name


def test_parameters_hold_no_gradient_until_zero_grad(tmp_path):
    # A model that only scores allocates no gradient; zero_grad() makes one
    # buffer per parameter and then reuses it.
    path = tmp_path / "m.glck"
    save_checkpoint(toy_model("cvcl_t_lm"), path)
    for model in (toy_model("cvcl_t_lm"), load_checkpoint(path)):
        assert all(p.grad is None for p in model.params.values())
        model.zero_grad()
        buffers = {name: p.grad for name, p in model.params.items()}
        for name, p in model.params.items():
            assert p.grad.shape == p.shape and p.grad.dtype == p.data.dtype, name
            assert not p.grad.any(), name
        joint_step_loss(model, np.random.default_rng(3)).backward()
        model.zero_grad()
        for name, p in model.params.items():
            assert p.grad is buffers[name] and not p.grad.any(), name


# --- seeded training ---------------------------------------------------------------

def train_toy_joint_model(steps=4, dtype="float32"):
    model = toy_model("cvcl_t_lm", seed=10, dropout=0.3, dtype=dtype)
    rng = np.random.default_rng((10, 1))
    state = AdamWState()
    ids = np.array([[5, 6, 7, EOS_ID], [8, 9, EOS_ID, PAD_ID], [4, EOS_ID, PAD_ID, PAD_ID]])
    for _ in range(steps):
        train.step(model, state, rng.normal(size=(3, 6)), ids, 1e-2, rng)
    return model


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_seeded_training_is_bit_identical(dtype):
    first = train_toy_joint_model(dtype=dtype)
    second = train_toy_joint_model(dtype=dtype)
    start = toy_model("cvcl_t_lm", seed=10, dropout=0.3, dtype=dtype)
    assert first.params.keys() == second.params.keys()
    for name, p in first.params.items():
        assert p.data.dtype == dtype, name
        assert p.data.tobytes() == second.params[name].data.tobytes(), name
    assert not np.array_equal(first.params["lang.layer1.wq"].data,
                              start.params["lang.layer1.wq"].data)


# --- precision ---------------------------------------------------------------------

STEP_IDS = np.array([[5, 6, 7, EOS_ID], [8, 9, EOS_ID, PAD_ID], [4, EOS_ID, PAD_ID, PAD_ID]])


def joint_step_loss(model, rng):
    """The loss of one training step on three fixed utterances."""
    return train.loss(model, rng.normal(size=(3, model.config.feature_dim)), STEP_IDS, rng)


@pytest.mark.parametrize("variant", ["cvcl", "cvcl_t", "cvcl_t_lm"])
def test_float32_training_step_stays_float32(monkeypatch, variant):
    # Every op output and every gradient an op hands back is float32.
    seen = []
    make, accum = tensor._make, tensor._accum

    def spy_make(data, op, parents, backward):
        seen.append((op, data.dtype))
        return make(data, op, parents, backward)

    def spy_accum(t, g):
        seen.append(("gradient", g.dtype))
        accum(t, g)

    monkeypatch.setattr(tensor, "_make", spy_make)
    monkeypatch.setattr(tensor, "_accum", spy_accum)
    model = toy_model(variant, seed=11, dropout=0.3)
    state = AdamWState()
    model.zero_grad()
    loss = joint_step_loss(model, np.random.default_rng(12))
    loss.backward()
    adamw_step(model.params, state, lr=1e-2)
    assert {op for op, _ in seen} >= {"matmul", "layer_norm", "mul", "cross_entropy", "gradient"}
    assert [(op, dt) for op, dt in seen if dt != np.float32] == []
    for name, p in model.params.items():
        assert p.data.dtype == p.grad.dtype == np.float32, name
        assert state.first_moment[name].dtype == np.float32, name
        assert state.second_moment[name].dtype == np.float32, name


def record_ops(monkeypatch):
    """The list that the name of every op made from now on is appended to."""
    made = []
    make = tensor._make

    def spy_make(data, op, parents, backward):
        made.append(op)
        return make(data, op, parents, backward)

    monkeypatch.setattr(tensor, "_make", spy_make)
    return made


def test_training_step_tape_has_one_attention_node_per_layer_pass(monkeypatch):
    # One cvcl_t_lm step runs the decoder once: the LM logits read the hidden
    # states of the utterance encoding's pass. So each layer's attention is
    # one node, and so is the decoder's input (one embed in place of 2
    # gathers, add and dropout). Every affine layer is one matmul node that
    # adds its own bias.
    made = record_ops(monkeypatch)
    model = toy_model("cvcl_t_lm", seed=15, dropout=0.3)
    assert model.config.n_layers == 2
    model.zero_grad()
    loss = joint_step_loss(model, np.random.default_rng(16))
    assert len(made) == 47
    assert made.count("attention") == model.config.n_layers
    assert made.count("transpose") == 1  # the utterance side of the contrastive loss
    assert made.count("embed") == 1 and "embedding" not in made
    loss.backward()
    adamw_step(model.params, AdamWState(), lr=1e-2)
    assert len(made) == 47


def test_cvcl_training_step_tape_has_one_embedding_mean_node(monkeypatch):
    # The cvcl utterance encoder is one embedding_mean node; the chain it
    # replaced (2 embeddings, add, dropout, pad mul, sum, 1/count mul) made
    # this step's forward tape 21 nodes. The vision bias is added inside its
    # matmul node.
    made = record_ops(monkeypatch)
    model = toy_model("cvcl", seed=17, dropout=0.3)
    model.zero_grad()
    loss = joint_step_loss(model, np.random.default_rng(18))
    assert len(made) == 13
    assert made.count("embedding_mean") == 1
    assert made.count("transpose") == 1
    assert "embedding" not in made and "sum" not in made
    loss.backward()
    adamw_step(model.params, AdamWState(), lr=1e-2)
    assert len(made) == 13


def test_float32_step_agrees_with_float64():
    single = Model.init(toy_config("cvcl_t_lm", embed_dim=16, n_heads=4, dropout=0.0),
                        np.random.default_rng(13))
    double = in_dtype(single, np.float64)
    losses, grads = [], []
    for model in (single, double):
        model.zero_grad()
        loss = joint_step_loss(model, np.random.default_rng(14))
        loss.backward()
        losses.append(loss.item())
        grads.append({name: p.grad for name, p in model.params.items()})
    assert losses[0] == pytest.approx(losses[1], rel=1e-6)
    # Relative to the largest gradient: the key-bias gradients are zero in
    # exact arithmetic, so a per-parameter relative error would be noise.
    scale = max(np.linalg.norm(g) for g in grads[1].values())
    for name, g64 in grads[1].items():
        assert np.abs(grads[0][name] - g64).max() <= 1e-4 * scale, name


def test_one_pass_joint_loss_matches_its_terms_on_separate_tapes():
    # train.loss runs the decoder once and its hidden states sum the gradients
    # of both heads; each term on its own tape, with its own pass, is the
    # reference. At dropout 0 the two differ only in summation order.
    model = toy_model("cvcl_t_lm", seed=23, dropout=0.0, dtype="float64")
    feats = np.random.default_rng(24).normal(size=(3, model.config.feature_dim))
    targets = np.concatenate([STEP_IDS[:, 1:], np.full((3, 1), PAD_ID)], axis=1)

    def grads_of(loss_fn):
        model.zero_grad()
        loss = loss_fn()
        loss.backward()
        return loss.item(), {name: p.grad.copy() for name, p in model.params.items()}

    joint, joint_grads = grads_of(lambda: train.loss(model, feats, STEP_IDS,
                                                     np.random.default_rng(25)))
    con, con_grads = grads_of(lambda: contrastive_loss(
        encode_frames(model, feats), encode_utterances(model, STEP_IDS))[0])
    lm, lm_grads = grads_of(lambda: lm_loss(lm_logits(model, STEP_IDS), targets))
    assert joint == pytest.approx(lm + LAMBDA_C * con, rel=1e-12)
    # Relative to the largest gradient, as the key-bias gradients are zero in
    # exact arithmetic.
    scale = max(np.abs(g).max() for g in joint_grads.values())
    for name, g in joint_grads.items():
        np.testing.assert_allclose(g, lm_grads[name] + LAMBDA_C * con_grads[name],
                                   rtol=1e-12, atol=1e-12 * scale, err_msg=name)


@pytest.mark.parametrize("second,passes", [
    ("reuse", 1), ("third_call", 2), ("eval", 2), ("no_grad", 2), ("ids_edited", 2),
    ("other_rng", 2), ("after_backward", 2),
])
def test_decoder_pass_is_reused_only_by_the_next_train_call_on_its_tape(
        monkeypatch, second, passes):
    # Each decoder pass is one embed node. The first call is a train-mode
    # utterance encoding; the second LM call reuses its pass only when it is
    # in train mode with grad on, on equal ids and the same rng object, and
    # before backward() has consumed the pass.
    made = record_ops(monkeypatch)
    model = toy_model("cvcl_t_lm", seed=19, dropout=0.3)
    rng = np.random.default_rng(20)
    ids = STEP_IDS.astype(np.intp)
    utterances = encode_utterances(model, ids, train=True, rng=rng)
    hidden = utterances._parents[0]
    if second == "third_call":
        assert lm_logits(model, ids, train=True, rng=rng)._parents[0] is hidden
    elif second == "ids_edited":
        ids[2, 0] = 5  # in place: the record holds its own copy of the ids
    elif second == "other_rng":
        rng = np.random.default_rng(20)
    elif second == "after_backward":
        tsum(utterances).backward()  # `hidden` stays alive, its tape consumed
    if second == "eval":
        logits = lm_logits(model, ids)
    elif second == "no_grad":
        with tensor.no_grad():
            logits = lm_logits(model, ids, train=True, rng=rng)
        assert not logits.requires_grad
    else:
        logits = lm_logits(model, ids, train=True, rng=rng)
    assert made.count("embed") == passes
    assert (logits._parents[:1] == (hidden,)) == (passes == 1)


# --- autograd graph lifetime ---------------------------------------------------

@pytest.mark.parametrize("run_backward", [True, False])
def test_training_graph_is_freed_without_the_cycle_collector(run_backward):
    # Every tape node must be freed by reference counting alone: a backward
    # function that captures its own output would leave a cycle here.
    model = toy_model("cvcl_t_lm", seed=5)
    rng = np.random.default_rng(0)
    ids = np.array([[5, 6, 7, EOS_ID], [8, 9, EOS_ID, PAD_ID]])
    gc.collect()
    gc.disable()
    try:
        loss = train.loss(model, rng.normal(size=(2, 6)), ids, rng)
        if run_backward:
            loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("variant", ["cvcl_t", "cvcl_t_lm"])
@pytest.mark.parametrize("run_backward", [True, False])
def test_model_keeps_no_tensor_of_a_step_alive(monkeypatch, variant, run_backward):
    # The model's record of its last decoder pass refers to the hidden states
    # weakly. A cvcl_t step leaves that record unused, so a strong reference
    # would keep the step's whole decoder graph alive.
    made = []
    make = tensor._make

    def spy_make(data, op, parents, backward):
        out = make(data, op, parents, backward)
        made.append((op, weakref.ref(out)))
        return out

    monkeypatch.setattr(tensor, "_make", spy_make)
    model = toy_model(variant, seed=21, dropout=0.3)
    gc.collect()
    gc.disable()
    try:
        loss = joint_step_loss(model, np.random.default_rng(22))
        assert model._last_pass is None or model._last_pass[2]() is not None
        if run_backward:
            loss.backward()
            assert [op for op, ref in made if ref() not in (None, loss)] == []
        del loss
        assert [op for op, ref in made if ref() is not None] == []
    finally:
        gc.enable()
