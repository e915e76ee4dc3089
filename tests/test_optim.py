"""AdamW and learning-rate schedule contracts."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from groundlex.optim import (
    _BLOCK_BYTES, BETA1, BETA2, EPSILON, WEIGHT_DECAY, AdamWState, LRSchedule, adamw_step,
    lr_at,
)
from groundlex.errors import NumericsError, ShapeError
from groundlex.tensor import Tensor


def make_param(values):
    p = Tensor(np.asarray(values, dtype=float), requires_grad=True)
    p.grad = np.ones_like(p.data)
    return p


def test_adamw_lr_zero_is_identity():
    # Identity on the parameters only: the moments take the gradient, so the
    # next step's bias correction divides exactly the updates they hold.
    p = make_param([1.0, -2.0, 3.0])
    p.grad = g = np.array([0.5, -4.0, 3.0])
    state = AdamWState()
    before = p.data.copy()
    adamw_step({"p": p}, state, lr=0.0)
    np.testing.assert_array_equal(p.data, before)
    np.testing.assert_array_equal(state.first_moment["p"], (1.0 - BETA1) * g)
    np.testing.assert_array_equal(state.second_moment["p"], (1.0 - BETA2) * g * g)
    assert state.step_count == 1


def test_adamw_first_step_moves_by_lr():
    # Closed form with bias correction: m_hat = g, v_hat = g^2, so the first
    # step with g = 1 moves by -lr/(1 + eps); decay leaves a zero at zero.
    p = make_param([0.0])
    state = AdamWState()
    adamw_step({"p": p}, state, lr=0.01)
    assert abs(p.data[0] + 0.01 / (1 + EPSILON)) < 1e-15


def test_adamw_decoupled_weight_decay():
    # Zero gradient: the only movement is the multiplicative decay.
    p = make_param([10.0])
    p.grad = np.zeros_like(p.data)
    state = AdamWState()
    adamw_step({"p": p}, state, lr=0.5)
    np.testing.assert_allclose(p.data, [10.0 * (1 - 0.5 * WEIGHT_DECAY)])


def test_adamw_default_weight_decay_matches_training_configuration():
    assert WEIGHT_DECAY == 0.1


def test_adamw_shape_mismatch():
    p = make_param([1.0, 2.0])
    p.grad = np.ones(3)
    with pytest.raises(Exception):
        adamw_step({"p": p}, AdamWState(), lr=0.1)


@pytest.mark.parametrize("bad_grad, expected", [
    (None, r"^adamw_step: parameter 'b' has no gradient$"),
    (np.ones(3), r"^adamw_step: parameter 'b': shape mismatch \(2,\) vs \(3,\)$"),
], ids=["None", "bad_grad1"])
def test_adamw_bad_later_gradient_changes_nothing(bad_grad, expected):
    # The first parameter has a good gradient and moments from an earlier
    # step; the second's gradient is missing or shaped unlike it.
    first, second = make_param([1.0, -2.0]), make_param([3.0, 4.0])
    state = AdamWState()
    adamw_step({"a": first, "b": second}, state, lr=0.1)
    saved = ([first.data.copy(), second.data.copy()],
             {k: v.copy() for k, v in state.first_moment.items()},
             {k: v.copy() for k, v in state.second_moment.items()})
    first.grad = good = np.ones(2)  # the update dropped both gradients
    second.grad = bad_grad
    with pytest.raises(ShapeError, match=expected):
        adamw_step({"a": first, "b": second}, state, lr=0.1)
    assert first.grad is good and second.grad is bad_grad
    params, m, v = saved
    np.testing.assert_array_equal(first.data, params[0])
    np.testing.assert_array_equal(second.data, params[1])
    for name in ("a", "b"):
        np.testing.assert_array_equal(state.first_moment[name], m[name])
        np.testing.assert_array_equal(state.second_moment[name], v[name])
    assert state.step_count == 1


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3])
def test_adamw_rejects_a_non_finite_or_negative_lr(lr):
    p = make_param([1.0, -2.0])
    state = AdamWState()
    with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
        adamw_step({"p": p}, state, lr)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step_count == 0 and state.first_moment == {}


@pytest.mark.parametrize("value, index", [(np.nan, 5), (np.inf, 66_000)])
def test_adamw_non_finite_later_gradient_changes_nothing(value, index):
    # The second parameter spans two check blocks; its gradient holds one
    # NaN or +Inf, which would turn every value of it into NaN.
    first, second = make_param([1.0, -2.0]), make_param(np.zeros(70_000))
    state = AdamWState()
    adamw_step({"a": first, "b": second}, state, lr=0.1)
    saved = ([first.data.copy(), second.data.copy()],
             {k: v.copy() for k, v in state.first_moment.items()},
             {k: v.copy() for k, v in state.second_moment.items()})
    good, bad = np.ones(2), np.ones(70_000)  # the update dropped both gradients
    bad[index] = value
    first.grad, second.grad = good, bad
    expected = (f"^adamw_step: parameter 'b' has a non-finite gradient "
                f"at flat index {index}$")
    with pytest.raises(NumericsError, match=expected):
        adamw_step({"a": first, "b": second}, state, lr=0.1)
    assert first.grad is good and second.grad is bad
    params, m, v = saved
    np.testing.assert_array_equal(first.data, params[0])
    np.testing.assert_array_equal(second.data, params[1])
    for name in ("a", "b"):
        np.testing.assert_array_equal(state.first_moment[name], m[name])
        np.testing.assert_array_equal(state.second_moment[name], v[name])
    assert state.step_count == 1


NOT_A_RATE = [True, False, np.bool_(True), "1", [1e-3]]


@pytest.mark.parametrize("lr", NOT_A_RATE)
def test_adamw_rejects_an_lr_that_is_not_a_real_number(lr):
    # adamw_step(params, state, True) used to update as if lr were 1.0.
    p = make_param([1.0, -2.0])
    state = AdamWState()
    with pytest.raises(ValueError, match=re.escape(f"lr must be a real number, got {lr!r}")):
        adamw_step({"p": p}, state, lr)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step_count == 0 and state.first_moment == {}


def test_adamw_step_has_no_default_lr():
    # A call that left lr out used to train at AdamWState.learning_rate, 1e-4.
    p = make_param([1.0, -2.0])
    with pytest.raises(TypeError, match="lr"):
        adamw_step({"p": p}, AdamWState(learning_rate=0.5))
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


@pytest.mark.parametrize("peak_lr", NOT_A_RATE + [None])
def test_lr_schedule_rejects_a_peak_that_is_not_a_real_number(peak_lr):
    # LRSchedule(True, 2, 10) used to give lr 0.69 at step 5, and
    # LRSchedule("1", 2, 10) raised a raw TypeError.
    with pytest.raises(ValueError, match=re.escape(f"peak_lr must be a real number, got {peak_lr!r}")):
        LRSchedule(peak_lr, 2, 10)


@pytest.mark.parametrize("rate", [1, np.float64(1e-3), np.float32(1e-3), np.int64(1)])
def test_integers_and_numpy_floats_are_rates(rate):
    p = make_param([1.0, -2.0])
    adamw_step({"p": p}, AdamWState(), rate)
    assert not np.array_equal(p.data, [1.0, -2.0])
    assert lr_at(LRSchedule(rate, 2, 10), 2) == rate


def test_adamw_step_count_strictly_increases():
    p = make_param([1.0])
    state = AdamWState()
    for expected in range(1, 5):
        p.grad = np.ones(1)  # each update drops the gradient it used
        adamw_step({"p": p}, state, lr=1e-3)
        assert state.step_count == expected


def test_lr_schedule_endpoints():
    sched = LRSchedule(peak_lr=1e-4, warmup_steps=5000, total_steps=20000)
    assert lr_at(sched, 0) == 0.0
    assert lr_at(sched, 5000) == pytest.approx(1e-4)
    assert abs(lr_at(sched, 20000)) < 1e-12


def test_lr_schedule_warmup_is_linear():
    sched = LRSchedule(peak_lr=2e-3, warmup_steps=100, total_steps=1000)
    for step in (1, 25, 50, 99):
        assert lr_at(sched, step) == pytest.approx(2e-3 * step / 100)


def test_lr_schedule_clamps_past_total():
    sched = LRSchedule(peak_lr=1.0, warmup_steps=10, total_steps=100)
    assert lr_at(sched, 150) == lr_at(sched, 100)


def test_lr_schedule_nonnegative_and_continuous_at_warmup():
    sched = LRSchedule(peak_lr=3e-4, warmup_steps=500, total_steps=5000)
    values = [lr_at(sched, s) for s in range(0, 5001, 7)]
    assert all(v >= 0.0 for v in values)
    left = lr_at(sched, 499)
    right = lr_at(sched, 501)
    peak = lr_at(sched, 500)
    assert left < peak <= 3e-4 and right < peak
    assert peak == pytest.approx(3e-4)


@pytest.mark.parametrize("step", [2.5, 2.0, True, None, np.int64(3), -1])
def test_lr_at_rejects_a_step_that_is_not_an_integer(step):
    # lr_at(s, 2.5) used to give 0.990, a rate off the integer schedule, and
    # lr_at(s, True) gave 0.5.
    with pytest.raises(ValueError, match=re.escape(f"step must be an integer >= 0, got {step!r}")):
        lr_at(LRSchedule(peak_lr=1.0, warmup_steps=2, total_steps=10), step)


def test_lr_schedule_rejects_bad_bounds():
    with pytest.raises(ValueError):
        LRSchedule(peak_lr=1.0, warmup_steps=0, total_steps=10)
    with pytest.raises(ValueError):
        LRSchedule(peak_lr=1.0, warmup_steps=10, total_steps=5)


@pytest.mark.parametrize("field,value", [
    ("warmup_steps", 2.5), ("warmup_steps", True), ("warmup_steps", 10.0),
    ("total_steps", 10.5), ("total_steps", False), ("total_steps", None),
])
def test_lr_schedule_rejects_a_step_count_that_is_not_an_integer(field, value):
    # warmup_steps=2.5 used to give rates off the integer schedule.
    kwargs = {"peak_lr": 1.0, "warmup_steps": 2, "total_steps": 10, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        LRSchedule(**kwargs)


@pytest.mark.parametrize("peak_lr", [float("nan"), float("inf"), -1e-4])
def test_lr_schedule_rejects_a_non_finite_or_negative_peak(peak_lr):
    with pytest.raises(ValueError, match="peak_lr must be finite and >= 0"):
        LRSchedule(peak_lr=peak_lr, warmup_steps=10, total_steps=100)


# --- blocked in-place update ------------------------------------------------

def reference_adamw_step(params, state, lr):
    """The unblocked whole-array update the blocked one must reproduce bit
    for bit."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.first_moment.setdefault(name, np.zeros_like(p.data))
        v = state.second_moment.setdefault(name, np.zeros_like(p.data))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data *= 1.0 - lr * WEIGHT_DECAY
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)


def check_blocked_against_whole_array(dtypes):
    rng = np.random.default_rng(7)
    init = {}
    for dtype in dtypes:
        block = _BLOCK_BYTES // np.dtype(dtype).itemsize
        for s in [(1,), (block,), (3 * block + 7,), (2004, 512)]:
            init[f"p{len(init)}"] = rng.normal(size=s).astype(dtype)
    ours = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    ref = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    ours_state = AdamWState()
    ref_state = AdamWState()
    for step, lr in enumerate([0.0, 1e-3, 3e-4, 2e-3, 5e-4, 1e-2]):
        for k in init:
            g = rng.normal(scale=10.0 ** (step - 2), size=init[k].shape).astype(init[k].dtype)
            ours[k].grad = g.copy()
            ref[k].grad = g
        adamw_step(ours, ours_state, lr)
        reference_adamw_step(ref, ref_state, lr)
    for k in init:
        dtype = init[k].dtype
        assert ours[k].data.dtype == ours_state.first_moment[k].dtype == dtype
        assert ours_state.second_moment[k].dtype == dtype
        assert ours[k].data.tobytes() == ref[k].data.tobytes()
        assert ours_state.first_moment[k].tobytes() == ref_state.first_moment[k].tobytes()
        assert ours_state.second_moment[k].tobytes() == ref_state.second_moment[k].tobytes()


def test_adamw_blocked_update_is_bit_identical_to_whole_array():
    check_blocked_against_whole_array([np.float64])


def test_adamw_float32_update_runs_in_float32():
    # Bit-identical to the whole-array update computed in float32 throughout.
    check_blocked_against_whole_array([np.float32])


def test_adamw_mixed_dtypes_update_each_parameter_in_its_own_dtype():
    # float32 parameters first: scratch taken from the first parameter's dtype
    # would run the float64 ones through float32 and miss by ~1e-10.
    check_blocked_against_whole_array([np.float32, np.float64])


def test_adamw_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(8)
    p = Tensor(rng.normal(size=(2004, 512)), requires_grad=True)
    p.grad = rng.normal(size=p.shape)
    state = AdamWState()
    adamw_step({"p": p}, state, lr=1e-3)
    p.grad = rng.normal(size=p.shape)  # the update dropped the first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adamw_step({"p": p}, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes / 10


def test_adamw_moments_are_allocated_once():
    p = make_param(np.arange(5.0))
    state = AdamWState()
    adamw_step({"p": p}, state, lr=1e-3)
    m, v = state.first_moment["p"], state.second_moment["p"]
    for _ in range(3):
        p.grad = np.ones(5)  # each update drops the gradient it used
        adamw_step({"p": p}, state, lr=1e-3)
        assert state.first_moment["p"] is m and state.second_moment["p"] is v
