import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqnas import functional as F
from seqnas.autograd import (ShapeError, TapeError, Tensor, backward, no_grad,
                             parameter, record, reset_tape, tape, using_dtype)
from seqnas.optim import SGD
from helpers import (avg_pool_oracle, conv1d_oracle, finite_difference_check,
                     max_pool_oracle)

rng = np.random.default_rng(20240817)


def test_relu_definition():
    out = F.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_uniform_over_equal_logits():
    out = F.softmax(Tensor([3.7, 3.7, 3.7, 3.7]))
    assert np.allclose(out.data, 0.25, atol=1e-7)


def test_conv1d_ramp_against_sliding_window_oracle():
    x = np.arange(8, dtype=np.float64).reshape(1, 1, 8)
    w = np.array([1.0, 0.0, -1.0]).reshape(1, 1, 3)
    expected = conv1d_oracle(x, w)
    out = F.conv1d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, expected, atol=1e-6)


@pytest.mark.parametrize("stride,dilation,k", [
    (1, 1, 3), (2, 1, 3), (1, 2, 3), (2, 2, 5), (1, 1, 1), (2, 1, 1),
])
def test_conv1d_matches_oracle(stride, dilation, k):
    x = rng.standard_normal((2, 3, 11))
    w = rng.standard_normal((4, 3, k))
    expected = conv1d_oracle(x, w, stride, dilation)
    out = F.conv1d(Tensor(x), Tensor(w), stride=stride, dilation=dilation)
    assert out.data.shape == expected.shape
    assert np.allclose(out.data, expected, atol=1e-10)


@pytest.mark.parametrize("stride", [1, 2])
def test_pools_match_oracles(stride):
    x = rng.standard_normal((2, 3, 10))
    assert np.allclose(F.max_pool1d(Tensor(x), 3, stride).data,
                       max_pool_oracle(x, 3, stride), atol=1e-12)
    assert np.allclose(F.avg_pool1d(Tensor(x), 3, stride).data,
                       avg_pool_oracle(x, 3, stride), atol=1e-12)


def test_stride_semantics_preserve_and_halve():
    x = Tensor(rng.standard_normal((1, 2, 9)))
    w = Tensor(rng.standard_normal((2, 2, 3)))
    assert F.conv1d(x, w, stride=1).shape == (1, 2, 9)
    assert F.conv1d(x, w, stride=2).shape == (1, 2, 5)  # ceil(9/2)
    assert F.max_pool1d(x, 3, 2).shape == (1, 2, 5)


def test_shape_error_names_primitive_and_dims():
    with pytest.raises(ShapeError, match="conv1d"):
        F.conv1d(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((2, 4, 3))))
    with pytest.raises(ShapeError, match="add.*shape"):
        F.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="odd"):
        F.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((2, 2, 4))))


def test_backward_sum_gives_ones():
    x = parameter(rng.standard_normal((3, 4)))
    loss = F.sum_all(x)
    backward(loss)
    assert np.array_equal(x.grad, np.ones((3, 4), dtype=x.dtype))


def test_backward_quadratic():
    x = parameter(np.array([1.0, 2.0]))
    loss = F.sum_all(F.mul(x, x))
    backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_grad_accumulates_across_backward_passes():
    x = parameter(np.array([1.0, 2.0]))
    backward(F.sum_all(x))
    reset_tape()
    backward(F.sum_all(x))
    assert np.allclose(x.grad, [2.0, 2.0])


def test_non_scalar_loss_rejected():
    x = parameter(np.ones(3))
    y = F.relu(x)
    with pytest.raises(TapeError, match="scalar"):
        backward(y)


def test_backward_twice_without_reset_rejected():
    x = parameter(np.ones(3))
    loss = F.sum_all(x)
    backward(loss)
    with pytest.raises(TapeError, match="reset"):
        backward(loss)


def test_empty_tape_rejected():
    with pytest.raises(TapeError, match="empty"):
        backward(Tensor(np.zeros(())))


def test_forward_after_backward_starts_fresh_tape():
    x = parameter(np.ones(3))
    backward(F.sum_all(x))
    loss2 = F.sum_all(F.relu(x))  # auto-starts a new record
    backward(loss2)
    assert np.allclose(x.grad, [2.0, 2.0, 2.0])  # 1 from each pass


def test_stale_loss_cannot_be_backpropagated():
    x = parameter(np.ones(3))
    stale = F.sum_all(x)
    backward(stale)
    F.relu(x)  # new tape
    with pytest.raises(TapeError, match="no longer current"):
        backward(stale)


# ---------------------------------------------------------------------------
# gradient checks: every primitive against central finite differences


def test_grad_elementwise_and_reductions():
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.add(t["a"], t["b"]), t["b"])),
        {"a": a, "b": b})
    finite_difference_check(
        lambda t: F.sum_all(F.scale(F.mul(t["a"], t["s"]), 1.7)),
        {"a": a, "s": np.array([0.37])})


def test_grad_relu_away_from_kink():
    x = np.sign(rng.standard_normal(8)) * rng.uniform(0.2, 1.0, 8)
    finite_difference_check(lambda t: F.sum_all(F.mul(F.relu(t["x"]), t["x"])),
                            {"x": x})


def test_grad_take_and_weighted_sum():
    w = rng.standard_normal(3)
    xs = rng.standard_normal((3, 2, 4))
    finite_difference_check(
        lambda t: F.sum_all(F.mul(
            F.weighted_sum([F.take_row(t["xs"], i) for i in range(3)],
                           F.softmax(t["w"])),
            F.take_row(t["xs"], 0))),
        {"w": w, "xs": xs.reshape(3, 8)})
    finite_difference_check(
        lambda t: F.mul(F.take(t["v"], 1), F.take(t["v"], 2)),
        {"v": rng.standard_normal(4)})


def test_grad_concat_and_shift():
    a = rng.standard_normal((2, 2, 5))
    b = rng.standard_normal((2, 3, 5))
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.concat([t["a"], t["b"]], axis=1),
                                  F.concat([t["a"], t["b"]], axis=1))),
        {"a": a, "b": b})
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.shift_time(t["a"]), t["a"])),
        {"a": a})


@pytest.mark.parametrize("stride,dilation,k", [(1, 1, 3), (2, 1, 3), (1, 2, 5), (2, 2, 3), (2, 1, 1)])
def test_grad_conv1d(stride, dilation, k):
    x = rng.standard_normal((2, 3, 8))
    w = rng.standard_normal((2, 3, k))
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.conv1d(t["x"], t["w"], stride, dilation),
                                  F.conv1d(t["x"], t["w"], stride, dilation))),
        {"x": x, "w": w})


@pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 2)])
def test_grad_depthwise_conv(stride, dilation):
    x = rng.standard_normal((2, 3, 8))
    w = rng.standard_normal((3, 3))
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.depthwise_conv1d(t["x"], t["w"], stride, dilation),
                                  F.depthwise_conv1d(t["x"], t["w"], stride, dilation))),
        {"x": x, "w": w})


@pytest.mark.parametrize("stride", [1, 2])
def test_grad_pools(stride):
    x = rng.standard_normal((2, 2, 9))
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.max_pool1d(t["x"], 3, stride),
                                  F.max_pool1d(t["x"], 3, stride))),
        {"x": x})
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.avg_pool1d(t["x"], 3, stride),
                                  F.avg_pool1d(t["x"], 3, stride))),
        {"x": x})


def test_grad_channel_norm_batch_stats():
    x = rng.standard_normal((3, 2, 6))
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2)
    finite_difference_check(
        lambda t: F.sum_all(F.mul(
            F.channel_norm(t["x"], t["gamma"], t["beta"]),
            F.channel_norm(t["x"], t["gamma"], t["beta"]))),
        {"x": x, "gamma": gamma, "beta": beta})


def test_grad_channel_norm_running_stats():
    x = rng.standard_normal((3, 2, 6))
    rm = rng.standard_normal(2)
    rv = rng.uniform(0.5, 2.0, 2)
    finite_difference_check(
        lambda t: F.sum_all(F.mul(
            F.channel_norm(t["x"], t["gamma"], t["beta"], running=(rm, rv), training=False),
            t["x"])),
        {"x": x, "gamma": np.ones(2), "beta": np.zeros(2)})


def test_grad_head_ops():
    x = rng.standard_normal((3, 2, 6))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    labels = np.array([0, 3, 1])
    finite_difference_check(
        lambda t: F.cross_entropy(
            F.linear(F.global_avg_pool(t["x"]), t["w"], t["b"]), labels),
        {"x": x, "w": w, "b": b})


def test_grad_softmax_and_log_softmax():
    x = rng.standard_normal((3, 5))
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.softmax(t["x"], axis=1), t["x"])),
        {"x": x})
    finite_difference_check(
        lambda t: F.sum_all(F.mul(F.log_softmax(t["x"], axis=1),
                                  F.softmax(t["x"], axis=1))),
        {"x": x})


@settings(deadline=None, max_examples=20)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_backward_linearity(a, b):
    with using_dtype(np.float64):
        x0 = rng.standard_normal(5)

        def losses(x):
            l1 = F.sum_all(F.mul(x, x))
            l2 = F.sum_all(F.relu(x))
            return l1, l2

        x = parameter(x0.copy())
        reset_tape()
        l1, l2 = losses(x)
        backward(F.add(F.scale(l1, a), F.scale(l2, b)))
        combined = x.grad.copy()

        x = parameter(x0.copy())
        reset_tape()
        l1, _ = losses(x)
        backward(l1)
        g1 = x.grad.copy()

        x = parameter(x0.copy())
        reset_tape()
        _, l2 = losses(x)
        backward(l2)
        g2 = x.grad.copy()

        assert np.allclose(combined, a * g1 + b * g2, atol=1e-10)


def test_bitwise_determinism():
    def run():
        reset_tape()
        x = parameter(np.linspace(-1, 1, 24, dtype=np.float32).reshape(2, 3, 4))
        w = parameter(np.linspace(0.5, -0.5, 18, dtype=np.float32).reshape(2, 3, 3))
        out = F.channel_norm(F.conv1d(x, w), Tensor(np.ones(2, dtype=np.float32)),
                             Tensor(np.zeros(2, dtype=np.float32)))
        loss = F.sum_all(F.mul(out, out))
        backward(loss)
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    o1, gx1, gw1 = run()
    o2, gx2, gw2 = run()
    assert np.array_equal(o1, o2)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# the pullback contract: one gradient per input, added into .grad by the sweep


@pytest.mark.parametrize("make", [
    lambda x: F.add(x, x), lambda x: F.mul(x, x), lambda x: F.concat([x, x]),
], ids=["add", "mul", "concat"])
def test_grad_one_tensor_used_twice_by_one_node(make):
    x = np.random.default_rng(7).standard_normal((2, 3, 4))
    finite_difference_check(lambda t: F.sum_all(F.mul(make(t["x"]), make(t["x"]))),
                            {"x": x})


def test_add_gives_each_input_its_own_gradient_array():
    a, b = parameter(np.ones(3)), parameter(np.ones(3))
    backward(F.sum_all(F.mul(F.add(a, b), Tensor([1.0, 2.0, 3.0]))))
    a.grad[...] = 7.0
    assert np.array_equal(b.grad, [1.0, 2.0, 3.0])


NORM_RUNNING = (np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.0, 2.0]))
FROZEN_CASES = {  # op over its inputs, and the input shapes
    "add": (F.add, [(2, 3, 4), (2, 3, 4)]),
    "mul": (F.mul, [(2, 3, 4), (2, 3, 4)]),
    "mul_size1": (F.mul, [(2, 3, 4), (1,)]),
    "weighted_sum": (lambda a, b, w: F.weighted_sum([a, b], w), [(2, 3, 4), (2, 3, 4), (2,)]),
    "concat": (lambda a, b: F.concat([a, b]), [(2, 3, 4), (2, 2, 4)]),
    "conv1d_k1": (F.conv1d, [(2, 3, 8), (4, 3, 1)]),
    "conv1d_k1_s2": (lambda x, w: F.conv1d(x, w, stride=2), [(2, 3, 8), (4, 3, 1)]),
    "conv1d_k3": (F.conv1d, [(2, 3, 8), (4, 3, 3)]),
    "conv1d_k3_s2": (lambda x, w: F.conv1d(x, w, stride=2), [(2, 3, 8), (4, 3, 3)]),
    "depthwise_conv1d": (F.depthwise_conv1d, [(2, 3, 8), (3, 3)]),
    "channel_norm": (F.channel_norm, [(2, 3, 8), (3,), (3,)]),
    "channel_norm_running": (
        lambda x, g, b: F.channel_norm(x, g, b, running=NORM_RUNNING, training=False),
        [(2, 3, 8), (3,), (3,)]),
    "linear": (F.linear, [(2, 5), (4, 5), (4,)]),
}


def _input_grads(op, arrays, frozen=None):
    """Each input's .grad after backward of a weighted sum of op's output."""
    reset_tape()
    inputs = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]
    out = op(*inputs)
    weights = Tensor(np.random.default_rng(1).standard_normal(out.shape))
    backward(F.sum_all(F.mul(out, weights)))
    return [t.grad for t in inputs]


@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_frozen_input_gets_no_gradient_and_leaves_the_others_bitwise(case):
    op, shapes = FROZEN_CASES[case]
    r = np.random.default_rng(3)
    arrays = [r.standard_normal(s) for s in shapes]
    full = _input_grads(op, arrays)
    for frozen in range(len(arrays)):
        grads = _input_grads(op, arrays, frozen)
        assert grads[frozen] is None
        for i, (g, ref) in enumerate(zip(grads, full)):
            if i != frozen:
                assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes(), (frozen, i)


# ---------------------------------------------------------------------------
# handing fresh pullback arrays to .grad


def _own_distinct_grads(*tensors):
    """Each tensor's .grad owns its buffer, and no two tensors share one."""
    grads = [t.grad for t in tensors]
    assert all(g.flags.owndata for g in grads)
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_add_of_one_tensor_with_itself():
    x = parameter(rng.standard_normal((2, 3, 4)))
    w = rng.standard_normal((2, 3, 4))
    backward(F.sum_all(F.mul(F.add(x, x), Tensor(w))))
    assert x.grad.tobytes() == (w + w).tobytes()
    assert x.grad.flags.owndata


def test_concat_of_one_tensor_with_itself():
    x, z = parameter(rng.standard_normal((2, 3, 4))), parameter(rng.standard_normal((2, 1, 4)))
    w = rng.standard_normal((2, 7, 4))
    backward(F.sum_all(F.mul(F.concat([x, z, x]), Tensor(w))))
    assert x.grad.tobytes() == (w[:, :3] + w[:, 4:]).tobytes()
    assert z.grad.tobytes() == np.ascontiguousarray(w[:, 3:4]).tobytes()
    _own_distinct_grads(x, z)


def test_loss_keeps_its_own_grad():
    a, b = parameter(np.array(2.0)), parameter(np.array(3.0))
    loss = F.add(a, b)
    backward(loss)
    assert [float(t.grad) for t in (loss, a, b)] == [1.0, 1.0, 1.0]
    _own_distinct_grads(loss, a, b)


FRESH = np.arange(6.0).reshape(2, 3)
HANDOVER_CASES = {  # pullback result for inputs (x, y), and whether x takes it over
    "fresh": (lambda g: (FRESH.copy(), None), True),
    "view": (lambda g: (FRESH.copy()[:, :], None), False),
    "other_dtype": (lambda g: (FRESH.astype(np.float32), None), False),
    "not_contiguous": (lambda g: (np.asfortranarray(FRESH), None), False),
    "incoming": (lambda g: (g, None), False),
}


@pytest.mark.parametrize("case", sorted(HANDOVER_CASES))
def test_first_gradient_takes_over_only_a_fresh_array(case):
    pullback, taken = HANDOVER_CASES[case]
    x, y = parameter(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
    seen = []

    def probe(g):
        seen.append(pullback(g))
        return seen[-1]

    out = record("probe", (x, y), Tensor(np.zeros((2, 3))), probe)
    backward(F.sum_all(out))
    assert (x.grad is seen[0][0]) == taken
    assert x.grad.dtype == x.dtype and np.array_equal(x.grad, seen[0][0])


def test_array_handed_to_two_inputs_is_taken_over_once():
    x, y = parameter(np.zeros((2, 3))), parameter(np.zeros((2, 3)))
    arr = FRESH.copy()
    out = record("probe", (x, y), Tensor(np.zeros((2, 3))), lambda g: (arr, arr))
    backward(F.sum_all(out))
    assert x.grad is arr and y.grad is not arr
    assert y.grad.tobytes() == FRESH.tobytes()


# ---------------------------------------------------------------------------
# pullbacks that rebuild padded inputs, and shared relu buffers, are bitwise
# the previous formulas


def _padded_taps(x, pad, k, stride, dilation, t_out, fill):
    xp = np.full(x.shape[:2] + (x.shape[2] + 2 * pad,), fill, dtype=x.dtype)
    xp[:, :, pad : pad + x.shape[2]] = x
    hi = (t_out - 1) * stride + 1
    return [xp[:, :, j * dilation : j * dilation + hi : stride] for j in range(k)]


def depthwise_conv1d_reference(x, w, stride=1, dilation=1):
    """depthwise_conv1d as it was when its pullback kept the padded taps."""
    k, T = w.shape[1], x.shape[2]
    pad, t_out = (k - 1) // 2 * dilation, -(-T // stride)
    taps = _padded_taps(x.data, pad, k, stride, dilation, t_out, 0.0)
    acc = w.data[None, :, 0, None] * taps[0]
    prod = np.empty_like(acc)
    for j in range(1, k):
        acc += np.multiply(w.data[None, :, j, None], taps[j], out=prod)

    def backward_fn(g):
        gw = np.stack([np.einsum("bct,bct->c", g, tap) for tap in taps], axis=1)
        prod = np.empty_like(g)
        dx = F._untap(x, pad, (np.multiply(w.data[None, :, j, None], g, out=prod)
                               for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return record("depthwise_conv1d", (x, w), Tensor(acc), backward_fn)


def max_pool1d_reference(x, kernel=3, stride=1):
    """max_pool1d as it was when its pullback kept the padded taps."""
    T = x.shape[2]
    pad, t_out = (kernel - 1) // 2, -(-T // stride)
    taps = _padded_taps(x.data, pad, kernel, stride, 1, t_out, -np.inf)
    m = taps[0]
    for tap in taps[1:]:
        m = np.maximum(m, tap)

    def backward_fn(g):
        hits, claimed = [], np.zeros_like(m, dtype=bool)
        for tap in taps:
            hits.append((tap == m) & ~claimed)
            claimed |= hits[-1]
        return (F._untap(x, pad, (g * hit for hit in hits), stride, 1, t_out),)

    return record("max_pool1d", (x,), Tensor(m), backward_fn)


def relu_reference(x):
    """relu as it was, with a fresh output array per call."""
    return record("relu", (x,), Tensor(np.maximum(x.data, 0)),
                    lambda g: (g * (x.data > 0),))


def _outputs_and_grads(build, arrays, dtype):
    """Bytes of build's output and of every input's gradient after a
    fixed-weight sum of that output."""
    reset_tape()
    inputs = [parameter(a.astype(dtype)) for a in arrays]
    out = build(*inputs)
    weights = Tensor(np.random.default_rng(5).standard_normal(out.shape).astype(dtype))
    backward(F.sum_all(F.mul(out, weights)))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_conv1d_is_bitwise_the_previous_formula(stride, dilation, k, dtype):
    arrays = [rng.standard_normal((3, 4, 13)), rng.standard_normal((4, k))]
    new, old = (_outputs_and_grads(lambda x, w: conv(x, w, stride, dilation), arrays, dtype)
                for conv in (F.depthwise_conv1d, depthwise_conv1d_reference))
    assert new == old


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stride", [1, 2])
def test_max_pool1d_with_ties_is_bitwise_the_previous_formula(stride, dtype):
    x = np.random.default_rng(9).integers(-2, 3, size=(3, 4, 13)).astype(float)
    new, old = (_outputs_and_grads(lambda t: pool(t, 3, stride), [x], dtype)
                for pool in (F.max_pool1d, max_pool1d_reference))
    assert new == old


@pytest.mark.parametrize("dtype", DTYPES)
def test_shared_relu_is_bitwise_two_relus_and_a_skip(dtype):
    def graph(relu):
        def build(p, w):
            x = F.mul(p, w)  # an activation recorded on the tape
            mix = Tensor(np.array([0.5, -1.5, 2.0], dtype=x.dtype))
            y = F.weighted_sum([relu(x), x, relu(x)], mix)
            return F.mul(relu(y), x)
        return build

    arrays = [rng.standard_normal((3, 4, 13)), rng.standard_normal((3, 4, 13))]
    assert (_outputs_and_grads(graph(F.relu), arrays, dtype)
            == _outputs_and_grads(graph(relu_reference), arrays, dtype))


def _untap_padded_reference(x, pad, tap_grads, stride, dilation, t_out):
    """_untap as it was: sum into a padded buffer and return its interior."""
    dxp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad,), dtype=x.data.dtype)
    hi = (t_out - 1) * stride + 1
    for j, gj in enumerate(tap_grads):
        dxp[:, :, j * dilation : j * dilation + hi : stride] += gj
    return dxp[:, :, pad : pad + x.shape[2]] if pad else dxp


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("T", [1, 2, 13])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_untap_is_bitwise_the_padded_buffer_and_not_a_view(stride, dilation, k, T, dtype):
    x = Tensor(np.zeros((2, 3, T), dtype=dtype))
    pad, t_out = (k - 1) // 2 * dilation, -(-T // stride)
    grads = [rng.standard_normal((2, 3, t_out)).astype(dtype) for _ in range(k)]
    dx = F._untap(x, pad, grads, stride, dilation, t_out)
    assert dx.base is None and dx.dtype == dtype  # taken over by .grad, not copied
    assert dx.tobytes() == _untap_padded_reference(
        x, pad, grads, stride, dilation, t_out).tobytes()


def _conv_then_norm(x, w, gamma, beta, running, training, stride):
    return F.channel_norm(F.conv1d(x, w, stride=stride), gamma, beta, running, training)


CONV_NORM_SHAPES = {  # x, w, stride
    "k1": ((3, 4, 13), (5, 4, 1), 1),
    "k1_s2": ((3, 4, 13), (5, 4, 1), 2),
    "k3_stem": ((3, 2, 13), (5, 2, 3), 1),
}
NORM_MODES = {  # running stats kept, training
    "batch": (False, True),
    "batch_running": (True, True),
    "eval": (True, False),
}


def _conv_norm_bytes(fn, arrays, stride, mode, frozen, dtype):
    """Bytes of fn's output, of each input's gradient and of the running
    buffers after a fixed-weight sum of the output."""
    reset_tape()
    inputs = [Tensor(a.astype(dtype), requires_grad=i not in frozen)
              for i, a in enumerate(arrays)]
    keep, training = NORM_MODES[mode]
    c = arrays[1].shape[0]
    running = (np.linspace(-0.3, 0.2, c).astype(dtype),
               np.linspace(0.5, 2.0, c).astype(dtype)) if keep else None
    out = fn(*inputs, running, training, stride)
    weights = Tensor(np.random.default_rng(5).standard_normal(out.shape).astype(dtype))
    backward(F.sum_all(F.mul(out, weights)))
    return ([out.data.tobytes()] + [t.grad.tobytes() if t.grad is not None else None
                                    for t in inputs]
            + [b.tobytes() for b in running or ()])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", sorted(NORM_MODES))
@pytest.mark.parametrize("case", sorted(CONV_NORM_SHAPES))
def test_conv1d_norm_is_bitwise_conv1d_then_channel_norm(case, mode, dtype):
    x_shape, w_shape, stride = CONV_NORM_SHAPES[case]
    c = w_shape[0]
    arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape),
              1.0 + 0.1 * rng.standard_normal(c), 0.1 * rng.standard_normal(c)]
    for frozen in ((), (0,), (1,), (2, 3)):  # nothing, x, w, then gamma and beta
        fused, pair = (_conv_norm_bytes(fn, arrays, stride, mode, frozen, dtype)
                       for fn in (F.conv1d_norm, _conv_then_norm))
        assert fused == pair, frozen
        assert all((g is None) == (i in frozen) for i, g in enumerate(fused[1:5]))


def test_conv1d_norm_records_one_node_and_none_under_no_grad():
    x, w = Tensor(rng.standard_normal((2, 3, 8))), parameter(rng.standard_normal((4, 3, 1)))
    gamma, beta = parameter(np.ones(4)), parameter(np.zeros(4))
    reset_tape()
    with no_grad():
        out = F.conv1d_norm(x, w, gamma, beta)
    assert not tape().nodes and not out.requires_grad
    F.conv1d_norm(x, w, gamma, beta)
    assert [n.op for n in tape().nodes] == ["conv1d_norm"]


def test_conv1d_norm_shape_errors_name_the_op():
    x, ones = Tensor(np.zeros((2, 3, 8))), Tensor(np.ones(4))
    with pytest.raises(ShapeError, match="conv1d_norm: weight expects 5 channels"):
        F.conv1d_norm(x, Tensor(np.zeros((4, 5, 1))), ones, ones)
    with pytest.raises(ShapeError, match="conv1d_norm: gamma"):
        F.conv1d_norm(x, Tensor(np.zeros((4, 3, 1))), Tensor(np.ones(3)), ones)
    with pytest.raises(ShapeError, match="conv1d_norm: beta"):
        F.conv1d_norm(x, Tensor(np.zeros((4, 3, 1))), ones, Tensor(np.ones(3)))


def test_relus_of_one_activation_share_one_read_only_buffer():
    x = F.scale(parameter(rng.standard_normal((2, 3, 4))), 1.0)
    a, b = F.relu(x), F.relu(x)
    assert a.data is b.data and not a.data.flags.writeable
    assert F.relu(Tensor(x.data)).data is not a.data  # not an activation of the tape


def test_relu_of_a_parameter_sees_its_in_place_update():
    p = parameter(np.array([-1.0, 0.5, 2.0]))
    backward(F.sum_all(F.relu(p)))
    SGD([p], momentum=0.0).step(1.0)  # p.data -= 1.0 * [0, 1, 1], in place
    assert p.relu_data is None
    assert F.relu(p).data.tolist() == [0.0, 0.0, 1.0]
