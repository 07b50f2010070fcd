import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqnas import functional as F
from seqnas.autograd import Tensor, parameter, reset_tape, using_dtype
from seqnas.ops import OP_VOCAB, MixedOp, Zero, make_op, mixed_forward
from helpers import finite_difference_check

rng = np.random.default_rng(7)


def fresh_mixed(channels=4, stride=1, dtype=np.float32, seed=0):
    return MixedOp(channels, stride, np.random.default_rng(seed), dtype)


def test_vocabulary_is_the_fixed_eight():
    assert OP_VOCAB == ("none", "skip_connect", "max_pool_3", "avg_pool_3",
                        "sep_conv_3", "sep_conv_5", "dil_conv_3", "dil_conv_5")


@pytest.mark.parametrize("stride", [1, 2])
def test_all_candidates_share_output_shape(stride):
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    m = fresh_mixed(stride=stride)
    shapes = {op.forward(x).shape for op in m.candidates}
    assert len(shapes) == 1
    t_out = 12 if stride == 1 else 6
    assert shapes.pop() == (2, 4, t_out)


def test_none_is_all_zeros_of_target_shape():
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    for stride, t_out in ((1, 12), (2, 6)):
        out = make_op("none", 4, stride, rng, np.float32).forward(x)
        assert out.shape == (2, 4, t_out)
        assert not out.data.any()


def test_none_reads_one_read_only_zero_array_per_shape():
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    a, b = (make_op("none", 4, 1, rng, np.float32).forward(x) for _ in range(2))
    assert a.data is b.data and not a.data.flags.writeable and not a.requires_grad
    reduced = make_op("none", 4, 2, rng, np.float32).forward(x)
    wide = make_op("none", 4, 1, rng, np.float32).forward(Tensor(x.data.astype(np.float64)))
    assert reduced.data is not a.data and wide.data is not a.data
    assert wide.dtype == np.float64
    assert F.zeros(x.shape).data.flags.writeable  # the pruned-input path keeps its own
    del a, b
    assert ((2, 4, 12), np.dtype(np.float32)) not in Zero._zeros  # freed with its tensors


def test_skip_connect_identity_vs_projection():
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    ident = make_op("skip_connect", 4, 1, np.random.default_rng(0), np.float32)
    assert ident.forward(x) is x
    reduce = make_op("skip_connect", 4, 2, np.random.default_rng(0), np.float32)
    assert reduce.forward(x).shape == (2, 4, 6)
    assert len(reduce.parameters()) > 0  # strided projection is parameterized


def test_uniform_alpha_gives_mean_of_candidates():
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    m = fresh_mixed()
    alpha = Tensor(np.full(8, 0.3, dtype=np.float32))
    mixed = mixed_forward(m, x, alpha)
    mean = np.mean([op.forward(x).data for op in m.candidates], axis=0)
    assert np.allclose(mixed.data, mean, atol=1e-6)


def test_saturated_alpha_selects_single_candidate():
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    m = fresh_mixed()
    for hot in (0, 4):
        alpha = np.zeros(8, dtype=np.float32)
        alpha[hot] = 20.0
        # softmax tail with 7 competitors is 7*exp(-20) ~ 1.4e-8
        w = np.exp(alpha.astype(np.float64) - 20.0)
        assert float(w[hot] / w.sum()) > 1 - 5e-8
        mixed = mixed_forward(m, x, Tensor(alpha))
        lone = m.candidates[hot].forward(x)
        assert np.allclose(mixed.data, lone.data, atol=1e-6)


def test_softmax_weights_sum_to_one_each_forward():
    x = Tensor(rng.standard_normal((2, 4, 12)).astype(np.float32))
    m = fresh_mixed()
    for trial in range(5):
        row = rng.standard_normal(8).astype(np.float32) * (trial + 1)
        w = F.softmax(Tensor(row)).data
        assert abs(float(w.sum()) - 1.0) < 1e-6
        mixed_forward(m, x, Tensor(row))
        reset_tape()


@settings(deadline=None, max_examples=15)
@given(shift=st.floats(-8, 8))
def test_alpha_shift_invariance(shift):
    x = Tensor(np.asarray(rng.standard_normal((1, 4, 8)), dtype=np.float32))
    m = fresh_mixed()
    row = np.array([0.3, -0.1, 0.4, 0.0, 1.2, -0.5, 0.2, 0.8], dtype=np.float32)
    a = mixed_forward(m, x, Tensor(row))
    b = mixed_forward(m, x, Tensor(row + np.float32(shift)))
    reset_tape()
    assert np.allclose(a.data, b.data, atol=1e-6)


def test_nan_alpha_is_poisoned_state():
    x = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))
    m = fresh_mixed()
    row = np.zeros(8, dtype=np.float32)
    row[3] = np.nan
    with pytest.raises(FloatingPointError, match="poisoned"):
        mixed_forward(m, x, Tensor(row))


def test_mixed_gradient_wrt_alpha_matches_finite_differences():
    with using_dtype(np.float64):
        m = fresh_mixed(channels=3, stride=1, dtype=np.float64, seed=3)
        x0 = rng.standard_normal((2, 3, 8))

        def loss(t):
            out = mixed_forward(m, t["x"], t["alpha"])
            return F.sum_all(F.mul(out, out))

        finite_difference_check(loss, {"alpha": rng.standard_normal(8), "x": x0})


def test_mixed_gradient_wrt_alpha_stride2():
    with using_dtype(np.float64):
        m = fresh_mixed(channels=2, stride=2, dtype=np.float64, seed=4)
        x0 = rng.standard_normal((2, 2, 8))

        def loss(t):
            out = mixed_forward(m, t["x"], t["alpha"])
            return F.sum_all(F.mul(out, out))

        finite_difference_check(loss, {"alpha": rng.standard_normal(8), "x": x0})
