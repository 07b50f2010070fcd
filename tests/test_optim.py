import math

import numpy as np
import pytest

from seqnas import functional as F
from seqnas.autograd import backward, no_grad, parameter, reset_tape, using_dtype
from seqnas.network import Supernet, SupernetConfig
from seqnas.optim import (Adam, NumericsError, OptimizerConfig, SGD,
                          TripleState, _arch_grads_unrolled, clip_grad_norm,
                          cosine_lr, make_triple_state, triple_step)
from seqnas.serialize import load_arrays

rng = np.random.default_rng(31)


def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 50, 0.025) == 0.025
    assert abs(cosine_lr(50, 50, 0.025)) < 1e-18
    assert abs(cosine_lr(25, 50, 0.025) - 0.0125) < 1e-12
    with pytest.raises(ValueError):
        cosine_lr(51, 50, 0.025)


def test_sgd_zero_lr_is_noop():
    p = parameter(np.array([1.0, -2.0]), "p")
    p.grad = np.array([10.0, 10.0])
    opt = SGD([p], momentum=0.9, weight_decay=5e-4)
    before = p.data.copy()
    opt.step(0.0)
    assert np.array_equal(p.data, before)


def test_sgd_plain_gradient_step():
    p = parameter(np.array([1.0]), "p")
    p.grad = np.array([0.5])
    SGD([p], momentum=0.0, weight_decay=0.0).step(0.1)
    assert abs(float(p.data[0]) - 0.95) < 1e-15


def test_sgd_momentum_matches_hand_recurrence():
    p0, g1, g2 = 0.7, 0.3, -0.1
    lr, mom, wd = 0.05, 0.9, 0.01
    p = parameter(np.array([p0]), "p")
    opt = SGD([p], momentum=mom, weight_decay=wd)
    p.grad = np.array([g1])
    opt.step(lr)
    p.grad = np.array([g2])
    opt.step(lr)

    # hand-unrolled recurrence: v <- mom*v + (g + wd*p); p <- p - lr*v
    v = 0.0
    q = p0
    for g in (g1, g2):
        v = mom * v + (g + wd * q)
        q = q - lr * v
    assert abs(float(p.data[0]) - q) < 1e-12


def test_optimizers_skip_parameters_without_gradient():
    p = parameter(np.array([1.0]), "p")
    q = parameter(np.array([2.0]), "q")
    q.grad = np.array([1.0])
    adam = Adam([p, q], lr=0.1, weight_decay=1e-3)
    adam.step()
    assert float(p.data[0]) == 1.0  # None grad: untouched, even with decay
    assert float(q.data[0]) != 2.0


def test_nan_gradient_raises_with_parameter_name():
    p = parameter(np.array([1.0]), "cell3.weird")
    p.grad = np.array([np.nan])
    with pytest.raises(NumericsError, match="cell3.weird"):
        SGD([p]).step(0.1)
    with pytest.raises(NumericsError, match="cell3.weird"):
        Adam([p]).step()


def test_clip_grad_norm():
    a = parameter(np.array([3.0]), "a")
    b = parameter(np.array([4.0]), "b")
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    norm = clip_grad_norm([a, b], 1.0)
    assert abs(norm - 5.0) < 1e-12
    clipped = math.hypot(float(a.grad[0]), float(b.grad[0]))
    assert clipped <= 1.0 + 1e-9


def tiny_net(seed=0, layout=("normal", "reduction"), gates=True):
    cfg = SupernetConfig(num_cells=len(layout), layout=layout, init_channels=2,
                         num_classes=2, input_channels=2,
                         independent_alpha=True, use_gates=gates)
    return Supernet(cfg, seed=seed)


def tiny_batches(seed=1):
    r = np.random.default_rng(seed)
    xt = r.standard_normal((2, 2, 8))
    xv = r.standard_normal((2, 2, 8))
    return (xt, np.array([0, 1])), (xv, np.array([1, 0]))


def test_triple_step_zero_lr_is_noop_on_all_parameters():
    net = tiny_net()
    cfg = OptimizerConfig(w_lr0=0.0, arch_lr=0.0)
    state = make_triple_state(net, cfg)
    train_b, val_b = tiny_batches()
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    triple_step(net, train_b, val_b, state, lr_w=0.0)
    after = net.state_arrays()
    for k, v in before.items():
        assert np.array_equal(v, after[k]), k


def test_nan_train_batch_raises_before_any_weight_moves():
    # the val batch is clean, so alpha and beta pass Adam's gradient check and
    # the weight pass's own loss check is what trips
    net = tiny_net(seed=4)
    state = make_triple_state(net, OptimizerConfig())
    (xt, yt), val_b = tiny_batches(5)
    xt[0, 1, 3] = np.nan
    w_before = [p.data.copy() for p in net.weight_parameters()]
    with pytest.raises(NumericsError, match=r"non-finite loss at step 0: train=nan val="):
        triple_step(net, (xt, yt), val_b, state, lr_w=0.01)
    assert all(np.array_equal(a, p.data) for a, p in zip(w_before, net.weight_parameters()))
    assert state.step == 0


def test_triple_step_updates_arch_before_weights_and_isolates_them():
    # w frozen (lr 0): arch moves, weights bit-identical
    net = tiny_net(seed=2)
    state = make_triple_state(net, OptimizerConfig(arch_lr=3e-4))
    train_b, val_b = tiny_batches(3)
    w_before = [p.data.copy() for p in net.weight_parameters()]
    a_before = [a.data.copy() for a in net.arch_parameters()]
    triple_step(net, train_b, val_b, state, lr_w=0.0)
    assert all(np.array_equal(a, b) for a, b in
               zip(w_before, (p.data for p in net.weight_parameters())))
    assert any(not np.array_equal(a, b) for a, b in
               zip(a_before, (p.data for p in net.arch_parameters())))

    # arch frozen (lr 0): weights move, alpha and beta bit-identical
    net = tiny_net(seed=2)
    state = make_triple_state(net, OptimizerConfig(arch_lr=0.0))
    a_before = [a.data.copy() for a in net.arch_parameters()]
    b_before = [b.data.copy() for b in net.gate_parameters()]
    w_before = [p.data.copy() for p in net.weight_parameters()]
    triple_step(net, train_b, val_b, state, lr_w=0.01)
    assert all(np.array_equal(a, b) for a, b in
               zip(a_before, (p.data for p in net.arch_parameters())))
    assert all(np.array_equal(a, b) for a, b in
               zip(b_before, (p.data for p in net.gate_parameters())))
    assert any(not np.array_equal(a, b) for a, b in
               zip(w_before, (p.data for p in net.weight_parameters())))


def test_first_order_alpha_update_matches_decomposed_adam():
    with using_dtype(np.float64):
        net = tiny_net(seed=4)
        train_b, val_b = tiny_batches(5)
        snapshot = {k: v.copy() for k, v in net.state_arrays().items()}

        # oracle: gradient of the val loss at the current state, then one
        # reference adam update composed by hand
        twin = tiny_net(seed=4)
        load_arrays(twin.state_arrays(), snapshot)
        reset_tape()
        twin.zero_grad()
        for a in twin.arch_parameters() + twin.gate_parameters():
            a.zero_grad()
        backward(F.cross_entropy(twin.forward(val_b[0]), val_b[1]))
        cfg = OptimizerConfig()  # xi = 0

        def adam_ref(p, g, t=1, lr=cfg.arch_lr, b1=cfg.arch_beta1,
                     b2=cfg.arch_beta2, eps=cfg.arch_eps,
                     wd=cfg.arch_weight_decay):
            g = g + wd * p
            m = (1 - b1) * g
            v = (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            return p - lr * mh / (np.sqrt(vh) + eps)

        expected = [adam_ref(a.data.copy(), a.grad.copy())
                    for a in twin.arch_parameters()]

        state = make_triple_state(net, cfg)
        triple_step(net, train_b, val_b, state, lr_w=0.0)
        for a, exp in zip(net.arch_parameters(), expected):
            assert np.allclose(a.data, exp, atol=1e-12)


def test_second_order_alpha_gradient_matches_unrolled_oracle_sample():
    """Spot-check the unrolled gradient on a random subset of alpha entries."""
    with using_dtype(np.float64):
        xi = 0.05
        net = tiny_net(seed=6, layout=("normal",))
        train_b, val_b = tiny_batches(7)
        snapshot = {k: v.copy() for k, v in net.state_arrays().items()}

        d_arch, _ = _arch_grads_unrolled(net, train_b, val_b, xi)
        load_arrays(net.state_arrays(), snapshot)

        def unrolled_loss():
            ws = net.weight_parameters()
            orig = [p.data.copy() for p in ws]
            reset_tape()
            net.zero_grad()
            backward(F.cross_entropy(net.forward(train_b[0]), train_b[1]))
            for p in ws:
                if p.grad is not None:
                    p.data = p.data - xi * p.grad
            with no_grad():
                val = float(F.cross_entropy(net.forward(val_b[0]), val_b[1]).data)
            for p, o in zip(ws, orig):
                p.data = o
            return val

        alpha = net.arch_parameters()[0]
        picks = rng.choice(alpha.size, size=12, replace=False)
        eps = 1e-5
        flat = alpha.data.reshape(-1)
        engine = d_arch[0].reshape(-1)
        numeric = np.zeros(len(picks))
        for n, i in enumerate(picks):
            orig = flat[i]
            flat[i] = orig + eps
            lp = unrolled_loss()
            flat[i] = orig - eps
            lm = unrolled_loss()
            flat[i] = orig
            numeric[n] = (lp - lm) / (2 * eps)
        sampled = engine[picks]
        rel = np.linalg.norm(sampled - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-3, rel


def test_per_cell_alpha_decomposition_under_grad_masking():
    net = tiny_net(seed=8)
    train_b, val_b = tiny_batches(9)
    reset_tape()
    net.zero_grad()
    for a in net.arch_parameters():
        a.zero_grad()
    backward(F.cross_entropy(net.forward(val_b[0]), val_b[1]))
    alphas = net.arch_parameters()
    before = [a.data.copy() for a in alphas]
    alphas[0].grad = None  # mask cell 0
    opt = Adam(alphas, lr=3e-4, weight_decay=1e-3)
    opt.step()
    assert np.array_equal(alphas[0].data, before[0])
    assert not np.array_equal(alphas[1].data, before[1])


def test_triple_state_checkpoint_roundtrip():
    net = tiny_net(seed=10)
    state = make_triple_state(net, OptimizerConfig())
    train_b, val_b = tiny_batches(11)
    triple_step(net, train_b, val_b, state, lr_w=0.01)
    arrays = {k: v.copy() for k, v in state.state_arrays().items()}
    counters = state.counters()

    net2 = tiny_net(seed=10)
    state2 = make_triple_state(net2, OptimizerConfig())
    load_arrays(state2.state_arrays(), arrays)
    state2.load_counters(counters)
    assert state2.step == 1
    assert state2.alpha_opt.t == state.alpha_opt.t
    for k, v in state2.state_arrays().items():
        assert np.array_equal(v, arrays[k]), k
