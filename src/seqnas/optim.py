"""Optimizers and the alternating triple update.

One search step updates, in order: every cell's architecture matrix from
the validation gradient, every cell's input gate from the validation
gradient, then the network weights from the training gradient.  With
xi > 0 the architecture gradients are taken at the virtually advanced
weights w - xi * grad_w L_train, with the second-order term recovered by a
central finite difference over the weights.

Every gradient comes from one pass (`_pass`: fresh tape, every gradient
cleared, loss, backward) that freezes what it does not need: the arch pass
and the Hessian probes freeze the weights, the weight pass and the first
unrolled pass alpha and beta.  Clipping and the probe share `_global_norm`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autograd import backward, reset_tape
from .config import Config, spec


class NumericsError(RuntimeError):
    """Raised on non-finite gradients or losses."""


@dataclass
class OptimizerConfig(Config):
    """Weight SGD, architecture Adam and unrolling settings (section `optimizer`)."""

    w_lr0: float = spec(0.025, min=0)  # cosine-annealed to 0 over the run
    momentum: float = spec(0.9, min=0, below=1)
    weight_decay: float = spec(5e-4, min=0)
    arch_lr: float = spec(3e-4, min=0)
    arch_beta1: float = spec(0.5, min=0, below=1)
    arch_beta2: float = spec(0.999, min=0, below=1)
    arch_eps: float = spec(1e-8, above=0)
    arch_weight_decay: float = spec(1e-3, min=0)
    xi: float = spec(0.0, min=0)  # unrolling step size; 0 selects the first-order scheme
    hessian_eps: float = spec(1e-4, above=0)  # probe scale for the finite-difference product
    grad_clip: float = spec(5.0, above=0)


def cosine_lr(t, total, lr0):
    """Cosine annealing from lr0 at t=0 to exactly 0 at t=total."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if not 0 <= t <= total:
        raise ValueError(f"step {t} outside [0, {total}]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * t / total))


def _check_finite_grad(p):
    if p.grad is not None and not np.all(np.isfinite(p.grad)):
        raise NumericsError(f"non-finite gradient for parameter {p.name!r}")


def _global_norm(arrays):
    """The L2 norm of all arrays together, summed in float64."""
    return math.sqrt(sum(float(np.sum(np.square(a, dtype=np.float64))) for a in arrays))


def clip_grad_norm(params, max_norm):
    """Scale gradients in place so their global L2 norm is at most max_norm."""
    norm = _global_norm(p.grad for p in params if p.grad is not None)
    if norm > max_norm:
        coef = max_norm / (norm + 1e-6)
        for p in params:
            if p.grad is not None:
                p.grad *= coef
    return norm


class SGD:
    """Momentum SGD: v <- m*v + (g + wd*p); p <- p - lr*v."""

    def __init__(self, params, momentum=0.9, weight_decay=0.0):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffers = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        for p, v in zip(self.params, self.buffers):
            if p.grad is None:
                continue
            _check_finite_grad(p)
            v *= self.momentum
            v += p.grad + self.weight_decay * p.data
            p.data -= lr * v

    def state_arrays(self, prefix):
        return {f"{prefix}:{p.name}": v for p, v in zip(self.params, self.buffers)}


class Adam:
    """Adaptive-moment optimizer with L2 decay folded into the gradient."""

    def __init__(self, params, lr=3e-4, beta1=0.5, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            _check_finite_grad(p)
            g = p.grad + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_arrays(self, prefix):
        out = {}
        for p, m, v in zip(self.params, self.m, self.v):
            out[f"{prefix}:m:{p.name}"] = m
            out[f"{prefix}:v:{p.name}"] = v
        return out


@dataclass
class TripleState:
    """Optimizer triple plus run counters for one search."""

    config: OptimizerConfig
    w_opt: SGD
    alpha_opt: Adam
    beta_opt: Adam | None
    epoch: int = 0
    step: int = 0

    def state_arrays(self):
        out = dict(self.w_opt.state_arrays("w"))
        out.update(self.alpha_opt.state_arrays("alpha"))
        if self.beta_opt is not None:
            out.update(self.beta_opt.state_arrays("beta"))
        return out

    def counters(self):
        return {
            "epoch": self.epoch,
            "step": self.step,
            "alpha_t": self.alpha_opt.t,
            "beta_t": self.beta_opt.t if self.beta_opt is not None else 0,
        }

    def load_counters(self, d):
        self.epoch = int(d["epoch"])
        self.step = int(d["step"])
        self.alpha_opt.t = int(d["alpha_t"])
        if self.beta_opt is not None:
            self.beta_opt.t = int(d["beta_t"])


def make_triple_state(net, config: OptimizerConfig):
    w_opt = SGD(net.weight_parameters(), config.momentum, config.weight_decay)
    alpha_opt = Adam(net.arch_parameters(), config.arch_lr, config.arch_beta1,
                     config.arch_beta2, config.arch_eps, config.arch_weight_decay)
    betas = net.gate_parameters()
    beta_opt = Adam(betas, config.arch_lr, config.arch_beta1, config.arch_beta2,
                    config.arch_eps, config.arch_weight_decay) if betas else None
    return TripleState(config=config, w_opt=w_opt, alpha_opt=alpha_opt,
                       beta_opt=beta_opt)


def _batch_loss(net, batch):
    x, y = batch
    return F.cross_entropy(net.forward(x), y)


def _pass(net, batch, frozen=()):
    """Fresh tape, every weight, alpha and beta gradient cleared, loss, backward; the
    frozen parameters get no gradient, and every other one is bitwise unchanged."""
    reset_tape()
    for p in net.weight_parameters() + net.arch_parameters() + net.gate_parameters():
        p.zero_grad()
    for p in frozen:
        p.requires_grad = False
    try:
        loss = _batch_loss(net, batch)
        backward(loss)
    finally:
        for p in frozen:
            p.requires_grad = True
    return float(loss.data)


def _grads(params):
    """Copies of the params' gradients, zeros where a param got none."""
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


def _set_weights(params, arrays):
    for p, a in zip(params, arrays):
        p.data = a


def _arch_grads_unrolled(net, train_batch, val_batch, xi, hessian_eps=1e-4):
    """Architecture gradients of the validation loss at w - xi*grad_w L_train.

    The mixed second-derivative term is approximated by a central finite
    difference of the training gradient around the original weights, with
    the probe direction given by the validation weight gradient and the
    probe length hessian_eps / ||grad||.  Weights are rebound, never written
    in place, so w_orig keeps the original arrays.
    """
    ws = net.weight_parameters()
    arch = net.arch_parameters() + net.gate_parameters()
    w_orig = [p.data for p in ws]

    _pass(net, train_batch, frozen=arch)
    _set_weights(ws, [w - xi * g for w, g in zip(w_orig, _grads(ws))])
    val_loss = _pass(net, val_batch)
    d_arch, g_val_w = _grads(arch), _grads(ws)

    norm = _global_norm(g_val_w)
    if norm > 0:
        eps = hessian_eps / norm
        _set_weights(ws, [w0 + eps * gv for w0, gv in zip(w_orig, g_val_w)])
        _pass(net, train_batch, frozen=ws)
        plus = _grads(arch)
        _set_weights(ws, [w0 - eps * gv for w0, gv in zip(w_orig, g_val_w)])
        _pass(net, train_batch, frozen=ws)
        minus = _grads(arch)
        for d, gp, gm in zip(d_arch, plus, minus):
            d -= xi * (gp - gm) / (2.0 * eps)
    _set_weights(ws, w_orig)
    return d_arch, val_loss


def triple_step(net, train_batch, val_batch, state: TripleState, lr_w):
    """One alternating update: arch and gates on val loss, then weights on train.

    Returns (train_loss, val_loss) as floats measured at the point each
    gradient was taken.
    """
    cfg = state.config
    arch = net.arch_parameters() + net.gate_parameters()
    if cfg.xi > 0:
        d_arch, val_loss = _arch_grads_unrolled(net, train_batch, val_batch,
                                                cfg.xi, cfg.hessian_eps)
        for p, d in zip(arch, d_arch):
            p.grad = d
    else:
        val_loss = _pass(net, val_batch, frozen=net.weight_parameters())

    state.alpha_opt.step()
    if state.beta_opt is not None:
        state.beta_opt.step()

    train_loss = _pass(net, train_batch, frozen=arch)
    if not math.isfinite(train_loss) or not math.isfinite(val_loss):
        raise NumericsError(
            f"non-finite loss at step {state.step}: train={train_loss} val={val_loss}"
        )
    clip_grad_norm(net.weight_parameters(), cfg.grad_clip)
    state.w_opt.step(lr_w)

    state.step += 1
    return train_loss, val_loss
