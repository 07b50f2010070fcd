"""Differentiable primitives over (batch, channel, time) arrays.

Every primitive takes Tensors (the networks wrap raw input once), validates
shapes up front (raising ShapeError with the primitive name and the
offending dims), computes with numpy, and records a pullback closure on the
active tape.  A pullback returns one entry per input, in input order: that
input's gradient, or None.  It writes no .grad; Tape.backward adds the
entries into the inputs that require one.  A multi-input pullback skips the
work for an input that requires no gradient; a single-input primitive
records a node only when its input requires one, so its pullback never
checks.

The tape holds each activation once.  A pullback keeps only its inputs'
data, its output's data (or views of them, or their zero-byte stand-ins once
released or freed) and per-channel vectors; the one exception is the
normalised input xhat of the norm nodes.  A conv feeding a norm is one node
that normalises the conv output in place, since neither pullback reads it,
so xhat is kept instead of beside it: conv1d_norm; relu_conv_norm for relu
-> (depthwise ->) conv -> norm; and factorized_reduce for relu -> two offset
stride-2 pointwise convs -> concat -> norm.  Each builds only its conv
output and conv pullback and shares one tail, _norm_node, for the norm, the
relu mask and the record.  The last two rebuild relu(x), and relu_conv_norm
its depthwise output, from x's values only when a weight gradient reads
them.  Their recorded output carries a remake from xhat, so a caller may
release it (Tensor.release) if only these three and weighted_sum read it
later: their pullbacks remake an input's values (Tensor.value) at most once
each.  mul's output carries a remake too, its own product, so the supernet
releases each gated cell input once pre0 and pre1 have read it.  A tensor
that no pullback reads may be freed outright (Tensor.free): no pullback
reads add's inputs or concat's, nor weighted_sum's output, so a SearchCell
frees each edge sum, each partial node sum and its last node once read.
Convolutions and pools rebuild padded or unfolded inputs from x.data when
they pull back, and _untap adds their gradients straight into a new unpadded
array.  Activations are never written in place, so the max (or avg) pools of
one kernel and stride on one activation of the current tape share one
read-only output buffer, while each call records its own node.  Convolutions
and pools use "same-length" semantics: symmetric zero padding of (k-1)/2 *
dilation per side, so stride-1 ops preserve temporal length and stride-2 ops
emit ceil(T/stride) samples.
"""

import numpy as np

from .autograd import ShapeError, Tensor, default_dtype, record, tape


def _shape_check(cond, op, msg):
    if not cond:
        raise ShapeError(f"{op}: {msg}")


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b):
    _shape_check(a.shape == b.shape, "add", f"shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    return record("add", (a, b), out, lambda g: (g, g))


def _mul_grad(g, other, t):
    gt = g * other.data
    return np.sum(gt).reshape(t.shape) if t.size == 1 else gt


def mul(a, b):
    """Elementwise product; one operand may be a single-element scalar."""
    _shape_check(
        a.shape == b.shape or a.size == 1 or b.size == 1,
        "multiply",
        f"shape mismatch {a.shape} vs {b.shape}",
    )
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        return [_mul_grad(g, other, t) if t.requires_grad else None
                for t, other in ((a, b), (b, a))]

    return record("multiply", (a, b), out, backward_fn, lambda: a.data * b.data)


def scale(x, s):
    """Multiply by a python constant (no gradient for the constant)."""
    s = float(s)
    out = Tensor(x.data * s)

    return record("scalar-scale", (x,), out, lambda g: (g * s,))


def sum_all(x):
    out = Tensor(np.sum(x.data).reshape(()))

    return record("sum", (x,), out, lambda g: (np.full_like(x.data, g.reshape(())),))


def relu(x):
    out = Tensor(np.maximum(x.data, 0))

    return record("relu", (x,), out, lambda g: (g * (x.data > 0),))


def take(x, i):
    """Scalar-shaped view of entry i of a 1-D tensor."""
    _shape_check(x.ndim == 1, "take", f"expects 1-D input, got {x.shape}")
    _shape_check(0 <= i < x.size, "take", f"index {i} out of range {x.size}")
    out = Tensor(np.array(x.data[i]))

    return record("take", (x,), out, lambda g: (_put(x, i, g.reshape(())),))


def take_row(x, i):
    """Row i of a 2-D tensor."""
    _shape_check(x.ndim == 2, "take_row", f"expects 2-D input, got {x.shape}")
    _shape_check(0 <= i < x.shape[0], "take_row", f"row {i} out of range {x.shape[0]}")
    out = Tensor(x.data[i].copy())

    return record("take_row", (x,), out, lambda g: (_put(x, i, g),))


def _put(x, i, g):
    """The pullback of indexing x at i: zeros shaped like x, with g at i."""
    gx = np.zeros_like(x.data)
    gx[i] = g
    return gx


def _accumulate(terms):
    """sum c * a over the (c, a) pairs of terms, added in order into a new
    array through one scratch product."""
    terms = iter(terms)
    c, a = next(terms)
    acc = c * a
    prod = np.empty_like(acc)
    for c, a in terms:
        acc += np.multiply(c, a, out=prod)
    return acc


def weighted_sum(xs, w):
    """sum_i w[i] * xs[i] over same-shape tensors, differentiable in both."""
    _shape_check(w.ndim == 1, "weighted_sum", f"weights must be 1-D, got {w.shape}")
    _shape_check(
        len(xs) == w.size,
        "weighted_sum",
        f"{len(xs)} inputs vs {w.size} weights",
    )
    base = xs[0].shape
    for t in xs[1:]:
        _shape_check(t.shape == base, "weighted_sum", f"{t.shape} vs {base}")
    out = Tensor(_accumulate((w.data[i], t.data) for i, t in enumerate(xs)))

    def backward_fn(g):
        gw = None
        if w.requires_grad:
            gr = g.ravel()
            gw = np.array([np.dot(gr, t.value().ravel()) for t in xs], dtype=w.data.dtype)
        return [g * w.data[i] if t.requires_grad else None for i, t in enumerate(xs)] + [gw]

    return record("weighted_sum", (*xs, w), out, backward_fn)


def concat(xs, axis=1):
    """Concatenate along the channel axis."""
    _shape_check(len(xs) > 0, "concat", "needs at least one input")
    ref = list(xs[0].shape)
    for t in xs[1:]:
        other = list(t.shape)
        ref_rest = ref[:axis] + ref[axis + 1 :]
        oth_rest = other[:axis] + other[axis + 1 :]
        _shape_check(
            ref_rest == oth_rest,
            "concat",
            f"non-{axis} dims differ: {tuple(ref)} vs {t.shape}",
        )
    out = Tensor(np.concatenate([t.data for t in xs], axis=axis))
    sizes = [t.shape[axis] for t in xs]
    splits = np.cumsum(sizes)[:-1]

    return record("concat", tuple(xs), out, lambda g: np.split(g, splits, axis=axis))


# ---------------------------------------------------------------------------
# convolution and pooling


def _conv_geometry(op, T, k, stride, dilation):
    _shape_check(k % 2 == 1, op, f"kernel length must be odd, got {k}")
    _shape_check(stride in (1, 2), op, f"stride must be 1 or 2, got {stride}")
    _shape_check(dilation in (1, 2), op, f"dilation must be 1 or 2, got {dilation}")
    pad = (k - 1) // 2 * dilation
    t_out = -(-T // stride)  # ceil division
    return pad, t_out


def _taps(x, pad, k, stride, dilation, t_out, fill=0.0, relu=False):
    """k strided views, one per kernel tap, of the (B,C,T) array x, or of
    max(x, 0) if relu, padded with fill by pad samples on each side of time: a
    new array unless pad is 0 and relu is off.  The relu is written straight
    into the padded array."""
    if pad or relu:  # faster than np.pad
        b, c, t = x.shape
        if fill == 0.0:
            xp = np.zeros((b, c, t + 2 * pad), dtype=x.dtype)
        else:
            xp = np.full((b, c, t + 2 * pad), fill, dtype=x.dtype)
        if relu:
            np.maximum(x, 0, out=xp[:, :, pad : pad + t])
        else:
            xp[:, :, pad : pad + t] = x
        x = xp
    hi = (t_out - 1) * stride + 1
    return [x[:, :, j * dilation : j * dilation + hi : stride] for j in range(k)]


def _untap(x, pad, tap_grads, stride, dilation, t_out):
    """Adjoint of _taps: add each tap's gradient, in tap order, into the samples
    of x (a tensor or array, read for its shape and dtype) it read, skipping
    those it read from the padding; a new array."""
    T = x.shape[2]
    dx = np.zeros(x.shape, dtype=x.dtype)
    for j, gj in enumerate(tap_grads):
        o = j * dilation - pad  # the sample of x that output 0 of tap j reads
        lo = -(-max(0, -o) // stride)  # first output whose sample is in x
        hi = min(t_out, (T - 1 - o) // stride + 1)
        if lo < hi:
            dx[:, :, o + lo * stride : o + (hi - 1) * stride + 1 : stride] += gj[:, :, lo:hi]
    return dx


def _conv1d(op, x, w, stride, dilation):
    """conv1d's forward on the array x: (output array, pullback of (g, x, need_dx)
    to (dx, gw)).  The pullback reads its x, the input again, for gw, and for
    dx at most its shape and dtype, so a stand-in serves when w needs none."""
    _shape_check(x.ndim == 3, op, f"input must be (B,C,T), got {x.shape}")
    _shape_check(w.ndim == 3, op, f"weight must be (C_out,C_in,k), got {w.shape}")
    B, C, T = x.shape
    c_out, c_in, k = w.shape
    _shape_check(c_in == C, op, f"weight expects {c_in} channels, input has {C}")
    pad, t_out = _conv_geometry(op, T, k, stride, dilation)

    if k == 1:  # pointwise: plain channel mixing, no padding or unfolding
        w2 = w.data[:, :, 0]

        def backward_fn(g, x, need_dx):
            gw = dx = None
            if w.requires_grad:
                gw = np.matmul(g, x[:, :, ::stride].transpose(0, 2, 1)).sum(axis=0)[:, :, None]
            if need_dx:
                if stride == 1:
                    dx = np.matmul(w2.T, g)
                else:
                    dx = np.zeros_like(x)
                    dx[:, :, ::stride] = np.matmul(w2.T, g)
            return dx, gw

        return np.matmul(w2, x[:, :, ::stride]), backward_fn

    def unfold(x):  # (B, C*k, t_out) columns of the padded input
        cols = np.empty((B, C, k, t_out), dtype=x.dtype)
        for j, tap in enumerate(_taps(x, pad, k, stride, dilation, t_out)):
            cols[:, :, j, :] = tap
        return cols.reshape(B, C * k, t_out)

    w2 = w.data.reshape(c_out, C * k)

    def backward_fn(g, x, need_dx):
        gw = dx = None
        if w.requires_grad:
            gw = np.matmul(g, unfold(x).transpose(0, 2, 1)).sum(axis=0).reshape(c_out, C, k)
        if need_dx:
            dcols = np.matmul(w2.T, g).reshape(B, C, k, t_out)
            dx = _untap(x, pad, (dcols[:, :, j, :] for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return np.matmul(w2, unfold(x)), backward_fn


def conv1d(x, w, stride=1, dilation=1):
    """Dense 1-D convolution; x (B,C,T), w (C_out,C_in,k), no bias."""
    y, backward_fn = _conv1d("conv1d", x.data, w, stride, dilation)
    return record("conv1d", (x, w), Tensor(y),
                  lambda g: backward_fn(g, x.data, x.requires_grad))


def _depthwise(taps, w):
    """The depthwise forward over the k tap views of the padded input and the
    (C,k) weight array w: sum_j w[:, j] * taps[j], in tap order."""
    return _accumulate((w[None, :, j, None], tap) for j, tap in enumerate(taps))


def _depthwise_conv1d(op, x, w, stride, dilation, relu=False):
    """depthwise_conv1d's forward on x, or on relu(x) if relu: (output array,
    taps, pullback).  taps(xd) rebuilds the tap views of the padded input from
    xd, x's values.  The pullback maps (g, taps(xd)) to (dx, gw), with the taps
    read only for gw; dx, None unless x requires one, is taken before any relu
    mask."""
    _shape_check(x.ndim == 3, op, f"input must be (B,C,T), got {x.shape}")
    _shape_check(w.ndim == 2, op, f"weight must be (C,k), got {w.shape}")
    B, C, T = x.shape
    cw, k = w.shape
    _shape_check(cw == C, op, f"weight has {cw} channels, input {C}")
    pad, t_out = _conv_geometry(op, T, k, stride, dilation)

    def taps(xd):
        return _taps(xd, pad, k, stride, dilation, t_out, relu=relu)

    def backward_fn(g, taps):
        gw = dx = None
        if w.requires_grad:
            gw = np.stack([np.einsum("bct,bct->c", g, tap) for tap in taps], axis=1)
        if x.requires_grad:
            prod = np.empty_like(g)
            dx = _untap(x, pad, (np.multiply(w.data[None, :, j, None], g, out=prod)
                                 for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return _depthwise(taps(x.data), w.data), taps, backward_fn


def depthwise_conv1d(x, w, stride=1, dilation=1):
    """Per-channel 1-D convolution; x (B,C,T), w (C,k)."""
    y, taps, backward_fn = _depthwise_conv1d("depthwise_conv1d", x, w, stride, dilation)
    return record("depthwise_conv1d", (x, w), Tensor(y),
                  lambda g: backward_fn(g, taps(x.data) if w.requires_grad else None))


def _pool(op, x, kernel, stride, pool):
    """pool() as a read-only array, which every op pool of one kernel and
    stride on x shares if x is an activation of the current tape: it is kept
    in x.pools and freed with x.  Nothing is kept for a parameter, which the
    optimizers update in place, nor for another tape's tensor."""
    if x.tape_id != tape().id:
        return pool()
    key = (op, kernel, stride)
    if x.pools is None:
        x.pools = {}
    y = x.pools.get(key)
    if y is None:
        y = x.pools[key] = pool()
        y.flags.writeable = False
    return y


def max_pool1d(x, kernel=3, stride=1):
    _shape_check(x.ndim == 3, "max_pool1d", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    pad, t_out = _conv_geometry("max_pool1d", T, kernel, stride, 1)

    def pool():
        taps = _taps(x.data, pad, kernel, stride, 1, t_out, fill=-np.inf)
        m = taps[0]
        for tap in taps[1:]:
            m = np.maximum(m, tap)
        return m

    out = Tensor(_pool("max_pool1d", x, kernel, stride, pool))

    def backward_fn(g):
        m = out.data
        hits, claimed = [], np.zeros_like(m, dtype=bool)
        for tap in _taps(x.data, pad, kernel, stride, 1, t_out, fill=-np.inf):
            hits.append((tap == m) & ~claimed)  # ties route to the earliest tap
            claimed |= hits[-1]
        return (_untap(x, pad, (g * hit for hit in hits), stride, 1, t_out),)

    return record("max_pool1d", (x,), out, backward_fn)


def avg_pool1d(x, kernel=3, stride=1):
    """Average pooling that divides by the count of in-bounds taps only."""
    _shape_check(x.ndim == 3, "avg_pool1d", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    pad, t_out = _conv_geometry("avg_pool1d", T, kernel, stride, 1)

    def counts():  # in-bounds taps per output sample
        valid = np.zeros(T + 2 * pad, dtype=x.data.dtype)
        valid[pad : pad + T] = 1
        hi = (t_out - 1) * stride + 1
        return sum(valid[j : j + hi : stride] for j in range(kernel))

    out = Tensor(_pool("avg_pool1d", x, kernel, stride,
                       lambda: sum(_taps(x.data, pad, kernel, stride, 1, t_out)) / counts()))

    return record("avg_pool1d", (x,), out,
                  lambda g: (_untap(x, pad, [g / counts()] * kernel, stride, 1, t_out),))


def _shift_time(x):
    """The array x one time step left, zero-padded at the end: a new array."""
    y = np.zeros_like(x)
    y[:, :, :-1] = x[:, :, 1:]
    return y


def _unshift_time(g):
    """The adjoint of _shift_time: a new array."""
    gx = np.zeros(g.shape, dtype=g.dtype)
    gx[:, :, 1:] = g[:, :, :-1]
    return gx


def shift_time(x):
    """Drop the first time step and zero-pad the end (length preserved)."""
    _shape_check(x.ndim == 3, "shift_time", f"input must be (B,C,T), got {x.shape}")

    return record("shift_time", (x,), Tensor(_shift_time(x.data)),
                  lambda g: (_unshift_time(g),))


# ---------------------------------------------------------------------------
# normalization, pooling to vector, classification head


NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1  # running <- (1 - momentum) * running + momentum * batch


def _channel_norm(op, x, need_dx, gamma, beta, running, training, out=None):
    """channel_norm's forward on the array x: (output array, pullback of g to
    (dx, dgamma, dbeta), remake), with dx None unless need_dx.  The normalised
    input xhat is written into out, which may be x itself, or into a new array.
    remake() recomputes the output bitwise from xhat, gamma and beta."""
    _shape_check(x.ndim == 3, op, f"input must be (B,C,T), got {x.shape}")
    B, C, T = x.shape
    _shape_check(gamma.shape == (C,), op, f"gamma {gamma.shape} vs C={C}")
    _shape_check(beta.shape == (C,), op, f"beta {beta.shape} vs C={C}")

    n_stat = B * T
    batch_stats = training or running is None
    if batch_stats:
        mean = x.mean(axis=(0, 2))
        xc = np.subtract(x, mean[None, :, None], out=out)
        var = np.einsum("bct,bct->c", xc, xc) / n_stat
        if running is not None:
            for buf, stat in zip(running, (mean, var)):
                buf *= 1.0 - NORM_MOMENTUM
                buf += NORM_MOMENTUM * stat
    else:
        mean, var = running
        xc = np.subtract(x, mean[None, :, None], out=out)

    inv_std = (1.0 / np.sqrt(var + NORM_EPS)).astype(x.dtype)
    xhat = xc  # xc is not read again: normalise it in place
    xhat *= inv_std[None, :, None]

    def backward_fn(g):
        dx = None
        dgamma = np.einsum("bct,bct->c", g, xhat) if gamma.requires_grad else None
        dbeta = g.sum(axis=(0, 2)) if beta.requires_grad else None
        if need_dx:
            gs = g * gamma.data[None, :, None]
            if batch_stats:
                mean_gs = gs.mean(axis=(0, 2))
                mean_gs_xhat = np.einsum("bct,bct->c", gs, xhat) / n_stat
                # inv_std * (gs - mean_gs - xhat * mean_gs_xhat), in place in gs
                dx = np.subtract(gs, mean_gs[None, :, None], out=gs)
                dx -= xhat * mean_gs_xhat[None, :, None]
                dx *= inv_std[None, :, None]
            else:
                dx = np.multiply(gs, inv_std[None, :, None], out=gs)
        return dx, dgamma, dbeta

    def remake():
        return gamma.data[None, :, None] * xhat + beta.data[None, :, None]

    return remake(), backward_fn, remake


def channel_norm(x, gamma, beta, running=None, training=True):
    """Per-channel affine normalization over the current batch.

    Mean/variance are taken over (batch, time) per channel and the backward
    pass differentiates through them.  running is None or a (mean, var)
    pair of arrays: in training it is updated in place; outside training
    it is used as constants instead of the batch (final-network evaluation).
    """
    y, backward_fn, _ = _channel_norm("channel_norm", x.data, x.requires_grad,
                                      gamma, beta, running, training)
    return record("channel_norm", (x, gamma, beta), Tensor(y), backward_fn)


def _norm_node(op, inputs, y, conv_backward, running, training, relu):
    """Record channel_norm(y, gamma, beta, running, training) of the conv output
    y as one node op over inputs: x, the conv weights, gamma, beta.  y is
    normalised in place, so the pullback keeps only xhat.  conv_backward(dy,
    xd) maps the norm's dy and x's values xd to the conv inputs' gradients,
    dx first, as a new array; dx then gets relu(x)'s mask if relu.  The output
    carries the norm's remake."""
    x, gamma, beta = inputs[0], inputs[-2], inputs[-1]
    out, norm_backward, remake = _channel_norm(
        op, y, any(t.requires_grad for t in inputs[:-2]), gamma, beta, running, training, out=y)

    def backward_fn(g):
        dy, dgamma, dbeta = norm_backward(g)  # dy is None only if no conv input needs one
        if dy is None:
            return (None,) * (len(inputs) - 2) + (dgamma, dbeta)
        xd = x.value()  # at most one remake
        dx, *grads = conv_backward(dy, xd)
        if relu and dx is not None:
            dx *= xd > 0
        return (dx, *grads, dgamma, dbeta)

    return record(op, inputs, Tensor(out), backward_fn, remake)


def conv1d_norm(x, w, gamma, beta, running=None, training=True, stride=1):
    """channel_norm(conv1d(x, w, stride), gamma, beta, running, training) as one
    node, which keeps xhat and no conv output."""
    y, conv_backward = _conv1d("conv1d_norm", x.data, w, stride, 1)
    return _norm_node("conv1d_norm", (x, w, gamma, beta), y,
                      lambda dy, xd: conv_backward(dy, xd, x.requires_grad),
                      running, training, relu=False)


def relu_conv_norm(x, w, gamma, beta, running=None, training=True, stride=1, dilation=1,
                   dw=None):
    """channel_norm(conv1d(relu(x), w, stride, dilation), ...) as one node, or
    with a (C,k) depthwise weight dw and a pointwise w, channel_norm(conv1d(
    depthwise_conv1d(relu(x), dw, stride, dilation), w), ...)."""
    op = "relu_conv_norm"
    if dw is None:
        y, dense_backward = _conv1d(op, np.maximum(x.data, 0), w, stride, dilation)

        def conv_backward(dy, xd):  # (dx, gw)
            u = np.maximum(xd, 0) if w.requires_grad else xd
            return dense_backward(dy, u, x.requires_grad)

        return _norm_node(op, (x, w, gamma, beta), y, conv_backward, running, training,
                          relu=True)

    d, taps, dw_backward = _depthwise_conv1d(op, x, dw, stride, dilation, relu=True)
    # a pointwise stride-1 conv reads nothing of its input for dx
    _shape_check(w.ndim != 3 or w.shape[2] == 1, op,
                 f"weight after a depthwise conv must be pointwise, got {w.shape}")
    y, dense_backward = _conv1d(op, d, w, 1, 1)
    del d

    def conv_backward(dy, xd):  # (dx, gdw, gw)
        t = taps(xd) if w.requires_grad or dw.requires_grad else None
        du, gw = dense_backward(dy, _depthwise(t, dw.data) if w.requires_grad else None,
                                x.requires_grad or dw.requires_grad)
        return (*dw_backward(du, t), gw)

    return _norm_node(op, (x, dw, w, gamma, beta), y, conv_backward, running, training,
                      relu=True)


def factorized_reduce(x, w1, w2, gamma, beta, running=None, training=True):
    """channel_norm(concat([conv1d(u, w1, 2), conv1d(shift_time(u), w2, 2)]),
    gamma, beta, running, training) with u = relu(x), as one node, which keeps
    xhat and no conv output."""
    op = "factorized_reduce"
    u = np.maximum(x.data, 0)
    a, back1 = _conv1d(op, u, w1, 2, 1)
    b, back2 = _conv1d(op, _shift_time(u), w2, 2, 1)
    half = a.shape[1]
    y = np.concatenate([a, b], axis=1)
    del u, a, b

    def conv_backward(dy, xd):  # (dx, gw1, gw2)
        u = np.maximum(xd, 0) if w1.requires_grad or w2.requires_grad else xd
        du2, gw2 = back2(dy[:, half:], _shift_time(u) if w2.requires_grad else u,
                         x.requires_grad)
        du1, gw1 = back1(dy[:, :half], u, x.requires_grad)
        dx = None
        if x.requires_grad:  # the chain's order: unshift, add, then the relu mask
            dx = _unshift_time(du2)
            dx += du1
        return dx, gw1, gw2

    return _norm_node(op, (x, w1, w2, gamma, beta), y, conv_backward, running, training,
                      relu=True)


def global_avg_pool(x):
    """Mean over the time axis: (B,C,T) -> (B,C)."""
    _shape_check(x.ndim == 3, "global_avg_pool", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    out = Tensor(x.data.mean(axis=2))

    return record("global_avg_pool", (x,), out,
                  lambda g: (np.repeat(g[:, :, None], T, axis=2) / T,))


def linear(x, w, b):
    """Affine map per batch row: (B,D) @ (K,D)^T + (K,)."""
    _shape_check(x.ndim == 2, "linear", f"input must be (B,D), got {x.shape}")
    _shape_check(w.ndim == 2, "linear", f"weight must be (K,D), got {w.shape}")
    _shape_check(
        w.shape[1] == x.shape[1],
        "linear",
        f"weight expects D={w.shape[1]}, input has D={x.shape[1]}",
    )
    _shape_check(b.shape == (w.shape[0],), "linear", f"bias {b.shape} vs K={w.shape[0]}")
    out = Tensor(x.data @ w.data.T + b.data)

    def backward_fn(g):
        return (g @ w.data if x.requires_grad else None,
                g.T @ x.data if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return record("linear", (x, w, b), out, backward_fn)


def _softmax(a, axis):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x, axis=-1):
    y = _softmax(x.data, axis)
    return record("softmax", (x,), Tensor(y),
                  lambda g: (y * (g - np.sum(g * y, axis=axis, keepdims=True)),))


def _log_softmax(a, axis):
    z = a - a.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def log_softmax(x, axis=-1):
    ls = _log_softmax(x.data, axis)
    return record("log_softmax", (x,), Tensor(ls),
                  lambda g: (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),))


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under the logits."""
    labels = np.asarray(labels)
    _shape_check(logits.ndim == 2, "cross_entropy", f"logits must be (B,K), got {logits.shape}")
    B, K = logits.shape
    _shape_check(labels.shape == (B,), "cross_entropy", f"labels {labels.shape} vs B={B}")
    _shape_check(
        labels.min(initial=0) >= 0 and labels.max(initial=0) < K,
        "cross_entropy",
        f"labels out of range for {K} classes",
    )
    ls = _log_softmax(logits.data, 1)
    out = Tensor(np.array(-ls[np.arange(B), labels].mean()).reshape(()))

    def backward_fn(g):
        sm = np.exp(ls)
        sm[np.arange(B), labels] -= 1.0
        return (sm * (g.reshape(()) / B),)

    return record("cross_entropy", (logits,), out, backward_fn)


def zeros(shape, dtype=None):
    """Constant all-zero tensor (never requires grad)."""
    return Tensor(np.zeros(shape, dtype=dtype or default_dtype()))
