"""Differentiable primitives over (batch, channel, time) arrays.

Every primitive validates shapes up front (raising ShapeError with the
primitive name and the offending dims), computes with numpy, and records a
pullback closure on the active tape.  A pullback returns one entry per
input, in input order: that input's gradient, or None.  It writes no
.grad; Tape.backward adds the entries into the inputs that require one.
A multi-input pullback skips the work for an input that requires no
gradient; a single-input primitive records a node only when its input
requires one, so its pullback never checks.

The tape holds each activation once.  A pullback keeps only its inputs'
data, its output's data (or views of them) and per-channel vectors; the
one exception is the normalised input xhat of channel_norm and conv1d_norm.
conv1d_norm records a conv feeding a norm as one node and normalises the
conv output in place, since neither pullback reads it, so xhat is kept
instead of beside it.  Convolutions and pools rebuild padded or unfolded
inputs from x.data when they pull back, and _untap adds their gradients
straight into a new unpadded array.  Activations are never written in
place, so every relu recorded on one input shares one read-only output
buffer.  Convolutions and pools use "same-length" semantics: symmetric
zero padding of (k-1)/2 * dilation per side, so stride-1 ops preserve
temporal length and stride-2 ops emit ceil(T/stride) samples.
"""

import numpy as np

from .autograd import ShapeError, Tensor, default_dtype, record, tape


def _shape_check(cond, op, msg):
    if not cond:
        raise ShapeError(f"{op}: {msg}")


def _tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b):
    a, b = _tensor(a), _tensor(b)
    _shape_check(a.shape == b.shape, "add", f"shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    return record("add", (a, b), out, lambda g: (g, g))


def _mul_grad(g, other, t):
    gt = g * other.data
    return np.sum(gt).reshape(t.shape) if t.size == 1 else gt


def mul(a, b):
    """Elementwise product; one operand may be a single-element scalar."""
    a, b = _tensor(a), _tensor(b)
    _shape_check(
        a.shape == b.shape or a.size == 1 or b.size == 1,
        "multiply",
        f"shape mismatch {a.shape} vs {b.shape}",
    )
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        return [_mul_grad(g, other, t) if t.requires_grad else None
                for t, other in ((a, b), (b, a))]

    return record("multiply", (a, b), out, backward_fn)


def scale(x, s):
    """Multiply by a python constant (no gradient for the constant)."""
    x = _tensor(x)
    s = float(s)
    out = Tensor(x.data * s)

    return record("scalar-scale", (x,), out, lambda g: (g * s,))


def sum_all(x):
    x = _tensor(x)
    out = Tensor(np.sum(x.data).reshape(()))

    return record("sum", (x,), out, lambda g: (np.full_like(x.data, g.reshape(())),))


def relu(x):
    """max(x, 0) as a read-only array.  Every relu of one activation of the
    current tape shares one buffer, kept in x.relu_data and freed with x; each
    call still records its own node, so gradients add up as if unshared."""
    x = _tensor(x)
    y = x.relu_data
    if y is None:
        y = np.maximum(x.data, 0)
        y.flags.writeable = False
        if x.tape_id == tape().id:  # never a parameter: the optimizers update those in place
            x.relu_data = y
    out = Tensor(y)

    return record("relu", (x,), out, lambda g: (g * (x.data > 0),))


def take(x, i):
    """Scalar-shaped view of entry i of a 1-D tensor."""
    x = _tensor(x)
    _shape_check(x.ndim == 1, "take", f"expects 1-D input, got {x.shape}")
    _shape_check(0 <= i < x.size, "take", f"index {i} out of range {x.size}")
    out = Tensor(np.array(x.data[i]))

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[i] = g.reshape(())
        return (gx,)

    return record("take", (x,), out, backward_fn)


def take_row(x, i):
    """Row i of a 2-D tensor."""
    x = _tensor(x)
    _shape_check(x.ndim == 2, "take_row", f"expects 2-D input, got {x.shape}")
    _shape_check(0 <= i < x.shape[0], "take_row", f"row {i} out of range {x.shape[0]}")
    out = Tensor(x.data[i].copy())

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[i] = g
        return (gx,)

    return record("take_row", (x,), out, backward_fn)


def weighted_sum(xs, w):
    """sum_i w[i] * xs[i] over same-shape tensors, differentiable in both."""
    xs = [_tensor(x) for x in xs]
    w = _tensor(w)
    _shape_check(w.ndim == 1, "weighted_sum", f"weights must be 1-D, got {w.shape}")
    _shape_check(
        len(xs) == w.size,
        "weighted_sum",
        f"{len(xs)} inputs vs {w.size} weights",
    )
    base = xs[0].shape
    for t in xs[1:]:
        _shape_check(t.shape == base, "weighted_sum", f"{t.shape} vs {base}")
    acc = w.data[0] * xs[0].data
    for i in range(1, len(xs)):
        acc = acc + w.data[i] * xs[i].data
    out = Tensor(acc)

    def backward_fn(g):
        gw = None
        if w.requires_grad:
            gr = g.ravel()
            gw = np.array([np.dot(gr, t.data.ravel()) for t in xs], dtype=w.data.dtype)
        return [g * w.data[i] if t.requires_grad else None for i, t in enumerate(xs)] + [gw]

    return record("weighted_sum", (*xs, w), out, backward_fn)


def concat(xs, axis=1):
    """Concatenate along the channel axis."""
    xs = [_tensor(x) for x in xs]
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


def _taps(x, pad, k, stride, dilation, t_out, fill=0.0):
    """k strided views, one per kernel tap, of the (B,C,T) array x padded with
    fill by pad samples on each side of time: a new array unless pad is 0."""
    if pad:  # faster than np.pad
        b, c, t = x.shape
        if fill == 0.0:
            xp = np.zeros((b, c, t + 2 * pad), dtype=x.dtype)
        else:
            xp = np.full((b, c, t + 2 * pad), fill, dtype=x.dtype)
        xp[:, :, pad : pad + t] = x
        x = xp
    hi = (t_out - 1) * stride + 1
    return [x[:, :, j * dilation : j * dilation + hi : stride] for j in range(k)]


def _untap(x, pad, tap_grads, stride, dilation, t_out):
    """Adjoint of _taps: add each tap's gradient, in tap order, into the samples
    of x it read, skipping those it read from the padding; a new array."""
    T = x.shape[2]
    dx = np.zeros(x.shape, dtype=x.data.dtype)
    for j, gj in enumerate(tap_grads):
        o = j * dilation - pad  # the sample of x that output 0 of tap j reads
        lo = -(-max(0, -o) // stride)  # first output whose sample is in x
        hi = min(t_out, (T - 1 - o) // stride + 1)
        if lo < hi:
            dx[:, :, o + lo * stride : o + (hi - 1) * stride + 1 : stride] += gj[:, :, lo:hi]
    return dx


def _conv1d(op, x, w, stride, dilation):
    """conv1d's forward: (output array, pullback of g to (dx, gw))."""
    _shape_check(x.ndim == 3, op, f"input must be (B,C,T), got {x.shape}")
    _shape_check(w.ndim == 3, op, f"weight must be (C_out,C_in,k), got {w.shape}")
    B, C, T = x.shape
    c_out, c_in, k = w.shape
    _shape_check(c_in == C, op, f"weight expects {c_in} channels, input has {C}")
    pad, t_out = _conv_geometry(op, T, k, stride, dilation)

    if k == 1:  # pointwise: plain channel mixing, no padding or unfolding
        xs = x.data[:, :, ::stride]
        w2 = w.data[:, :, 0]

        def backward_fn(g):
            gw = dx = None
            if w.requires_grad:
                gw = np.matmul(g, xs.transpose(0, 2, 1)).sum(axis=0)[:, :, None]
            if x.requires_grad:
                if stride == 1:
                    dx = np.matmul(w2.T, g)
                else:
                    dx = np.zeros_like(x.data)
                    dx[:, :, ::stride] = np.matmul(w2.T, g)
            return dx, gw

        return np.matmul(w2, xs), backward_fn

    def unfold():  # (B, C*k, t_out) columns of the padded input
        cols = np.empty((B, C, k, t_out), dtype=x.data.dtype)
        for j, tap in enumerate(_taps(x.data, pad, k, stride, dilation, t_out)):
            cols[:, :, j, :] = tap
        return cols.reshape(B, C * k, t_out)

    w2 = w.data.reshape(c_out, C * k)

    def backward_fn(g):
        gw = dx = None
        if w.requires_grad:
            gw = np.matmul(g, unfold().transpose(0, 2, 1)).sum(axis=0).reshape(c_out, C, k)
        if x.requires_grad:
            dcols = np.matmul(w2.T, g).reshape(B, C, k, t_out)
            dx = _untap(x, pad, (dcols[:, :, j, :] for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return np.matmul(w2, unfold()), backward_fn


def conv1d(x, w, stride=1, dilation=1):
    """Dense 1-D convolution; x (B,C,T), w (C_out,C_in,k), no bias."""
    x, w = _tensor(x), _tensor(w)
    y, backward_fn = _conv1d("conv1d", x, w, stride, dilation)
    return record("conv1d", (x, w), Tensor(y), backward_fn)


def depthwise_conv1d(x, w, stride=1, dilation=1):
    """Per-channel 1-D convolution; x (B,C,T), w (C,k)."""
    x, w = _tensor(x), _tensor(w)
    _shape_check(x.ndim == 3, "depthwise_conv1d", f"input must be (B,C,T), got {x.shape}")
    _shape_check(w.ndim == 2, "depthwise_conv1d", f"weight must be (C,k), got {w.shape}")
    B, C, T = x.shape
    cw, k = w.shape
    _shape_check(cw == C, "depthwise_conv1d", f"weight has {cw} channels, input {C}")
    pad, t_out = _conv_geometry("depthwise_conv1d", T, k, stride, dilation)

    taps = _taps(x.data, pad, k, stride, dilation, t_out)
    acc = w.data[None, :, 0, None] * taps[0]
    prod = np.empty_like(acc)
    for j in range(1, k):
        acc += np.multiply(w.data[None, :, j, None], taps[j], out=prod)
    out = Tensor(acc)

    def backward_fn(g):
        gw = dx = None
        if w.requires_grad:
            taps = _taps(x.data, pad, k, stride, dilation, t_out)
            gw = np.stack([np.einsum("bct,bct->c", g, tap) for tap in taps], axis=1)
        if x.requires_grad:
            prod = np.empty_like(g)
            dx = _untap(x, pad, (np.multiply(w.data[None, :, j, None], g, out=prod)
                                 for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return record("depthwise_conv1d", (x, w), out, backward_fn)


def max_pool1d(x, kernel=3, stride=1):
    x = _tensor(x)
    _shape_check(x.ndim == 3, "max_pool1d", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    pad, t_out = _conv_geometry("max_pool1d", T, kernel, stride, 1)
    taps = _taps(x.data, pad, kernel, stride, 1, t_out, fill=-np.inf)
    m = taps[0]
    for tap in taps[1:]:
        m = np.maximum(m, tap)
    out = Tensor(m)

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
    x = _tensor(x)
    _shape_check(x.ndim == 3, "avg_pool1d", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    pad, t_out = _conv_geometry("avg_pool1d", T, kernel, stride, 1)

    def counts():  # in-bounds taps per output sample
        valid = np.zeros(T + 2 * pad, dtype=x.data.dtype)
        valid[pad : pad + T] = 1
        hi = (t_out - 1) * stride + 1
        return sum(valid[j : j + hi : stride] for j in range(kernel))

    out = Tensor(sum(_taps(x.data, pad, kernel, stride, 1, t_out)) / counts())

    return record("avg_pool1d", (x,), out,
                  lambda g: (_untap(x, pad, [g / counts()] * kernel, stride, 1, t_out),))


def shift_time(x):
    """Drop the first time step and zero-pad the end (length preserved)."""
    x = _tensor(x)
    _shape_check(x.ndim == 3, "shift_time", f"input must be (B,C,T), got {x.shape}")
    data = np.zeros_like(x.data)
    data[:, :, :-1] = x.data[:, :, 1:]
    out = Tensor(data)

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, :, 1:] = g[:, :, :-1]
        return (gx,)

    return record("shift_time", (x,), out, backward_fn)


# ---------------------------------------------------------------------------
# normalization, pooling to vector, classification head


NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1  # running <- (1 - momentum) * running + momentum * batch


def _channel_norm(op, x, need_dx, gamma, beta, running, training, out=None):
    """channel_norm's forward on the array x: (output array, pullback of g to
    (dx, dgamma, dbeta)), with dx None unless need_dx.  The normalised input
    xhat is written into out, which may be x itself, or into a new array."""
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

    return gamma.data[None, :, None] * xhat + beta.data[None, :, None], backward_fn


def channel_norm(x, gamma, beta, running=None, training=True):
    """Per-channel affine normalization over the current batch.

    Mean/variance are taken over (batch, time) per channel and the backward
    pass differentiates through them.  running is None or a (mean, var)
    pair of arrays: in training it is updated in place; outside training
    it is used as constants instead of the batch (final-network evaluation).
    """
    x, gamma, beta = _tensor(x), _tensor(gamma), _tensor(beta)
    y, backward_fn = _channel_norm("channel_norm", x.data, x.requires_grad,
                                   gamma, beta, running, training)
    return record("channel_norm", (x, gamma, beta), Tensor(y), backward_fn)


def conv1d_norm(x, w, gamma, beta, running=None, training=True, stride=1):
    """channel_norm(conv1d(x, w, stride), gamma, beta, running, training) as one
    node.  The conv output, which neither pullback reads, is normalised in
    place, so the tape keeps xhat where the pair kept it and xhat."""
    x, w, gamma, beta = _tensor(x), _tensor(w), _tensor(gamma), _tensor(beta)
    y, conv_backward = _conv1d("conv1d_norm", x, w, stride, 1)
    out, norm_backward = _channel_norm("conv1d_norm", y, x.requires_grad or w.requires_grad,
                                       gamma, beta, running, training, out=y)

    def backward_fn(g):
        dy, dgamma, dbeta = norm_backward(g)
        return (*conv_backward(dy), dgamma, dbeta)  # dy is None only if x and w need none

    return record("conv1d_norm", (x, w, gamma, beta), Tensor(out), backward_fn)


def global_avg_pool(x):
    """Mean over the time axis: (B,C,T) -> (B,C)."""
    x = _tensor(x)
    _shape_check(x.ndim == 3, "global_avg_pool", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    out = Tensor(x.data.mean(axis=2))

    return record("global_avg_pool", (x,), out,
                  lambda g: (np.repeat(g[:, :, None], T, axis=2) / T,))


def linear(x, w, b):
    """Affine map per batch row: (B,D) @ (K,D)^T + (K,)."""
    x, w, b = _tensor(x), _tensor(w), _tensor(b)
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


def softmax(x, axis=-1):
    x = _tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def backward_fn(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return record("softmax", (x,), out, backward_fn)


def log_softmax(x, axis=-1):
    x = _tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    ls = z - lse
    out = Tensor(ls)

    return record("log_softmax", (x,), out,
                  lambda g: (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),))


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under the logits."""
    logits = _tensor(logits)
    labels = np.asarray(labels)
    _shape_check(logits.ndim == 2, "cross_entropy", f"logits must be (B,K), got {logits.shape}")
    B, K = logits.shape
    _shape_check(labels.shape == (B,), "cross_entropy", f"labels {labels.shape} vs B={B}")
    _shape_check(
        labels.min(initial=0) >= 0 and labels.max(initial=0) < K,
        "cross_entropy",
        f"labels out of range for {K} classes",
    )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    ls = z - lse
    out = Tensor(np.array(-ls[np.arange(B), labels].mean()).reshape(()))

    def backward_fn(g):
        sm = np.exp(ls)
        sm[np.arange(B), labels] -= 1.0
        return (sm * (g.reshape(()) / B),)

    return record("cross_entropy", (logits,), out, backward_fn)


def zeros(shape, dtype=None):
    """Constant all-zero tensor (never requires grad)."""
    return Tensor(np.zeros(shape, dtype=dtype or default_dtype()))
