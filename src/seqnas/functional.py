"""Differentiable primitives over (batch, channel, time) arrays.

Every primitive validates shapes up front (raising ShapeError with the
primitive name and the offending dims), computes with numpy, and records a
pullback closure on the active tape.  A pullback returns one entry per
input, in input order: that input's gradient, or None.  It writes no
.grad; Tape.backward adds the entries into the inputs that require one.
A multi-input pullback skips the work for an input that requires no
gradient; a single-input primitive records a node only when its input
requires one, so its pullback never checks.  Convolutions and pools use
"same-length" semantics: symmetric zero padding of (k-1)/2 * dilation per
side, so stride-1 ops preserve temporal length and stride-2 ops emit
ceil(T/stride) samples.
"""

import numpy as np

from .autograd import ShapeError, Tensor, default_dtype, record


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
    x = _tensor(x)
    out = Tensor(np.maximum(x.data, 0))

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


def _taps(xp, k, stride, dilation, t_out):
    """k strided views of the padded array, one per kernel tap."""
    hi = (t_out - 1) * stride + 1
    return [xp[:, :, j * dilation : j * dilation + hi : stride] for j in range(k)]


def _untap(x, pad, tap_grads, stride, dilation, t_out):
    """Adjoint of _taps then unpadding: sum the per-tap gradients, in order,
    into a padded buffer and return its interior, the gradient of x."""
    dxp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad,), dtype=x.data.dtype)
    hi = (t_out - 1) * stride + 1
    for j, gj in enumerate(tap_grads):
        dxp[:, :, j * dilation : j * dilation + hi : stride] += gj
    return dxp[:, :, pad : pad + x.shape[2]] if pad else dxp


def _pad_time(x, pad, fill=0.0):
    """Zero/constant padding on the time axis (faster than np.pad)."""
    if pad == 0:
        return x
    b, c, t = x.shape
    if fill == 0.0:
        xp = np.zeros((b, c, t + 2 * pad), dtype=x.dtype)
    else:
        xp = np.full((b, c, t + 2 * pad), fill, dtype=x.dtype)
    xp[:, :, pad : pad + t] = x
    return xp


def conv1d(x, w, stride=1, dilation=1):
    """Dense 1-D convolution; x (B,C,T), w (C_out,C_in,k), no bias."""
    x, w = _tensor(x), _tensor(w)
    _shape_check(x.ndim == 3, "conv1d", f"input must be (B,C,T), got {x.shape}")
    _shape_check(w.ndim == 3, "conv1d", f"weight must be (C_out,C_in,k), got {w.shape}")
    B, C, T = x.shape
    c_out, c_in, k = w.shape
    _shape_check(c_in == C, "conv1d", f"weight expects {c_in} channels, input has {C}")
    pad, t_out = _conv_geometry("conv1d", T, k, stride, dilation)

    if k == 1:  # pointwise: plain channel mixing, no padding or unfolding
        xs = x.data[:, :, ::stride]
        w2 = w.data[:, :, 0]
        out = Tensor(np.matmul(w2, xs))

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

        return record("conv1d", (x, w), out, backward_fn)

    xp = _pad_time(x.data, pad)
    cols = np.empty((B, C, k, t_out), dtype=x.data.dtype)
    for j, tap in enumerate(_taps(xp, k, stride, dilation, t_out)):
        cols[:, :, j, :] = tap
    cols = cols.reshape(B, C * k, t_out)
    w2 = w.data.reshape(c_out, C * k)
    out = Tensor(np.matmul(w2, cols))

    def backward_fn(g):
        gw = dx = None
        if w.requires_grad:
            gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(c_out, C, k)
        if x.requires_grad:
            dcols = np.matmul(w2.T, g).reshape(B, C, k, t_out)
            dx = _untap(x, pad, (dcols[:, :, j, :] for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return record("conv1d", (x, w), out, backward_fn)


def depthwise_conv1d(x, w, stride=1, dilation=1):
    """Per-channel 1-D convolution; x (B,C,T), w (C,k)."""
    x, w = _tensor(x), _tensor(w)
    _shape_check(x.ndim == 3, "depthwise_conv1d", f"input must be (B,C,T), got {x.shape}")
    _shape_check(w.ndim == 2, "depthwise_conv1d", f"weight must be (C,k), got {w.shape}")
    B, C, T = x.shape
    cw, k = w.shape
    _shape_check(cw == C, "depthwise_conv1d", f"weight has {cw} channels, input {C}")
    pad, t_out = _conv_geometry("depthwise_conv1d", T, k, stride, dilation)

    xp = _pad_time(x.data, pad)
    taps = _taps(xp, k, stride, dilation, t_out)
    acc = w.data[None, :, 0, None] * taps[0]
    prod = np.empty_like(acc)
    for j in range(1, k):
        acc += np.multiply(w.data[None, :, j, None], taps[j], out=prod)
    out = Tensor(acc)

    def backward_fn(g):
        gw = dx = None
        if w.requires_grad:
            gw = np.stack([np.einsum("bct,bct->c", g, tap) for tap in taps], axis=1)
        if x.requires_grad:
            prod = np.empty_like(g)
            dx = _untap(x, pad, (np.multiply(w.data[None, :, j, None], g, out=prod)
                                 for j in range(k)), stride, dilation, t_out)
        return dx, gw

    return record("depthwise_conv1d", (x, w), out, backward_fn)


def separable_conv1d(x, w_dw, w_pw, stride=1, dilation=1):
    """Depthwise-separable conv: per-channel conv then 1x1 projection."""
    return conv1d(depthwise_conv1d(x, w_dw, stride, dilation), w_pw)


def max_pool1d(x, kernel=3, stride=1):
    x = _tensor(x)
    _shape_check(x.ndim == 3, "max_pool1d", f"input must be (B,C,T), got {x.shape}")
    T = x.shape[2]
    pad, t_out = _conv_geometry("max_pool1d", T, kernel, stride, 1)
    xp = _pad_time(x.data, pad, fill=-np.inf)
    taps = _taps(xp, kernel, stride, 1, t_out)
    m = taps[0]
    for tap in taps[1:]:
        m = np.maximum(m, tap)
    out = Tensor(m)

    def backward_fn(g):
        hits, claimed = [], np.zeros_like(m, dtype=bool)
        for tap in taps:
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
    xp = _pad_time(x.data, pad)
    valid = np.zeros(T + 2 * pad, dtype=x.data.dtype)
    valid[pad : pad + T] = 1
    hi = (t_out - 1) * stride + 1
    counts = sum(valid[j : j + hi : stride] for j in range(kernel))
    taps = _taps(xp, kernel, stride, 1, t_out)
    out = Tensor(sum(taps) / counts)

    return record("avg_pool1d", (x,), out,
                  lambda g: (_untap(x, pad, [g / counts] * kernel, stride, 1, t_out),))


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


def channel_norm(x, gamma, beta, running=None, training=True):
    """Per-channel affine normalization over the current batch.

    Mean/variance are taken over (batch, time) per channel and the backward
    pass differentiates through them.  running is None or a (mean, var)
    pair of arrays: in training it is updated in place; outside training
    it is used as constants instead of the batch (final-network evaluation).
    """
    x, gamma, beta = _tensor(x), _tensor(gamma), _tensor(beta)
    _shape_check(x.ndim == 3, "channel_norm", f"input must be (B,C,T), got {x.shape}")
    B, C, T = x.shape
    _shape_check(gamma.shape == (C,), "channel_norm", f"gamma {gamma.shape} vs C={C}")
    _shape_check(beta.shape == (C,), "channel_norm", f"beta {beta.shape} vs C={C}")

    n_stat = B * T
    batch_stats = training or running is None
    if batch_stats:
        mean = x.data.mean(axis=(0, 2))
        xc = x.data - mean[None, :, None]
        var = np.einsum("bct,bct->c", xc, xc) / n_stat
        if running is not None:
            for buf, stat in zip(running, (mean, var)):
                buf *= 1.0 - NORM_MOMENTUM
                buf += NORM_MOMENTUM * stat
    else:
        mean, var = running
        xc = x.data - mean[None, :, None]

    inv_std = (1.0 / np.sqrt(var + NORM_EPS)).astype(x.data.dtype)
    xhat = xc  # xc is not read again: normalise it in place
    xhat *= inv_std[None, :, None]
    out = Tensor(gamma.data[None, :, None] * xhat + beta.data[None, :, None])

    def backward_fn(g):
        dx = None
        dgamma = np.einsum("bct,bct->c", g, xhat) if gamma.requires_grad else None
        dbeta = g.sum(axis=(0, 2)) if beta.requires_grad else None
        if x.requires_grad:
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

    return record("channel_norm", (x, gamma, beta), out, backward_fn)


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
