"""Shared oracles and gradient-check machinery for the test suite."""

import ctypes
import glob
import os

import numpy as np
import pytest

from seqnas.autograd import backward, no_grad, parameter, reset_tape, using_dtype


def blas_core():
    """The kernel core that numpy's bundled OpenBLAS picked at load (e.g.
    "SkylakeX"), or "unknown" if no bundled library exports
    scipy_openblas_get_corename64_.  A pinned hash holds for one core."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pin_context():
    """What a pinned hash depends on besides the code: the BLAS core and numpy."""
    return f"OpenBLAS core {blas_core()}, numpy {np.__version__}"


def pinned(table):
    """table[blas_core()], the pins for the kernels OpenBLAS runs here: "SkylakeX"
    (AVX-512, also reported on Cooperlake) or "Haswell" (AVX2, also reported on
    Zen; force it with OPENBLAS_CORETYPE=Haswell).  Fails on any other core."""
    core = blas_core()
    if core not in table:
        pytest.fail(f"no pins for {pin_context()}")
    return table[core]


def finite_difference_check(make_loss, params, rel_tol=1e-4, floor=1e-7, eps=1e-5):
    """Compare analytic gradients with central finite differences (64-bit).

    make_loss receives {name: Tensor} and must rebuild the loss from
    scratch on every call.  Passes when, per scalar, the gradient error is
    within rel_tol of the larger magnitude or under the absolute floor.
    """
    with using_dtype(np.float64):
        tensors = {k: parameter(np.asarray(v, dtype=np.float64).copy(), k)
                   for k, v in params.items()}
        reset_tape()
        loss = make_loss(tensors)
        backward(loss)
        analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                    for k, t in tensors.items()}

        for name, t in tensors.items():
            flat = t.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                with no_grad():
                    flat[i] = orig + eps
                    lp = float(make_loss(tensors).data)
                    flat[i] = orig - eps
                    lm = float(make_loss(tensors).data)
                flat[i] = orig
                numeric[i] = (lp - lm) / (2.0 * eps)
            a = analytic[name].reshape(-1)
            err = np.abs(a - numeric)
            tol = np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(numeric)), floor)
            worst = np.argmax(err - tol)
            assert np.all(err <= tol), (
                f"{name}[{worst}]: analytic={a[worst]:.8g} "
                f"numeric={numeric[worst]:.8g} err={err[worst]:.3g}"
            )
    return analytic


def conv1d_oracle(x, w, stride=1, dilation=1):
    """Direct sliding-window convolution, O(n*k) per output sample."""
    b, c_in, t = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2 * dilation
    xp = np.zeros((b, c_in, t + 2 * pad))
    xp[:, :, pad : pad + t] = x
    t_out = -(-t // stride)
    out = np.zeros((b, c_out, t_out))
    for bi in range(b):
        for o in range(c_out):
            for ti in range(t_out):
                acc = 0.0
                for c in range(c_in):
                    for j in range(k):
                        acc += w[o, c, j] * xp[bi, c, ti * stride + j * dilation]
                out[bi, o, ti] = acc
    return out


def max_pool_oracle(x, kernel=3, stride=1):
    b, c, t = x.shape
    pad = (kernel - 1) // 2
    xp = np.full((b, c, t + 2 * pad), -np.inf)
    xp[:, :, pad : pad + t] = x
    t_out = -(-t // stride)
    out = np.zeros((b, c, t_out))
    for bi in range(b):
        for ci in range(c):
            for ti in range(t_out):
                out[bi, ci, ti] = max(
                    xp[bi, ci, ti * stride + j] for j in range(kernel))
    return out


def avg_pool_oracle(x, kernel=3, stride=1):
    """count_include_pad=False semantics: divide by in-bounds taps only."""
    b, c, t = x.shape
    pad = (kernel - 1) // 2
    t_out = -(-t // stride)
    out = np.zeros((b, c, t_out))
    for bi in range(b):
        for ci in range(c):
            for ti in range(t_out):
                acc, cnt = 0.0, 0
                for j in range(kernel):
                    p = ti * stride + j - pad
                    if 0 <= p < t:
                        acc += x[bi, ci, p]
                        cnt += 1
                out[bi, ci, ti] = acc / cnt
    return out


def sweep_det_oracle(genuine, impostor):
    """Brute-force DET: per-threshold counting loops (O(n^2) overall)."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    uniq = np.unique(np.concatenate([genuine, impostor]))
    thresholds = np.concatenate(([-np.inf], uniq, [np.inf]))
    far, frr = [], []
    for thr in thresholds:
        if np.isneginf(thr):
            far.append(1.0)
            frr.append(0.0)
        elif np.isposinf(thr):
            far.append(0.0)
            frr.append(1.0)
        else:
            far.append(int(np.sum(impostor >= thr)) / impostor.size)
            frr.append(int(np.sum(genuine < thr)) / genuine.size)
    return thresholds, np.array(far), np.array(frr)


def eer_oracle(genuine, impostor):
    _, far, frr = sweep_det_oracle(genuine, impostor)
    d = far - frr
    for i in range(len(d)):
        if d[i] <= 0:
            if d[i] == 0:
                return float(far[i])
            s = d[i - 1] / (d[i - 1] - d[i])
            return float(far[i - 1] + s * (far[i] - far[i - 1]))
    raise AssertionError("no crossing")


def frr_at_far_oracle(genuine, impostor, target):
    _, far, frr = sweep_det_oracle(genuine, impostor)
    for i in range(len(far)):
        if far[i] <= target:
            if far[i] == target or i == 0:
                return float(frr[i])
            u = (far[i - 1] - target) / (far[i - 1] - far[i])
            return float(frr[i - 1] + u * (frr[i] - frr[i - 1]))
    raise AssertionError("target not reached")


def interpolate_short_gaps_oracle(values, bad, max_gap):
    """The per-sample loop that data._interpolate_short_gaps replaced: the same
    fills, written one sample at a time, and the same segment bounds."""
    n = len(bad)
    cuts = []
    i = 0
    while i < n:
        if not bad[i]:
            i += 1
            continue
        j = i
        while j < n and bad[j]:
            j += 1
        if i == 0 or j == n or (j - i) > max_gap:
            cuts.append((i, j))
        else:
            for name, col in values.items():
                left, right = col[i - 1], col[j]
                steps = j - i + 1
                for t in range(i, j):
                    col[t] = left + (right - left) * (t - i + 1) / steps
        i = j
    segments = []
    start = 0
    for a, b in cuts:
        if a > start:
            segments.append((start, a))
        start = b
    if start < n:
        segments.append((start, n))
    return segments
