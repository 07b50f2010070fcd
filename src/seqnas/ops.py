"""Candidate operation set and the softmax-mixed edge operation.

The vocabulary is the standard 8-operation search set transliterated to 1-D
kernels.  Candidate order is fixed; genotype files record it so that weight
indices stay stable across runs.
"""

import math

import numpy as np

from . import functional as F
from .autograd import parameter
from .module import Module

OP_VOCAB = (
    "none",
    "skip_connect",
    "max_pool_3",
    "avg_pool_3",
    "sep_conv_3",
    "sep_conv_5",
    "dil_conv_3",
    "dil_conv_5",
)


def he_normal(rng, shape, fan_in, dtype):
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


class ChannelNorm(Module):
    """Learnable per-channel scale and shift over batch statistics.

    Running statistics are kept only when track_running is on, which
    DiscreteNetwork sets on its norms; the search supernet always normalizes
    with the current batch.
    """

    def __init__(self, channels, dtype, name=""):
        super().__init__()
        self.tag = name
        self.gamma = self.register(parameter(np.ones(channels, dtype=dtype), f"{name}.gamma"))
        self.beta = self.register(parameter(np.zeros(channels, dtype=dtype), f"{name}.beta"))
        self.track_running = False
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x, w=None, stride=1):
        """Normalise x, or conv1d(x, w, stride) as one fused node when w is given."""
        running = (self.running_mean, self.running_var) if self.track_running else None
        if w is None:
            return F.channel_norm(x, self.gamma, self.beta, running, self.training)
        return F.conv1d_norm(x, w, self.gamma, self.beta, running, self.training, stride)


class ReLUConvNorm(Module):
    """relu -> dense conv -> channel norm, the standard projection block."""

    def __init__(self, c_in, c_out, kernel, stride, rng, dtype, name=""):
        super().__init__()
        self.stride = stride
        self.w = self.register(parameter(
            he_normal(rng, (c_out, c_in, kernel), c_in * kernel, dtype), f"{name}.w"))
        self.norm = self.add_child(ChannelNorm(c_out, dtype, f"{name}.norm"))

    def forward(self, x):
        return self.norm.forward(F.relu(x), self.w, self.stride)


class Zero(Module):
    """The "none" candidate: an all-zero tensor of the target output shape."""

    def __init__(self, stride):
        super().__init__()
        self.stride = stride

    def forward(self, x):
        b, c, t = x.shape
        t_out = -(-t // self.stride)
        return F.zeros((b, c, t_out), dtype=x.dtype)


class Identity(Module):
    def forward(self, x):
        return x


class FactorizedReduce(Module):
    """Stride-2 skip connection: two offset 1x1 convs, concatenated.

    The second branch sees the input shifted one step left (zero padded at
    the end) so the two halves sample interleaved positions.
    """

    def __init__(self, c_in, c_out, rng, dtype, name=""):
        super().__init__()
        half = c_out // 2
        self.w1 = self.register(parameter(
            he_normal(rng, (half, c_in, 1), c_in, dtype), f"{name}.w1"))
        self.w2 = self.register(parameter(
            he_normal(rng, (c_out - half, c_in, 1), c_in, dtype), f"{name}.w2"))
        self.norm = self.add_child(ChannelNorm(c_out, dtype, f"{name}.norm"))

    def forward(self, x):
        x = F.relu(x)
        a = F.conv1d(x, self.w1, stride=2)
        b = F.conv1d(F.shift_time(x), self.w2, stride=2)
        return self.norm.forward(F.concat([a, b], axis=1))


class SepConv(Module):
    """Depthwise separable conv applied twice (second pass stride 1)."""

    def __init__(self, channels, kernel, stride, rng, dtype, name=""):
        super().__init__()
        self.stride = stride
        self.dw1 = self.register(parameter(
            he_normal(rng, (channels, kernel), kernel, dtype), f"{name}.dw1"))
        self.pw1 = self.register(parameter(
            he_normal(rng, (channels, channels, 1), channels, dtype), f"{name}.pw1"))
        self.norm1 = self.add_child(ChannelNorm(channels, dtype, f"{name}.norm1"))
        self.dw2 = self.register(parameter(
            he_normal(rng, (channels, kernel), kernel, dtype), f"{name}.dw2"))
        self.pw2 = self.register(parameter(
            he_normal(rng, (channels, channels, 1), channels, dtype), f"{name}.pw2"))
        self.norm2 = self.add_child(ChannelNorm(channels, dtype, f"{name}.norm2"))

    def forward(self, x):
        x = self.norm1.forward(F.depthwise_conv1d(F.relu(x), self.dw1, self.stride), self.pw1)
        return self.norm2.forward(F.depthwise_conv1d(F.relu(x), self.dw2), self.pw2)


class DilConv(Module):
    """Single depthwise separable conv with dilation 2."""

    def __init__(self, channels, kernel, stride, rng, dtype, name=""):
        super().__init__()
        self.stride = stride
        self.dw = self.register(parameter(
            he_normal(rng, (channels, kernel), kernel, dtype), f"{name}.dw"))
        self.pw = self.register(parameter(
            he_normal(rng, (channels, channels, 1), channels, dtype), f"{name}.pw"))
        self.norm = self.add_child(ChannelNorm(channels, dtype, f"{name}.norm"))

    def forward(self, x):
        x = F.depthwise_conv1d(F.relu(x), self.dw, self.stride, dilation=2)
        return self.norm.forward(x, self.pw)


class MaxPool(Module):
    def __init__(self, stride):
        super().__init__()
        self.stride = stride

    def forward(self, x):
        return F.max_pool1d(x, kernel=3, stride=self.stride)


class AvgPool(Module):
    def __init__(self, stride):
        super().__init__()
        self.stride = stride

    def forward(self, x):
        return F.avg_pool1d(x, kernel=3, stride=self.stride)


def make_op(name, channels, stride, rng, dtype, tag=""):
    """Instantiate one candidate by vocabulary name.

    Stride-1 ops preserve temporal length; stride-2 ops halve it.  The
    stride-2 skip connection is a factorized reduction so it stays a
    projection rather than a conv stack.
    """
    if name == "none":
        return Zero(stride)
    if name == "skip_connect":
        if stride == 1:
            return Identity()
        return FactorizedReduce(channels, channels, rng, dtype, tag)
    if name == "max_pool_3":
        return MaxPool(stride)
    if name == "avg_pool_3":
        return AvgPool(stride)
    if name == "sep_conv_3":
        return SepConv(channels, 3, stride, rng, dtype, tag)
    if name == "sep_conv_5":
        return SepConv(channels, 5, stride, rng, dtype, tag)
    if name == "dil_conv_3":
        return DilConv(channels, 3, stride, rng, dtype, tag)
    if name == "dil_conv_5":
        return DilConv(channels, 5, stride, rng, dtype, tag)
    raise ValueError(f"unknown candidate op {name!r}")


class MixedOp(Module):
    """Softmax-weighted sum of all candidates on one edge."""

    def __init__(self, channels, stride, rng, dtype, tag=""):
        super().__init__()
        self.candidates = [
            self.add_child(make_op(name, channels, stride, rng, dtype, tag=f"{tag}.{name}"))
            for name in OP_VOCAB
        ]

    def forward(self, x, alpha_row):
        return mixed_forward(self, x, alpha_row)


def mixed_forward(m, x, alpha_row):
    """Relaxed categorical choice: sum_o softmax(alpha)_o * o(x); alpha_row is a Tensor."""
    raw = alpha_row.data
    if raw.shape != (len(OP_VOCAB),):
        raise ValueError(
            f"alpha row must have {len(OP_VOCAB)} entries, got shape {raw.shape}"
        )
    if not np.all(np.isfinite(raw)):
        raise FloatingPointError("NaN/inf in architecture weights: search state is poisoned")
    weights = F.softmax(alpha_row, axis=-1)
    outs = [op.forward(x) for op in m.candidates]
    return F.weighted_sum(outs, weights)
