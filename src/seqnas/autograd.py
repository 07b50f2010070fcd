"""Reverse-mode automatic differentiation on dense numpy arrays.

A module-level tape records every differentiable primitive application in
execution order (a Wengert list).  Because the record order is already
topological, a backward pass is a single reverse sweep that visits each
recorded node exactly once.  A node's pullback returns one gradient (or
None) per input and never writes a .grad: the sweep alone adds them, in
input order, into every input that requires a gradient, with sum
semantics.  A tensor's first gradient takes ownership of the pullback's
array when that array is fresh: not a view, of the tensor's dtype,
C-contiguous, not the incoming gradient itself and not already handed to
another input of the node.  Any other first gradient is copied, so a
pullback may hand the same array to several inputs, or views, but must
never return an array that something else still holds.
"""

import contextlib
import itertools

import numpy as np


class ShapeError(ValueError):
    """Raised when a primitive receives inputs of incompatible shapes."""


class TapeError(RuntimeError):
    """Raised on tape misuse (empty tape, double backward, stale record)."""


def default_dtype():
    return _dtype


def set_default_dtype(dtype):
    """Set the dtype used for tensors created from python data (32 or 64 bit)."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    global _dtype
    _dtype = dtype


@contextlib.contextmanager
def using_dtype(dtype):
    prev = default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


def _freed():
    raise TapeError("value() of a tensor freed without a remake: no reader may follow")


class Tensor:
    """Dense array plus an optional gradient buffer of identical shape.

    Once its forward readers are done, a recorded tensor with a remake (see
    record) may be released, and a pullback that reads it calls value().  A
    tensor that no pullback reads may be freed even without a remake; its
    value() then raises TapeError rather than hand out the NaN stand-in."""

    __slots__ = ("data", "requires_grad", "grad", "name", "tape_id", "pools", "remake")

    def __init__(self, data, requires_grad=False, name=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(default_dtype())
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self.tape_id = None
        self.pools = None  # functional._pool's read-only outputs, shared per input
        self.remake = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def free(self):
        """Swap data for a zero-byte read-only NaN stand-in of its shape and dtype;
        value() then remakes it, or raises TapeError if there is no remake."""
        self.remake = self.remake or _freed
        self.data = np.broadcast_to(np.array(np.nan, self.data.dtype), self.data.shape)

    def release(self):
        """free() if there is a remake.  A tensor without one keeps its data: in
        the darts and alpha arch pass the frozen stem and cell 0's preprocessing
        record nothing, so cell 0's candidate outputs carry no remake, yet
        weighted_sum's alpha gradient reads them."""
        if self.remake is not None:
            self.free()

    def value(self):
        """data, remade if released (a released tensor's data is read-only);
        TapeError for a tensor freed without a remake."""
        return self.remake() if self.remake and not self.data.flags.writeable else self.data

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def parameter(data, name=None):
    """A tensor that participates in optimization."""
    return Tensor(data, requires_grad=True, name=name)


class Node:
    """One recorded primitive application: inputs, output, pullback."""

    __slots__ = ("op", "inputs", "out", "backward_fn")

    def __init__(self, op, inputs, out, backward_fn):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


_tape_ids = itertools.count(1)


class Tape:
    """Ordered record of primitive applications for one backward pass."""

    __slots__ = ("nodes", "consumed", "id")

    def __init__(self):
        self.nodes = []
        self.consumed = False
        self.id = next(_tape_ids)

    def backward(self, loss):
        """Reverse sweep that pops each node and clears its output's .grad (but the
        loss's) as it pulls back, so only leaf tensors keep a gradient after it.

        Each pullback returns one gradient or None per input, in input order;
        this sweep is the only place they are added into .grad, and only into
        inputs that require a gradient.  A first gradient is taken over when
        fresh (see the module docstring) and copied otherwise."""
        if loss.size != 1:
            raise TapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self.consumed:
            raise TapeError("backward already ran on this tape; reset the tape first")
        if not self.nodes:
            raise TapeError("backward on an empty tape: no primitive was recorded")
        if loss.tape_id != self.id:
            raise TapeError(
                "loss was recorded on a tape that is no longer current "
                "(reset or already consumed); recompute the loss"
            )
        loss.grad = np.ones_like(loss.data)
        self.consumed = True
        while self.nodes:
            node = self.nodes.pop()
            g = node.out.grad
            if g is not None:
                node.out.grad = g if node.out is loss else None
                handed = []
                for t, gt in zip(node.inputs, node.backward_fn(g)):
                    if not t.requires_grad:
                        continue
                    if (t.grad is None and gt is not g and gt.base is None
                            and gt.dtype == t.data.dtype and gt.flags.c_contiguous
                            and not any(gt is h for h in handed)):
                        t.grad = gt
                        handed.append(gt)
                    else:
                        t.accumulate_grad(gt)


_dtype = np.dtype(np.float32)
_tape = Tape()
_grad_enabled = True


def tape():
    return _tape


def reset_tape():
    """Discard the current record and start a fresh tape."""
    global _tape
    _tape = Tape()


def backward(loss):
    """Reverse sweep from a scalar loss; grads sum into requires_grad tensors."""
    tape().backward(loss)


def grad_enabled():
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable recording; forwards inside run without building the tape."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def record(op, inputs, out, backward_fn, remake=None):
    """Record a primitive if grad mode is on and any input requires grad;
    backward_fn(g) returns one gradient or None per input, in inputs order.
    A recorded out gets remake, which recomputes its data bitwise.

    A consumed tape is replaced transparently: the first recording after a
    backward pass starts a fresh record, and losses from the old record
    can no longer be backpropagated (their tape id is stale).
    """
    if not _grad_enabled or not any(t.requires_grad for t in inputs):
        return out
    if _tape.consumed:
        reset_tape()
    out.requires_grad = True
    out.tape_id = _tape.id
    out.remake = remake
    _tape.nodes.append(Node(op, inputs, out, backward_fn))
    return out
