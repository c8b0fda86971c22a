"""Reverse-mode automatic differentiation on dense float32 or float64 arrays.

A ``Tensor`` wraps a numpy array and the backward function of the operation
that produced it.  ``evaluate_with_gradients`` records every node in build
order (the trail), and ``backward`` replays that trail in reverse, so each
node holds its whole gradient before it passes it on to its operands.  Ops
are plain functions, each one node made by ``node``: ``add``, ``sub``,
``mul``, ``exp``, ``tanh``, ``relu``, ``clip``, ``matmul``, ``sum_``,
``mean_``, ``reshape``, ``take_cols``, ``concat`` and ``dense``, a whole
dense layer.  The hot chains of the models are single nodes too,
each built with ``node`` and a hand-written backward that keeps the composed
ops' bytes: the Gaussian log-densities of :mod:`krflow.nets`, the affine
coupling of :func:`krflow.flow.coupling`, the FV energy of
:func:`krflow.darcy.energy` and the tail of the latent likelihood of
:func:`krflow.inference.make_surrogate_loglike`.

Every op dispatches on its input type, so the same code runs on the tape
(``Tensor`` inputs) or as plain numpy (``ndarray`` inputs, no tape cost).
On the tape, a float or ndarray operand is read as it is, never wrapped in
a constant ``Tensor``.  Leaves keep their float dtype: float32 leaves,
operands and Python float constants (NEP 50) give a float32 tape.
Finiteness is checked once per evaluation, not per node.  A gradient
reaches a tensor by assignment the first time and by out-of-place addition
after that, so one array may be shared by several tensors: no backward
function updates a received gradient in place.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces NaN or Inf values."""


def _as_array(x) -> np.ndarray:
    """``x`` as a C-contiguous float (else float64) array, itself if it is one."""
    x = np.asarray(x, order="C")
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def all_finite(data: np.ndarray) -> bool:
    """``np.isfinite(data).all()``, in one pass when True: a finite sum has finite terms."""
    with np.errstate(over="ignore", invalid="ignore"):   # finite terms may sum to inf
        return math.isfinite(np.add.reduce(data, axis=None)) or bool(np.isfinite(data).all())


def _check_finite(data: np.ndarray, op: str) -> None:
    if not all_finite(data):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


# the op nodes of the evaluate_with_gradients call in progress (per thread),
# in the order they were built; None outside one
_trail: ContextVar[list | None] = ContextVar("trail", default=None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node of the reverse-mode tape; holds float data and (later) a gradient.

    ``data`` is stored as given, so it must already be a C-contiguous float
    array; ``leaf`` and ``constant`` coerce theirs.
    """

    __slots__ = ("data", "grad", "op", "requires_grad", "_backward", "row")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 backward: Callable[[np.ndarray], None] | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.op = op
        self.requires_grad = requires_grad
        self._backward = backward
        self.row: np.ndarray | None = None   # a leaf's gradient row; dense writes into it

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def leaf(data, name: str = "", row: np.ndarray | None = None,
             checked: bool = False) -> "Tensor":
        t = Tensor(_as_array(data), requires_grad=True)
        if not checked:   # else the caller found data finite
            _check_finite(t.data, f"leaf '{name}'")
        t.row = row
        return t

    @staticmethod
    def constant(data) -> "Tensor":
        return Tensor(_as_array(data), requires_grad=False, op="const")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- backprop -------------------------------------------------------------

    def backward(self, trail: Sequence["Tensor"]) -> None:
        """Accumulate gradients of this scalar into all upstream tensors.

        ``trail`` must hold every node built since the leaves, in build order;
        it is walked in reverse, and nodes that got no gradient are skipped.
        """
        self.grad = np.ones_like(self.data)
        for node in reversed(trail):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _wants_grad(x) -> bool:
    return isinstance(x, Tensor) and x.requires_grad


def _is_tape(a, b=None) -> bool:
    return isinstance(a, Tensor) or isinstance(b, Tensor)


def node(data: np.ndarray, op: str, parents: Sequence,
         backward: Callable[[np.ndarray], None]) -> Tensor:
    """One op's tape node, put on the trail; it keeps ``backward`` if a parent wants a gradient."""
    data = _as_array(data)   # numpy returns 0-d results as scalars
    for p in parents:
        if isinstance(p, Tensor) and p.requires_grad:
            out = Tensor(data, True, op, backward)
            break
    else:
        out = Tensor(data, False, op)
    trail = _trail.get()
    if trail is not None:
        trail.append(out)
    return out


# -- elementwise binary ops ------------------------------------------------------


def add(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) + np.asarray(b)
    av, bv = _value(a), _value(b)
    data = av + bv   # numpy's ValueError names both shapes, as on the numpy path

    def backward(g):
        if _wants_grad(a):
            a._accumulate(_unbroadcast(g, av.shape))
        if _wants_grad(b):
            b._accumulate(_unbroadcast(g, bv.shape))

    return node(data, "add", (a, b), backward)


def sub(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) - np.asarray(b)
    av, bv = _value(a), _value(b)
    data = av - bv

    def backward(g):
        if _wants_grad(a):
            a._accumulate(_unbroadcast(g, av.shape))
        if _wants_grad(b):
            b._accumulate(_unbroadcast(-g, bv.shape))

    return node(data, "sub", (a, b), backward)


def mul(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) * np.asarray(b)
    av, bv = _value(a), _value(b)
    data = av * bv

    def backward(g):
        if _wants_grad(a):
            a._accumulate(_unbroadcast(g * bv, av.shape))
        if _wants_grad(b):
            b._accumulate(_unbroadcast(g * av, bv.shape))

    return node(data, "mul", (a, b), backward)


def matmul(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) @ np.asarray(b)
    av, bv = np.asarray(_value(a)), np.asarray(_value(b))
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    data = av @ bv

    def backward(g):
        if _wants_grad(a):
            a._accumulate(g @ bv.T)
        if _wants_grad(b):
            b._accumulate(av.T @ g)

    return node(data, "matmul", (a, b), backward)


def dense(h, w, b, relu: bool = False):
    """relu(add(matmul(h, w), b)), or the same without relu, as one node.

    Bias and ReLU act in place on the product; backward masks by out > 0, the
    pre-activation's mask, then feeds b, h and w in the unfused order, so value
    and gradients are the unfused ops' bytes.  As numpy, h may be one (d,) row.
    """
    hv, wv, bv = np.asarray(_value(h)), np.asarray(_value(w)), _value(b)
    tape = _is_tape(h, w) or isinstance(b, Tensor)
    if wv.ndim != 2 or (hv.ndim != 2 and (tape or hv.ndim != 1)) or hv.shape[-1] != wv.shape[0]:
        raise ShapeError(f"dense: incompatible shapes {hv.shape} and {wv.shape}")
    data = hv @ wv
    data += bv
    if relu:
        np.maximum(data, 0.0, out=data)
    if not tape:
        return data

    def backward(g):
        g = g * (data > 0.0) if relu else g
        if _wants_grad(b):   # a leaf's first b or w gradient is computed into its row
            b._accumulate(g.sum(axis=0, out=b.row if b.grad is None else None)
                          if bv.shape == g.shape[1:] else _unbroadcast(g, bv.shape))
        if _wants_grad(h):
            h._accumulate(g @ wv.T)
        if _wants_grad(w):
            w._accumulate(np.matmul(hv.T, g, out=w.row if w.grad is None else None))

    return node(data, "dense", (h, w, b), backward)


# -- reductions -------------------------------------------------------------------


def sum_(a, axis: int | None = None):
    if not _is_tape(a):
        return np.sum(a, axis=axis)
    data = np.add.reduce(a.data, axis=axis)   # np.sum's reduction, without its wrapper
    kept = list(a.data.shape)   # the shape with the summed axis kept as 1
    if axis is not None:
        kept[axis] = 1

    def backward(g):
        full = np.empty_like(a.data)
        full[...] = g if axis is None else g.reshape(kept)
        a._accumulate(full)

    return node(data, "sum", (a,), backward)


def mean_(a, axis: int | None = None):
    if not _is_tape(a):
        return np.mean(a, axis=axis)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis), 1.0 / n)


# -- elementwise unary ops ----------------------------------------------------------


def exp(a):
    if not _is_tape(a):
        return np.exp(a)
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return node(data, "exp", (a,), backward)


def tanh(a):
    if not _is_tape(a):
        return np.tanh(a)
    data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - data * data))

    return node(data, "tanh", (a,), backward)


def relu(a):
    if not _is_tape(a):
        return np.maximum(a, 0.0)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return node(data, "relu", (a,), backward)


def clip(a, lo: float, hi: float):
    """Hard clamp; gradient is passed through inside [lo, hi] and zero outside."""
    if not _is_tape(a):
        return np.clip(a, lo, hi)
    data = np.clip(a.data, lo, hi)

    def backward(g):
        a._accumulate(g * ((a.data >= lo) & (a.data <= hi)))

    return node(data, "clip", (a,), backward)


# -- structural ops ---------------------------------------------------------------


def reshape(a, shape):
    if not _is_tape(a):
        return np.reshape(a, shape)
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return node(data, "reshape", (a,), backward)


def take_cols(a, idx):
    """Gather columns of a 2-D (or entries of a 1-D) array along the last axis.

    ``idx`` is an index array or a slice.  On the tape an index array must not
    repeat a column, so that backward can scatter the gradient by assignment.
    """
    if not _is_tape(a):   # always numpy's fancy-indexed copy, whose layout later sums follow
        a = np.asarray(a)
        return a[..., np.arange(a.shape[-1])[idx]]
    if not isinstance(idx, slice):
        idx = np.asarray(idx, dtype=np.intp)
        if len(set((idx % a.data.shape[-1]).tolist())) < idx.size:
            raise ValueError(f"take_cols: repeated column indices {idx.tolist()} on the tape")
    data = a.data[..., idx]

    return node(data, "take_cols", (a,), lambda g: scatter(a, idx, g))


def scatter(a: Tensor, idx, g: np.ndarray) -> None:
    """Pass ``a`` the gradient ``g`` of its columns ``idx``, and zero elsewhere."""
    full = np.zeros_like(a.data)
    full[..., idx] = g
    a._accumulate(full)


def concat(parts: Sequence, axis: int = -1):
    if not any(isinstance(p, Tensor) for p in parts):
        return np.concatenate([np.asarray(p) for p in parts], axis=axis)
    values = [_value(p) for p in parts]
    data = np.concatenate(values, axis=axis)
    offsets = np.cumsum([0] + [np.shape(v)[axis] for v in values])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if _wants_grad(p):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return node(data, "concat", tuple(parts), backward)


# Unused by the models; kept only because the benchmark's tracer rebinds it by name.
def fixed_conv2d(field, kernel) -> "Tensor | np.ndarray":
    """Cross-correlate an H-by-W field (or a batch of them) with a fixed 3x3 kernel.

    Replicate (edge-clamp) padding keeps the output the same shape as the
    input.  The kernel is a constant: gradients flow only into the field.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (3, 3):
        raise ShapeError(f"fixed_conv2d: kernel must be 3x3, got {kernel.shape}")
    arr = field.data if isinstance(field, Tensor) else np.asarray(field, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"fixed_conv2d: field must be 2-D or batched 3-D, got ndim={arr.ndim}")
    h, w = arr.shape[-2], arr.shape[-1]
    if h < 3 or w < 3:
        raise ShapeError(f"fixed_conv2d: field {h}x{w} smaller than the 3x3 kernel")
    # each tap's weight and the (edge-clamped) rows and columns it reads
    taps = [(kernel[a, b], (..., np.clip(np.arange(h) + a - 1, 0, h - 1)[:, None],
                            np.clip(np.arange(w) + b - 1, 0, w - 1)))
            for a in range(3) for b in range(3)]
    data = sum(weight * arr[idx] for weight, idx in taps)
    if not isinstance(field, Tensor):
        return data

    def backward(g):
        gx = np.zeros_like(arr)
        for weight, idx in taps:
            np.add.at(gx, idx, weight * g)   # clamped reads scatter back onto the edges
        field._accumulate(gx)

    return node(data, "fixed_conv2d", (field,), backward)


# -- driving programs -----------------------------------------------------------------


def evaluate_with_gradients(program: Callable, params: Mapping[str, np.ndarray],
                            rows: Mapping[str, np.ndarray] | None = None,
                            flat: np.ndarray | None = None
                            ) -> tuple[float, dict[str, np.ndarray]]:
    """Run ``program(leaves)`` to a scalar and return (value, gradients).

    ``params`` is any name-to-array mapping; each entry becomes a leaf tensor,
    as it is if a C-contiguous float array already (as ParamStore entries are).
    Gradients are exact reverse-mode derivatives of the scalar output with
    respect to every entry, zero for entries the program never reads; two
    entries may share one gradient array, so do not update one in place.
    The gradient of an entry ``rows`` names is written, to the same bytes,
    into that array of the entry's shape and dtype, and returned as that array.

    A leaf holding a NaN or Inf raises NonFiniteError naming it.  A NaN or
    Inf in the value or in a gradient raises it naming the op of the first
    node, in evaluation order, that holds one, else the first non-finite
    gradient.  ``flat``, when ``rows`` names every entry, is a (2, n) array
    whose rows hold the entries and the gradient rows, as AdamState's buffer
    does: each row is then checked once, and by name only if it fails.
    """
    rows = rows or {}
    checked = flat is not None and all_finite(flat[0])
    leaves = {name: Tensor.leaf(arr, name, rows.get(name), checked)
              for name, arr in params.items()}
    trail: list[Tensor] = []
    token = _trail.set(trail)
    try:
        out = program(leaves)
        if not isinstance(out, Tensor):
            out = Tensor.constant(out)
        if out.data.size != 1:
            raise ShapeError(f"program must return a scalar, got shape {out.data.shape}")
        value = float(out.data.reshape(()))
        if out.requires_grad:
            out.backward(trail)
    finally:
        _trail.reset(token)
    grads = {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
             for name, leaf in leaves.items()}
    for name, row in rows.items():   # where a gradient was not computed into its row
        if grads[name] is not row:
            row[...], grads[name] = grads[name], row
    if not (math.isfinite(value) and (all_finite(flat[1]) if flat is not None
                                      else all(all_finite(g) for g in grads.values()))):
        for node in trail:
            _check_finite(node.data, node.op)
        for name, g in grads.items():
            _check_finite(g, f"gradient of '{name}'")
        _check_finite(out.data, "program output")
    return value, grads
