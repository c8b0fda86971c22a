"""Reverse-mode automatic differentiation on dense float64 arrays.

A ``Tensor`` wraps a numpy array and records the operation that produced it,
so that ``backward()`` on a scalar output accumulates exact gradients into
every upstream tensor that requires them.  The op set is what the dense
networks, coupling flows and the surrogate's energy loss in this package
build; each op, ``sub`` included, is one tape node:

- elementwise: ``add``, ``sub``, ``mul``, ``exp``, ``tanh``, ``relu``,
  ``square`` and ``clip``;
- linear algebra and reductions: ``matmul``, ``sum_`` and ``mean_``;
- structural: ``reshape``, ``take_cols`` and ``concat``.

Ops are plain functions; ``Tensor`` has no operator overloads.

Every op dispatches on its input type, so the same network code runs either
on the tape (``Tensor`` inputs, gradients available) or as plain numpy
(``ndarray`` inputs, no tape overhead) for sampling and MCMC hot loops.

Finiteness is checked once per ``evaluate_with_gradients`` (see there), not
on every node.  A gradient reaches a tensor by assignment the first time and
by out-of-place addition after that, so one array may be shared by several
tensors: no backward function updates a received gradient in place.
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
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
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
    """Node of the reverse-mode tape; holds float64 data and (later) a gradient.

    ``data`` is stored as given, so it must already be a C-contiguous float64
    array; ``leaf`` and ``constant`` coerce theirs.
    """

    __slots__ = ("data", "grad", "op", "name", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = "",
                 op: str = "leaf", parents: Sequence["Tensor"] = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.op = op
        self.name = name
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def leaf(data, name: str = "") -> "Tensor":
        t = Tensor(_as_array(data), requires_grad=True, name=name)
        _check_finite(t.data, f"leaf '{name}'")
        return t

    @staticmethod
    def constant(data) -> "Tensor":
        return Tensor(_as_array(data), requires_grad=False, op="const")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    # -- backprop -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all upstream tensors."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        # post-order depth-first walk; _node keeps only parents that need a gradient
        order: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)] if self.requires_grad else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend([(p, False) for p in node._parents])
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor.constant(x)


def _operand(x):
    """Binary-op operand: a Tensor or a Python float as given, anything else a constant."""
    return x if isinstance(x, (Tensor, float)) else Tensor.constant(x)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _wants_grad(x) -> bool:
    return isinstance(x, Tensor) and x.requires_grad


def _is_tape(a, b=None) -> bool:
    return isinstance(a, Tensor) or isinstance(b, Tensor)


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    if type(data) is not np.ndarray:
        data = np.asarray(data, dtype=np.float64)   # numpy returns 0-d results as scalars
    elif data.dtype != np.float64 or not data.flags.c_contiguous:
        data = _as_array(data)
    parents = [p for p in parents if _wants_grad(p)]
    if parents:
        node = Tensor(data, requires_grad=True, op=op, parents=parents, backward=backward)
    else:
        node = Tensor(data, requires_grad=False, op=op)
    trail = _trail.get()
    if trail is not None:
        trail.append(node)
    return node


# -- elementwise binary ops ------------------------------------------------------


def add(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) + np.asarray(b)
    a, b = _operand(a), _operand(b)
    av, bv = _value(a), _value(b)
    try:
        data = av + bv
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {av.shape} and {bv.shape}") from exc

    def backward(g):
        if _wants_grad(a):
            a._accumulate(_unbroadcast(g, av.shape))
        if _wants_grad(b):
            b._accumulate(_unbroadcast(g, bv.shape))

    return _node(data, "add", (a, b), backward)


def sub(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) - np.asarray(b)
    a, b = _operand(a), _operand(b)
    av, bv = _value(a), _value(b)
    try:
        data = av - bv
    except ValueError as exc:
        raise ShapeError(f"sub: incompatible shapes {av.shape} and {bv.shape}") from exc

    def backward(g):
        if _wants_grad(a):
            a._accumulate(_unbroadcast(g, av.shape))
        if _wants_grad(b):
            b._accumulate(_unbroadcast(-g, bv.shape))

    return _node(data, "sub", (a, b), backward)


def mul(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) * np.asarray(b)
    a, b = _operand(a), _operand(b)
    av, bv = _value(a), _value(b)
    try:
        data = av * bv
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {av.shape} and {bv.shape}") from exc

    def backward(g):
        if _wants_grad(a):
            a._accumulate(_unbroadcast(g * bv, av.shape))
        if _wants_grad(b):
            b._accumulate(_unbroadcast(g * av, bv.shape))

    return _node(data, "mul", (a, b), backward)


def matmul(a, b):
    if not _is_tape(a, b):
        return np.asarray(a) @ np.asarray(b)
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _node(data, "matmul", (a, b), backward)


# -- reductions -------------------------------------------------------------------


def sum_(a, axis: int | None = None):
    if not _is_tape(a):
        return np.sum(a, axis=axis)
    data = np.sum(a.data, axis=axis)

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _node(data, "sum", (a,), backward)


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

    return _node(data, "exp", (a,), backward)


def tanh(a):
    if not _is_tape(a):
        return np.tanh(a)
    data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - data * data))

    return _node(data, "tanh", (a,), backward)


def relu(a):
    if not _is_tape(a):
        return np.maximum(a, 0.0)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return _node(data, "relu", (a,), backward)


def square(a):
    return mul(a, a) if _is_tape(a) else np.square(a)


def clip(a, lo: float, hi: float):
    """Hard clamp; gradient is passed through inside [lo, hi] and zero outside."""
    if not _is_tape(a):
        return np.clip(a, lo, hi)
    data = np.clip(a.data, lo, hi)

    def backward(g):
        a._accumulate(g * ((a.data >= lo) & (a.data <= hi)))

    return _node(data, "clip", (a,), backward)


# -- structural ops ---------------------------------------------------------------


def reshape(a, shape):
    if not _is_tape(a):
        return np.reshape(a, shape)
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _node(data, "reshape", (a,), backward)


def take_cols(a, idx):
    """Gather columns of a 2-D (or entries of a 1-D) array along the last axis.

    On the tape the columns must be distinct, so that the backward pass can
    scatter the gradient by assignment.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if not _is_tape(a):
        return np.asarray(a)[..., idx]
    data = a.data[..., idx]
    if len(set((idx % a.data.shape[-1]).tolist())) < idx.size:
        raise ValueError(f"take_cols: repeated column indices {idx.tolist()} on the tape")

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., idx] = g
        a._accumulate(full)

    return _node(data, "take_cols", (a,), backward)


def concat(parts: Sequence, axis: int = -1):
    if not any(isinstance(p, Tensor) for p in parts):
        return np.concatenate([np.asarray(p) for p in parts], axis=axis)
    parts = [_coerce(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return _node(data, "concat", tuple(parts), backward)


# -- fixed-kernel 2-D convolution ----------------------------------------------------


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

    pad = [(0, 0)] * (arr.ndim - 2) + [(1, 1), (1, 1)]

    def forward(x):
        xp = np.pad(x, pad, mode="edge")
        out = np.zeros_like(x)
        for a in range(3):
            for b in range(3):
                out += kernel[a, b] * xp[..., a:a + h, b:b + w]
        return out

    if not isinstance(field, Tensor):
        return forward(arr)

    data = forward(arr)
    t = field

    def backward(g):
        gp = np.zeros(g.shape[:-2] + (h + 2, w + 2))
        for a in range(3):
            for b in range(3):
                gp[..., a:a + h, b:b + w] += kernel[a, b] * g
        # fold gradient on replicated padding back onto the edges
        gx = gp[..., 1:h + 1, 1:w + 1].copy()
        gx[..., 0, :] += gp[..., 0, 1:w + 1]
        gx[..., -1, :] += gp[..., h + 1, 1:w + 1]
        gx[..., :, 0] += gp[..., 1:h + 1, 0]
        gx[..., :, -1] += gp[..., 1:h + 1, w + 1]
        gx[..., 0, 0] += gp[..., 0, 0]
        gx[..., 0, -1] += gp[..., 0, w + 1]
        gx[..., -1, 0] += gp[..., h + 1, 0]
        gx[..., -1, -1] += gp[..., h + 1, w + 1]
        t._accumulate(gx)

    return _node(data, "fixed_conv2d", (t,), backward)


# -- driving programs -----------------------------------------------------------------


def evaluate_with_gradients(program: Callable, params: Mapping[str, np.ndarray]
                            ) -> tuple[float, dict[str, np.ndarray]]:
    """Run ``program(leaves)`` to a scalar and return (value, gradients).

    ``params`` is any name-to-array mapping (a ParamStore works); each entry
    becomes a leaf tensor.  Gradients are exact reverse-mode derivatives of the
    scalar output with respect to every entry; parameters the program never
    touches get zero gradients.  Two entries may get the same gradient array,
    so callers must not update a returned gradient in place.

    A NaN or Inf in the value or in any gradient raises NonFiniteError naming
    the op of the first node, in evaluation order, that holds one; if no node
    does, it names the first non-finite gradient.
    """
    leaves = {name: Tensor.leaf(arr, name=name) for name, arr in params.items()}
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
            out.backward()
    finally:
        _trail.reset(token)
    grads = {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
             for name, leaf in leaves.items()}
    if not (math.isfinite(value) and all(np.isfinite(g).all() for g in grads.values())):
        for node in trail:
            _check_finite(node.data, node.op)
        for name, g in grads.items():
            _check_finite(g, f"gradient of '{name}'")
        _check_finite(out.data, "program output")
    return value, grads
