"""Named parameter collections, their container, model checkpoints, Adam and training.

Every binary artifact a stage writes is this container: the model checkpoints
and the prior dataset alike.  Its layout (little-endian throughout):

    magic   4 bytes  b"KRFL"
    version u32      currently 2
    count   u32      number of entries
    then, for every entry in insertion order:
        name_len u32
        name     utf-8 bytes
        rank     u32
        dims     rank * u64
        payload  prod(dims) * f64, row-major

The payload bytes are written verbatim from the float64 arrays, so a
save/load round trip is bit-exact.  A file cut anywhere, with bytes after its
last entry, or with a name that repeats, fails to load with a ValueError
naming it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import sys
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .nets import check_dense_stacks
from .report import read_json, replacing, write_json

MAGIC = b"KRFL"
VERSION = 2
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8   # Adam's fixed settings (Kingma & Ba 2015)
ADAM_BLOCK = 65_536   # elements per block of adam_step's sweep: the fastest of 8,192-131,072


class ParamStore(Mapping):
    """Ordered mapping from parameter name to float64 array.

    Iteration order is insertion order, which makes optimizer sweeps and
    serialization deterministic given construction order.
    """

    def __init__(self, entries=()):
        self._entries: dict[str, np.ndarray] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for name, arr in items:
            self[name] = arr

    def __setitem__(self, name: str, arr) -> None:
        arr = np.asarray(arr, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter '{name}' contains non-finite values")
        self._entries[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def n_scalars(self) -> int:
        return sum(v.size for v in self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamStore):
            return NotImplemented
        if list(self.keys()) != list(other.keys()):
            return False
        return all(np.array_equal(self[k], other[k]) for k in self)

    def save(self, path) -> None:
        with replacing(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(self._entries)))
            for name, arr in self._entries.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))

    @classmethod
    def load(cls, path) -> "ParamStore":
        store = cls()
        with open(path, "rb") as fh:
            if fh.read(4) != MAGIC:
                raise ValueError(f"{path}: not a parameter container (bad magic)")
            (version,) = struct.unpack("<I", read_exact(fh, 4, path))
            if version != VERSION:
                raise ValueError(f"{path}: unsupported container version {version}")
            (count,) = struct.unpack("<I", read_exact(fh, 4, path))
            for _ in range(count):
                (name_len,) = struct.unpack("<I", read_exact(fh, 4, path))
                name = read_exact(fh, name_len, path)
                (rank,) = struct.unpack("<I", read_exact(fh, 4, path))
                dims = struct.unpack(f"<{rank}Q", read_exact(fh, 8 * rank, path))
                payload = read_exact(fh, 8 * math.prod(dims), path)
                try:   # a name that is not utf-8 or repeats, or a non-finite payload
                    if (name := name.decode()) in store:
                        raise ValueError(f"entry '{name}' appears twice")
                    store[name] = np.frombuffer(payload, "<f8").reshape(dims).copy()
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from exc
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left:
                raise ValueError(f"{path}: {left} bytes after the last of {count} entries")
        return store


def read_exact(fh, size: int, path) -> bytes:
    """Read ``size`` bytes of a binary artifact, or raise ValueError naming it.

    The size is checked against the bytes left in the file before reading,
    so a corrupt length field cannot ask for a huge buffer.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(f"{path}: truncated: needs {size} bytes at offset "
                         f"{fh.tell()}, {left} left")
    return fh.read(size)


# a sidecar field's type hint -> (test of its JSON value, conversion, what to expect)
_SIDECAR_TYPES = {
    int: (lambda v: type(v) is int, int, "an int"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float,
            "a finite number"),
    tuple[int, ...]: (lambda v: type(v) is list and all(type(x) is int for x in v), tuple,
                      "a list of ints"),
}


def _read_fields(cls, meta: dict) -> dict:
    """The fields of dataclass ``cls`` but ``store`` from ``meta``, each of the
    type its hint gives; a dataclass-typed field is read from a nested object."""
    values = {}
    for name, hint in get_type_hints(cls).items():
        if name == "store":
            continue
        if name not in meta:
            raise ValueError(f"missing key {name!r}")
        test, convert, expected = _SIDECAR_TYPES.get(hint, (   # else a nested dataclass
            lambda v: type(v) is dict, lambda v: hint(**_read_fields(hint, v)), "an object"))
        if not test(meta[name]):
            raise ValueError(f"{name!r} is {meta[name]!r}, expected {expected}")
        values[name] = convert(meta[name])
    return values


def save_model(path_prefix: str, model, **extra) -> None:
    """Write ``model.store`` to ``<prefix>.bin`` and the model dataclass's
    other fields, then ``extra``, to the sidecar ``<prefix>.json``."""
    meta = {name: dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
            for name, value in vars(model).items() if name != "store"}
    if clash := sorted(meta.keys() & extra.keys()):
        raise ValueError(f"save_model: extra keys {clash} name fields of the model")
    model.store.save(f"{path_prefix}.bin")
    write_json(f"{path_prefix}.json", {**meta, **extra})


def load_model(cls, path_prefix: str):
    """The checkpoint ``save_model`` wrote, as ``(cls instance, sidecar dict)``;
    ValueError names the sidecar if it lacks a field of ``cls`` or holds one of
    the wrong type, and the container if it does not chain as ``layer_sizes``."""
    sidecar = f"{path_prefix}.json"
    meta = read_json(sidecar)
    try:
        fields = _read_fields(cls, meta if isinstance(meta, dict) else {})
    except ValueError as exc:   # a missing or mistyped value, or a config that refuses it
        raise ValueError(f"{sidecar}: {exc}") from exc
    model = cls(ParamStore.load(f"{path_prefix}.bin"), **fields)
    check_dense_stacks(model.store, model.layer_sizes, f"{path_prefix}.bin", sidecar)
    return model, meta


@dataclass
class AdamState:
    """Adam's gradients, moments, step count and learning rate, over one flat layout.

    :meth:`fresh` copies the store's parameters, in store order, into row 0
    of one (4, n) float64 buffer, ``flat``, whose rows 1-3 hold the gradients
    and the two moments, and rebinds each store entry to its view there;
    ``parameter`` to ``second_moment`` map names to the views of rows 0-3.
    ``blocks`` cuts the rows into slices of at most ``ADAM_BLOCK`` elements,
    each with two scratch rows, so that :func:`adam_step` allocates nothing.
    """

    parameter: dict[str, np.ndarray]
    gradient: dict[str, np.ndarray]
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int
    learning_rate: float
    blocks: list[tuple[np.ndarray, ...]]   # (p, g, m, v, scratch a, scratch b)
    flat: np.ndarray

    @classmethod
    def fresh(cls, params: ParamStore, learning_rate: float) -> "AdamState":
        n = params.n_scalars()
        flat, scratch = np.zeros((4, n)), np.empty((2, min(n, ADAM_BLOCK)))
        ends = np.cumsum([p.size for p in params.values()], dtype=np.intp)[:-1]
        views = [{name: part.reshape(params[name].shape)
                  for name, part in zip(params, np.split(row, ends))} for row in flat]
        for name, p in views[0].items():
            p[...] = params[name]
            params[name] = p
        blocks = [(*flat[:, lo:lo + ADAM_BLOCK], *scratch[:, :min(n - lo, ADAM_BLOCK)])
                  for lo in range(0, n, ADAM_BLOCK)]
        return cls(*views, 0, learning_rate, blocks, flat)


def adam_step(params: ParamStore, gradients: Mapping[str, np.ndarray],
              state: AdamState) -> tuple[ParamStore, AdamState]:
    """One bias-corrected Adam update of the store ``state`` was made from, in
    place; returns ``params`` and ``state``.

    A gradient not already in its row of the state's buffer is copied there;
    then the parameters, moments and step count are updated in place, a block
    at a time, with ``out=`` ufuncs and the scratch rows, by these operations:

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;  p = p - (alpha_t*m)/(sqrt(v) + eps_t)
        alpha_t = lr*sqrt(1-b2^t)/(1-b1^t);  eps_t = eps*sqrt(1-b2^t)

    This is the textbook update in exact arithmetic, with the bias corrections
    folded into two scalars (Kingma & Ba 2015, end of sec. 2).  A gradient of
    the wrong shape, or a store entry that is not the array ``fresh`` bound,
    raises ValueError naming the parameter before anything is updated.  Once
    the whole sweep is done, a parameter that is not finite raises ValueError
    naming the first such parameter.
    """
    for name, p in state.parameter.items():
        g, row = gradients[name], state.gradient[name]
        if g.shape != p.shape:
            raise ValueError(
                f"adam_step: gradient for '{name}' has shape {g.shape}, expected {p.shape}")
        if params[name] is not p:
            raise ValueError(f"adam_step: '{name}' is not the array AdamState.fresh bound")
        if g is not row:
            row[...] = g
    state.step_count += 1
    b1, b2, t = BETA1, BETA2, state.step_count
    root = math.sqrt(1.0 - b2 ** t)
    alpha_t, eps_t = state.learning_rate * root / (1.0 - b1 ** t), EPSILON * root
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):   # the update may overflow; named below
        for p, g, m, v, a, b in state.blocks:
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.multiply(m, alpha_t, out=a)
            np.sqrt(v, out=b)
            b += eps_t
            a /= b
            p -= a
            finite = finite and ad.all_finite(p)
        if not finite:
            name = next(k for k, p in state.parameter.items() if not ad.all_finite(p))
            raise ValueError(f"parameter '{name}' contains non-finite values")
    return params, state


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last finite ParamStore."""

    def __init__(self, message: str, last_params: ParamStore):
        super().__init__(message)
        self.last_params = last_params


def fit(what: str, store: ParamStore, data: np.ndarray, batch_size: int, epochs: int,
        learning_rate: float, program_for: Callable, update: Callable
        ) -> tuple[ParamStore, list[tuple[int, float]]]:
    """Mini-batch Adam over fixed batches of ``data``; returns the final store,
    copied out of Adam's buffer, and the ``(epoch, mean batch loss)`` curve.

    A fresh Adam state's buffer holds the one copy of the parameters, which
    ``update`` changes in place; the tape writes each step's gradients into
    its gradient row, and each row is checked for finiteness once a step.
    The caller's store is copied, not changed (trainers pop it from their
    model first).  ``data`` is cut once, in order, into batches of
    ``batch_size`` rows that every epoch sweeps in the same order;
    ``program_for(batch)`` returns one step's loss program (drawing its
    noise, if any), and ``update(store, grads, state)`` applies the optimizer
    step.  Callers pass their own module's ``adam_step``, so rebinding that
    name there reaches every step.  A non-finite value on the tape raises
    TrainingDiverged naming ``what`` and the epoch.
    """
    batches = [data[lo:lo + batch_size] for lo in range(0, len(data), batch_size)]
    state = AdamState.fresh(store := ParamStore(store), learning_rate)   # copies the parameters
    curve: list[tuple[int, float]] = []
    for epoch in range(epochs):
        losses = []
        for batch in batches:
            try:
                loss, grads = ad.evaluate_with_gradients(program_for(batch), store,
                                                         state.gradient, state.flat[:2])
            except ad.NonFiniteError as exc:
                raise TrainingDiverged(
                    f"{what} training diverged at epoch {epoch}: {exc}", store) from exc
            store, state = update(store, grads, state)
            losses.append(loss)
        curve.append((epoch, float(np.mean(losses))))
    return ParamStore((k, v.copy()) for k, v in store.items()), curve
