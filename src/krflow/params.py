"""Named parameter collections, their checkpoint format, Adam and the training loop.

Checkpoint container layout (little-endian throughout):

    magic   4 bytes  b"KRFL"
    version u32      currently 1
    then, for every entry in insertion order:
        name_len u32
        name     utf-8 bytes
        rank     u32
        dims     rank * u64
        payload  prod(dims) * f64, row-major

The payload bytes are written verbatim from the float64 arrays, so a
save/load round trip is bit-exact.  The ``rng_seed`` bookkeeping field is
not part of the container; callers that need it persist it in their JSON
sidecars.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import autodiff as ad

MAGIC = b"KRFL"
VERSION = 1


class ParamStore:
    """Ordered mapping from parameter name to float64 array.

    Iteration order is insertion order, which makes optimizer sweeps and
    serialization deterministic given construction order.
    """

    def __init__(self, entries=(), rng_seed: int = 0):
        self._entries: dict[str, np.ndarray] = {}
        self.rng_seed = int(rng_seed)
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

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def values(self):
        return self._entries.values()

    def n_scalars(self) -> int:
        return sum(v.size for v in self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamStore):
            return NotImplemented
        if list(self.keys()) != list(other.keys()):
            return False
        return all(np.array_equal(self[k], other[k]) for k in self)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
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
            end = os.fstat(fh.fileno()).st_size
            while fh.tell() < end:
                (name_len,) = struct.unpack("<I", read_exact(fh, 4, path))
                name = read_exact(fh, name_len, path).decode("utf-8")
                (rank,) = struct.unpack("<I", read_exact(fh, 4, path))
                dims = struct.unpack(f"<{rank}Q", read_exact(fh, 8 * rank, path))
                payload = read_exact(fh, 8 * math.prod(dims), path)
                store[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
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


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the optimizer hyperparameters.

    ``scratch`` holds two work arrays per parameter, so that
    :func:`adam_step` allocates nothing.
    """

    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int
    beta1: float
    beta2: float
    epsilon: float
    learning_rate: float
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def fresh(cls, params: ParamStore, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> "AdamState":
        return cls(
            first_moment={k: np.zeros_like(v) for k, v in params.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.items()},
            step_count=0,
            beta1=beta1, beta2=beta2, epsilon=epsilon,
            learning_rate=learning_rate,
            scratch={k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()},
        )


def adam_step(params: ParamStore, gradients: Mapping[str, np.ndarray],
              state: AdamState) -> tuple[ParamStore, AdamState]:
    """One bias-corrected Adam update, in place; returns ``params`` and ``state``.

    The parameters, both moments and the step count are updated in place
    through ``out=`` ufuncs and the state's scratch arrays.  The operations
    and their order are those of the textbook formula

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p = p - (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)

    so the result is the same to the bit.  A gradient of the wrong shape or
    an updated parameter that is not finite raises ValueError naming the
    parameter; the parameters before it in the store are then already
    updated.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m_scale, v_scale = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = np.asarray(gradients[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(
                f"adam_step: gradient for '{name}' has shape {g.shape}, expected {p.shape}")
        m, v = state.first_moment[name], state.second_moment[name]
        a, b = state.scratch[name]
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        np.divide(m, m_scale, out=a)
        a *= state.learning_rate
        np.divide(v, v_scale, out=b)
        np.sqrt(b, out=b)
        b += state.epsilon
        a /= b
        p -= a
        if not np.isfinite(p).all():
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
    """Mini-batch Adam over fixed batches of ``data``; returns the final store
    and the ``(epoch, mean batch loss)`` curve.

    Training starts from a fresh Adam state and from a copy of ``store``,
    which ``update`` may change in place; the caller's store is not changed.
    ``data`` is cut once, in order, into batches of ``batch_size`` rows that
    every epoch sweeps in the same order.  ``program_for(batch)`` returns the
    loss program of one step (drawing that step's noise, if any);
    ``update(store, grads, state)`` applies the optimizer step; callers pass
    their own module's ``adam_step``, so rebinding that name in the caller's
    module reaches every step.  A non-finite value on the tape raises
    TrainingDiverged naming ``what`` and the epoch.
    """
    batches = [data[lo:lo + batch_size] for lo in range(0, len(data), batch_size)]
    store = ParamStore(((k, v.copy()) for k, v in store.items()), rng_seed=store.rng_seed)
    state = AdamState.fresh(store, learning_rate)
    curve: list[tuple[int, float]] = []
    for epoch in range(epochs):
        losses = []
        for batch in batches:
            program = program_for(batch)
            try:
                loss, grads = ad.evaluate_with_gradients(program, store)
            except ad.NonFiniteError as exc:
                raise TrainingDiverged(
                    f"{what} training diverged at epoch {epoch}: {exc}", store) from exc
            store, state = update(store, grads, state)
            losses.append(loss)
        curve.append((epoch, float(np.mean(losses))))
    return store, curve
