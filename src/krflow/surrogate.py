"""Energy-trained surrogate of the Darcy forward map.

A dense network maps a log-permeability image y to the H*(W-2) pressure
unknowns of the finite-volume system of :mod:`krflow.darcy`; the Dirichlet
columns are zero by construction.  Training needs no solved pressures: it
minimizes the discrete energy

    E(u; y) = 1/2 u^T A(y) u - b^T u,

averaged over the batch (the variational loss of Zhu, Zabaras,
Koutsourelakis & Perdikaris 2019).  A(y) is symmetric positive definite, so
the energy's unique minimizer is exactly what ``solve_darcy`` returns, the
no-flux rows included, and E(u) - E(u*) = 1/2 ||u - u*||_A^2 measures the
error in the energy norm.  The pieces of A(y) and b come from
:func:`krflow.darcy.energy_terms`; on the tape the energy is one product
with the constant face-difference matrix, a weighted sum of squares and a
dot product with the load.  The output layer is zero-initialized, so a
fresh surrogate predicts zero pressure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .config import SurrogateSection
from .darcy import energy_terms, interior_embedding, solve_darcy
from .grf import Grid
from .nets import dense_layers, init_mlp, mlp_forward
from .params import ParamStore, adam_step, fit
from .report import read_json, write_json, write_loss_curve


@dataclass
class SurrogateParams:
    store: ParamStore
    height: int
    width: int
    hidden: tuple[int, ...]
    # affine input standardization for the network body; the energy always
    # sees the raw log-permeability
    offset: float
    scale: float

    @property
    def grid(self) -> Grid:
        return Grid(self.height, self.width)


def init_surrogate(height: int, width: int, seed: int, hidden: Sequence[int],
                   offset: float = 0.0, scale: float = 1.0) -> SurrogateParams:
    rng = np.random.default_rng(seed)
    sp = SurrogateParams(ParamStore(rng_seed=seed), height, width, tuple(hidden),
                         offset, scale)
    sizes = [height * width, *hidden, height * (width - 2)]
    for name, arr in init_mlp(rng, sizes, zero_last=True).items():
        sp.store[name] = arr
    return sp


def _unknowns(y_flat, params: Mapping[str, object], sp: SurrogateParams):
    """(B, H*W) fields -> (B, H*(W-2)) pressure unknowns; tape or numpy."""
    return mlp_forward(params, ad.mul(ad.sub(y_flat, sp.offset), 1.0 / sp.scale))


def surrogate_forward_batch(y_flat, params: Mapping[str, object], sp: SurrogateParams):
    """(B, H*W) fields -> (B, H, W) pressures with zero Dirichlet columns; tape or numpy."""
    u = ad.matmul(_unknowns(y_flat, params, sp), interior_embedding(sp.grid))
    return ad.reshape(u, (-1, sp.height, sp.width))


def pressure_layers(sp: SurrogateParams, readout: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The map y_flat -> u_flat @ readout as dense ``(W, b)`` layers, ReLU between.

    ``readout`` is an (H*W, k) linear map of the flat pressure image.  The
    input standardization is folded into the first layer, and the embedding
    of the unknowns and ``readout`` into the last.  The stack matches
    surrogate_forward_batch up to rounding.
    """
    layers = dense_layers(sp.store)
    readout = interior_embedding(sp.grid) @ readout
    w, b = layers[-1]
    layers[-1] = (w @ readout, b @ readout)
    w, b = layers[0]
    layers[0] = (w / sp.scale, b - (sp.offset / sp.scale) * w.sum(axis=0))
    return layers


def surrogate_forward(y: np.ndarray, sp: SurrogateParams) -> np.ndarray:
    """Single H-by-W field -> H-by-W pressure image."""
    return surrogate_forward_batch(y.reshape(1, -1), sp.store, sp)[0]


def energy_loss(batch: np.ndarray, sp: SurrogateParams, source: float = 3.0,
                params: Mapping[str, object] | None = None):
    """Mean FV energy of the predicted pressures of a (B, H, W) batch.

    ``params`` defaults to ``sp.store`` and gives a plain float; tape leaves
    give a scalar ``Tensor`` for training.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or len(batch) == 0:
        raise ValueError("batch must be a nonempty (B, H, W) array")
    weights, differences, load = energy_terms(batch, sp.grid, source)
    u = _unknowns(batch.reshape(len(batch), -1), sp.store if params is None else params, sp)
    stored = ad.sum_(ad.mul(ad.square(ad.matmul(u, differences)), 0.5 * weights), axis=-1)
    energy = ad.mean_(ad.sub(stored, ad.sum_(ad.mul(u, load), axis=-1)))
    return float(energy) if params is None else energy


def train_surrogate(dataset: np.ndarray, config: SurrogateSection, seed: int,
                    curve_path=None) -> SurrogateParams:
    """Mini-batch Adam on the energy loss; returns last-epoch parameters."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 3 or len(data) == 0:
        raise ValueError("dataset must be a nonempty (N, H, W) array")
    n, height, width = data.shape
    offset, scale = float(data.mean()), float(data.std())
    scale = scale if scale > 0 else 1.0
    sp = init_surrogate(height, width, seed, config.hidden, offset=offset, scale=scale)
    rng = np.random.default_rng(seed)

    def program_for(y_batch):
        return lambda leaves: energy_loss(y_batch, sp, config.source, leaves)

    store, curve = fit("surrogate", sp.store, data[rng.permutation(n)], config.batch_size,
                       config.epochs, config.learning_rate, program_for, adam_step)
    if curve_path is not None:
        write_loss_curve(curve_path, curve)
    return dataclasses.replace(sp, store=store)


def surrogate_relative_error(sp: SurrogateParams, test_fields: np.ndarray,
                             source: float = 3.0) -> float:
    """Mean ||u_hat - u_fd||_2 / ||u_fd||_2 against the finite-volume solver."""
    fields = np.asarray(test_fields, dtype=np.float64)
    u_hat = surrogate_forward_batch(fields.reshape(len(fields), -1), sp.store, sp)
    errors = []
    for y, uh in zip(fields, u_hat):
        u_ref = solve_darcy(y, sp.grid, source=source).values
        errors.append(np.linalg.norm(uh - u_ref) / np.linalg.norm(u_ref))
    return float(np.mean(errors))


def save_surrogate(path_prefix: str, sp: SurrogateParams, seed: int,
                   final_loss: float, extra: dict | None = None) -> None:
    sp.store.save(f"{path_prefix}.bin")
    meta = {"H": sp.height, "W": sp.width, "hidden": list(sp.hidden),
            "offset": sp.offset, "scale": sp.scale,
            "seed": seed, "final_loss": final_loss}
    meta.update(extra or {})
    write_json(f"{path_prefix}.json", meta)


def load_surrogate(path_prefix: str) -> tuple[SurrogateParams, dict]:
    meta = read_json(f"{path_prefix}.json")
    store = ParamStore.load(f"{path_prefix}.bin")
    return SurrogateParams(store, meta["H"], meta["W"], tuple(meta["hidden"]),
                           meta["offset"], meta["scale"]), meta
