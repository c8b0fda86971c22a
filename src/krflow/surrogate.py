"""Physics-constrained surrogate of the Darcy forward map.

A dense network maps a log-permeability image y to three output images
(u, tau1, tau2): the pressure and the two flux components.  Training needs
no solved pressures; it minimizes discretized residuals of the flux form of
the equation,

    || div(tau) - h ||^2  +  || tau + exp(y) grad(u) ||^2
        + beta * ( ||u||^2 on Dirichlet columns
                   + ||exp(y) du/ds2||^2 on Neumann rows ),

with all spatial derivatives taken by normalized Sobel stencils.  Writing
the flux as a separate output avoids second derivatives of the network.
The interior residuals exclude the one-pixel ring where replicate-padded
Sobel stencils are biased; each term is normalized by the full pixel count,
so residual values are comparable across grid sizes.

Head structure matters: central-difference stencils are exactly blind to
cell-to-cell oscillations (stripes and checkerboards), and counting masked
residual equations against three free output fields leaves an exact null
space, so a network with fully free heads can drive this loss to zero with
badly wrong pressure (measured directly: the quadratic minimum over free
pixel values has zero residual and O(1) pressure error).  The default
"structured" head removes the null space architecturally:

all three heads (pressure and both flux components) live on a coarser (3/4
resolution) grid that a fixed bilinear stage upsamples.  The coarse basis
removes the stencil-invisible oscillations from the representable set and
makes the least-squares problem overdetermined (unique minimum, measured
within a few percent of the finite-volume solution at the working
correlation lengths), while staying rich enough for the pressure and flux
fields.

This mirrors the smoothness bias the reference convolutional
encoder-decoder gets from its upsampling layers.  ``structured=False`` restores fully free
full-resolution heads.  Output heads are zero-initialized, so a fresh
surrogate predicts all-zero fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .config import SurrogateSection
from .darcy import solve_darcy
from .grf import Grid
from .nets import dense_layers, init_mlp, mlp_forward
from .params import ParamStore, adam_step, fit
from .report import read_json, write_json, write_loss_curve

SOBEL_1 = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])   # d/ds1 (along columns)
SOBEL_2 = SOBEL_1.T                      # d/ds2 (along rows)
BINOMIAL = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0


@dataclass
class SurrogateParams:
    store: ParamStore
    height: int
    width: int
    hidden: tuple[int, ...]
    # coarse-basis heads upsampled bilinearly (see module docstring)
    structured: bool
    # affine input standardization for the network body; the physics terms
    # always see the raw log-permeability
    offset: float
    scale: float

    @property
    def head_height(self) -> int:
        return max(3 * self.height // 4, 2)

    @property
    def head_width(self) -> int:
        return max(3 * self.width // 4, 2)


@dataclass
class ResidualBreakdown:
    interior_flux_div: float
    flux_consistency: float
    dirichlet: float
    neumann: float
    beta: float

    @property
    def total(self) -> float:
        return (self.interior_flux_div + self.flux_consistency
                + self.beta * (self.dirichlet + self.neumann))


@lru_cache(maxsize=8)
def _bilinear_up(height: int, width: int, coarse_h: int, coarse_w: int) -> np.ndarray:
    """(coarse_h*coarse_w, H*W) transposed bilinear interpolation weights."""

    def axis(n_fine: int, n_coarse: int) -> np.ndarray:
        mat = np.zeros((n_fine, n_coarse))
        for f, t in enumerate(np.linspace(0.0, 1.0, n_fine)):
            pos = min(t * (n_coarse - 1), n_coarse - 1 - 1e-12)
            k = int(pos)
            lam = pos - k
            mat[f, k] += 1.0 - lam
            mat[f, k + 1] += lam
        return mat

    return np.ascontiguousarray(np.kron(axis(height, coarse_h), axis(width, coarse_w)).T)


def init_surrogate(height: int, width: int, seed: int,
                   hidden: Sequence[int], structured: bool = True,
                   offset: float = 0.0, scale: float = 1.0) -> SurrogateParams:
    rng = np.random.default_rng(seed)
    n = height * width
    sp = SurrogateParams(ParamStore(rng_seed=seed), height, width, tuple(hidden),
                         structured, offset, scale)
    n_out = 3 * (sp.head_height * sp.head_width if structured else n)
    for name, arr in init_mlp(rng, [n, *hidden, n_out], zero_last=True).items():
        sp.store[name] = arr
    return sp


def surrogate_forward_batch(y_flat, params: Mapping[str, object], sp: SurrogateParams):
    """(B, H*W) fields -> (u, tau1, tau2) each (B, H, W); tape or numpy."""
    out = mlp_forward(params, ad.mul(ad.sub(y_flat, sp.offset), 1.0 / sp.scale))
    n = sp.height * sp.width
    shape = (-1, sp.height, sp.width)
    if not sp.structured:
        u = ad.reshape(ad.take_cols(out, np.arange(n)), shape)
        tau1 = ad.reshape(ad.take_cols(out, np.arange(n, 2 * n)), shape)
        tau2 = ad.reshape(ad.take_cols(out, np.arange(2 * n, 3 * n)), shape)
        return u, tau1, tau2
    nc = sp.head_height * sp.head_width
    up = _bilinear_up(sp.height, sp.width, sp.head_height, sp.head_width)
    u = ad.reshape(ad.matmul(ad.take_cols(out, np.arange(nc)), up), shape)
    tau1 = ad.reshape(ad.matmul(ad.take_cols(out, np.arange(nc, 2 * nc)), up), shape)
    tau2 = ad.reshape(ad.matmul(ad.take_cols(out, np.arange(2 * nc, 3 * nc)), up), shape)
    return u, tau1, tau2


def pressure_layers(sp: SurrogateParams, readout: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The map y_flat -> u_flat @ readout as dense ``(W, b)`` layers, ReLU between.

    ``readout`` is an (H*W, k) linear map of the flat pressure image.  The
    input standardization is folded into the first layer; the last layer
    keeps only the pressure head's columns, followed by the bilinear
    upsampling of structured heads and ``readout``.  The flux heads are not
    computed.  The stack matches surrogate_forward_batch up to rounding.
    """
    layers = dense_layers(sp.store)
    if sp.structured:
        readout = _bilinear_up(sp.height, sp.width, sp.head_height, sp.head_width) @ readout
    w, b = layers[-1]
    k = len(readout)
    layers[-1] = (w[:, :k] @ readout, b[:k] @ readout)
    w, b = layers[0]
    layers[0] = (w / sp.scale, b - (sp.offset / sp.scale) * w.sum(axis=0))
    return layers


def surrogate_forward(y: np.ndarray, sp: SurrogateParams):
    """Single H-by-W field -> (u, tau1, tau2) images."""
    u, t1, t2 = surrogate_forward_batch(y.reshape(1, -1), sp.store, sp)
    return u[0], t1[0], t2[0]


def spatial_gradient(field):
    """Sobel-stencil partial derivatives (d/ds1, d/ds2) of H-by-W images.

    Normalization by 1/(8 * spacing) makes the stencil exact on linear ramps
    away from the boundary ring; accepts (H, W) or batched (B, H, W), tape
    or numpy.
    """
    shape = field.data.shape if isinstance(field, ad.Tensor) else np.asarray(field).shape
    h, w = shape[-2], shape[-1]
    d1 = ad.mul(ad.fixed_conv2d(field, SOBEL_1), (w - 1) / 8.0)
    d2 = ad.mul(ad.fixed_conv2d(field, SOBEL_2), (h - 1) / 8.0)
    return d1, d2


def _masked_mean_square(residual, mask):
    """Mean over all pixels of the squared residual restricted to the mask."""
    sq = ad.mul(ad.square(residual), mask)
    n_pixels = mask.shape[-2] * mask.shape[-1]
    return ad.mul(ad.mean_(ad.reshape(ad.sum_(ad.sum_(sq, axis=-1), axis=-1), (-1,))),
                  1.0 / n_pixels)


def physics_residual_terms(y, u, tau1, tau2, source: float):
    """The four loss terms (before the beta weighting), batch-averaged.

    The divergence and consistency residuals both exclude the same one-pixel
    boundary ring, for every head structure.
    """
    shape = y.data.shape if isinstance(y, ad.Tensor) else np.asarray(y).shape
    h, w = shape[-2], shape[-1]
    interior = np.zeros((h, w))
    interior[1:-1, 1:-1] = 1.0

    d_tau1, _ = spatial_gradient(tau1)
    _, d_tau2 = spatial_gradient(tau2)
    du1, du2 = spatial_gradient(u)
    perm = ad.exp(y)

    flux_div = _masked_mean_square(ad.sub(ad.add(d_tau1, d_tau2), source), interior)
    consistency = ad.add(
        _masked_mean_square(ad.add(tau1, ad.mul(perm, du1)), interior),
        _masked_mean_square(ad.add(tau2, ad.mul(perm, du2)), interior))

    dirichlet_mask = np.zeros((h, w))
    dirichlet_mask[:, 0] = dirichlet_mask[:, -1] = 1.0
    dirichlet = _masked_mean_square(u, dirichlet_mask)

    neumann_mask = np.zeros((h, w))
    neumann_mask[0, :] = neumann_mask[-1, :] = 1.0
    neumann = _masked_mean_square(ad.mul(perm, du2), neumann_mask)
    return flux_div, consistency, dirichlet, neumann


def physics_loss(batch: np.ndarray, sp: SurrogateParams, source: float = 3.0,
                 beta: float = 100.0) -> tuple[float, ResidualBreakdown]:
    """Mean physics residual of a (B, H, W) batch under the current network."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or len(batch) == 0:
        raise ValueError("batch must be a nonempty (B, H, W) array")
    u, t1, t2 = surrogate_forward_batch(batch.reshape(len(batch), -1), sp.store, sp)
    fd, fc, di, ne = physics_residual_terms(batch, u, t1, t2, source)
    breakdown = ResidualBreakdown(float(fd), float(fc), float(di), float(ne), beta)
    return breakdown.total, breakdown


def train_surrogate(dataset: np.ndarray, config: SurrogateSection, seed: int,
                    curve_path=None) -> SurrogateParams:
    """Mini-batch Adam on the physics loss; returns last-epoch parameters."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 3 or len(data) == 0:
        raise ValueError("dataset must be a nonempty (N, H, W) array")
    n, height, width = data.shape
    offset, scale = float(data.mean()), float(data.std())
    scale = scale if scale > 0 else 1.0
    sp = init_surrogate(height, width, seed, config.hidden, offset=offset, scale=scale)
    rng = np.random.default_rng(seed)

    def program_for(y_batch):
        flat = y_batch.reshape(len(y_batch), -1)

        def program(leaves):
            u, t1, t2 = surrogate_forward_batch(flat, leaves, sp)
            fd, fc, di, ne = physics_residual_terms(y_batch, u, t1, t2, config.source)
            return ad.add(ad.add(fd, fc), ad.mul(ad.add(di, ne), config.beta))

        return program

    store, curve = fit("surrogate", sp.store, data[rng.permutation(n)], config.batch_size,
                       config.epochs, config.learning_rate, program_for, adam_step)
    if curve_path is not None:
        write_loss_curve(curve_path, curve)
    return dataclasses.replace(sp, store=store)


def surrogate_relative_error(sp: SurrogateParams, test_fields: np.ndarray,
                             source: float = 3.0) -> float:
    """Mean ||u_hat - u_fd||_2 / ||u_fd||_2 against the finite-volume solver."""
    grid = Grid(sp.height, sp.width)
    fields = np.asarray(test_fields, dtype=np.float64)
    u_hat, _, _ = surrogate_forward_batch(fields.reshape(len(fields), -1), sp.store, sp)
    errors = []
    for y, uh in zip(fields, u_hat):
        u_ref = solve_darcy(y, grid, source=source).values
        errors.append(np.linalg.norm(uh - u_ref) / np.linalg.norm(u_ref))
    return float(np.mean(errors))


def save_surrogate(path_prefix: str, sp: SurrogateParams, seed: int, beta: float,
                   final_loss: float, extra: dict | None = None) -> None:
    sp.store.save(f"{path_prefix}.bin")
    meta = {"H": sp.height, "W": sp.width, "hidden": list(sp.hidden),
            "structured": sp.structured,
            "offset": sp.offset, "scale": sp.scale,
            "beta": beta, "seed": seed, "final_loss": final_loss}
    meta.update(extra or {})
    write_json(f"{path_prefix}.json", meta)


def load_surrogate(path_prefix: str) -> tuple[SurrogateParams, dict]:
    meta = read_json(f"{path_prefix}.json")
    store = ParamStore.load(f"{path_prefix}.bin")
    return SurrogateParams(store, meta["H"], meta["W"], tuple(meta["hidden"]),
                           meta["structured"],
                           meta["offset"], meta["scale"]), meta
