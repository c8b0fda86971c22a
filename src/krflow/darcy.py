"""Finite-volume Darcy pressure solver plus observation and noise operators.

:func:`solve_darcy` returns the (H, W) nodal pressure, Dirichlet columns
included; :func:`observe` reads it at the sensors on the grid of its shape,
and an :class:`ObservationSet` carries one noise sigma per sensor.

The pressure equation -div(exp(y) grad u) = h is discretized on the node
grid of :class:`krflow.grf.Grid` with a 5-point stencil.  Interface
conductivities are harmonic means of exp(y) at the two neighbouring nodes,
the standard choice for discontinuous coefficients.  Pressure is pinned to
Dirichlet data on the left/right columns (s1 = 0 and s1 = 1, zero by
default) and zero normal flux is imposed on the top/bottom rows, which get
half-height control volumes.

The resulting system is symmetric positive definite.  ``_stencil`` assembles
it once, for one field or a batch, and ``_apply`` is its matvec.  Numbering
the H x m unknowns (the m = W-2 interior columns) row by row makes it a band
matrix of half-bandwidth m; :func:`solve_darcy` stores its lower half in LAPACK
band storage and solves it by one banded Cholesky (``pbsv``), where each
rank-1 update reads a contiguous column (README has the timings).  The
contract: a relative residual A u - b below 1e-10, or DarcySolveError, which
a failed factorization also raises, naming LAPACK's info.  :func:`energy` is
the surrogate's loss 1/2 u^T A u - b^T u of the same system, with its exact
gradient A u - b.  ``dpbsv`` is ``scipy.linalg.lapack.dpbsv``, loaded by grf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import autodiff as ad
from .grf import Grid, dpbsv
from .report import read_csv_floats, write_csv


class DarcySolveError(RuntimeError):
    """Raised when the assembled linear system cannot be solved accurately."""


@dataclass
class ObservationOperator:
    """Point sensors in the closed unit square, read off by bilinear interpolation."""

    locations: np.ndarray   # (m, 2) of (s1, s2)

    def __post_init__(self):
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=np.float64))
        if self.locations.shape[1] != 2:
            raise ValueError("locations must be (m, 2) pairs of (s1, s2)")
        if (self.locations < 0.0).any() or (self.locations > 1.0).any():
            raise ValueError("sensor locations must lie in the closed unit square")

    @property
    def n_sensors(self) -> int:
        return len(self.locations)


@dataclass
class ObservationSet:
    operator: ObservationOperator
    values: np.ndarray   # (m,) noisy readings
    sigma: np.ndarray    # (m,) Gaussian noise standard deviations, all > 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if not self.values.shape == self.sigma.shape == (self.operator.n_sensors,):
            raise ValueError("observation or noise count does not match sensor count")
        if not (self.sigma > 0.0).all():
            raise ValueError("noise standard deviations must be positive")


def lattice_operator(rows: int, cols: int, origin: float, spacing: float) -> ObservationOperator:
    """Rectangular sensor lattice at origin + spacing*i along both coordinates."""
    g1, g2 = np.meshgrid(origin + spacing * np.arange(cols), origin + spacing * np.arange(rows))
    return ObservationOperator(np.column_stack([g1.ravel(), g2.ravel()]))


def _transmissibilities(log_perm: np.ndarray, grid: Grid):
    """Harmonic-mean interface conductivities times face-geometry factors.

    ``log_perm`` is one (H, W) field or a (..., H, W) batch of them.
    """
    a = np.exp(log_perm)
    d1, d2 = grid.spacing_1, grid.spacing_2
    # row heights of the control volumes: half cells on the Neumann rows
    heights = np.full(grid.height, d2)
    heights[0] = heights[-1] = 0.5 * d2
    # horizontal faces between (i, j) and (i, j+1)
    ah = 2.0 * a[..., :, :-1] * a[..., :, 1:] / (a[..., :, :-1] + a[..., :, 1:])
    t_h = ah * heights[:, None] / d1
    # vertical faces between (i, j) and (i+1, j); interior columns have width d1
    av = 2.0 * a[..., :-1, :] * a[..., 1:, :] / (a[..., :-1, :] + a[..., 1:, :])
    t_v = av * d1 / d2
    return t_h, t_v, heights


def _load(source, grid: Grid, heights: np.ndarray) -> np.ndarray:
    """Source integral over each unknown's control volume, (H, W-2); ``source``
    is a number or a callable h(s1, s2) whose value broadcasts to (H, W)."""
    shape = (grid.height, grid.width)
    value = source(*grid.points().T.reshape(2, *shape)) if callable(source) else source
    try:
        h_val = np.full(shape, value if callable(source) else float(value), dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"source gave shape {np.shape(value)}; expected a number or a "
                         f"callable h(s1, s2) whose value broadcasts to {shape}") from None
    return h_val[:, 1:-1] * (heights[:, None] * grid.spacing_1)


def _stencil(log_perm: np.ndarray, grid: Grid, source):
    """The system A(y) u = b of one (H, W) field or a (..., H, W) batch, with
    zero Dirichlet columns: ``(diag, t_e, t_n, load)``, A's diagonal and the
    negated couplings along rows and columns of the (..., H, W-2) unknowns."""
    t_h, t_v, heights = _transmissibilities(log_perm, grid)
    t_e, t_n = t_h[..., 1:-1], t_v[..., 1:-1]
    diag = t_h[..., :, :-1] + t_h[..., :, 1:]   # west and east faces
    diag[..., 1:, :] += t_n    # south faces; none on the top Neumann row
    diag[..., :-1, :] += t_n   # north faces; none on the bottom Neumann row
    return diag, t_e, t_n, _load(source, grid, heights)


def _apply(u: np.ndarray, diag: np.ndarray, t_e: np.ndarray, t_n: np.ndarray) -> np.ndarray:
    """A u by the 5-point stencil on the (..., H, W-2) unknowns."""
    au = diag * u
    au[..., :, :-1] -= t_e * u[..., :, 1:]
    au[..., :, 1:] -= t_e * u[..., :, :-1]
    au[..., :-1, :] -= t_n * u[..., 1:, :]
    au[..., 1:, :] -= t_n * u[..., :-1, :]
    return au


def energy(u, log_perms: np.ndarray, grid: Grid, source: float = 3.0, stencil=None):
    """The (B,) energies 1/2 u^T A(y) u - b^T u of (B, H*(W-2)) unknowns, row by
    row, on a (B, H, W) batch; each minimizer is :func:`solve_darcy`'s interior.
    A ``Tensor`` ``u`` gives one tape node, whose backward is g[:, None] * (A u - b).
    ``stencil`` is the batch's ``_stencil(log_perms, grid, source)``, if assembled.
    """
    log_perms = np.asarray(log_perms, dtype=np.float64)
    if log_perms.ndim != 3 or log_perms.shape[1:] != (grid.height, grid.width):
        raise ValueError(f"fields of shape {log_perms.shape} are not a (B, "
                         f"{grid.height}, {grid.width}) batch")
    value = u.data if isinstance(u, ad.Tensor) else np.asarray(u, dtype=np.float64)
    if value.shape != (len(log_perms), grid.height * (grid.width - 2)):
        raise ValueError(f"unknowns of shape {value.shape} do not fit fields {log_perms.shape}")
    diag, t_e, t_n, load = stencil or _stencil(log_perms, grid, source)
    au = _apply(value.reshape(len(value), grid.height, -1), diag, t_e, t_n).reshape(len(value), -1)
    b = load.ravel()
    energies = np.einsum("bk,bk->b", value, 0.5 * au - b)
    if not isinstance(u, ad.Tensor):
        return energies
    return ad.node(energies, "energy", (u,), lambda g: u._accumulate(g[:, None] * (au - b)))


def _dirichlet(values, name: str, rows: int) -> np.ndarray:
    """One Dirichlet column: None means zeros, a scalar is broadcast."""
    g = np.asarray(0.0 if values is None else values, dtype=np.float64)
    g = np.full(rows, g) if g.ndim == 0 else g
    if g.shape != (rows,):
        raise ValueError(f"{name} has shape {g.shape}, expected ({rows},): "
                         f"one value per grid row (grid.height = {rows})")
    return g


def solve_darcy(log_perm: np.ndarray, grid: Grid,
                source: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 3.0,
                dirichlet_left: np.ndarray | None = None,
                dirichlet_right: np.ndarray | None = None) -> np.ndarray:
    """The (H, W) nodal pressure, Dirichlet columns included, of one log-permeability field.

    ``source`` may be a constant or a callable h(s1, s2) evaluated at the
    nodes.  Nonzero Dirichlet columns are supported for diagnostics; the
    physical setup uses the default homogeneous data.  Each Dirichlet column
    is a scalar or one value per grid row.
    """
    log_perm = np.asarray(log_perm, dtype=np.float64)
    if log_perm.shape != (grid.height, grid.width):
        raise ValueError(f"field shape {log_perm.shape} does not match grid "
                         f"{grid.height}x{grid.width}")
    # min and max carry a NaN or an inf through, so they also check finiteness.
    # The harmonic means form 2 exp(y) exp(y'), which lies between its values
    # at the two extremes of the field; a subnormal product loses precision
    # that the residual check, made with the same coefficients, cannot see
    low, high = log_perm.min(), log_perm.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("log-permeability contains non-finite values")
    with np.errstate(over="ignore", under="ignore"):
        e_low, e_high = np.exp(low), np.exp(high)
        perm_range_ok = (2.0 * e_low * e_low >= np.finfo(np.float64).tiny
                         and np.isfinite(2.0 * e_high * e_high))
    if not perm_range_ok:
        raise DarcySolveError(
            f"permeability exp(y) is out of range: log-permeability y ranges over "
            f"[{low:.3e}, {high:.3e}], and the harmonic means of exp(y) overflow above "
            f"about 354.5 and underflow below about -354.5")

    h_rows = grid.height
    g_left = _dirichlet(dirichlet_left, "dirichlet_left", h_rows)
    g_right = _dirichlet(dirichlet_right, "dirichlet_right", h_rows)

    diag, t_e, t_n, rhs = _stencil(log_perm, grid, source)
    if g_left.any() or g_right.any():
        t_h = _transmissibilities(log_perm, grid)[0]
        rhs[:, 0] += t_h[:, 0] * g_left
        rhs[:, -1] += t_h[:, -1] * g_right

    # LAPACK lower band storage, A[i + k, i] at ab[k, i]: the diagonal at k = 0,
    # the row neighbour at k = 1 and the column neighbour at k = m.  Fortran
    # order lets dpbsv factor in place, and band[r, c] is column r*m + c of ab.
    m = grid.width - 2
    ab = np.zeros((m + 1, h_rows * m), order="F")
    band = ab.T.reshape(h_rows, m, -1)
    band[:, :, 0], band[:, :-1, 1], band[:-1, :, m] = diag, -t_e, -t_n
    _, u_inner, info = dpbsv(ab, rhs.ravel(), lower=1, overwrite_ab=1)
    if info != 0:
        raise DarcySolveError(f"banded Cholesky failed: LAPACK dpbsv info = {info}, " + (
            f"the leading minor of order {info} is not positive definite" if info > 0
            else f"argument {-info} is illegal"))
    u_inner = u_inner.reshape(h_rows, m)

    rel = np.inf
    if np.isfinite(u_inner).all():
        res = _apply(u_inner, diag, t_e, t_n) - rhs
        rel = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300)
    if not rel <= 1e-10:
        raise DarcySolveError(f"linear solve failed: relative residual {rel:.3e}, diagonal "
                              f"range [{diag.min():.3e}, {diag.max():.3e}]")

    return np.column_stack([g_left, u_inner, g_right])


def observe(pressure: np.ndarray, op: ObservationOperator) -> np.ndarray:
    """Bilinear interpolation of an (H, W) nodal pressure at each sensor location."""
    return observation_matrix(op, Grid(*pressure.shape)) @ pressure.ravel()


def observation_matrix(op: ObservationOperator, grid: Grid) -> np.ndarray:
    """Dense (m, H*W) matrix whose rows hold bilinear interpolation weights.

    The matrix is built once per (sensor locations, grid) and shared by later
    calls, so it is returned read-only.
    """
    return _interpolation_matrix(op.locations.tobytes(), grid)


@lru_cache(maxsize=8)
def _interpolation_matrix(locations: bytes, grid: Grid) -> np.ndarray:
    points = np.frombuffer(locations, dtype=np.float64).reshape(-1, 2)
    mat = np.zeros((len(points), grid.n_points))
    for k, (s1, s2) in enumerate(points):
        fj = min(s1 / grid.spacing_1, grid.width - 1 - 1e-12)
        fi = min(s2 / grid.spacing_2, grid.height - 1 - 1e-12)
        j0, i0 = int(fj), int(fi)
        tj, ti = fj - j0, fi - i0
        for di, wi in ((0, 1.0 - ti), (1, ti)):
            for dj, wj in ((0, 1.0 - tj), (1, tj)):
                mat[k, (i0 + di) * grid.width + (j0 + dj)] += wi * wj
    mat.flags.writeable = False
    return mat


def add_noise(clean: np.ndarray, level: float, rng: np.random.Generator,
              operator: ObservationOperator) -> ObservationSet:
    """Per-sensor relative Gaussian noise with a floor of 10% of the mean scale."""
    clean = np.asarray(clean, dtype=np.float64)
    if level <= 0.0:
        raise ValueError("noise level must be positive")
    mean_abs = np.abs(clean).mean()
    if mean_abs == 0.0:
        raise ValueError("cannot scale noise for an all-zero observation vector")
    floor = level * mean_abs * 0.1
    sigma = np.maximum(level * np.abs(clean), floor)
    values = clean + sigma * rng.standard_normal(len(clean))
    return ObservationSet(operator=operator, values=values, sigma=sigma)


def log_likelihood(obs: ObservationSet, predicted: np.ndarray) -> float:
    """Independent-Gaussian log density of the observations given a prediction."""
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != obs.values.shape:
        raise ValueError("prediction length does not match observations")
    if (obs.sigma <= 0.0).any():
        raise ValueError("noise standard deviations must be positive")
    z = (obs.values - predicted) / obs.sigma
    return float(np.sum(-0.5 * z * z - np.log(obs.sigma) - 0.5 * np.log(2.0 * np.pi)))


OBSERVATION_COLUMNS = ("s1", "s2", "value", "sigma")


def save_observations_csv(path, obs: ObservationSet) -> None:
    table = np.column_stack([obs.operator.locations, obs.values, obs.sigma])
    write_csv(path, [OBSERVATION_COLUMNS, *([repr(float(x)) for x in row] for row in table)])


def load_observations_csv(path) -> ObservationSet:
    """Read :func:`save_observations_csv`'s file; ValueError names it if bad."""
    table = read_csv_floats(path, header=OBSERVATION_COLUMNS)
    try:
        return ObservationSet(ObservationOperator(table[:, :2]), table[:, 2], table[:, 3])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
