"""Finite-volume Darcy pressure solver plus observation and noise operators.

The pressure equation -div(exp(y) grad u) = h is discretized on the node
grid of :class:`krflow.grf.Grid` with a 5-point stencil.  Interface
conductivities are harmonic means of exp(y) at the two neighbouring nodes,
the standard choice for discontinuous coefficients.  Pressure is pinned to
Dirichlet data on the left/right columns (s1 = 0 and s1 = 1, zero by
default) and zero normal flux is imposed on the top/bottom rows, which get
half-height control volumes.

The resulting system is symmetric positive definite; it is solved by a
sparse direct factorization and the contract is a relative residual below
1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .grf import Grid
from .report import read_csv_floats


class DarcySolveError(RuntimeError):
    """Raised when the assembled linear system cannot be solved accurately."""


@dataclass
class PressureField:
    values: np.ndarray   # (H, W)
    grid: Grid


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
class NoiseModel:
    level: float
    per_sensor_std: np.ndarray
    floor: float

    def __post_init__(self):
        self.per_sensor_std = np.asarray(self.per_sensor_std, dtype=np.float64)
        if self.floor <= 0.0 or (self.per_sensor_std < self.floor - 1e-15).any():
            raise ValueError("per-sensor noise must respect a positive floor")


@dataclass
class ObservationSet:
    operator: ObservationOperator
    values: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != self.operator.n_sensors:
            raise ValueError("observation count does not match sensor count")


def lattice_operator(rows: int, cols: int, origin: float, spacing: float) -> ObservationOperator:
    """Rectangular sensor lattice at origin + spacing*i along both coordinates."""
    s1 = origin + spacing * np.arange(cols)
    s2 = origin + spacing * np.arange(rows)
    g1, g2 = np.meshgrid(s1, s2)
    return ObservationOperator(np.column_stack([g1.ravel(), g2.ravel()]))


def _transmissibilities(log_perm: np.ndarray, grid: Grid):
    """Harmonic-mean interface conductivities times face-geometry factors."""
    a = np.exp(log_perm)
    d1, d2 = grid.spacing_1, grid.spacing_2
    # row heights of the control volumes: half cells on the Neumann rows
    heights = np.full(grid.height, d2)
    heights[0] = heights[-1] = 0.5 * d2
    # horizontal faces between (i, j) and (i, j+1)
    ah = 2.0 * a[:, :-1] * a[:, 1:] / (a[:, :-1] + a[:, 1:])
    t_h = ah * heights[:, None] / d1
    # vertical faces between (i, j) and (i+1, j); interior columns have width d1
    av = 2.0 * a[:-1, :] * a[1:, :] / (a[:-1, :] + a[1:, :])
    t_v = av * d1 / d2
    return t_h, t_v, heights


def solve_darcy(log_perm: np.ndarray, grid: Grid,
                source: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 3.0,
                dirichlet_left: np.ndarray | None = None,
                dirichlet_right: np.ndarray | None = None) -> PressureField:
    """Solve the pressure equation for one log-permeability field.

    ``source`` may be a constant or a callable h(s1, s2) evaluated at the
    nodes.  Nonzero Dirichlet columns are supported for diagnostics; the
    physical setup uses the default homogeneous data.
    """
    log_perm = np.asarray(log_perm, dtype=np.float64)
    if log_perm.shape != (grid.height, grid.width):
        raise ValueError(f"field shape {log_perm.shape} does not match grid "
                         f"{grid.height}x{grid.width}")
    if not np.isfinite(log_perm).all():
        raise ValueError("log-permeability contains non-finite values")

    h_rows, w_cols = grid.height, grid.width
    d1 = grid.spacing_1
    g_left = np.zeros(h_rows) if dirichlet_left is None else np.asarray(dirichlet_left, float)
    g_right = np.zeros(h_rows) if dirichlet_right is None else np.asarray(dirichlet_right, float)

    t_h, t_v, heights = _transmissibilities(log_perm, grid)

    if callable(source):
        pts1 = np.linspace(0.0, 1.0, w_cols)
        pts2 = np.linspace(0.0, 1.0, h_rows)
        g1, g2 = np.meshgrid(pts1, pts2)
        h_val = np.asarray(source(g1, g2), dtype=np.float64)
    else:
        h_val = np.full((h_rows, w_cols), float(source))

    n_unknown_cols = w_cols - 2
    n = h_rows * n_unknown_cols

    def uid(i, j):
        return i * n_unknown_cols + (j - 1)

    rows_ix: list[np.ndarray] = []
    cols_ix: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros(n)
    rhs = (h_val[:, 1:-1] * (heights[:, None] * d1)).ravel()

    ii, jj = np.meshgrid(np.arange(h_rows), np.arange(1, w_cols - 1), indexing="ij")
    ids = uid(ii, jj)

    # west faces (between j-1 and j)
    tw = t_h[:, : n_unknown_cols]
    diag += tw.ravel()
    west_interior = jj >= 2
    rows_ix.append(ids[west_interior])
    cols_ix.append(uid(ii[west_interior], jj[west_interior] - 1))
    vals.append(-tw[west_interior])
    rhs_w = np.zeros((h_rows, n_unknown_cols))
    rhs_w[:, 0] = t_h[:, 0] * g_left
    rhs += rhs_w.ravel()

    # east faces (between j and j+1)
    te = t_h[:, 1:]
    diag += te.ravel()
    east_interior = jj <= w_cols - 3
    rows_ix.append(ids[east_interior])
    cols_ix.append(uid(ii[east_interior], jj[east_interior] + 1))
    vals.append(-te[east_interior])
    rhs_e = np.zeros((h_rows, n_unknown_cols))
    rhs_e[:, -1] = t_h[:, -1] * g_right
    rhs += rhs_e.ravel()

    # south faces (between i-1 and i); none on the top Neumann row i = 0
    ts = np.zeros((h_rows, n_unknown_cols))
    ts[1:, :] = t_v[:, 1:-1]
    diag += ts.ravel()
    south = ii >= 1
    rows_ix.append(ids[south])
    cols_ix.append(uid(ii[south] - 1, jj[south]))
    vals.append(-ts[south])

    # north faces (between i and i+1); none on the bottom Neumann row
    tn = np.zeros((h_rows, n_unknown_cols))
    tn[:-1, :] = t_v[:, 1:-1]
    diag += tn.ravel()
    north = ii <= h_rows - 2
    rows_ix.append(ids[north])
    cols_ix.append(uid(ii[north] + 1, jj[north]))
    vals.append(-tn[north])

    rows_all = np.concatenate([np.arange(n)] + rows_ix)
    cols_all = np.concatenate([np.arange(n)] + cols_ix)
    vals_all = np.concatenate([diag] + vals)
    mat = coo_matrix((vals_all, (rows_all, cols_all)), shape=(n, n)).tocsr()

    u_inner = spsolve(mat, rhs)
    residual = np.linalg.norm(mat @ u_inner - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not np.isfinite(u_inner).all() or residual / scale > 1e-10:
        raise DarcySolveError(
            f"linear solve failed: relative residual {residual / scale:.3e}, "
            f"diagonal range [{diag.min():.3e}, {diag.max():.3e}]")

    u = np.zeros((h_rows, w_cols))
    u[:, 0] = g_left
    u[:, -1] = g_right
    u[:, 1:-1] = u_inner.reshape(h_rows, n_unknown_cols)
    return PressureField(values=u, grid=grid)


def boundary_flux_total(pressure: PressureField, log_perm: np.ndarray,
                        grid: Grid) -> float:
    """Net discrete flux leaving through the Dirichlet columns.

    Neumann faces carry no flux by construction, so in steady state this
    equals the total source integral (and vanishes for zero source).
    """
    t_h, _, _ = _transmissibilities(np.asarray(log_perm, float), grid)
    u = pressure.values
    out_left = t_h[:, 0] * (u[:, 1] - u[:, 0])
    out_right = t_h[:, -1] * (u[:, -2] - u[:, -1])
    return float(out_left.sum() + out_right.sum())


def observe(pressure: PressureField, op: ObservationOperator) -> np.ndarray:
    """Bilinear interpolation of the pressure at each sensor location."""
    return observation_matrix(op, pressure.grid) @ pressure.values.ravel()


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
    return ObservationSet(operator=operator, values=values,
                          noise=NoiseModel(level=level, per_sensor_std=sigma, floor=floor))


def log_likelihood(obs: ObservationSet, predicted: np.ndarray) -> float:
    """Independent-Gaussian log density of the observations given a prediction."""
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != obs.values.shape:
        raise ValueError("prediction length does not match observations")
    sigma = obs.noise.per_sensor_std
    if (sigma <= 0.0).any():
        raise ValueError("noise standard deviations must be positive")
    z = (obs.values - predicted) / sigma
    return float(np.sum(-0.5 * z * z - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)))


OBSERVATION_COLUMNS = ("s1", "s2", "value", "sigma")


def save_observations_csv(path, obs: ObservationSet) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSERVATION_COLUMNS)
        for (s1, s2), v, sig in zip(obs.operator.locations, obs.values,
                                    obs.noise.per_sensor_std):
            writer.writerow([repr(float(s1)), repr(float(s2)), repr(float(v)), repr(float(sig))])


def load_observations_csv(path, level: float) -> ObservationSet:
    table = read_csv_floats(path, header=OBSERVATION_COLUMNS)
    sigmas = table[:, 3]
    return ObservationSet(
        operator=ObservationOperator(table[:, :2]),
        values=table[:, 2],
        noise=NoiseModel(level=level, per_sensor_std=sigmas, floor=float(sigmas.min())),
    )
