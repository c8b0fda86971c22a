"""Finite-volume Darcy pressure solver plus observation and noise operators.

The pressure equation -div(exp(y) grad u) = h is discretized on the node
grid of :class:`krflow.grf.Grid` with a 5-point stencil.  Interface
conductivities are harmonic means of exp(y) at the two neighbouring nodes,
the standard choice for discontinuous coefficients.  Pressure is pinned to
Dirichlet data on the left/right columns (s1 = 0 and s1 = 1, zero by
default) and zero normal flux is imposed on the top/bottom rows, which get
half-height control volumes.

The resulting system is symmetric positive definite.  Numbering the
H x (W-2) unknowns (the interior columns) row by row makes it a band matrix
with half-bandwidth W-2, which is assembled straight into LAPACK band
storage and solved by one banded LU (``gbsv``).  Banded Cholesky (``pbsv``)
would halve the arithmetic, but below LAPACK's block size it falls back to
one small rank-1 update per row, and at 2 OpenBLAS threads each of those
pays a thread hand-off: 2.5 ms against 0.8 ms per 32x32 solve (2-CPU Xeon,
OpenBLAS 0.3.31).  The contract is unchanged: a relative residual, from the
5-point stencil applied to the solution, below 1e-10, or DarcySolveError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgbsv

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
    """Source integral over each unknown's control volume, (H, W-2)."""
    if callable(source):
        g1, g2 = grid.points().T.reshape(2, grid.height, grid.width)
        h_val = np.asarray(source(g1, g2), dtype=np.float64)
    else:
        h_val = np.full((grid.height, grid.width), float(source))
    return h_val[:, 1:-1] * (heights[:, None] * grid.spacing_1)


def energy_terms(log_perms: np.ndarray, grid: Grid, source: float = 3.0
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of the discrete energy 1/2 u^T A(y) u - b^T u of a (B, H, W) batch.

    ``u`` is the flat (H*(W-2),) vector of unknowns that :func:`solve_darcy`
    solves for, with homogeneous Dirichlet columns; A(y) and b are its
    system.  Returns ``(weights, differences, load)``: the (B, F)
    transmissibilities of the F faces that touch an unknown, the constant
    (H*(W-2), F) matrix taking u to the differences across those faces, so
    that A(y) = differences @ diag(weights[k]) @ differences.T, and the load
    b.  The energy's minimizer is the solve's interior; ``differences`` is
    built once per grid and returned read-only.
    """
    log_perms = np.asarray(log_perms, dtype=np.float64)
    if log_perms.ndim != 3 or log_perms.shape[1:] != (grid.height, grid.width):
        raise ValueError(f"fields of shape {log_perms.shape} are not a (B, "
                         f"{grid.height}, {grid.width}) batch")
    t_h, t_v, heights = _transmissibilities(log_perms, grid)
    weights = np.concatenate([t_h.reshape(len(t_h), -1),
                              t_v[..., 1:-1].reshape(len(t_v), -1)], axis=1)
    return weights, _face_differences(grid), _load(source, grid, heights).ravel()


@lru_cache(maxsize=8)
def interior_embedding(grid: Grid) -> np.ndarray:
    """(H*(W-2), H*W) 0/1 matrix placing the unknowns between zero Dirichlet columns.

    Built once per grid and returned read-only.
    """
    n = grid.height * (grid.width - 2)
    images = np.pad(np.eye(n).reshape(n, grid.height, -1), ((0, 0), (0, 0), (1, 1)))
    mat = images.reshape(n, -1)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=8)
def _face_differences(grid: Grid) -> np.ndarray:
    images = interior_embedding(grid).reshape(-1, grid.height, grid.width)
    # the faces in the order of energy_terms' weights: horizontal, then vertical
    mat = np.concatenate([np.diff(images, axis=2).reshape(len(images), -1),
                          np.diff(images[:, :, 1:-1], axis=1).reshape(len(images), -1)],
                         axis=1)
    mat.flags.writeable = False
    return mat


def _dirichlet(values, name: str, rows: int) -> np.ndarray:
    """One Dirichlet column: None means zeros, a scalar is broadcast."""
    g = np.zeros(rows) if values is None else np.asarray(values, dtype=np.float64)
    if g.ndim == 0:
        g = np.full(rows, g)
    if g.shape != (rows,):
        raise ValueError(f"{name} has shape {g.shape}, expected ({rows},): "
                         f"one value per grid row (grid.height = {rows})")
    return g


def solve_darcy(log_perm: np.ndarray, grid: Grid,
                source: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 3.0,
                dirichlet_left: np.ndarray | None = None,
                dirichlet_right: np.ndarray | None = None) -> PressureField:
    """Solve the pressure equation for one log-permeability field.

    ``source`` may be a constant or a callable h(s1, s2) evaluated at the
    nodes.  Nonzero Dirichlet columns are supported for diagnostics; the
    physical setup uses the default homogeneous data.  Each Dirichlet column
    is a scalar or one value per grid row.
    """
    log_perm = np.asarray(log_perm, dtype=np.float64)
    if log_perm.shape != (grid.height, grid.width):
        raise ValueError(f"field shape {log_perm.shape} does not match grid "
                         f"{grid.height}x{grid.width}")
    if not np.isfinite(log_perm).all():
        raise ValueError("log-permeability contains non-finite values")
    # the harmonic means form 2 exp(y) exp(y'), which lies between its values
    # at the two extremes of the field; a subnormal product loses precision
    # that the residual check, made with the same coefficients, cannot see
    low, high = log_perm.min(), log_perm.max()
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

    t_h, t_v, heights = _transmissibilities(log_perm, grid)

    # unknowns are the interior columns, numbered row by row
    m = grid.width - 2
    n = h_rows * m
    t_e = t_h[:, 1:-1]     # faces between neighbouring unknowns in a row
    t_n = t_v[:, 1:-1]     # faces between neighbouring unknowns in a column
    diag = t_h[:, :-1] + t_h[:, 1:]   # west and east faces
    diag[1:] += t_n        # south faces; none on the top Neumann row
    diag[:-1] += t_n       # north faces; none on the bottom Neumann row

    rhs = _load(source, grid, heights)
    rhs[:, 0] += t_h[:, 0] * g_left
    rhs[:, -1] += t_h[:, -1] * g_right

    # LAPACK general band storage, A[i, j] at ab[2m + i - j, j]; rows 0..m-1
    # are room for the fill-in of partial pivoting.  Fortran order lets
    # dgbsv factor it in place instead of copying it.  The off-diagonals are
    # subtracted, not assigned: with one unknown column (m = 1) the rows for
    # offsets +-1 and +-m coincide, and the +-1 couplings are all zero.
    east = np.zeros((h_rows, m))
    east[:, :-1] = t_e
    east = east.ravel()[:-1]
    ab = np.zeros((3 * m + 1, n), order="F")
    ab[2 * m] = diag.ravel()
    ab[2 * m - 1, 1:] -= east
    ab[2 * m + 1, :-1] -= east
    ab[m, m:] -= t_n.ravel()
    ab[3 * m, :-m] -= t_n.ravel()
    _, _, u_inner, info = dgbsv(m, m, ab, rhs.ravel(), overwrite_ab=True)
    u_inner = u_inner.reshape(h_rows, m)

    rel = np.inf
    if info == 0 and np.isfinite(u_inner).all():
        # the residual by the 5-point stencil on the (H, W-2) grid of unknowns
        res = diag * u_inner - rhs
        res[:, :-1] -= t_e * u_inner[:, 1:]
        res[:, 1:] -= t_e * u_inner[:, :-1]
        res[:-1] -= t_n * u_inner[1:]
        res[1:] -= t_n * u_inner[:-1]
        rel = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300)
    if not rel <= 1e-10:
        raise DarcySolveError(
            f"linear solve failed: relative residual {rel:.3e}, "
            f"diagonal range [{diag.min():.3e}, {diag.max():.3e}]")

    return PressureField(values=np.column_stack([g_left, u_inner, g_right]), grid=grid)


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
