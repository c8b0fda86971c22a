"""Gaussian random fields with exponential covariance via truncated KL expansion.

Fields live on a uniform grid over the unit square.  The first coordinate s1
runs along columns (width W), the second coordinate s2 along rows (height H),
so ``field[i, j]`` is the value at ``(s1, s2) = (j/(W-1), i/(H-1))``.

The covariance is discretized by pointwise kernel evaluation at the grid
nodes (no quadrature weights), and eigenvectors of that matrix are therefore
orthonormal under the plain grid inner product ``sum_p f_p g_p``.  It is
assembled in place, and LAPACK ``dsyevd`` (what ``eigh`` runs) overwrites one
owned copy of it.  ``dsyevd`` and darcy's ``dpbsv`` come from scipy's compiled
``scipy.linalg._flapack``, which :func:`_load_flapack` loads without importing
``scipy.linalg`` (0.2 s and 20 MB per CLI process).

The prior dataset file is a float64 ``params.ParamStore`` container with
one ``fields`` entry of shape (N, H, W); each sample's length scale and seed
are recorded only in the manifest CSV written alongside it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np
import scipy

from .params import ParamStore
from .report import write_csv


def _load_flapack(directory: str):
    """scipy's compiled LAPACK wrapper ``scipy.linalg._flapack``, loaded from
    ``directory`` without running the ``scipy.linalg`` package."""
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack extension in {directory} "
                          f"(scipy {scipy.__version__})")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack(os.path.join(scipy.__path__[0], "linalg"))
dpbsv, dsyevd = _flapack.dpbsv, _flapack.dsyevd


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on the unit square; H rows (s2), W columns (s1)."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 3 or self.width < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.height}x{self.width}")

    @property
    def spacing_1(self) -> float:
        return 1.0 / (self.width - 1)

    @property
    def spacing_2(self) -> float:
        return 1.0 / (self.height - 1)

    @property
    def n_points(self) -> int:
        return self.height * self.width

    def points(self) -> np.ndarray:
        """All node coordinates as an (H*W, 2) array of (s1, s2), row-major."""
        s1 = np.linspace(0.0, 1.0, self.width)
        s2 = np.linspace(0.0, 1.0, self.height)
        g1, g2 = np.meshgrid(s1, s2)
        return np.column_stack([g1.ravel(), g2.ravel()])


@dataclass(frozen=True)
class CovarianceSpec:
    """Exponential covariance: sigma^2 * exp(-sqrt((d1/l1)^2 + (d2/l2)^2))."""

    variance: float
    length_scale_1: float
    length_scale_2: float
    mean_value: float = 0.0

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if self.length_scale_1 <= 0 or self.length_scale_2 <= 0:
            raise ValueError("length scales must be positive")

    @classmethod
    def isotropic(cls, variance: float, length_scale: float, mean_value: float = 0.0):
        return cls(variance, length_scale, length_scale, mean_value)


@dataclass
class KLBasis:
    """Truncated spectral basis: descending eigenvalues and H*W eigenfunctions."""

    eigenvalues: np.ndarray        # (d_kl,)
    eigenfunctions: np.ndarray     # (d_kl, H, W)

    @property
    def d_kl(self) -> int:
        return len(self.eigenvalues)


@dataclass
class FieldSample:
    values: np.ndarray             # (H, W) log-permeability image
    length_scale: float
    seed: int


def assemble_covariance_matrix(grid: Grid, spec: CovarianceSpec) -> np.ndarray:
    """The kernel at every pair of nodes: one (n, n) buffer and one temporary."""
    pts = grid.points()
    cov = np.subtract.outer(pts[:, 0], pts[:, 0])
    np.square(np.divide(cov, spec.length_scale_1, out=cov), out=cov)
    d2 = np.subtract.outer(pts[:, 1], pts[:, 1])
    cov += np.square(np.divide(d2, spec.length_scale_2, out=d2), out=d2)
    np.exp(np.negative(np.sqrt(cov, out=cov), out=cov), out=cov)
    cov *= spec.variance
    return cov


def truncated_kle(cov: np.ndarray, energy_fraction: float, grid: Grid) -> KLBasis:
    """Keep the fewest leading eigenpairs capturing the requested energy.

    Tiny negative eigenvalues from roundoff (above -1e-10 * lambda_max) are
    clipped to zero; anything more negative means the input was not a
    covariance matrix and is an error.
    """
    if not 0.0 < energy_fraction <= 1.0:
        raise ValueError("energy_fraction must lie in (0, 1]")
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (grid.n_points,) * 2:
        raise ValueError(f"covariance {cov.shape} does not fit a {grid.n_points}-node grid")
    a = np.empty(cov.shape, order="F")   # the checks' scratch, then dsyevd's input and output
    asym = np.abs(np.subtract(cov, cov.T, out=a), out=a).max()
    if asym > 1e-10 * max(np.abs(cov, out=a).max(), 1.0):
        raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
    a[...] = cov

    lam, vec, info = dsyevd(a, lower=1, overwrite_a=1)
    if info != 0:
        raise ValueError(f"covariance eigendecomposition failed: LAPACK dsyevd info = {info}")
    lam, vec = lam[::-1], vec[:, ::-1]
    if lam.min() < -1e-10 * lam[0]:
        raise ValueError(f"covariance has a significantly negative eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)

    total = lam.sum()
    cum = np.cumsum(lam)
    d_kl = int(np.searchsorted(cum, energy_fraction * total - 1e-12 * total) + 1)
    d_kl = min(d_kl, int((lam > 0).sum()))
    return KLBasis(
        eigenvalues=lam[:d_kl].copy(),
        eigenfunctions=vec[:, :d_kl].T.reshape(d_kl, grid.height, grid.width).copy(),
    )


def sample_field(basis: KLBasis, spec: CovarianceSpec, rng: np.random.Generator,
                 seed: int = 0) -> FieldSample:
    """Draw one field: mean + sum_k sqrt(lambda_k) y_k xi_k with xi ~ N(0, I)."""
    xi = rng.standard_normal(basis.d_kl)
    values = spec.mean_value + np.einsum(
        "k,khw,k->hw", np.sqrt(basis.eigenvalues), basis.eigenfunctions, xi)
    return FieldSample(values=values, length_scale=spec.length_scale_1, seed=seed)


def _sample_seed(base_seed: int, scale_index: int, sample_index: int) -> int:
    ss = np.random.SeedSequence(base_seed, spawn_key=(scale_index, sample_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def generate_prior_dataset(grid: Grid, variance: float, mean: float,
                           length_scales: Sequence[float], per_scale: int,
                           base_seed: int, energy_fraction: float = 0.95,
                           bases: dict | None = None) -> list[FieldSample]:
    """Historical prior data: per_scale draws for each length scale, concatenated.

    Each scale gets its own covariance and its own 95%-energy truncation;
    each key of ``bases`` that is one of the scales gets that scale's basis.
    Sample seeds are keyed by (base_seed, scale index, sample index), so the
    dataset is reproducible and individual samples can be regenerated.
    """
    if not length_scales:
        raise ValueError("need at least one length scale")
    if per_scale < 1:
        raise ValueError("per_scale must be at least 1")
    samples: list[FieldSample] = []
    for si, scale in enumerate(length_scales):
        spec = CovarianceSpec.isotropic(variance, scale, mean)
        basis = truncated_kle(assemble_covariance_matrix(grid, spec), energy_fraction, grid)
        if bases is not None and scale in bases:
            bases[scale] = basis
        for k in range(per_scale):
            seed = _sample_seed(base_seed, si, k)
            rng = np.random.default_rng(seed)
            samples.append(sample_field(basis, spec, rng, seed=seed))
    return samples


def dataset_to_array(samples: Sequence[FieldSample]) -> np.ndarray:
    return np.stack([s.values for s in samples])


# -- dataset files ---------------------------------------------------------------


def save_dataset(path, fields: np.ndarray) -> None:
    ParamStore({"fields": fields}).save(path)


def load_dataset(path) -> np.ndarray:
    """The (N, H, W) fields of a dataset file, or a ValueError naming the file."""
    store = ParamStore.load(path)
    shapes = {name: arr.shape for name, arr in store.items()}
    if list(shapes) != ["fields"] or len(shapes["fields"]) != 3 or min(shapes["fields"][1:]) < 3:
        raise ValueError(f"{path}: expected one (N, H, W) 'fields' entry with H, W >= 3, "
                         f"got {shapes}")
    return store["fields"]


def save_manifest(path, samples: Sequence[FieldSample]) -> None:
    write_csv(path, [("index", "length_scale", "seed"),
                     *((i, repr(float(s.length_scale)), s.seed) for i, s in enumerate(samples))])
