import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svd

from krflow import grf
from krflow.grf import (
    CovarianceSpec,
    FieldSample,
    Grid,
    assemble_covariance_matrix,
    dataset_to_array,
    generate_prior_dataset,
    load_dataset,
    sample_field,
    save_dataset,
    save_manifest,
    truncated_kle,
)
from krflow.params import ParamStore


@pytest.fixture
def small_grid():
    return Grid(8, 8)


def composed_covariance(grid, spec):
    """The kernel as one composed expression: the reference for the in-place assembly."""
    pts = grid.points()
    d1 = (pts[:, None, 0] - pts[None, :, 0]) / spec.length_scale_1
    d2 = (pts[:, None, 1] - pts[None, :, 1]) / spec.length_scale_2
    return spec.variance * np.exp(-np.sqrt(d1 * d1 + d2 * d2))


def eigh_reference(cov, energy_fraction):
    """Descending eigenpairs from np.linalg.eigh and the truncation rule."""
    lam, vec = np.linalg.eigh(cov)
    lam, vec = np.clip(lam[::-1], 0.0, None), vec[:, ::-1]
    cum = np.cumsum(lam)
    d_kl = int(np.searchsorted(cum, energy_fraction * cum[-1] - 1e-12 * cum[-1]) + 1)
    return lam, vec, min(d_kl, int((lam > 0).sum()))


grid_shapes = st.tuples(st.integers(3, 20), st.integers(3, 20)).map(lambda hw: Grid(*hw))
specs = st.builds(CovarianceSpec, st.floats(0.1, 2.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0))


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCovariance:
    def test_diagonal_is_variance(self, small_grid):
        spec = CovarianceSpec.isotropic(0.5, 0.2)
        cov = assemble_covariance_matrix(small_grid, spec)
        np.testing.assert_allclose(np.diag(cov), 0.5)

    def test_symmetry(self, small_grid):
        spec = CovarianceSpec(0.7, 0.15, 0.4)
        cov = assemble_covariance_matrix(small_grid, spec)
        np.testing.assert_array_equal(cov, cov.T)

    def test_known_entry_half_unit_apart(self):
        # sigma^2 exp(-|0.5/0.2|) = 0.5 exp(-2.5)
        grid = Grid(3, 3)
        spec = CovarianceSpec.isotropic(0.5, 0.2)
        cov = assemble_covariance_matrix(grid, spec)
        pts = grid.points()
        p = int(np.flatnonzero((pts == [0.0, 0.0]).all(axis=1))[0])
        q = int(np.flatnonzero((pts == [0.5, 0.0]).all(axis=1))[0])
        assert cov[p, q] == pytest.approx(0.5 * np.exp(-2.5), rel=1e-12)
        assert cov[p, q] == pytest.approx(0.0410425, abs=5e-8)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(grid=grid_shapes, spec=specs)
    def test_in_place_assembly_is_the_composed_bytes(self, grid, spec):
        assert (assemble_covariance_matrix(grid, spec).tobytes()
                == composed_covariance(grid, spec).tobytes())

    def test_assembly_holds_two_matrices_at_most(self):
        # the (n, n) result and the second axis's term; the slack is numpy's
        # ufunc buffers, which do not grow with n
        grid = Grid(20, 20)
        peak = peak_traced_bytes(assemble_covariance_matrix, grid, CovarianceSpec(0.5, 0.2, 0.3))
        assert peak <= 2 * 8 * grid.n_points ** 2 + 256 * 1024


class TestTruncatedKle:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(grid=grid_shapes, spec=specs, energy_fraction=st.floats(0.5, 0.99))
    def test_matches_numpy_eigh(self, grid, spec, energy_fraction):
        # equal up to sign, not to the bit: numpy and scipy may bundle
        # different LAPACK builds.  Below 100% energy every kept eigenvalue is
        # far above roundoff, where two builds can differ relatively
        cov = assemble_covariance_matrix(grid, spec)
        basis = truncated_kle(cov, energy_fraction, grid)
        lam, vec, d_kl = eigh_reference(cov, energy_fraction)
        assert basis.d_kl == d_kl
        np.testing.assert_allclose(basis.eigenvalues, lam[:d_kl], rtol=1e-12, atol=0)
        flat = basis.eigenfunctions.reshape(d_kl, -1)
        gaps = np.abs(np.diff(lam))
        for k in range(d_kl):
            neighbours = gaps[max(k - 1, 0):k + 1]
            if neighbours.min() > 1e-3 * lam[0]:
                ref = vec[:, k] * np.sign(vec[:, k] @ flat[k])
                np.testing.assert_allclose(flat[k], ref, rtol=0, atol=1e-8)

    def test_holds_the_owned_copy_and_lapack_workspace_at_most(self):
        # dsyevd overwrites one Fortran copy with the eigenvectors and needs
        # 2 n^2 + O(n) of workspace; the caller's matrix is not traced
        grid = Grid(20, 20)
        cov = assemble_covariance_matrix(grid, CovarianceSpec(0.5, 0.2, 0.3))
        peak = peak_traced_bytes(truncated_kle, cov, 0.95, grid)
        assert peak <= 3 * 8 * grid.n_points ** 2 + 16 * 8 * grid.n_points

    @pytest.mark.parametrize("info", [3, -4])
    def test_lapack_failure_names_info(self, monkeypatch, info):
        monkeypatch.setattr(grf, "dsyevd", lambda a, **kwargs: (a[0], a, info))
        with pytest.raises(ValueError, match=rf"^covariance eigendecomposition failed: "
                                             rf"LAPACK dsyevd info = {info}$"):
            truncated_kle(np.eye(16), 0.95, Grid(4, 4))

    def test_identity_covariance_keeps_ceil(self):
        grid = Grid(4, 4)
        basis = truncated_kle(np.eye(16), 0.95, grid)
        assert basis.d_kl == 16

    def test_rank_one(self):
        grid = Grid(4, 4)
        v = np.linspace(1.0, 2.0, 16)
        basis = truncated_kle(np.outer(v, v), 0.95, grid)
        assert basis.d_kl == 1
        assert basis.eigenvalues[0] == pytest.approx(v @ v, rel=1e-12)

    def test_truncation_matches_independent_svd_oracle(self):
        grid = Grid(16, 16)
        spec = CovarianceSpec.isotropic(0.5, 0.25)
        cov = assemble_covariance_matrix(grid, spec)
        basis = truncated_kle(cov, 0.95, grid)
        # oracle: singular values of the symmetric PSD matrix are its eigenvalues
        sv = svd(cov, compute_uv=False)
        d_oracle = int(np.searchsorted(np.cumsum(sv), 0.95 * sv.sum()) + 1)
        assert basis.d_kl == d_oracle

    def test_eigenvalues_descending_positive(self, small_grid):
        cov = assemble_covariance_matrix(small_grid, CovarianceSpec.isotropic(0.5, 0.2))
        basis = truncated_kle(cov, 0.95, small_grid)
        lam = basis.eigenvalues
        assert (lam > 0).all()
        assert (np.diff(lam) <= 1e-12).all()

    def test_grid_orthonormality(self, small_grid):
        cov = assemble_covariance_matrix(small_grid, CovarianceSpec.isotropic(0.5, 0.3))
        basis = truncated_kle(cov, 0.95, small_grid)
        flat = basis.eigenfunctions.reshape(basis.d_kl, -1)
        gram = flat @ flat.T
        np.testing.assert_allclose(gram, np.eye(basis.d_kl), atol=1e-8)

    @pytest.mark.parametrize("frac,scale", [(0.95, 0.2), (0.95, 0.3), (0.9, 0.25)])
    def test_reconstruction_error_bounded_by_discarded_energy(self, frac, scale):
        grid = Grid(16, 16)  # the bound needs the spectrum decay of working resolutions
        cov = assemble_covariance_matrix(grid, CovarianceSpec.isotropic(0.5, scale))
        basis = truncated_kle(cov, frac, grid)
        flat = basis.eigenfunctions.reshape(basis.d_kl, -1)
        recon = (flat.T * basis.eigenvalues) @ flat
        rel = np.linalg.norm(cov - recon) / np.linalg.norm(cov)
        assert rel <= (1.0 - frac) + 1e-6

    @pytest.mark.parametrize("cov", [np.eye(64)[0], np.eye(64)[:8], np.eye(16)],
                             ids=["1-D", "not-square", "other-grid"])
    def test_covariance_of_another_shape_rejected(self, small_grid, cov):
        with pytest.raises(ValueError, match=rf"^covariance {re.escape(str(cov.shape))} "
                                             r"does not fit a 64-node grid$"):
            truncated_kle(cov, 0.95, small_grid)

    def test_asymmetric_input_rejected(self, small_grid):
        cov = np.eye(64)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            truncated_kle(cov, 0.95, small_grid)

    def test_significantly_negative_eigenvalue_rejected(self, small_grid):
        cov = np.eye(64)
        cov[0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            truncated_kle(cov, 0.95, small_grid)


class TestSampling:
    @pytest.fixture
    def basis_and_spec(self, small_grid):
        spec = CovarianceSpec.isotropic(0.5, 0.25, mean_value=1.0)
        cov = assemble_covariance_matrix(small_grid, spec)
        return truncated_kle(cov, 0.95, small_grid), spec

    def test_zero_coefficients_give_mean(self, basis_and_spec):
        basis, spec = basis_and_spec

        class ZeroRng:
            def standard_normal(self, n):
                return np.zeros(n)

        field = sample_field(basis, spec, ZeroRng())
        np.testing.assert_allclose(field.values, 1.0)

    def test_same_seed_identical(self, basis_and_spec):
        basis, spec = basis_and_spec
        a = sample_field(basis, spec, np.random.default_rng(42))
        b = sample_field(basis, spec, np.random.default_rng(42))
        np.testing.assert_array_equal(a.values, b.values)

    def test_pointwise_variance_matches_spectral_sum(self, basis_and_spec):
        # Monte Carlo oracle: var[field(s)] == sum_k lambda_k y_k(s)^2
        basis, spec = basis_and_spec
        rng = np.random.default_rng(7)
        draws = np.stack([sample_field(basis, spec, rng).values for _ in range(10000)])
        empirical = draws.var(axis=0)
        expected = np.einsum("k,khw->hw", basis.eigenvalues, basis.eigenfunctions ** 2)
        rel_dev = np.abs(empirical - expected) / expected
        assert rel_dev.max() < 0.10


class TestDataset:
    def test_counts_and_provenance(self, small_grid):
        samples = generate_prior_dataset(small_grid, 0.5, 1.0, [0.25], 3, base_seed=1)
        assert len(samples) == 3
        assert all(s.length_scale == 0.25 for s in samples)
        assert len({s.seed for s in samples}) == 3

    def test_multi_scale_concatenation(self, small_grid):
        samples = generate_prior_dataset(small_grid, 0.5, 1.0, [0.2, 0.25, 0.3], 2, base_seed=1)
        assert [s.length_scale for s in samples] == [0.2, 0.2, 0.25, 0.25, 0.3, 0.3]

    def test_reproducible_bytes(self, small_grid):
        a = generate_prior_dataset(small_grid, 0.5, 1.0, [0.2, 0.3], 4, base_seed=9)
        b = generate_prior_dataset(small_grid, 0.5, 1.0, [0.2, 0.3], 4, base_seed=9)
        assert dataset_to_array(a).tobytes() == dataset_to_array(b).tobytes()

    def test_desk_scale_mean_within_standard_error(self):
        grid = Grid(16, 16)
        samples = generate_prior_dataset(grid, 0.5, 1.0, [0.2, 0.25, 0.3], 200, base_seed=3)
        assert len(samples) == 600
        arr = dataset_to_array(samples)
        mean_field = arr.mean(axis=0)
        se = np.sqrt(0.5 / len(samples))
        # RMS deviation of the empirical mean from m = 1 within 3 pointwise SEs
        rms = np.sqrt(np.mean((mean_field - 1.0) ** 2))
        assert rms < 3 * se

    def test_file_roundtrip(self, tmp_path, small_grid):
        samples = generate_prior_dataset(small_grid, 0.5, 1.0, [0.2], 5, base_seed=11)
        fields = dataset_to_array(samples)
        path = tmp_path / "prior.bin"
        save_dataset(path, fields)
        loaded = load_dataset(path)
        assert loaded.shape == (5, small_grid.height, small_grid.width)
        assert loaded.tobytes() == fields.tobytes()
        # the manifest is the only record of each sample's seed and length scale
        save_manifest(tmp_path / "manifest.csv", samples)
        with open(tmp_path / "manifest.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["index"]) for r in rows] == list(range(5))
        assert [int(r["seed"]) for r in rows] == [s.seed for s in samples]
        assert [float(r["length_scale"]) for r in rows] == [s.length_scale for s in samples]

    # the container header at the end of its entry count, the entry's dims,
    # the payload's last bytes
    @pytest.mark.parametrize("cut", [12, 25, -5])
    def test_truncated_file_names_path(self, tmp_path, small_grid, cut):
        samples = generate_prior_dataset(small_grid, 0.5, 1.0, [0.2], 2, base_seed=11)
        path = tmp_path / "dataset.bin"
        save_dataset(path, dataset_to_array(samples))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=r"dataset\.bin: truncated"):
            load_dataset(path)

    @pytest.mark.parametrize("entries", [
        {"fields": np.zeros((2, 8))}, {"fields": np.zeros((2, 2, 8))},
        {"values": np.zeros((2, 8, 8))}, {"fields": np.zeros((2, 8, 8)), "grid": np.ones(2)},
        {}], ids=["2-D", "2-row-grid", "other-name", "extra-entry", "empty"])
    def test_container_without_one_fields_entry_names_path(self, tmp_path, entries):
        path = tmp_path / "dataset.bin"
        ParamStore(entries).save(path)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: expected one "
                                             r"\(N, H, W\) 'fields' entry"):
            load_dataset(path)

    def test_manifest(self, tmp_path):
        samples = [FieldSample(np.zeros((3, 3)), 0.2, 7), FieldSample(np.ones((3, 3)), 0.3, 8)]
        path = tmp_path / "manifest.csv"
        save_manifest(path, samples)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,length_scale,seed"
        assert lines[1].startswith("0,0.2,7")
