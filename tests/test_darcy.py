import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbsv

from krflow import autodiff as ad
from krflow import darcy, grf
from krflow.darcy import (
    DarcySolveError,
    ObservationOperator,
    ObservationSet,
    add_noise,
    energy,
    lattice_operator,
    load_observations_csv,
    log_likelihood,
    observation_matrix,
    observe,
    save_observations_csv,
    solve_darcy,
    _stencil,
    _transmissibilities,
)
from krflow.grf import Grid


def boundary_flux(u: np.ndarray, y: np.ndarray, grid: Grid) -> float:
    """Net discrete flux of the (H, W) pressure u leaving through the Dirichlet columns.

    Neumann faces carry no flux, so in steady state this equals the total
    source integral.
    """
    t_h = _transmissibilities(y, grid)[0]
    return float(t_h[:, 0] @ (u[:, 1] - u[:, 0]) + t_h[:, -1] @ (u[:, -2] - u[:, -1]))


def quadratic_exact(grid: Grid) -> np.ndarray:
    s1 = np.linspace(0.0, 1.0, grid.width)
    return np.tile(1.5 * s1 * (1.0 - s1), (grid.height, 1))


def dense_system(y, grid, source, g_left, g_right):
    """The FV system by the stencil definition: a dense matrix, one row per
    unknown node (interior columns), one term per face of its control volume."""
    t_h, t_v, heights = _transmissibilities(y, grid)
    h_rows, w_cols = grid.height, grid.width
    unknowns = [(i, j) for i in range(h_rows) for j in range(1, w_cols - 1)]
    index = {node: k for k, node in enumerate(unknowns)}
    mat = np.zeros((len(unknowns), len(unknowns)))
    rhs = np.zeros(len(unknowns))
    for (i, j), k in index.items():
        rhs[k] = source * heights[i] * grid.spacing_1
        faces = [((i, j - 1), t_h[i, j - 1]), ((i, j + 1), t_h[i, j])]
        if i > 0:
            faces.append(((i - 1, j), t_v[i - 1, j]))
        if i < h_rows - 1:
            faces.append(((i + 1, j), t_v[i, j]))
        for (ni, nj), t in faces:
            mat[k, k] += t
            if (ni, nj) in index:
                mat[k, index[ni, nj]] -= t
            else:   # a Dirichlet node
                rhs[k] += t * (g_left if nj == 0 else g_right)[ni]
    return mat, rhs


class TestSolver:
    def test_constant_coefficient_quadratic_exact(self):
        # y = 0, h = 3  =>  u = 1.5 s1 (1 - s1), exactly representable by the stencil
        for grid in (Grid(9, 9), Grid(16, 16), Grid(12, 20)):
            sol = solve_darcy(np.zeros((grid.height, grid.width)), grid, source=3.0)
            assert np.abs(sol - quadratic_exact(grid)).max() < 1e-10

    def test_dirichlet_columns_exactly_zero(self):
        rng = np.random.default_rng(0)
        grid = Grid(10, 14)
        sol = solve_darcy(rng.standard_normal((10, 14)) * 0.5, grid)
        assert (sol[:, 0] == 0.0).all()
        assert (sol[:, -1] == 0.0).all()

    def test_grid_refinement_self_consistency(self):
        # the same smooth field sampled on 16x16 and 32x32 grids must give
        # observations agreeing within 2%
        def smooth_y(g1, g2):
            return 0.6 * np.sin(2 * np.pi * g1) * np.cos(np.pi * g2) + 0.3 * g1 * g2

        op = lattice_operator(3, 3, 0.25, 0.25)
        obs = {}
        for n in (16, 32):
            grid = Grid(n, n)
            g1, g2 = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
            sol = solve_darcy(smooth_y(g1, g2), grid, source=3.0)
            obs[n] = observe(sol, op)
        rel = np.abs(obs[16] - obs[32]) / np.abs(obs[32]).max()
        assert rel.max() < 0.02

    def test_system_matrix_symmetric(self):
        # assemble twice with transposed roles by probing matvec symmetry:
        # u fields from delta sources satisfy reciprocity for an SPD matrix
        grid = Grid(8, 8)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((8, 8)) * 0.7

        def solve_with_delta(i, j):
            h = np.zeros((8, 8))
            h[i, j] = 1.0

            def src(g1, g2):
                return h

            return solve_darcy(y, grid, source=src)

        ua = solve_with_delta(3, 3)
        ub = solve_with_delta(5, 4)
        # reciprocity normalized by control-volume areas (half cells on Neumann rows)
        assert ua[5, 4] == pytest.approx(ub[3, 3], rel=1e-9)

    def test_conservation_zero_source_dirichlet_data(self):
        rng = np.random.default_rng(2)
        grid = Grid(12, 12)
        y = rng.standard_normal((12, 12)) * 0.5
        sol = solve_darcy(y, grid, source=0.0,
                          dirichlet_left=rng.standard_normal(12),
                          dirichlet_right=rng.standard_normal(12))
        assert abs(boundary_flux(sol, y, grid)) < 1e-10

    def test_conservation_with_source(self):
        rng = np.random.default_rng(3)
        grid = Grid(10, 10)
        y = rng.standard_normal((10, 10)) * 0.5
        sol = solve_darcy(y, grid, source=3.0)
        # total outflux equals the integral of the source over the domain;
        # control volumes tile [0,1] x [0,1] up to the Dirichlet half-columns
        d1, d2 = grid.spacing_1, grid.spacing_2
        heights = np.full(grid.height, d2)
        heights[0] = heights[-1] = d2 / 2
        total_source = 3.0 * heights.sum() * d1 * (grid.width - 2)
        assert boundary_flux(sol, y, grid) == pytest.approx(total_source, rel=1e-10)

    def test_monotone_dependence_on_permeability(self):
        rng = np.random.default_rng(4)
        grid = Grid(12, 12)
        for _ in range(3):
            y = rng.standard_normal((12, 12)) * 0.3
            lo = solve_darcy(y, grid, source=3.0).max()
            hi = solve_darcy(y + 1.0, grid, source=3.0).max()
            assert hi < lo

    def test_nonfinite_field_rejected(self):
        grid = Grid(8, 8)
        y = np.zeros((8, 8))
        y[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_darcy(y, grid)

    # the band has m = W - 2 subdiagonals: 3x3 only the column coupling at
    # k = m = 1, the others 7 to 62 and 68 on 3x70; LAPACK's banded Cholesky
    # factors column by column up to m = 64 and in blocks of 32 above
    @pytest.mark.parametrize("grid", [Grid(3, 3), Grid(9, 9), Grid(12, 20), Grid(20, 12),
                                      Grid(5, 10), Grid(5, 13), Grid(5, 16), Grid(4, 17),
                                      Grid(6, 32), Grid(3, 64), Grid(5, 9), Grid(33, 33),
                                      Grid(24, 40), Grid(3, 70)],
                             ids=lambda g: f"{g.height}x{g.width}")
    def test_matches_dense_reference_solve(self, grid):
        rng = np.random.default_rng(grid.height * 100 + grid.width)
        y = rng.standard_normal((grid.height, grid.width))
        g_left, g_right = rng.standard_normal(grid.height), rng.standard_normal(grid.height)
        mat, rhs = dense_system(y, grid, 3.0, g_left, g_right)
        expected = np.linalg.solve(mat, rhs).reshape(grid.height, grid.width - 2)
        sol = solve_darcy(y, grid, source=3.0, dirichlet_left=g_left, dirichlet_right=g_right)
        inner = sol[:, 1:-1]
        assert np.abs(inner - expected).max() <= 1e-12 * np.abs(expected).max()
        np.testing.assert_array_equal(sol[:, 0], g_left)
        np.testing.assert_array_equal(sol[:, -1], g_right)

    def test_cholesky_failure_raises(self, monkeypatch):
        # info = k > 0 means the leading minor of order k is not positive
        # definite; the solve refuses even a solution whose residual is small
        def not_positive_definite(ab, b, **kwargs):
            return (*dpbsv(ab, b, **kwargs)[:2], 3)

        monkeypatch.setattr(darcy, "dpbsv", not_positive_definite)
        with pytest.raises(DarcySolveError, match=r"^banded Cholesky failed: LAPACK dpbsv "
                                                  r"info = 3, the leading minor of order 3 "
                                                  r"is not positive definite$"):
            solve_darcy(np.zeros((8, 8)), Grid(8, 8))

    def test_cholesky_argument_error_raises(self, monkeypatch):
        # info = -k < 0 means LAPACK rejected its k-th argument
        monkeypatch.setattr(darcy, "dpbsv", lambda ab, b, **kwargs: (ab, b, -4))
        with pytest.raises(DarcySolveError, match=r"info = -4, argument 4 is illegal$"):
            solve_darcy(np.zeros((8, 8)), Grid(8, 8))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value,where", [(800.0, "all"), (-800.0, "all"),
                                             (800.0, "node"), (-800.0, "node")])
    def test_overflowing_or_underflowing_permeability_raises(self, value, where):
        # exp(800) is inf and exp(-800) is 0; the check names the cause and
        # the range of y before assembly, without numpy warnings
        grid = Grid(8, 8)
        y = np.full((8, 8), value) if where == "all" else np.zeros((8, 8))
        y[3, 4] = value
        y_range = re.escape(f"[{y.min():.3e}, {y.max():.3e}]")
        with pytest.raises(DarcySolveError,
                           match=r"^permeability exp\(y\) is out of range: "
                                 rf"log-permeability y ranges over {y_range}"):
            solve_darcy(y, grid)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [400.0, 709.0, -355.0, -370.0, -400.0])
    def test_overflowing_harmonic_mean_raises(self, value):
        # exp(y) is finite and positive, but the harmonic mean's product
        # 2 exp(y) exp(y) overflows, or is subnormal or 0
        y = np.full((8, 8), value)
        with pytest.raises(DarcySolveError, match=r"overflow above about 354\.5 and "
                                                  r"underflow below about -354\.5$"):
            solve_darcy(y, Grid(8, 8))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [350.0, -350.0])
    def test_extreme_permeability_inside_the_range_solves(self, value):
        # a uniform permeability exp(y) scales the pressure by exp(-y)
        grid = Grid(8, 8)
        unit = solve_darcy(np.zeros((8, 8)), grid)
        sol = solve_darcy(np.full((8, 8), value), grid)
        np.testing.assert_allclose(sol, np.exp(-value) * unit, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("side", ["dirichlet_left", "dirichlet_right"])
    def test_dirichlet_data_of_wrong_length_rejected(self, side):
        grid = Grid(8, 8)
        with pytest.raises(ValueError, match=rf"{side} has shape \(5,\), expected \(8,\)"
                                             r".*grid\.height = 8"):
            solve_darcy(np.zeros((8, 8)), grid, **{side: np.zeros(5)})

    def test_scalar_dirichlet_data_broadcast(self):
        grid = Grid(6, 7)
        y = np.random.default_rng(9).standard_normal((6, 7)) * 0.5
        scalar = solve_darcy(y, grid, dirichlet_left=1.5, dirichlet_right=-0.5)
        full = solve_darcy(y, grid, dirichlet_left=np.full(6, 1.5),
                           dirichlet_right=np.full(6, -0.5))
        np.testing.assert_array_equal(scalar, full)


def run_fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this krflow."""
    src = str(Path(darcy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return done.stdout.strip()


class TestLapackLoad:
    def test_missing_wrapper_names_directory_and_scipy_version(self, tmp_path):
        with pytest.raises(ImportError, match=f"no scipy.linalg._flapack extension in "
                                              f"{re.escape(str(tmp_path))} "
                                              rf"\(scipy {re.escape(scipy.__version__)}\)$"):
            grf._load_flapack(str(tmp_path))

    def test_import_leaves_scipy_linalg_unimported(self):
        # this process imported scipy.linalg already, so only a new one can tell
        assert run_fresh_python("import sys, krflow.cli; "
                                "print('scipy.linalg' in sys.modules)") == "False"

    @pytest.mark.parametrize("first,second", [("krflow.darcy", "scipy.linalg.lapack"),
                                              ("scipy.linalg.lapack", "krflow.darcy")])
    def test_dpbsv_is_scipy_lapack_dpbsv(self, first, second):
        # one wrapper module serves both: grf's dsyevd is scipy's too
        assert run_fresh_python(f"import {first}, {second}; "
                                "print(krflow.darcy.dpbsv is scipy.linalg.lapack.dpbsv, "
                                "krflow.grf.dsyevd is scipy.linalg.lapack.dsyevd)") == "True True"


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(height=st.integers(3, 12), width=st.integers(3, 18),
       amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_solution_satisfies_the_stencil(height, width, amplitude, seed):
    grid = Grid(height, width)
    rng = np.random.default_rng(seed)
    y = amplitude * rng.standard_normal((height, width))
    g_left, g_right = rng.standard_normal(height), rng.standard_normal(height)
    sol = solve_darcy(y, grid, source=3.0, dirichlet_left=g_left, dirichlet_right=g_right)
    assert (sol[:, 0] == g_left).all() and (sol[:, -1] == g_right).all()
    mat, rhs = dense_system(y, grid, 3.0, g_left, g_right)
    residual = np.linalg.norm(mat @ sol[:, 1:-1].ravel() - rhs)
    assert residual <= 1e-10 * np.linalg.norm(rhs)


def _solution_and_load(source):
    """solve_darcy's pressure and the load that the energy reads on one 8x8 field."""
    y = np.random.default_rng(12).standard_normal((8, 8))
    return solve_darcy(y, Grid(8, 8), source=source), _stencil(y[None], Grid(8, 8), source)[3]


class TestSource:
    def test_constant_callable_matches_the_float_bitwise(self):
        for got, want in zip(_solution_and_load(lambda s1, s2: 3.0), _solution_and_load(3.0)):
            assert got.tobytes() == want.tobytes()

    def test_callable_value_broadcast_across_rows(self):
        s1 = np.linspace(0.0, 1.0, 8)
        for got, want in zip(_solution_and_load(lambda g1, g2: 1.0 + s1),
                             _solution_and_load(lambda g1, g2: 1.0 + g1)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("call", [lambda y, source: solve_darcy(y, Grid(8, 8), source=source),
                                      lambda y, source: energy(np.zeros((1, 48)), y[None],
                                                               Grid(8, 8), source)],
                             ids=["solve_darcy", "energy"])
    @pytest.mark.parametrize("source,shape", [(lambda s1, s2: np.ones((2, 6)), r"\(2, 6\)"),
                                              (np.ones((8, 8)), r"\(8, 8\)")],
                             ids=["callable", "array"])
    def test_misshapen_source_rejected(self, call, source, shape):
        with pytest.raises(ValueError, match=rf"^source gave shape {shape}; expected a number "
                                             r"or a callable h\(s1, s2\) whose value "
                                             r"broadcasts to \(8, 8\)$"):
            call(np.zeros((8, 8)), source)


def _energy_and_gradient(u, ys, grid, weights):
    """darcy.energy's (B,) values on ``u`` and the tape gradient of their
    ``weights``-weighted sum."""
    _, grads = ad.evaluate_with_gradients(
        lambda leaves: ad.sum_(ad.mul(energy(leaves["u"], ys, grid), weights)), {"u": u})
    return energy(u, ys, grid), grads["u"]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(height=st.integers(3, 12), width=st.integers(3, 18), batch=st.integers(1, 3),
       amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_energy_and_gradient_match_the_dense_system(height, width, batch, amplitude, seed):
    # rounding is relative to the terms summed, |M| |u| + |b|, not to the result
    grid = Grid(height, width)
    rng = np.random.default_rng(seed)
    ys = amplitude * rng.standard_normal((batch, height, width))
    u = rng.standard_normal((batch, height * (width - 2)))
    weights = rng.uniform(0.5, 2.0, batch)
    values, grad = _energy_and_gradient(u, ys, grid, weights)
    zeros = np.zeros(height)
    for k, y in enumerate(ys):
        mat, rhs = dense_system(y, grid, 3.0, zeros, zeros)
        want_value = 0.5 * u[k] @ mat @ u[k] - rhs @ u[k]
        want_grad = weights[k] * (mat @ u[k] - rhs)
        scale = np.abs(mat) @ np.abs(u[k]) + np.abs(rhs)
        assert abs(values[k] - want_value) <= 1e-12 * np.abs(u[k]) @ scale
        assert np.abs(grad[k] - want_grad).max() <= 1e-12 * weights[k] * scale.max()


class TestEnergyTerms:
    @pytest.mark.parametrize("shape", [(3, 3), (9, 9), (12, 20), (20, 12)])
    def test_pieces_assemble_the_stencil_system(self, shape):
        # the energy is 0.5 u^T M u - b^T u, so its gradient is -b at u = 0 and
        # M e_k - b at the k-th unit vector: one batch row per probe
        grid = Grid(*shape)
        y = np.random.default_rng(sum(shape)).standard_normal(shape)
        n = grid.height * (grid.width - 2)
        probes = np.vstack([np.zeros(n), np.eye(n)])
        _, grad = _energy_and_gradient(probes, np.broadcast_to(y, (n + 1, *shape)), grid,
                                       np.ones(n + 1))
        mat, load = grad[1:] - grad[0], -grad[0]
        zeros = np.zeros(grid.height)
        ref_mat, ref_rhs = dense_system(y, grid, 3.0, zeros, zeros)
        np.testing.assert_allclose(mat, ref_mat, rtol=1e-14, atol=1e-14 * np.abs(ref_mat).max())
        np.testing.assert_allclose(load, ref_rhs, rtol=1e-15)

    def test_batched_transmissibilities_equal_single_calls_bitwise(self):
        grid = Grid(6, 9)
        ys = np.random.default_rng(4).standard_normal((3, 6, 9)) * 1.5
        t_h, t_v, heights = _transmissibilities(ys, grid)
        for k, y in enumerate(ys):
            s_h, s_v, s_heights = _transmissibilities(y, grid)
            assert t_h[k].tobytes() == s_h.tobytes() and t_v[k].tobytes() == s_v.tobytes()
            assert heights.tobytes() == s_heights.tobytes()

    def test_non_batch_rejected(self):
        with pytest.raises(ValueError, match=r"not a \(B, 4, 4\) batch"):
            energy(np.zeros((1, 8)), np.zeros((4, 4)), Grid(4, 4))

    @pytest.mark.parametrize("shape", [(2, 12), (3, 8), (16,)])
    def test_unknowns_of_wrong_shape_rejected(self, shape):
        pattern = re.escape(f"unknowns of shape {shape} do not fit fields (2, 4, 4)")
        with pytest.raises(ValueError, match=pattern):
            energy(np.zeros(shape), np.zeros((2, 4, 4)), Grid(4, 4))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(height=st.integers(3, 12), width=st.integers(3, 12),
       amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_solution_minimizes_the_energy(height, width, amplitude, seed):
    grid = Grid(height, width)
    rng = np.random.default_rng(seed)
    y = amplitude * rng.standard_normal((1, height, width))
    u = solve_darcy(y[0], grid, source=3.0)[:, 1:-1].reshape(1, -1)
    best, grad = _energy_and_gradient(u, y, grid, np.ones(1))
    load = _stencil(y, grid, 3.0)[3]
    assert np.linalg.norm(grad) <= 1e-10 * np.linalg.norm(load)
    for delta in rng.standard_normal((4, u.size)) * 1e-3 * np.abs(u).max():
        assert energy(u + delta, y, grid)[0] > best[0]


class TestObserve:
    def test_node_location_returns_nodal_value(self):
        u = np.random.default_rng(5).standard_normal((5, 5))
        op = ObservationOperator([[0.5, 0.25]])  # node (i=1, j=2)
        assert observe(u, op)[0] == pytest.approx(u[1, 2], rel=1e-14)

    def test_node_of_a_non_square_grid_returns_nodal_value(self):
        # H = 5 rows at spacing 1/4 along s2, W = 9 columns at spacing 1/8 along s1
        u = np.random.default_rng(12).standard_normal((5, 9))
        op = ObservationOperator([[0.375, 0.75], [0.875, 0.25], [0.125, 0.0]])
        np.testing.assert_allclose(observe(u, op), [u[3, 3], u[1, 7], u[0, 1]], rtol=1e-14)

    def test_constant_field_reproduced(self):
        op = ObservationOperator([[0.13, 0.77], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(observe(np.full((6, 6), 2.5), op), 2.5)

    def test_cell_center_averages_four_corners(self):
        u = np.random.default_rng(6).standard_normal((4, 4))
        # center of the cell spanned by nodes (0,0), (0,1), (1,0), (1,1)
        h = 1.0 / 3.0
        op = ObservationOperator([[h / 2, h / 2]])
        expected = 0.25 * (u[0, 0] + u[0, 1] + u[1, 0] + u[1, 1])
        assert observe(u, op)[0] == pytest.approx(expected, rel=1e-12)

    def test_observation_matrix_rows_sum_to_one(self):
        grid = Grid(7, 9)
        op = lattice_operator(4, 4, 0.1, 0.2)
        mat = observation_matrix(op, grid)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_observation_matrix_built_once_and_read_only(self):
        grid = Grid(7, 9)
        mat = observation_matrix(lattice_operator(4, 4, 0.1, 0.2), grid)
        assert observation_matrix(lattice_operator(4, 4, 0.1, 0.2), grid) is mat
        assert not mat.flags.writeable
        other = observation_matrix(lattice_operator(4, 4, 0.1, 0.2), Grid(9, 7))
        assert other is not mat and other.shape == mat.shape

    def test_out_of_square_location_rejected(self):
        with pytest.raises(ValueError, match="unit square"):
            ObservationOperator([[1.2, 0.5]])


class TestNoise:
    def test_sigma_definition(self):
        op = ObservationOperator([[0.5, 0.5], [0.25, 0.25]])
        obs = add_noise(np.array([2.0, 2.0]), 0.05, np.random.default_rng(0), op)
        np.testing.assert_allclose(obs.sigma, 0.1)

    def test_floor_applies_to_tiny_entries(self):
        op = ObservationOperator([[0.5, 0.5], [0.25, 0.25]])
        clean = np.array([2.0, 1e-9])
        obs = add_noise(clean, 0.05, np.random.default_rng(0), op)
        floor = 0.05 * np.abs(clean).mean() * 0.1
        assert obs.sigma[1] == pytest.approx(floor)

    def test_deterministic_given_seed(self):
        op = lattice_operator(2, 2, 0.2, 0.3)
        clean = np.array([1.0, 2.0, 3.0, 4.0])
        a = add_noise(clean, 0.05, np.random.default_rng(7), op)
        b = add_noise(clean, 0.05, np.random.default_rng(7), op)
        np.testing.assert_array_equal(a.values, b.values)

    def test_empirical_std_matches_sigma(self):
        op = ObservationOperator([[0.5, 0.5], [0.25, 0.25], [0.75, 0.75]])
        clean = np.array([1.0, -2.0, 0.5])
        rng = np.random.default_rng(8)
        draws = np.stack([add_noise(clean, 0.05, rng, op).values - clean
                          for _ in range(10000)])
        sigma = 0.05 * np.abs(clean)
        rel = np.abs(draws.std(axis=0) - sigma) / sigma
        assert rel.max() < 0.03

    def test_zero_observations_rejected(self):
        op = ObservationOperator([[0.5, 0.5]])
        with pytest.raises(ValueError, match="all-zero"):
            add_noise(np.zeros(1), 0.05, np.random.default_rng(0), op)


class TestLogLikelihood:
    def _obs(self, values, sigma):
        m = len(values)
        op = ObservationOperator(np.column_stack([np.linspace(0.1, 0.9, m)] * 2))
        return ObservationSet(operator=op, values=values, sigma=sigma)

    def test_zero_residual_unit_sigma(self):
        values = np.array([0.3, -1.2, 0.9])
        obs = self._obs(values, np.ones(3))
        assert log_likelihood(obs, values) == pytest.approx(-1.5 * np.log(2 * np.pi))

    def test_single_sensor_unit_residual(self):
        obs = self._obs([1.0], [1.0])
        expected = -0.5 - 0.5 * np.log(2 * np.pi)
        assert log_likelihood(obs, np.array([0.0])) == pytest.approx(expected)
        assert log_likelihood(obs, np.array([0.0])) == pytest.approx(-1.4189385, abs=1e-7)

    def test_doubling_sigma_shifts_by_m_log2(self):
        values = np.array([0.4, 0.6, -0.1, 2.0])
        lo = log_likelihood(self._obs(values, np.ones(4)), values)
        hi = log_likelihood(self._obs(values, 2 * np.ones(4)), values)
        assert lo - hi == pytest.approx(4 * np.log(2.0))

    def test_length_mismatch_rejected(self):
        obs = self._obs([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            log_likelihood(obs, np.zeros(3))


def test_observations_csv_roundtrip(tmp_path):
    op = lattice_operator(2, 3, 0.1, 0.2)
    clean = np.linspace(0.5, 2.5, 6)
    obs = add_noise(clean, 0.05, np.random.default_rng(11), op)
    path = tmp_path / "obs.csv"
    save_observations_csv(path, obs)
    loaded = load_observations_csv(path)
    np.testing.assert_array_equal(loaded.values, obs.values)
    np.testing.assert_array_equal(loaded.sigma, obs.sigma)
    np.testing.assert_array_equal(loaded.operator.locations, obs.operator.locations)


@pytest.mark.parametrize("text,message", [
    ("s1,s2,value,sigma\n0.1,0.2,0.3,0.4\n0.5,0.6\n", "line 3 has 2 fields, expected 4"),
    ("s1,s2,value,sigma\n0.1,0.2,0.3,0.4,0.5\n", "line 2 has 5 fields, expected 4"),
    ("s1,s2,value,sigma\n0.1,0.2,0.3,1e\n", "line 2: could not convert"),
    ("s1,s2,val", "expected the header s1,s2,value,sigma"),
    ("s1,s2,value,sigma\n", "no data rows"),
    ("s1,s2,value,sigma\n0.1,0.2,nan,0.4\n", "line 2: non-finite value 'nan'"),
    ("s1,s2,value,sigma\n0.1,0.2,0.3,0.4\n0.5,0.6,0.7,inf\n", "line 3: non-finite value 'inf'"),
    ("s1,s2,value,sigma\n0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0\n",
     "noise standard deviations must be positive"),
    ("s1,s2,value,sigma\n1.5,0.2,0.3,0.4\n", "sensor locations must lie in the closed"),
])
def test_malformed_observations_csv_names_file(tmp_path, text, message):
    path = tmp_path / "observations.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"observations\.csv: {message}"):
        load_observations_csv(path)
