import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krflow.darcy import (
    DarcySolveError,
    ObservationOperator,
    ObservationSet,
    NoiseModel,
    PressureField,
    add_noise,
    boundary_flux_total,
    energy_terms,
    lattice_operator,
    load_observations_csv,
    log_likelihood,
    observation_matrix,
    observe,
    save_observations_csv,
    solve_darcy,
    _transmissibilities,
)
from krflow.grf import Grid


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
            assert np.abs(sol.values - quadratic_exact(grid)).max() < 1e-10

    def test_dirichlet_columns_exactly_zero(self):
        rng = np.random.default_rng(0)
        grid = Grid(10, 14)
        sol = solve_darcy(rng.standard_normal((10, 14)) * 0.5, grid)
        assert (sol.values[:, 0] == 0.0).all()
        assert (sol.values[:, -1] == 0.0).all()

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

            return solve_darcy(y, grid, source=src).values

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
        assert abs(boundary_flux_total(sol, y, grid)) < 1e-10

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
        assert boundary_flux_total(sol, y, grid) == pytest.approx(total_source, rel=1e-10)

    def test_monotone_dependence_on_permeability(self):
        rng = np.random.default_rng(4)
        grid = Grid(12, 12)
        for _ in range(3):
            y = rng.standard_normal((12, 12)) * 0.3
            lo = solve_darcy(y, grid, source=3.0).values.max()
            hi = solve_darcy(y + 1.0, grid, source=3.0).values.max()
            assert hi < lo

    def test_nonfinite_field_rejected(self):
        grid = Grid(8, 8)
        y = np.zeros((8, 8))
        y[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_darcy(y, grid)

    @pytest.mark.parametrize("grid", [Grid(3, 3), Grid(9, 9), Grid(12, 20), Grid(20, 12)],
                             ids=lambda g: f"{g.height}x{g.width}")
    def test_matches_dense_reference_solve(self, grid):
        rng = np.random.default_rng(grid.height * 100 + grid.width)
        y = rng.standard_normal((grid.height, grid.width))
        g_left, g_right = rng.standard_normal(grid.height), rng.standard_normal(grid.height)
        mat, rhs = dense_system(y, grid, 3.0, g_left, g_right)
        expected = np.linalg.solve(mat, rhs).reshape(grid.height, grid.width - 2)
        sol = solve_darcy(y, grid, source=3.0, dirichlet_left=g_left, dirichlet_right=g_right)
        inner = sol.values[:, 1:-1]
        assert np.abs(inner - expected).max() <= 1e-12 * np.abs(expected).max()
        np.testing.assert_array_equal(sol.values[:, 0], g_left)
        np.testing.assert_array_equal(sol.values[:, -1], g_right)

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
        unit = solve_darcy(np.zeros((8, 8)), grid).values
        sol = solve_darcy(np.full((8, 8), value), grid)
        np.testing.assert_allclose(sol.values, np.exp(-value) * unit, rtol=1e-12, atol=0)

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
        np.testing.assert_array_equal(scalar.values, full.values)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(height=st.integers(3, 12), width=st.integers(3, 12),
       amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_solution_satisfies_the_stencil(height, width, amplitude, seed):
    grid = Grid(height, width)
    rng = np.random.default_rng(seed)
    y = amplitude * rng.standard_normal((height, width))
    g_left, g_right = rng.standard_normal(height), rng.standard_normal(height)
    sol = solve_darcy(y, grid, source=3.0, dirichlet_left=g_left, dirichlet_right=g_right)
    assert (sol.values[:, 0] == g_left).all() and (sol.values[:, -1] == g_right).all()
    mat, rhs = dense_system(y, grid, 3.0, g_left, g_right)
    residual = np.linalg.norm(mat @ sol.values[:, 1:-1].ravel() - rhs)
    assert residual <= 1e-10 * np.linalg.norm(rhs)


def _energy_system(y, grid, source=3.0):
    weights, differences, load = energy_terms(y[None], grid, source)
    return (differences * weights[0]) @ differences.T, load


class TestEnergyTerms:
    @pytest.mark.parametrize("shape", [(3, 3), (9, 9), (12, 20), (20, 12)])
    def test_pieces_assemble_the_stencil_system(self, shape):
        grid = Grid(*shape)
        y = np.random.default_rng(sum(shape)).standard_normal(shape)
        mat, load = _energy_system(y, grid)
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

    def test_difference_matrix_built_once_and_read_only(self):
        grid = Grid(5, 6)
        ys = np.zeros((2, 5, 6))
        _, first, _ = energy_terms(ys, grid)
        _, second, _ = energy_terms(ys, grid)
        assert first is second
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_non_batch_rejected(self):
        with pytest.raises(ValueError, match=r"not a \(B, 4, 4\) batch"):
            energy_terms(np.zeros((4, 4)), Grid(4, 4))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(height=st.integers(3, 12), width=st.integers(3, 12),
       amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_solution_minimizes_the_energy(height, width, amplitude, seed):
    grid = Grid(height, width)
    rng = np.random.default_rng(seed)
    y = amplitude * rng.standard_normal((height, width))
    u = solve_darcy(y, grid, source=3.0).values[:, 1:-1].ravel()
    mat, load = _energy_system(y, grid)
    assert np.linalg.norm(mat @ u - load) <= 1e-10 * np.linalg.norm(load)

    def energy(v):
        return 0.5 * v @ mat @ v - load @ v

    for delta in rng.standard_normal((4, len(u))) * 1e-3 * np.abs(u).max():
        assert energy(u + delta) > energy(u)


class TestObserve:
    def test_node_location_returns_nodal_value(self):
        grid = Grid(5, 5)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((5, 5))
        field = PressureField(u, grid)
        op = ObservationOperator([[0.5, 0.25]])  # node (i=1, j=2)
        assert observe(field, op)[0] == pytest.approx(u[1, 2], rel=1e-14)

    def test_constant_field_reproduced(self):
        grid = Grid(6, 6)
        field = PressureField(np.full((6, 6), 2.5), grid)
        op = ObservationOperator([[0.13, 0.77], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(observe(field, op), 2.5)

    def test_cell_center_averages_four_corners(self):
        grid = Grid(4, 4)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((4, 4))
        field = PressureField(u, grid)
        # center of the cell spanned by nodes (0,0), (0,1), (1,0), (1,1)
        h = 1.0 / 3.0
        op = ObservationOperator([[h / 2, h / 2]])
        expected = 0.25 * (u[0, 0] + u[0, 1] + u[1, 0] + u[1, 1])
        assert observe(field, op)[0] == pytest.approx(expected, rel=1e-12)

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
        np.testing.assert_allclose(obs.noise.per_sensor_std, 0.1)

    def test_floor_applies_to_tiny_entries(self):
        op = ObservationOperator([[0.5, 0.5], [0.25, 0.25]])
        clean = np.array([2.0, 1e-9])
        obs = add_noise(clean, 0.05, np.random.default_rng(0), op)
        floor = 0.05 * np.abs(clean).mean() * 0.1
        assert obs.noise.per_sensor_std[1] == pytest.approx(floor)

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
        noise = NoiseModel(level=0.05, per_sensor_std=np.asarray(sigma, float),
                           floor=float(np.min(sigma)))
        return ObservationSet(operator=op, values=np.asarray(values, float), noise=noise)

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
    loaded = load_observations_csv(path, level=0.05)
    np.testing.assert_array_equal(loaded.values, obs.values)
    np.testing.assert_array_equal(loaded.noise.per_sensor_std, obs.noise.per_sensor_std)
    np.testing.assert_array_equal(loaded.operator.locations, obs.operator.locations)


@pytest.mark.parametrize("text,message", [
    ("s1,s2,value,sigma\n0.1,0.2,0.3,0.4\n0.5,0.6\n", "line 3 has 2 fields, expected 4"),
    ("s1,s2,value,sigma\n0.1,0.2,0.3,0.4,0.5\n", "line 2 has 5 fields, expected 4"),
    ("s1,s2,value,sigma\n0.1,0.2,0.3,1e\n", "line 2: could not convert"),
    ("s1,s2,val", "expected the header s1,s2,value,sigma"),
    ("s1,s2,value,sigma\n", "no data rows"),
])
def test_malformed_observations_csv_names_file(tmp_path, text, message):
    path = tmp_path / "observations.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"observations\.csv: {message}"):
        load_observations_csv(path, level=0.05)
