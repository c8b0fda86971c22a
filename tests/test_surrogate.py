import numpy as np
import pytest

from krflow import autodiff as ad
from krflow.config import SurrogateSection
from krflow.grf import Grid, dataset_to_array, generate_prior_dataset
from krflow.surrogate import (
    ResidualBreakdown,
    init_surrogate,
    load_surrogate,
    physics_loss,
    physics_residual_terms,
    save_surrogate,
    spatial_gradient,
    surrogate_forward,
    surrogate_forward_batch,
    surrogate_relative_error,
    train_surrogate,
)

H = W = 8


def coords(h=H, w=W):
    s1 = np.linspace(0.0, 1.0, w)
    s2 = np.linspace(0.0, 1.0, h)
    return np.meshgrid(s1, s2)


class TestSpatialGradient:
    def test_constant_field_zero(self):
        d1, d2 = spatial_gradient(np.full((H, W), 4.2))
        np.testing.assert_allclose(d1, 0.0, atol=1e-13)
        np.testing.assert_allclose(d2, 0.0, atol=1e-13)

    def test_ramp_slope_exact(self):
        g1, _ = coords()
        d1, d2 = spatial_gradient(3.0 * g1)
        np.testing.assert_allclose(d1[1:-1, 1:-1], 3.0, atol=1e-12)
        np.testing.assert_allclose(d2[1:-1, 1:-1], 0.0, atol=1e-12)

    def test_linear_combination(self):
        g1, g2 = coords()
        d1, d2 = spatial_gradient(g1 + 2.0 * g2)
        np.testing.assert_allclose(d1[1:-1, 1:-1], 1.0, atol=1e-12)
        np.testing.assert_allclose(d2[1:-1, 1:-1], 2.0, atol=1e-12)

    def test_rectangular_grid_normalization(self):
        h, w = 6, 12
        s1 = np.linspace(0, 1, w)
        s2 = np.linspace(0, 1, h)
        g1, g2 = np.meshgrid(s1, s2)
        d1, d2 = spatial_gradient(5.0 * g1 - 2.0 * g2)
        np.testing.assert_allclose(d1[1:-1, 1:-1], 5.0, atol=1e-12)
        np.testing.assert_allclose(d2[1:-1, 1:-1], -2.0, atol=1e-12)


class TestForward:
    def test_deterministic_and_shapes(self):
        sp = init_surrogate(H, W, seed=0, hidden=(32,))
        y = np.random.default_rng(1).standard_normal((H, W))
        u1, t1a, t2a = surrogate_forward(y, sp)
        u2, t1b, t2b = surrogate_forward(y, sp)
        assert u1.shape == (H, W) and t1a.shape == (H, W) and t2a.shape == (H, W)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(t1a, t1b)
        np.testing.assert_array_equal(t2a, t2b)

    def test_parameter_gradient_matches_finite_differences(self):
        sp = init_surrogate(4, 4, seed=2, hidden=(10,), structured=False)
        # jitter every parameter so no relu pre-activation sits on its kink
        rng = np.random.default_rng(3)
        for name in sp.store:
            sp.store[name] = sp.store[name] + 0.01 * rng.standard_normal(sp.store[name].shape)
        y = rng.standard_normal((2, 4, 4))
        flat = y.reshape(2, -1)
        w = rng.standard_normal((2, 4, 4))

        def program(leaves):
            u, tau1, tau2 = surrogate_forward_batch(flat, leaves, sp)
            return ad.add(ad.add(ad.sum_(ad.mul(u, w)), ad.sum_(tau1)), ad.mean_(tau2))

        _, grads = ad.evaluate_with_gradients(program, sp.store)
        h = 1e-5
        for name in sp.store:
            arr = sp.store[name].ravel()
            for k in rng.choice(arr.size, size=min(4, arr.size), replace=False):
                orig = arr[k]
                arr[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, sp.store)
                arr[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, sp.store)
                arr[k] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[name].ravel()[k]), 1e-6)
                assert abs(grads[name].ravel()[k] - fd) / scale < 1e-5


class TestPhysicsLoss:
    def test_manufactured_solution_near_zero(self):
        # u = 1.5 s1 (1 - s1), tau1 = 3 s1 - 1.5, tau2 = 0, y = 0: interior
        # residuals vanish to stencil exactness
        g1, _ = coords()
        u = 1.5 * g1 * (1.0 - g1)
        tau1 = 3.0 * g1 - 1.5
        tau2 = np.zeros_like(u)
        y = np.zeros_like(u)
        fd, fc, di, ne = physics_residual_terms(
            y[None], u[None], tau1[None], tau2[None], source=3.0)
        assert float(fd) < 1e-8
        assert float(fc) < 1e-8
        assert float(di) < 1e-20
        assert float(ne) < 1e-8

    def test_zero_fields_constant_source(self):
        y = np.zeros((1, H, W))
        z = np.zeros((1, H, W))
        fd, fc, di, ne = physics_residual_terms(y, z, z, z, source=3.0)
        interior_fraction = (H - 2) * (W - 2) / (H * W)
        assert float(fd) == pytest.approx(9.0 * interior_fraction, rel=1e-12)
        assert float(fc) == 0.0 and float(di) == 0.0 and float(ne) == 0.0

    def test_beta_scaling_linear(self):
        sp = init_surrogate(H, W, seed=4, hidden=(16,))
        batch = np.random.default_rng(5).standard_normal((3, H, W)) * 0.3
        loss1, bd1 = physics_loss(batch, sp, beta=50.0)
        loss2, bd2 = physics_loss(batch, sp, beta=100.0)
        boundary = bd1.dirichlet + bd1.neumann
        assert loss2 - loss1 == pytest.approx(50.0 * boundary, rel=1e-10)
        assert bd2.dirichlet == bd1.dirichlet and bd2.neumann == bd1.neumann

    def test_breakdown_additive(self):
        sp = init_surrogate(H, W, seed=6, hidden=(16,))
        batch = np.random.default_rng(7).standard_normal((2, H, W)) * 0.3
        loss, bd = physics_loss(batch, sp, beta=100.0)
        assert loss == pytest.approx(
            bd.interior_flux_div + bd.flux_consistency
            + bd.beta * (bd.dirichlet + bd.neumann), abs=1e-12)

    def test_loss_gradient_matches_finite_differences(self):
        sp = init_surrogate(4, 4, seed=8, hidden=(8,), structured=False)
        rng = np.random.default_rng(9)
        for name in sp.store:
            sp.store[name] = sp.store[name] + 0.01 * rng.standard_normal(sp.store[name].shape)
        batch = rng.standard_normal((2, 4, 4)) * 0.4
        flat = batch.reshape(2, -1)

        def program(leaves):
            u, t1, t2 = surrogate_forward_batch(flat, leaves, sp)
            fd, fc, di, ne = physics_residual_terms(batch, u, t1, t2, 3.0)
            return ad.add(ad.add(fd, fc), ad.mul(ad.add(di, ne), 100.0))

        _, grads = ad.evaluate_with_gradients(program, sp.store)
        h = 1e-5
        worst = 0.0
        for name in sp.store:
            arr = sp.store[name].ravel()
            for k in rng.choice(arr.size, size=min(4, arr.size), replace=False):
                orig = arr[k]
                arr[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, sp.store)
                arr[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, sp.store)
                arr[k] = orig
                fd_val = (up - down) / (2 * h)
                scale = max(abs(fd_val), abs(grads[name].ravel()[k]), 1e-6)
                worst = max(worst, abs(grads[name].ravel()[k] - fd_val) / scale)
        assert worst < 1e-5


class TestTraining:
    def _dataset(self, n=120):
        grid = Grid(H, W)
        return dataset_to_array(generate_prior_dataset(
            grid, 0.5, 1.0, [0.25, 0.35], n // 2, base_seed=41))

    def test_zero_epochs_returns_initialization(self):
        config = SurrogateSection(hidden=(16,), epochs=0, batch_size=32,
                                  learning_rate=1e-3, beta=100.0, source=3.0)
        sp = train_surrogate(self._dataset(), config, seed=3)
        fresh = init_surrogate(H, W, seed=3, hidden=(16,))
        assert sp.store == fresh.store

    def test_loss_drops_by_factor_ten(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        config = SurrogateSection(hidden=(96,), epochs=60, batch_size=40,
                                  learning_rate=1e-3, beta=100.0, source=3.0)
        train_surrogate(self._dataset(), config, seed=3, curve_path=curve_path)
        rows = curve_path.read_text().strip().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert losses[-1] < 0.1 * losses[0]

    def test_determinism(self):
        config = SurrogateSection(hidden=(24,), epochs=4, batch_size=40,
                                  learning_rate=1e-3, beta=100.0, source=3.0)
        a = train_surrogate(self._dataset(60), config, seed=11)
        b = train_surrogate(self._dataset(60), config, seed=11)
        for k in a.store:
            assert a.store[k].tobytes() == b.store[k].tobytes()


class TestRelativeError:
    def test_perfect_prediction_zero(self):
        sp = init_surrogate(H, W, seed=0, hidden=(8,), structured=False)
        grid = Grid(H, W)
        y = np.zeros((1, H, W))
        # plant the network to output the exact solution via the last bias
        from krflow.darcy import solve_darcy
        u = solve_darcy(y[0], grid, source=3.0).values
        last = len(sp.hidden)
        sp.store[f"W{last}"] = np.zeros_like(sp.store[f"W{last}"])
        bias = np.zeros(3 * H * W)
        bias[:H * W] = u.ravel()
        sp.store[f"b{last}"] = bias
        assert surrogate_relative_error(sp, y) == pytest.approx(0.0, abs=1e-12)

    def test_zero_prediction_unity(self):
        sp = init_surrogate(H, W, seed=0, hidden=(8,), structured=False)
        last = len(sp.hidden)
        sp.store[f"W{last}"] = np.zeros_like(sp.store[f"W{last}"])
        sp.store[f"b{last}"] = np.zeros_like(sp.store[f"b{last}"])
        y = np.random.default_rng(1).standard_normal((2, H, W)) * 0.3
        assert surrogate_relative_error(sp, y) == pytest.approx(1.0)


def test_checkpoint_roundtrip(tmp_path):
    sp = init_surrogate(H, W, seed=13, hidden=(24, 16))
    prefix = str(tmp_path / "surrogate")
    save_surrogate(prefix, sp, seed=13, beta=100.0, final_loss=0.5)
    loaded, meta = load_surrogate(prefix)
    assert meta["beta"] == 100.0 and meta["seed"] == 13
    assert loaded.hidden == (24, 16)
    assert loaded.store == sp.store
