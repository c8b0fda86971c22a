import numpy as np
import pytest

from krflow import autodiff as ad
from krflow.config import SurrogateSection
from krflow.darcy import solve_darcy
from krflow.grf import Grid, dataset_to_array, generate_prior_dataset
from krflow.params import save_model
from krflow.surrogate import (
    energy_loss,
    init_surrogate,
    load_surrogate,
    surrogate_forward_batch,
    surrogate_relative_error,
    train_surrogate,
)

H = W = 8


def jittered_surrogate(height, width, seed, hidden):
    sp = init_surrogate(height, width, seed=seed, hidden=hidden)
    # jitter every parameter so no relu pre-activation sits on its kink
    rng = np.random.default_rng(seed + 1)
    for name in sp.store:
        sp.store[name] = sp.store[name] + 0.01 * rng.standard_normal(sp.store[name].shape)
    return sp


def planted_surrogate(pressures):
    """A surrogate whose output bias is the interior of ``pressures``, all weights zero."""
    sp = init_surrogate(H, W, seed=0, hidden=(8,))
    for name in sp.store:
        sp.store[name] = np.zeros_like(sp.store[name])
    sp.store[f"b{len(sp.hidden)}"] = np.asarray(pressures)[:, 1:-1].ravel()
    return sp


def prior_fields(per_scale, base_seed, height=H, width=W):
    return dataset_to_array(generate_prior_dataset(
        Grid(height, width), 0.5, 1.0, [0.25, 0.3], per_scale, base_seed))


class TestForward:
    def test_deterministic_and_shapes(self):
        sp = jittered_surrogate(H, W, seed=0, hidden=(32,))
        y = np.random.default_rng(1).standard_normal((1, H * W))
        u1 = surrogate_forward_batch(y, sp.store, sp)
        u2 = surrogate_forward_batch(y, sp.store, sp)
        assert u1.shape == (1, H, W)
        np.testing.assert_array_equal(u1, u2)
        # only the unknowns are outputs; the Dirichlet columns are exactly zero
        assert (u1[..., [0, -1]] == 0.0).all() and (u1[..., 1:-1] != 0.0).all()

    def test_parameter_gradient_matches_finite_differences(self):
        sp = jittered_surrogate(4, 5, seed=2, hidden=(10,))
        rng = np.random.default_rng(3)
        batch = 0.4 * rng.standard_normal((2, 4, 5))

        def program(leaves):
            return energy_loss(batch, sp, 3.0, leaves)

        _, grads = ad.evaluate_with_gradients(program, sp.store)
        h = 1e-5
        for name in sp.store:
            arr = sp.store[name].ravel()
            for k in rng.choice(arr.size, size=min(4, arr.size), replace=False):
                orig = arr[k]
                arr[k] = orig + h
                up = energy_loss(batch, sp)
                arr[k] = orig - h
                down = energy_loss(batch, sp)
                arr[k] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[name].ravel()[k]), 1e-6)
                assert abs(grads[name].ravel()[k] - fd) / scale < 1e-5


class TestEnergyLoss:
    def test_fresh_surrogate_has_zero_energy(self):
        sp = init_surrogate(H, W, seed=4, hidden=(16,))
        batch = 0.3 * np.random.default_rng(5).standard_normal((3, H, W))
        assert energy_loss(batch, sp) == 0.0

    def test_tape_and_numpy_values_agree(self):
        sp = jittered_surrogate(H, W, seed=6, hidden=(16,))
        batch = 0.3 * np.random.default_rng(7).standard_normal((3, H, W))
        value, _ = ad.evaluate_with_gradients(
            lambda leaves: energy_loss(batch, sp, 3.0, leaves), sp.store)
        assert value == pytest.approx(energy_loss(batch, sp), rel=1e-14)

    def test_finite_volume_solution_is_the_minimum(self):
        grid = Grid(H, W)
        y = prior_fields(1, 17)[:1]
        u_fv = solve_darcy(y[0], grid, source=3.0)
        best = energy_loss(y, planted_surrogate(u_fv))
        assert best < 0.0
        for delta in np.random.default_rng(8).standard_normal((4, H, W)) * 1e-3:
            assert energy_loss(y, planted_surrogate(u_fv + delta)) > best

    def test_non_batch_rejected(self):
        sp = init_surrogate(H, W, seed=0, hidden=(4,))
        with pytest.raises(ValueError, match=r"nonempty \(B, H, W\)"):
            energy_loss(np.zeros((H, W)), sp)

    def test_batch_on_another_grid_rejected(self):
        # the network's input width alone would not name the grid
        sp = init_surrogate(H, W, seed=0, hidden=(4,))
        with pytest.raises(ValueError, match=rf"batch \(2, {H}, {W + 1}\) must be a nonempty "
                                             rf"\(B, H, W\) array on "
                                             rf"Grid\(height={H}, width={W}\)"):
            energy_loss(np.zeros((2, H, W + 1)), sp)


class TestTraining:
    def test_zero_epochs_returns_initialization(self):
        config = SurrogateSection(hidden=(16,), epochs=0, batch_size=32,
                                  learning_rate=1e-3, source=3.0)
        sp = train_surrogate(prior_fields(60, 41), config, seed=3)
        fresh = init_surrogate(H, W, seed=3, hidden=(16,))
        assert sp.store == fresh.store

    def test_energy_approaches_the_finite_volume_minimum(self, tmp_path):
        # the energy starts at 0 and is bounded below by its value at the FV
        # solutions, -1/2 b^T u*; training should close most of that gap
        data = prior_fields(20, 41)
        curve_path = tmp_path / "curve.csv"
        config = SurrogateSection(hidden=(32,), epochs=60, batch_size=20,
                                  learning_rate=1e-3, source=3.0)
        sp = train_surrogate(data, config, seed=3, curve_path=curve_path)
        grid = Grid(H, W)
        minimum = np.mean([energy_loss(y[None], planted_surrogate(
            solve_darcy(y, grid, source=3.0))) for y in data])
        rows = curve_path.read_text().strip().splitlines()[1:]
        assert float(rows[0].split(",")[1]) > 0.5 * minimum
        assert minimum < energy_loss(data, sp) < 0.95 * minimum

    def test_determinism(self):
        config = SurrogateSection(hidden=(24,), epochs=4, batch_size=40,
                                  learning_rate=1e-3, source=3.0)
        a = train_surrogate(prior_fields(30, 41), config, seed=11)
        b = train_surrogate(prior_fields(30, 41), config, seed=11)
        for k in a.store:
            assert a.store[k].tobytes() == b.store[k].tobytes()

    def test_tiny_surrogate_quality_gate(self):
        # the tier-1 CLI shapes: 24 training fields per seed, held out on
        # prior draws from base seeds no training seed equals.  24 fields are
        # fitted to 0.5% but generalize unevenly (0.20-0.47 over 40 seeds,
        # a quarter above 0.35), so the gate is on the median of seeds 0-4
        config = SurrogateSection(hidden=(32,), epochs=300, batch_size=12,
                                  learning_rate=1e-3, source=3.0)
        errors = [surrogate_relative_error(train_surrogate(prior_fields(12, seed), config, seed),
                                           prior_fields(8, 2 ** 32 + seed))
                  for seed in range(5)]
        assert np.median(errors) <= 0.35


class TestRelativeError:
    def test_perfect_prediction_zero(self):
        y = np.zeros((1, H, W))
        sp = planted_surrogate(solve_darcy(y[0], Grid(H, W), source=3.0))
        assert surrogate_relative_error(sp, y) == pytest.approx(0.0, abs=1e-12)

    def test_zero_prediction_unity(self):
        sp = init_surrogate(H, W, seed=0, hidden=(8,))
        y = np.random.default_rng(1).standard_normal((2, H, W)) * 0.3
        assert surrogate_relative_error(sp, y) == pytest.approx(1.0)


def test_checkpoint_roundtrip(tmp_path):
    sp = init_surrogate(H, W, seed=13, hidden=(24, 16), offset=0.9, scale=0.4)
    prefix = str(tmp_path / "surrogate")
    save_model(prefix, sp, seed=13, final_loss=-0.5)
    loaded, meta = load_surrogate(prefix)
    assert meta["seed"] == 13 and meta["final_loss"] == -0.5
    assert "beta" not in meta and "structured" not in meta
    assert (loaded.hidden, loaded.offset, loaded.scale) == ((24, 16), 0.9, 0.4)
    assert loaded.store == sp.store
