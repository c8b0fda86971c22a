import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from krflow import autodiff as ad
from krflow.config import InferenceSection, SurrogateSection, VaeSection
from krflow.darcy import NoiseModel, ObservationSet, lattice_operator
from krflow.flow import FlowConfig
from krflow.inference import train_posterior_flow
from krflow.params import AdamState, ParamStore, TrainingDiverged, adam_step, fit
from krflow.surrogate import init_surrogate, train_surrogate
from krflow.vae import init_vae, train_vae

prefixed_names = st.builds(lambda prefix, rest: prefix + rest,
                           st.sampled_from(["enc.", "dec.", "s0.l1.", ""]),
                           st.text(min_size=1, max_size=8))
finite_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                           elements=st.floats(allow_nan=False, allow_infinity=False))


class TestParamStore:
    def test_insertion_order_preserved(self):
        store = ParamStore()
        names = [f"p{i}" for i in (3, 1, 4, 1, 5) for _ in (0,)]
        for i, n in enumerate(dict.fromkeys(names)):
            store[n] = np.full(2, float(i))
        assert list(store.keys()) == ["p3", "p1", "p4", "p5"]

    def test_rejects_nonfinite(self):
        store = ParamStore()
        with pytest.raises(ValueError, match="non-finite"):
            store["bad"] = np.array([1.0, np.inf])

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = ParamStore({
            "alpha.W0": rng.standard_normal((7, 3)),
            "alpha.b0": rng.standard_normal(3),
            "scalar": np.array(2.0 ** -1074),  # denormal survives
            "cube": rng.standard_normal((2, 3, 4)),
        })
        path = tmp_path / "store.bin"
        store.save(path)
        loaded = ParamStore.load(path)
        assert list(loaded.keys()) == list(store.keys())
        for name in store:
            assert loaded[name].shape == store[name].shape
            assert loaded[name].tobytes() == store[name].tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(prefixed_names, finite_arrays, min_size=1, max_size=6))
    def test_prefixed_store_keeps_names_order_and_bytes(self, entries):
        store = ParamStore(entries)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.bin"
            store.save(path)
            loaded = ParamStore.load(path)
        assert list(loaded) == list(entries)
        for name in entries:
            assert loaded[name].shape == entries[name].shape
            assert loaded[name].tobytes() == store[name].tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            ParamStore.load(path)

    # offsets into a container holding W0 (3, 2) then b0 (2,): the version
    # field, W0's name length, W0's dims, W0's payload, b0's rank, b0's payload
    @pytest.mark.parametrize("cut", [6, 10, 20, 40, 90, -3])
    def test_truncated_file_names_path(self, tmp_path, cut):
        store = ParamStore({"W0": np.arange(6.0).reshape(3, 2), "b0": np.ones(2)})
        path = tmp_path / "vae.bin"
        store.save(path)
        data = path.read_bytes()
        assert len(data) == 116
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=r"vae\.bin: truncated"):
            ParamStore.load(path)

    def test_corrupt_length_field_rejected_without_reading(self, tmp_path):
        path = tmp_path / "vae.bin"
        ParamStore({"W0": np.ones((2, 2))}).save(path)
        data = bytearray(path.read_bytes())
        data[18:26] = (2 ** 62).to_bytes(8, "little")   # first dim of W0
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"vae\.bin: truncated"):
            ParamStore.load(path)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = ParamStore({"p": np.array([1.0, -2.0])})
        before = params["p"].copy()
        state = AdamState.fresh(params, learning_rate=0.05)
        new_params, new_state = adam_step(params, {"p": np.zeros(2)}, state)
        np.testing.assert_array_equal(new_params["p"], before)
        assert new_state.step_count == 1

    def test_first_step_with_bias_correction(self):
        # fresh moments: m_hat = g, v_hat = g^2, so the step is lr * g/(|g|+eps)
        params = ParamStore({"p": np.array([1.0])})
        state = AdamState.fresh(params, learning_rate=0.01)
        new_params, _ = adam_step(params, {"p": np.array([0.5])}, state)
        expected = 1.0 - 0.01 * 0.5 / (0.5 + 1e-8)
        assert new_params["p"][0] == pytest.approx(expected, abs=1e-12)
        assert new_params["p"][0] == pytest.approx(0.99, abs=1e-8)

    def test_second_identical_step_stays_near_lr(self):
        lr = 0.01
        params = ParamStore({"p": np.array([0.0])})
        state = AdamState.fresh(params, learning_rate=lr)
        g = {"p": np.array([1.0])}
        params, state = adam_step(params, g, state)
        after_first = float(params["p"][0])
        params, state = adam_step(params, g, state)
        magnitude = abs(float(params["p"][0]) - after_first)
        assert 0.9 * lr <= magnitude <= lr

    def test_deterministic_bitwise(self):
        # two separately built (params, state) pairs; the update is in place
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 4))
        grads = {"w": rng.standard_normal((4, 4))}
        pairs = []
        for _ in range(2):
            params = ParamStore({"w": w.copy()})
            pairs.append(adam_step(params, grads, AdamState.fresh(params, learning_rate=0.003)))
        (out1, st1), (out2, st2) = pairs
        assert out1["w"] is not out2["w"]
        assert out1["w"].tobytes() == out2["w"].tobytes()
        assert st1.first_moment["w"].tobytes() == st2.first_moment["w"].tobytes()
        assert st1.second_moment["w"].tobytes() == st2.second_moment["w"].tobytes()

    def test_shape_mismatch_rejected(self):
        params = ParamStore({"p": np.zeros(3)})
        state = AdamState.fresh(params, learning_rate=0.01)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"p": np.zeros(4)}, state)

    def test_moments_nonnegative_second(self):
        rng = np.random.default_rng(9)
        params = ParamStore({"p": rng.standard_normal(6)})
        state = AdamState.fresh(params, learning_rate=0.01)
        for _ in range(5):
            params, state = adam_step(params, {"p": rng.standard_normal(6)}, state)
        assert (state.second_moment["p"] >= 0.0).all()

    def test_in_place_update_matches_pure_formula_bitwise(self):
        # the textbook update, written out with fresh arrays each step
        rng = np.random.default_rng(12)
        shapes = {"w": (5, 3), "b": (3,), "scale": (), "k": (2, 2, 2)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        grads = [{k: rng.standard_normal(s) for k, s in shapes.items()} for _ in range(5)]
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        params = ParamStore({k: v.copy() for k, v in start.items()})
        state = AdamState.fresh(params, learning_rate=lr)
        arrays = {k: params[k] for k in params}
        p = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros_like(v) for k, v in start.items()}
        v = {k: np.zeros_like(a) for k, a in start.items()}
        for t, g in enumerate(grads, start=1):
            params, state = adam_step(params, g, state)
            for k in shapes:
                m[k] = b1 * m[k] + (1.0 - b1) * g[k]
                v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k]
                m_hat = m[k] / (1.0 - b1 ** t)
                v_hat = v[k] / (1.0 - b2 ** t)
                p[k] = p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.step_count == 5
        for k, shape in shapes.items():
            assert params[k] is arrays[k]
            assert params[k].shape == shape
            assert params[k].tobytes() == p[k].tobytes()
            assert state.first_moment[k].tobytes() == m[k].tobytes()
            assert state.second_moment[k].tobytes() == v[k].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_update_names_parameter(self):
        params = ParamStore({"a": np.zeros(2), "big": np.array([1e308, 0.0])})
        state = AdamState.fresh(params, learning_rate=-1e308)
        with pytest.raises(ValueError, match=r"^parameter 'big' contains non-finite values$"):
            adam_step(params, {"a": np.ones(2), "big": np.ones(2)}, state)

    def test_fit_leaves_the_callers_store_unchanged(self):
        store = ParamStore({"w": np.array([1.0, -2.0])})
        before = store["w"].copy()

        def program_for(batch):
            return lambda leaves: ad.sum_(ad.mul(leaves["w"], batch[0]))

        trained, _ = fit("test", store, np.ones((4, 2)), 2, 3, 0.1, program_for, adam_step)
        np.testing.assert_array_equal(store["w"], before)
        assert not np.array_equal(trained["w"], before)


# each trainer at tiny shapes with two batches per epoch; returns the final store
def _train_vae(epochs):
    data = np.random.default_rng(0).normal(size=(8, 4, 4))
    config = VaeSection(latent_dim=2, encoder_hidden=(6,), decoder_hidden=(6,),
                        epochs=epochs, batch_size=4, learning_rate=1e-2)
    return train_vae(data, config, seed=1).store


def _train_surrogate(epochs):
    data = np.random.default_rng(0).normal(size=(8, 4, 4))
    config = SurrogateSection(hidden=(6,), epochs=epochs, batch_size=4, learning_rate=1e-2,
                              source=3.0)
    return train_surrogate(data, config, seed=1).store


def _train_flow(epochs):
    vae = init_vae(4, 4, 4, seed=0, encoder_hidden=(6,), decoder_hidden=(6,))
    sp = init_surrogate(4, 4, seed=1, hidden=(6,))
    obs = ObservationSet(lattice_operator(2, 2, 0.25, 0.5), np.full(4, 0.2),
                         NoiseModel(level=0.05, per_sensor_std=np.full(4, 0.01), floor=0.01))
    config = InferenceSection(sample_size=8, epochs=epochs, batch_size=4, learning_rate=1e-2,
                              posterior_samples=0)
    flow_config = FlowConfig(dim=4, n_groups=2, layers_per_stage=2, hidden_width=4,
                             hidden_depth=2, scale_bound=2.0)
    return train_posterior_flow(flow_config, vae, sp, obs, config, seed=3).store


@pytest.mark.parametrize("what,train", [("VAE", _train_vae), ("surrogate", _train_surrogate),
                                        ("flow", _train_flow)], ids=["vae", "surrogate", "flow"])
def test_divergence_names_loop_and_epoch_and_keeps_last_finite_store(monkeypatch, what, train):
    after_two_updates = train(epochs=1)
    evaluate = ad.evaluate_with_gradients
    calls = []

    def third_call_fails(program, params):
        calls.append(None)
        if len(calls) == 3:
            raise ad.NonFiniteError("injected")
        return evaluate(program, params)

    monkeypatch.setattr(ad, "evaluate_with_gradients", third_call_fails)
    with pytest.raises(TrainingDiverged,
                       match=rf"^{what} training diverged at epoch 1: injected$") as info:
        train(epochs=3)
    assert info.value.last_params == after_two_updates
