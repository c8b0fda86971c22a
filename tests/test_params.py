import math
import re
import struct
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from krflow import autodiff as ad
from krflow import inference, surrogate, vae
from krflow.config import InferenceSection, SurrogateSection, VaeSection
from krflow.darcy import ObservationSet, lattice_operator
from krflow.flow import FlowConfig
from krflow.inference import train_posterior_flow
from krflow.params import ADAM_BLOCK, AdamState, ParamStore, TrainingDiverged, adam_step, fit
from krflow.report import write_json, write_loss_curve
from krflow.surrogate import energy_loss, init_surrogate, train_surrogate
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
    # field, the entry count, the end of the header, W0's name length, W0's
    # dims, W0's payload, the end of W0, b0's rank, b0's payload
    @pytest.mark.parametrize("cut", [6, 10, 12, 14, 24, 44, 86, 94, -3])
    def test_truncated_file_names_path(self, tmp_path, cut):
        store = ParamStore({"W0": np.arange(6.0).reshape(3, 2), "b0": np.ones(2)})
        path = tmp_path / "vae.bin"
        store.save(path)
        data = path.read_bytes()
        assert len(data) == 120
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=r"vae\.bin: truncated"):
            ParamStore.load(path)

    # 16 zero bytes read as one more entry: an empty name, rank 0, the scalar 0.0
    @pytest.mark.parametrize("extra", [b"\x00", bytes(16)], ids=["one-byte", "scalar-entry"])
    def test_bytes_after_last_entry_name_path(self, tmp_path, extra):
        path = tmp_path / "vae.bin"
        ParamStore({"W0": np.arange(6.0).reshape(3, 2), "b0": np.ones(2)}).save(path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {len(extra)} bytes "
                                             r"after the last of 2 entries$"):
            ParamStore.load(path)

    def test_version_1_container_rejected(self, tmp_path):
        path = tmp_path / "vae.bin"
        path.write_bytes(b"KRFL" + struct.pack("<I", 1))
        with pytest.raises(ValueError, match=r"vae\.bin: unsupported container version 1"):
            ParamStore.load(path)

    def test_corrupt_length_field_rejected_without_reading(self, tmp_path):
        path = tmp_path / "vae.bin"
        ParamStore({"W0": np.ones((2, 2))}).save(path)
        data = bytearray(path.read_bytes())
        data[22:30] = (2 ** 62).to_bytes(8, "little")   # first dim of W0
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"vae\.bin: truncated"):
            ParamStore.load(path)

    def test_name_that_is_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "vae.bin"
        ParamStore({"W0": np.ones((2, 2))}).save(path)
        data = bytearray(path.read_bytes())
        data[16] = 0xFF                                  # first byte of the name
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"vae\.bin: 'utf-8' codec can't decode byte 0xff"):
            ParamStore.load(path)

    def test_repeated_name_names_path_and_entry(self, tmp_path):
        path = tmp_path / "vae.bin"
        ParamStore({"W0": np.ones((2, 2)), "W1": np.zeros(2)}).save(path)
        data = path.read_bytes()
        assert data.count(b"W1") == 1
        path.write_bytes(data.replace(b"W1", b"W0"))
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: entry 'W0' appears twice$"):
            ParamStore.load(path)

    def test_non_finite_payload_names_path(self, tmp_path):
        path = tmp_path / "vae.bin"
        ParamStore({"W0": np.ones((2, 2)), "b2": np.ones(2)}).save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8] + struct.pack("<d", float("nan")))
        with pytest.raises(ValueError,
                           match=r"vae\.bin: parameter 'b2' contains non-finite values"):
            ParamStore.load(path)


# the second write fails partway: at a name that cannot be encoded, at a
# value json cannot write
@pytest.mark.parametrize("name,write,good,bad", [
    ("store.bin", lambda path, entries: ParamStore(entries).save(path),
     {"a": [1.0]}, {"a": [2.0], "\ud800": [3.0]}),
    ("sidecar.json", write_json, {"a": 1}, {"a": 2, "b": object()})],
    ids=["ParamStore.save", "write_json"])
def test_failed_write_keeps_the_old_bytes_and_no_temporary_file(tmp_path, name, write,
                                                                good, bad):
    path = tmp_path / name
    write(path, good)
    before = path.read_bytes()
    with pytest.raises((TypeError, UnicodeEncodeError)):
        write(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_failed_loss_curve_write_leaves_no_file(tmp_path):
    path = tmp_path / "loss_curve.csv"
    with pytest.raises(ValueError, match="could not convert string to float"):
        write_loss_curve(path, [(0, 1.5), (1, "not a number"), (2, 0.5)])
    assert list(tmp_path.iterdir()) == []


def _folded(lr, eps, t, b1=0.9, b2=0.999):
    """Adam's step size and epsilon at step t with the bias corrections folded in."""
    root = math.sqrt(1.0 - b2 ** t)
    return lr * root / (1.0 - b1 ** t), eps * root


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
        # the update with folded bias corrections, written out with fresh arrays each step
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
            alpha_t, eps_t = _folded(lr, eps, t)
            for k in shapes:
                m[k] = b1 * m[k] + (1.0 - b1) * g[k]
                v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k]
                p[k] = p[k] - alpha_t * m[k] / (np.sqrt(v[k]) + eps_t)
        assert state.step_count == 5
        for k, shape in shapes.items():
            assert params[k] is arrays[k]
            assert params[k].shape == shape
            assert params[k].tobytes() == p[k].tobytes()
            assert state.first_moment[k].tobytes() == m[k].tobytes()
            assert state.second_moment[k].tobytes() == v[k].tobytes()

    def test_non_finite_update_names_parameter(self):
        params = ParamStore({"a": np.zeros(2), "big": np.array([1e308, 0.0])})
        state = AdamState.fresh(params, learning_rate=-1e308)
        with pytest.raises(ValueError, match=r"^parameter 'big' contains non-finite values$"):
            adam_step(params, {"a": np.ones(2), "big": np.ones(2)}, state)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                           min_size=1, max_size=12),
           big_at=st.integers(0, 13), seed=st.integers(0, 2 ** 32 - 1))
    def test_flat_sweep_matches_per_array_formula_bitwise(self, shapes, big_at, seed):
        # many small arrays, a 0-d one and one that spans two blocks
        shapes = [(), *shapes]
        shapes.insert(min(big_at, len(shapes)), (ADAM_BLOCK + 7,))
        names = [f"p{i}" for i in range(len(shapes))]
        rng = np.random.default_rng(seed)
        start = {k: rng.standard_normal(s) for k, s in zip(names, shapes)}
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        params = ParamStore({k: v.copy() for k, v in start.items()})
        state = AdamState.fresh(params, learning_rate=lr)
        p = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros_like(a) for k, a in start.items()}
        v = {k: np.zeros_like(a) for k, a in start.items()}
        for t in range(1, 6):
            g = {k: rng.standard_normal(a.shape) for k, a in start.items()}
            params, state = adam_step(params, g, state)
            alpha_t, eps_t = _folded(lr, eps, t)
            for k in names:
                m[k] = b1 * m[k] + (1.0 - b1) * g[k]
                v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k]
                p[k] = p[k] - alpha_t * m[k] / (np.sqrt(v[k]) + eps_t)
        for k in names:
            assert params[k].shape == start[k].shape
            assert params[k].tobytes() == p[k].tobytes()
            assert state.first_moment[k].tobytes() == m[k].tobytes()
            assert state.second_moment[k].tobytes() == v[k].tobytes()

    def test_folded_update_stays_within_a_few_ulps_of_the_textbook_one(self):
        # 50 steps from |p| in [1, 2] at lr 3e-3 keep |p| near 1, so a relative
        # bound of 4 eps is a few units in the last place
        rng = np.random.default_rng(21)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        start = rng.uniform(1.0, 2.0, 300) * rng.choice([-1.0, 1.0], 300)
        params = ParamStore({"w": start.copy()})
        state = AdamState.fresh(params, learning_rate=lr)
        p, m, v = start.copy(), np.zeros(300), np.zeros(300)
        for t in range(1, 51):
            g = rng.standard_normal(300) * 10.0 ** rng.uniform(-3, 3)
            params, state = adam_step(params, {"w": g}, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert not np.array_equal(params["w"], p)   # the two differ in the last bits
        np.testing.assert_allclose(params["w"], p, rtol=4 * np.finfo(float).eps, atol=0)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(n_after=st.integers(0, 4), bad_at=st.integers(0, 4))
    def test_overflow_in_a_later_block_names_that_parameter(self, n_after, bad_at):
        # "big" fills the first block, so every other parameter is in the second
        bad_at = min(bad_at, n_after)
        entries = {"big": np.zeros(ADAM_BLOCK)}
        for i in range(n_after + 1):
            entries[f"q{i}"] = np.array([1e308 if i == bad_at else 0.0, 0.0])
        params = ParamStore(entries)
        state = AdamState.fresh(params, learning_rate=-1e308)
        with pytest.raises(ValueError, match=rf"^parameter 'q{bad_at}' contains non-finite"):
            adam_step(params, {k: np.ones(a.shape) for k, a in entries.items()}, state)
        # the whole sweep ran: every parameter moved by about 1e308
        assert all((params[k][1:] > 1e307).all() for k in params)

    def test_store_entry_rebound_after_fresh_is_rejected(self):
        params = ParamStore({"a": np.zeros(2), "b": np.zeros(3)})
        state = AdamState.fresh(params, learning_rate=0.1)
        params["b"] = np.zeros(3)
        with pytest.raises(ValueError, match=r"^adam_step: 'b' is not the array"):
            adam_step(params, {"a": np.ones(2), "b": np.ones(3)}, state)
        np.testing.assert_array_equal(params["a"], np.zeros(2))
        assert state.step_count == 0

    def test_fit_leaves_the_callers_store_unchanged(self):
        store = ParamStore({"w": np.array([1.0, -2.0])})
        before = store["w"].copy()

        def program_for(batch):
            return lambda leaves: ad.sum_(ad.mul(leaves["w"], batch[0]))

        trained, _ = fit("test", store, np.ones((4, 2)), 2, 3, 0.1, program_for, adam_step)
        np.testing.assert_array_equal(store["w"], before)
        assert not np.array_equal(trained["w"], before)

    def test_fit_steps_on_gradient_rows_and_returns_a_store_of_its_own(self):
        # the tape writes each step's gradients into Adam's gradient row, and
        # the trained store shares no memory with that row or the moments
        data = np.random.default_rng(3).normal(size=(8, 4, 4))
        config = SurrogateSection(hidden=(6,), epochs=2, batch_size=4, learning_rate=1e-2,
                                  source=3.0)
        sp = init_surrogate(4, 4, seed=1, hidden=(6,))
        states = []

        def update(params, grads, state):
            assert all(grads[k] is state.gradient[k] for k in params)
            states.append(state)
            return adam_step(params, grads, state)

        trained, _ = fit("surrogate", sp.store, data, config.batch_size, config.epochs,
                         config.learning_rate,
                         lambda batch: lambda leaves: energy_loss(batch, sp, 3.0, leaves), update)
        state = states[0]
        assert len(states) == 4 and all(s is state for s in states)
        rows = [*state.parameter.values(), *state.gradient.values(),
                *state.first_moment.values(), *state.second_moment.values()]
        assert not any(np.shares_memory(p, row) for p in trained.values() for row in rows)


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
                         np.full(4, 0.01))
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

    def third_call_fails(program, params, rows=None, flat=None):
        calls.append(None)
        if len(calls) == 3:
            raise ad.NonFiniteError("injected")
        return evaluate(program, params, rows, flat)

    monkeypatch.setattr(ad, "evaluate_with_gradients", third_call_fails)
    with pytest.raises(TrainingDiverged,
                       match=rf"^{what} training diverged at epoch 1: injected$") as info:
        train(epochs=3)
    assert info.value.last_params == after_two_updates


@pytest.mark.parametrize("module, init, train", [(vae, "init_vae", _train_vae),
                                                 (surrogate, "init_surrogate", _train_surrogate),
                                                 (inference, "init_flow", _train_flow)],
                         ids=["vae", "surrogate", "flow"])
def test_trainers_hold_no_initial_store_while_fit_runs(monkeypatch, module, init, train):
    # every array of the initial store is freed before the first Adam step:
    # Adam's buffer holds the only copy of the parameters
    refs, freed = [], []
    make = getattr(module, init)

    def recording_init(*args, **kwargs):
        model = make(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in model.store.values())
        return model

    def step(params, grads, state):
        freed.append(all(ref() is None for ref in refs))
        return adam_step(params, grads, state)

    monkeypatch.setattr(module, init, recording_init)
    monkeypatch.setattr(module, "adam_step", step)
    train(epochs=1)
    assert refs and freed == [True, True]


# before these nodes were fused, the two steps built 48 and 54 nodes
@pytest.mark.parametrize("train, most", [(_train_vae, 29), (_train_flow, 25)],
                         ids=["vae", "flow"])
def test_trail_length_per_step(monkeypatch, train, most):
    # each Gaussian log-density, each affine coupling (its log-determinant a
    # second tensor) and the likelihood's tail is one tape op, so a tiny step
    # builds few nodes; these shapes build the nodes of tiny_pipeline's steps
    lengths = []
    backward = ad.Tensor.backward

    def recording(self, trail):
        lengths.append(len(trail))
        return backward(self, trail)

    monkeypatch.setattr(ad.Tensor, "backward", recording)
    train(epochs=1)
    assert len(lengths) == 2 and max(lengths) <= most


@pytest.mark.parametrize("row", ["parameter", "gradient"])
def test_a_non_finite_entry_of_a_row_names_its_parameter(row):
    # fit checks each of Adam's rows once per step; when one fails, the
    # search by name gives the message the per-name checks gave
    store = ParamStore({"a": np.ones(2), "w": np.ones(1), "c": np.zeros(3)})
    planted = []

    def program_for(batch):
        def program(t):   # 1e308 * w**2 is finite at w = 1, its gradient 2e308 is not
            big = 1e308 if row == "gradient" else 1.0
            return ad.add(ad.sum_(t["a"]), ad.sum_(ad.mul(ad.mul(t["w"], t["w"]), big)))
        return program

    def update(params, grads, state):
        params, state = adam_step(params, grads, state)
        if not planted:
            planted.append(state.parameter["c"].__setitem__(1, np.nan))
        return params, state

    what = "gradient of 'w'" if row == "gradient" else "leaf 'c'"
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as info:
        fit("test", store, np.ones((4, 1)), 1, 2, 0.1, program_for,
            adam_step if row == "gradient" else update)
    assert str(info.value) == ("test training diverged at epoch 0: "
                               f"non-finite values produced by op '{what}'")
