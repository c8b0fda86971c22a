import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krflow import autodiff as ad
from krflow.flow import (
    FlowConfig,
    FlowParams,
    coupling,
    init_flow,
    krnet_forward,
    krnet_inverse,
    layer_names,
    _split,
)
from krflow.nets import mlp_forward, std_normal_logpdf
from krflow.params import ParamStore, load_model, save_model
from krflow.report import read_json, write_json


def log_density(x, params, config=None):
    """log q(x) = log N(f(x); 0, I) + log|det df/dx| of a (B, d) batch; (B,)."""
    z, logdet = krnet_forward(x, params, config)
    return ad.add(std_normal_logpdf(z), logdet)


def _scale_shift(params, kept_vals, config: FlowConfig, prefix: str, n_trans: int):
    raw = mlp_forward(params, kept_vals, prefix=prefix)
    s = ad.mul(ad.tanh(ad.take_cols(raw, slice(n_trans))), config.scale_bound)
    t = ad.take_cols(raw, slice(n_trans, 2 * n_trans))
    return s, t


def _reassemble(kept_vals, trans_vals, kept, trans, active_dim: int):
    """Scatter the two halves back to their original column positions."""
    perm = np.empty(active_dim, dtype=np.intp)
    perm[kept] = np.arange(len(kept))
    perm[trans] = len(kept) + np.arange(len(trans))
    return ad.take_cols(ad.concat([kept_vals, trans_vals], axis=-1), perm)


def coupling_forward(x_active, params, config: FlowConfig, prefix: str, split):
    """The coupling layer composed of single ops: the reference for flow.coupling."""
    kept, trans = split
    xk = ad.take_cols(x_active, kept)
    xt = ad.take_cols(x_active, trans)
    s, t = _scale_shift(params, xk, config, prefix, len(trans))
    yt = ad.add(ad.mul(xt, ad.exp(s)), t)
    out = _reassemble(xk, yt, kept, trans, x_active.shape[-1])
    return out, ad.sum_(s, axis=-1)


def coupling_inverse(z_active, params, config: FlowConfig, prefix: str, split):
    """The inverse coupling composed of single ops: the reference for
    flow.coupling(..., inverse=True)."""
    kept, trans = split
    zk = ad.take_cols(z_active, kept)
    zt = ad.take_cols(z_active, trans)
    s, t = _scale_shift(params, zk, config, prefix, len(trans))
    xt = ad.mul(ad.sub(zt, t), ad.exp(ad.mul(s, -1.0)))
    out = _reassemble(zk, xt, kept, trans, z_active.shape[-1])
    return out, ad.mul(ad.sum_(s, axis=-1), -1.0)


def dependency_mask(config: FlowConfig) -> np.ndarray:
    """Boolean (d, d) mask: may output coordinate i depend on input j?

    Propagates dependency sets through the exact layer schedule, so the mask
    encodes both the freeze bookkeeping and the per-layer conditioning
    direction.  The numerical Jacobian must be zero wherever this is False.
    """
    d = config.dim
    deps = [set([j]) for j in range(d)]
    for t, m in enumerate(config.active_dims()):
        for l in range(config.layers_per_stage):
            kept, trans = _split(m, l)
            kept_union: set[int] = set()
            for k in kept:
                kept_union |= deps[k]
            for j in trans:
                deps[j] = deps[j] | kept_union
    mask = np.zeros((d, d), dtype=bool)
    for i in range(d):
        for j in deps[i]:
            mask[i, j] = True
    return mask


def random_flow(config: FlowConfig, seed: int, scale: float = 0.1) -> FlowParams:
    """A flow with genuinely nonzero coupling outputs.

    Final layers get random weights of the given scale; every parameter is
    additionally jittered so no ReLU pre-activation sits exactly on its kink
    (where finite differences and subgradients legitimately disagree).
    """
    flow = init_flow(config, seed)
    rng = np.random.default_rng(seed + 1)
    last = config.hidden_depth
    n_layers = len(layer_names(config))
    for _t, _l, prefix, _ in layer_names(config):
        shape = flow.store[f"{prefix}W{last}"].shape
        # keep the composed map well conditioned: per-layer scales shrink
        # with depth, the way a trained flow stays near the data scale
        flow.store[f"{prefix}W{last}"] = rng.standard_normal(shape) * scale / np.sqrt(n_layers)
    for name in flow.store:
        flow.store[name] = flow.store[name] + 0.01 * rng.standard_normal(
            flow.store[name].shape)
    return flow


def numerical_jacobian(fn, x, h=1e-6):
    d = len(x)
    cols = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        cols.append((fn(x + e) - fn(x - e)) / (2 * h))
    return np.column_stack(cols)


class TestCouplingLayer:
    CFG = FlowConfig(dim=6, n_groups=3, layers_per_stage=1, hidden_width=8,
                     hidden_depth=2, scale_bound=2.0)

    def _layer(self, seed=0, zero=True):
        flow = init_flow(self.CFG, seed) if zero else random_flow(self.CFG, seed)
        return flow, layer_names(self.CFG)[0]

    def test_zero_parameters_identity(self):
        flow, (_, _, prefix, split) = self._layer(zero=True)
        x = np.random.default_rng(0).standard_normal((4, 6))
        out, logdet = coupling(x, dict(flow.store.items()), self.CFG, prefix, split)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(logdet, np.zeros(4))

    def test_constant_scale_doubles_and_logdet(self):
        # plant s = log 2 on the 3 transformed coordinates via the final bias
        flow, (_, _, prefix, split) = self._layer(zero=True)
        store = dict(flow.store.items())
        n_trans = len(split[1])
        bias = np.zeros(2 * n_trans)
        bias[:n_trans] = np.arctanh(np.log(2.0) / self.CFG.scale_bound)
        store[prefix + "b2"] = bias
        x = np.random.default_rng(1).standard_normal(6)
        out, logdet = coupling(x, store, self.CFG, prefix, split)
        np.testing.assert_allclose(out[split[1]], 2.0 * x[split[1]], rtol=1e-12)
        np.testing.assert_array_equal(out[split[0]], x[split[0]])
        assert logdet == pytest.approx(3 * np.log(2.0), rel=1e-12)

    def test_round_trip(self):
        flow, (_, _, prefix, split) = self._layer(seed=3, zero=False)
        store = dict(flow.store.items())
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 6))
        z, _ = coupling(x, store, self.CFG, prefix, split)
        back, _ = coupling(z, store, self.CFG, prefix, split, inverse=True)
        assert np.abs(back - x).max() < 1e-10
        fwd_again, _ = coupling(back, store, self.CFG, prefix, split)
        assert np.abs(fwd_again - z).max() < 1e-10

    def test_logdet_matches_numerical_jacobian(self):
        flow, (_, _, prefix, split) = self._layer(seed=5, zero=False)
        store = dict(flow.store.items())
        x = np.random.default_rng(6).standard_normal(6)

        def fwd(v):
            out, _ = coupling(v, store, self.CFG, prefix, split)
            return out

        jac = numerical_jacobian(fwd, x)
        _, logdet = coupling(x, store, self.CFG, prefix, split)
        sign, ref = np.linalg.slogdet(jac)
        assert sign == 1.0
        assert abs(float(logdet) - ref) < 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(group_size=st.integers(1, 4), n_groups=st.integers(2, 3), layer=st.integers(0, 1),
           hidden_depth=st.integers(1, 2), batch=st.integers(1, 6), inverse=st.booleans(),
           taped=st.booleans(), use=st.sampled_from(["both", "out", "logdet"]),
           seed=st.integers(0, 2 ** 16))
    def test_fused_coupling_is_the_composed_bytes(self, group_size, n_groups, layer,
                                                   hidden_depth, batch, inverse, taped, use,
                                                   seed):
        # value and gradients equal the composed reference's bit for bit, in
        # both directions, with x a leaf or an ndarray, and with only the
        # output, only the log-determinant or both read
        config = FlowConfig(dim=group_size * n_groups, n_groups=n_groups, layers_per_stage=2,
                            hidden_width=5, hidden_depth=hidden_depth, scale_bound=1.5)
        flow = random_flow(config, seed, scale=0.5)
        _, _, prefix, split = layer_names(config)[layer]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, config.dim))
        w, v = rng.standard_normal((batch, config.dim)), rng.standard_normal(batch)
        reference = coupling_inverse if inverse else coupling_forward

        def program(layer_map):
            def run(t):
                out, logdet = layer_map(t["x"] if taped else x, t, config, prefix, split)
                terms = {"out": ad.sum_(ad.mul(out, w)), "logdet": ad.sum_(ad.mul(logdet, v))}
                return ad.add(*terms.values()) if use == "both" else terms[use]
            return run

        params = {**flow.store, "x": x}
        fused = ad.evaluate_with_gradients(
            program(lambda *args: coupling(*args, inverse=inverse)), params)
        composed = ad.evaluate_with_gradients(program(reference), params)
        assert fused[0].hex() == composed[0].hex()
        for name in params:
            assert fused[1][name].tobytes() == composed[1][name].tobytes(), name
        # as plain numpy too, to the layout
        for got, want in zip(coupling(x, flow.store, config, prefix, split, inverse),
                             reference(x, flow.store, config, prefix, split)):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(layer=st.integers(0, 3), batch=st.integers(1, 4), inverse=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_fused_coupling_is_the_composed_bytes_in_float32(self, layer, batch, inverse, seed):
        # float32 leaves and operands keep the tape float32, and the fused
        # node still gives the composed ops' value and gradient bytes
        config = FlowConfig(dim=6, n_groups=3, layers_per_stage=2, hidden_width=5,
                            hidden_depth=1, scale_bound=1.5)
        _, _, prefix, split = layer_names(config)[layer]   # on an active block of 6 or 4
        rng = np.random.default_rng(seed)
        m = sum(map(len, split))
        x, w, v = (rng.standard_normal(shape).astype(np.float32)
                   for shape in ((batch, m), (batch, m), batch))
        params = {**ParamStore(random_flow(config, seed, scale=0.5).store, np.float32), "x": x}

        def program(layer_map):
            def run(t):
                out, logdet = layer_map(t["x"], t, config, prefix, split)
                return ad.add(ad.sum_(ad.mul(out, w)), ad.sum_(ad.mul(logdet, v)))
            return run

        fused = ad.evaluate_with_gradients(
            program(lambda *args: coupling(*args, inverse=inverse)), params)
        composed = ad.evaluate_with_gradients(
            program(coupling_inverse if inverse else coupling_forward), params)
        assert fused[0] == composed[0]
        for name, g in fused[1].items():
            assert g.dtype == np.float32 and g.tobytes() == composed[1][name].tobytes(), name

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_gradients_match_central_differences(self, inverse):
        flow, (_, _, prefix, split) = self._layer(seed=7, zero=False)
        rng = np.random.default_rng(8)
        params = {**flow.store, "x": rng.standard_normal((3, 6))}
        w, v = rng.standard_normal((3, 6)), rng.standard_normal(3)

        def program(t):
            out, logdet = coupling(t["x"], t, self.CFG, prefix, split, inverse)
            return ad.add(ad.sum_(ad.mul(out, w)), ad.sum_(ad.mul(logdet, v)))

        _, grads = ad.evaluate_with_gradients(program, params)
        h = 1e-6
        for name, arr in params.items():
            flat = arr.ravel()
            for k in range(0, flat.size, max(1, flat.size // 4)):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, params)
                flat[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, params)
                flat[k] = orig
                fd, got = (up - down) / (2 * h), grads[name].ravel()[k]
                assert abs(got - fd) / max(abs(fd), abs(got), 1e-8) < 1e-5, (name, k)


class TestKrnetMap:
    def test_identity_at_init(self):
        config = FlowConfig(dim=8, n_groups=4, layers_per_stage=2, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = init_flow(config, 0)
        x = np.random.default_rng(0).standard_normal((5, 8))
        z, logdet = krnet_forward(x, flow)
        np.testing.assert_array_equal(z, x)
        np.testing.assert_array_equal(logdet, np.zeros(5))

    def test_hand_composed_single_layer(self):
        # d=4, K=2, L=1: one coupling layer on all 4 coords, then freeze the
        # last group; plant constant (s, t) and compose by hand
        config = FlowConfig(dim=4, n_groups=2, layers_per_stage=1, hidden_width=4,
                            hidden_depth=2, scale_bound=2.0)
        flow = init_flow(config, 0)
        kept, trans = _split(4, 0)          # kept = [0, 2], trans = [1, 3]
        s_const, t_const = 0.3, -0.7
        bias = np.zeros(4)
        bias[:2] = np.arctanh(s_const / config.scale_bound)
        bias[2:] = t_const
        flow.store["s0.l0.b2"] = bias
        x = np.array([[0.5, -1.0, 2.0, 0.25]])
        z, logdet = krnet_forward(x, flow)
        expected = x.copy()
        expected[:, trans] = x[:, trans] * np.exp(s_const) + t_const
        np.testing.assert_allclose(z, expected, rtol=1e-12)
        assert logdet.shape == (1,)
        assert logdet[0] == pytest.approx(2 * s_const, rel=1e-12)

    @pytest.mark.parametrize("dim,k", [(8, 4), (12, 3), (36, 6), (64, 8)])
    def test_round_trip_random_points(self, dim, k):
        config = FlowConfig(dim=dim, n_groups=k, layers_per_stage=4, hidden_width=16,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=dim + k, scale=0.05)
        x = np.random.default_rng(9).standard_normal((1000, dim))
        z, _ = krnet_forward(x, flow)
        back = krnet_inverse(z, flow)
        assert np.abs(back - x).max() < 1e-10
        fwd, _ = krnet_forward(krnet_inverse(x, flow), flow)
        assert np.abs(fwd - x).max() < 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(group_size=st.integers(1, 3), n_groups=st.integers(2, 4),
           layers_per_stage=st.integers(1, 3), hidden_width=st.integers(2, 8),
           hidden_depth=st.integers(1, 3), scale_bound=st.floats(0.25, 4.0),
           seed=st.integers(0, 2 ** 16))
    def test_generated_shapes_invert_with_negated_logdet(
            self, group_size, n_groups, layers_per_stage, hidden_width, hidden_depth,
            scale_bound, seed):
        config = FlowConfig(dim=group_size * n_groups, n_groups=n_groups,
                            layers_per_stage=layers_per_stage, hidden_width=hidden_width,
                            hidden_depth=hidden_depth, scale_bound=scale_bound)
        flow = random_flow(config, seed)
        x = np.random.default_rng(seed).standard_normal((16, config.dim))
        z, logdet_fwd = krnet_forward(x, flow)
        back, logdet_inv = krnet_inverse(z, flow, with_logdet=True)
        assert np.abs(back - x).max() < 1e-10
        np.testing.assert_allclose(logdet_inv, -logdet_fwd, rtol=0, atol=1e-12)

    def test_frozen_coordinates_bitwise_preserved(self):
        config = FlowConfig(dim=9, n_groups=3, layers_per_stage=3, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=2)
        x = np.random.default_rng(3).standard_normal((7, 9))
        z, _ = krnet_forward(x, flow)
        # reapply stage 0 only: its frozen group must appear verbatim in z
        store = dict(flow.store.items())
        cur = x
        for t, l, prefix, split in layer_names(config):
            if t > 0:
                break
            cur, _ = coupling(cur, store, config, prefix, split)
        np.testing.assert_array_equal(z[:, 6:9], cur[:, 6:9])

    def test_logdet_matches_numerical_jacobian(self):
        config = FlowConfig(dim=8, n_groups=4, layers_per_stage=2, hidden_width=12,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(3):
            x = rng.standard_normal(8)

            def fwd(v):
                z, _ = krnet_forward(v.reshape(1, -1), flow)
                return z[0]

            _, logdet = krnet_forward(x.reshape(1, -1), flow)
            sign, ref = np.linalg.slogdet(numerical_jacobian(fwd, x))
            assert sign == 1.0
            assert abs(logdet[0] - ref) < 1e-5

    def test_inverse_logdet_is_negated_forward(self):
        config = FlowConfig(dim=6, n_groups=3, layers_per_stage=2, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=13)
        z = np.random.default_rng(14).standard_normal((20, 6))
        x, logdet_inv = krnet_inverse(z, flow, with_logdet=True)
        _, logdet_fwd = krnet_forward(x, flow)
        np.testing.assert_allclose(logdet_inv, -logdet_fwd, atol=1e-12)

    def test_logdet_additive_over_layers(self):
        config = FlowConfig(dim=6, n_groups=3, layers_per_stage=2, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=15)
        store = dict(flow.store.items())
        x = np.random.default_rng(16).standard_normal((4, 6))
        total = np.zeros(4)
        cur = x
        frozen = []
        for t, m in enumerate(config.active_dims()):
            for l in range(config.layers_per_stage):
                cur, ld = coupling(cur, store, config, f"s{t}.l{l}.", _split(m, l))
                total = total + ld
            frozen.append(cur[:, m - config.group_size:m])
            cur = cur[:, :m - config.group_size]
        _, logdet = krnet_forward(x, flow)
        np.testing.assert_array_equal(logdet, total)

    def test_dependency_mask_matches_jacobian_sparsity(self):
        # single layer per stage keeps the schedule's mask genuinely sparse
        config = FlowConfig(dim=8, n_groups=4, layers_per_stage=1, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=17)
        mask = dependency_mask(config)
        x = np.random.default_rng(18).standard_normal(8)

        def fwd(v):
            z, _ = krnet_forward(v.reshape(1, -1), flow)
            return z[0]

        jac = numerical_jacobian(fwd, x)
        assert (np.abs(jac)[~mask] < 1e-8).all()
        # and the mask is not trivially full
        assert (~mask).sum() > 0

    def test_dimension_mismatch_rejected(self):
        config = FlowConfig(dim=8, n_groups=4, layers_per_stage=8, hidden_width=48,
                            hidden_depth=2, scale_bound=2.0)
        flow = init_flow(config, 0)
        # a width other than d, and a single (d,) vector, which is not a batch
        for shape in [(1, 7), (8,), (2, 1, 8)]:
            for flow_map in (krnet_forward, krnet_inverse):
                with pytest.raises(ad.ShapeError, match="dimension"):
                    flow_map(np.zeros(shape), flow)


class TestLogDensity:
    def test_identity_flow_is_standard_normal(self):
        config = FlowConfig(dim=2, n_groups=2, layers_per_stage=1, hidden_width=4,
                            hidden_depth=2, scale_bound=2.0)
        flow = init_flow(config, 0)
        val = log_density(np.zeros((1, 2)), flow)[0]
        assert val == pytest.approx(-np.log(2 * np.pi), rel=1e-12)
        assert val == pytest.approx(-1.8378771, abs=1e-7)

    def test_importance_sampling_normalization(self):
        # int q dx == 1, estimated by importance sampling from N(0, 4I) on d=2
        config = FlowConfig(dim=2, n_groups=2, layers_per_stage=3, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=21, scale=0.15)
        rng = np.random.default_rng(22)
        n = 200_000
        proposal_std = 2.0
        x = rng.standard_normal((n, 2)) * proposal_std
        log_q = log_density(x, flow)
        log_proposal = (-0.5 * np.sum((x / proposal_std) ** 2, axis=1)
                        - np.log(2 * np.pi * proposal_std ** 2))
        weights = np.exp(log_q - log_proposal)
        assert weights.mean() == pytest.approx(1.0, abs=0.02)

    def test_sampling_matches_density_histogram(self):
        config = FlowConfig(dim=2, n_groups=2, layers_per_stage=3, hidden_width=8,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=23, scale=0.3)
        rng = np.random.default_rng(24)
        draws = krnet_inverse(rng.standard_normal((400_000, 2)), flow)
        # density integrated over a few coarse boxes vs histogram mass
        edges = np.array([-2.0, -0.5, 0.5, 2.0])
        for i in range(3):
            for j in range(3):
                inside = ((draws[:, 0] >= edges[i]) & (draws[:, 0] < edges[i + 1])
                          & (draws[:, 1] >= edges[j]) & (draws[:, 1] < edges[j + 1]))
                mass_mc = inside.mean()
                # midpoint quadrature of q over the box
                xs = np.linspace(edges[i], edges[i + 1], 24, endpoint=False) + \
                    (edges[i + 1] - edges[i]) / 48
                ys = np.linspace(edges[j], edges[j + 1], 24, endpoint=False) + \
                    (edges[j + 1] - edges[j]) / 48
                gx, gy = np.meshgrid(xs, ys)
                pts = np.column_stack([gx.ravel(), gy.ravel()])
                q = np.exp(log_density(pts, flow))
                mass_q = q.mean() * (edges[i + 1] - edges[i]) * (edges[j + 1] - edges[j])
                se = np.sqrt(mass_mc * (1 - mass_mc) / len(draws))
                assert abs(mass_mc - mass_q) < max(5 * se, 0.004), (i, j)

    def test_gradient_matches_finite_differences(self):
        config = FlowConfig(dim=4, n_groups=2, layers_per_stage=2, hidden_width=6,
                            hidden_depth=2, scale_bound=2.0)
        flow = random_flow(config, seed=25, scale=0.4)
        x = np.random.default_rng(26).standard_normal((3, 4))

        def program(leaves):
            return ad.mean_(log_density(x, leaves, config))

        value, grads = ad.evaluate_with_gradients(program, flow.store)
        h = 1e-6
        for name in flow.store:
            arr = flow.store[name]
            flat = arr.ravel()
            for k in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = ad.evaluate_with_gradients(program, flow.store)
                flat[k] = orig - h
                down, _ = ad.evaluate_with_gradients(program, flow.store)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[name].ravel()[k]), 1e-8)
                assert abs(grads[name].ravel()[k] - fd) / scale < 1e-5, (name, k)


def test_checkpoint_missing_a_key_names_the_sidecar(tmp_path):
    config = FlowConfig(dim=4, n_groups=2, layers_per_stage=1, hidden_width=4,
                        hidden_depth=1, scale_bound=2.0)
    prefix = str(tmp_path / "flow")
    save_model(prefix, init_flow(config, seed=3), seed=3)
    meta = read_json(f"{prefix}.json")
    del meta["config"]["hidden_width"]
    write_json(f"{prefix}.json", meta)
    with pytest.raises(ValueError, match=r"flow\.json: missing key 'hidden_width'"):
        load_model(FlowParams, prefix)


# a sidecar whose config the container's coupling nets do not match, or
# that FlowConfig itself rejects
@pytest.mark.parametrize("key,value,reason", [
    ("hidden_width", 3, r"flow\.bin: entry 's0\.l0\.W0' is \(2, 4\) here, but the layer "
                        r"sizes in .*flow\.json give \(2, 3\)"),
    ("n_groups", 3, r"flow\.json: n_groups must be >= 2 and divide dim")])
def test_checkpoint_at_odds_with_its_config_names_the_file(tmp_path, key, value, reason):
    config = FlowConfig(dim=4, n_groups=2, layers_per_stage=1, hidden_width=4,
                        hidden_depth=1, scale_bound=2.0)
    prefix = str(tmp_path / "flow")
    save_model(prefix, init_flow(config, seed=3), seed=3)
    meta = read_json(f"{prefix}.json")
    meta["config"][key] = value
    write_json(f"{prefix}.json", meta)
    with pytest.raises(ValueError, match=reason):
        load_model(FlowParams, prefix)


def test_checkpoint_roundtrip(tmp_path):
    config = FlowConfig(dim=8, n_groups=4, layers_per_stage=2, hidden_width=8,
                        hidden_depth=2, scale_bound=2.0)
    flow = random_flow(config, seed=31)
    prefix = str(tmp_path / "flow")
    save_model(prefix, flow, seed=31, final_loss=1.25)
    loaded, meta = load_model(FlowParams, prefix)
    assert loaded.config == config
    assert meta["final_loss"] == 1.25
    assert loaded.store == flow.store
    x = np.random.default_rng(1).standard_normal((3, 8))
    z1, l1 = krnet_forward(x, flow)
    z2, l2 = krnet_forward(x, loaded)
    np.testing.assert_array_equal(z1, z2)
    np.testing.assert_array_equal(l1, l2)


def test_flow_config_validation():
    with pytest.raises(ValueError, match="divide"):
        FlowConfig(dim=10, n_groups=4, layers_per_stage=8, hidden_width=48,
                   hidden_depth=2, scale_bound=2.0)
    with pytest.raises(ValueError, match="layers_per_stage"):
        FlowConfig(dim=8, n_groups=2, layers_per_stage=0, hidden_width=48,
                   hidden_depth=2, scale_bound=2.0)
