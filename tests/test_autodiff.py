import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krflow import autodiff as ad
from krflow.autodiff import Tensor, evaluate_with_gradients, fixed_conv2d
from krflow.nets import LOG_2PI, diag_gaussian_logpdf, init_mlp, mlp_forward, std_normal_logpdf
from krflow.params import AdamState, ParamStore, adam_step


def finite_difference_grads(program, params, h=1e-5):
    """Central finite differences of the scalar program, parameter by parameter."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up, _ = evaluate_with_gradients(program, params)
            flat[k] = orig - h
            down, _ = evaluate_with_gradients(program, params)
            flat[k] = orig
            g.ravel()[k] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def test_sum_of_squares_value_and_gradient():
    params = ParamStore({"p": np.array([1.0, 2.0, 3.0])})
    value, grads = evaluate_with_gradients(
        lambda t: ad.sum_(ad.mul(t["p"], t["p"])), params)
    assert value == pytest.approx(14.0)
    np.testing.assert_allclose(grads["p"], [2.0, 4.0, 6.0])


def test_constant_program_has_zero_gradients():
    params = ParamStore({"p": np.array([1.0, 2.0])})
    value, grads = evaluate_with_gradients(lambda t: Tensor.constant(5.0), params)
    assert value == 5.0
    np.testing.assert_array_equal(grads["p"], np.zeros(2))


def test_three_layer_network_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    sizes = [4, 5, 6, 1]
    params = ParamStore(init_mlp(rng, sizes))
    x = rng.standard_normal((3, 4))

    def program(t):
        return ad.sum_(ad.tanh(mlp_forward(t, x)))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    for name in params:
        assert relative_error(grads[name], fd[name]) < 1e-5, name


@pytest.mark.parametrize("op", ["exp", "tanh", "relu"])
def test_unary_op_gradients(op):
    rng = np.random.default_rng(3)
    base = rng.standard_normal(8) * 0.7
    if op == "relu":
        base[np.abs(base) < 1e-2] += 0.1  # keep away from the kink
    params = ParamStore({"x": base})
    fn = getattr(ad, op)

    def program(t):
        return ad.sum_(ad.mul(fn(t["x"]), np.arange(1.0, 9.0)))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    assert relative_error(grads["x"], fd["x"]) < 1e-6


@pytest.mark.parametrize("op", ["add", "sub"])
def test_broadcast_bias_gradient(op):
    rng = np.random.default_rng(11)
    params = ParamStore({"x": rng.standard_normal((5, 4)), "b": rng.standard_normal(4)})
    fn = getattr(ad, op)

    def program(t):
        v = fn(t["x"], t["b"])
        return ad.sum_(ad.mul(v, v))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    for name in params:
        assert relative_error(grads[name], fd[name]) < 1e-6, name


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
@pytest.mark.parametrize("float_first", [False, True])
def test_float_operand_stays_a_float(op, float_first, monkeypatch):
    # a Python float joins the node as a scalar: no constant Tensor is built
    params = ParamStore({"x": np.array([[1.5, -2.0], [0.25, 3.0]])})
    monkeypatch.setattr(Tensor, "constant", staticmethod(lambda data: pytest.fail("wrapped")))
    fn = getattr(ad, op)
    seen = {}

    def program(t):
        seen["out"] = fn(-0.5, t["x"]) if float_first else fn(t["x"], -0.5)
        return ad.sum_(seen["out"])

    _, grads = evaluate_with_gradients(program, params)
    x = params["x"]
    expected = getattr(np, {"add": "add", "sub": "subtract", "mul": "multiply"}[op])(
        *((-0.5, x) if float_first else (x, -0.5)))
    np.testing.assert_array_equal(seen["out"].data, expected)
    assert seen["out"].requires_grad
    slope = {"add": 1.0, "sub": -1.0 if float_first else 1.0, "mul": -0.5}[op]
    np.testing.assert_array_equal(grads["x"], np.full((2, 2), slope))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul", "concat"])
@pytest.mark.parametrize("array_first", [False, True])
def test_array_operand_is_not_wrapped(op, array_first, monkeypatch):
    # an ndarray operand is read as it is: no constant Tensor is built
    params = ParamStore({"x": np.array([[1.5, -2.0], [0.25, 3.0]])})
    c = np.array([[0.5, -1.0], [2.0, 0.75]])
    fn, ref = {
        "add": (ad.add, np.add), "sub": (ad.sub, np.subtract), "mul": (ad.mul, np.multiply),
        "matmul": (ad.matmul, np.matmul),
        "concat": (lambda a, b: ad.concat([a, b], axis=-1),
                   lambda a, b: np.concatenate([a, b], axis=-1)),
    }[op]
    monkeypatch.setattr(Tensor, "constant", staticmethod(lambda data: pytest.fail("wrapped")))
    seen = {}

    def program(t):
        out = fn(c, t["x"]) if array_first else fn(t["x"], c)
        seen["data"] = out.data
        return ad.sum_(out)

    _, grads = evaluate_with_gradients(program, params)
    x = params["x"]
    np.testing.assert_array_equal(seen["data"], ref(c, x) if array_first else ref(x, c))
    fd = finite_difference_grads(program, params)
    assert relative_error(grads["x"], fd["x"]) < 1e-8


def test_mean_of_all_entries_is_0d_like_sum():
    params = ParamStore({"x": np.arange(6.0).reshape(2, 3)})
    shapes = {}

    def program(t):
        shapes["sum"] = ad.sum_(t["x"]).data.shape
        mean = ad.mean_(t["x"])
        shapes["mean"] = mean.data.shape
        return mean

    value, grads = evaluate_with_gradients(program, params)
    assert shapes == {"sum": (), "mean": ()} and value == 2.5
    np.testing.assert_array_equal(grads["x"], np.full((2, 3), 1.0 / 6.0))


@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_sum_gradient_matches_central_differences(axis):
    rng = np.random.default_rng(17)
    params = ParamStore({"x": rng.standard_normal((2, 3, 4))})
    w = rng.standard_normal(np.sum(params["x"], axis=axis).shape)

    def program(t):
        return ad.sum_(ad.mul(ad.sum_(t["x"], axis=axis), w))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    assert relative_error(grads["x"], fd["x"]) < 1e-8


@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_sum_backward_hands_on_a_fresh_writable_array(axis):
    # no backward function may update a received gradient in place, so the one
    # it passes on must not alias the one it got
    x = Tensor.leaf(np.arange(24.0).reshape(2, 3, 4), "x")
    out = ad.sum_(x, axis=axis)
    g = np.asarray(np.random.default_rng(18).standard_normal(out.shape))
    out._backward(g)
    assert x.grad.flags.writeable and not np.shares_memory(x.grad, g)
    kept = g if axis is None else np.expand_dims(g, axis)
    np.testing.assert_array_equal(x.grad, np.broadcast_to(kept, x.shape))


@pytest.mark.parametrize("mapping", [dict, ParamStore])
def test_0d_leaf_gets_a_0d_gradient(mapping):
    # the gradient has its parameter's shape, so adam_step takes it
    value, grads = evaluate_with_gradients(lambda t: ad.mul(t["c"], 3.0),
                                           mapping({"c": np.array(0.5)}))
    assert value == 1.5 and grads["c"].shape == () and grads["c"] == 3.0


def test_structural_op_gradients():
    rng = np.random.default_rng(13)
    params = ParamStore({"x": rng.standard_normal((4, 6))})
    w = rng.standard_normal(12)

    def program(t):
        left = ad.take_cols(t["x"], [0, 2, 4])
        right = ad.take_cols(t["x"], [1, 3, 5])
        joined = ad.concat([left, right], axis=-1)
        return ad.sum_(ad.mul(ad.reshape(joined, (24,)), np.resize(w, 24)))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    assert relative_error(grads["x"], fd["x"]) < 1e-6


def test_take_cols_permutation_gradient():
    rng = np.random.default_rng(17)
    params = ParamStore({"x": rng.standard_normal((3, 5))})
    w = rng.standard_normal((3, 4))

    def program(t):
        return ad.sum_(ad.mul(ad.take_cols(t["x"], [3, 0, 4, 1]), w))

    _, grads = evaluate_with_gradients(program, params)
    expected = np.zeros((3, 5))
    expected[:, [3, 0, 4, 1]] = w
    np.testing.assert_array_equal(grads["x"], expected)


@pytest.mark.parametrize("cols", [slice(2), slice(1, 4), slice(None, None, 2), slice(4, 0, -1)])
def test_take_cols_slice_matches_its_index_array(cols):
    rng = np.random.default_rng(19)
    x, w = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    idx = np.arange(5)[cols]

    def program(c):
        return lambda t: ad.sum_(ad.mul(ad.take_cols(t["x"], c), w[:, :idx.size]))

    (v1, g1), (v2, g2) = (evaluate_with_gradients(program(c), ParamStore({"x": x}))
                          for c in (cols, idx))
    assert v1 == v2
    np.testing.assert_array_equal(g1["x"], g2["x"])
    # off the tape both give the same copy, in the same memory layout
    a, b = ad.take_cols(x, cols), ad.take_cols(x, idx)
    assert a.strides == b.strides and a.tobytes(order="A") == b.tobytes(order="A")


@pytest.mark.parametrize("idx", [[0, 2, 0], [1, -4]], ids=["repeat", "negative-alias"])
def test_take_cols_rejects_repeated_columns_on_the_tape(idx):
    x = np.arange(10.0).reshape(2, 5)
    np.testing.assert_array_equal(ad.take_cols(x, idx), x[:, idx])
    with pytest.raises(ValueError, match="take_cols"):
        evaluate_with_gradients(lambda t: ad.sum_(ad.take_cols(t["x"], idx)),
                                ParamStore({"x": x}))


@pytest.mark.parametrize("a_first", [True, False])
def test_leaves_sharing_one_add_get_independent_gradients(a_first):
    # add hands one gradient array to both operands; a later contribution to
    # either leaf must not show up in the other's gradient
    params = ParamStore({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])})
    w = np.array([0.5, -2.0])

    def program(t):
        shared = ad.sum_(ad.mul(ad.add(t["a"], t["b"]), w))
        a_only = ad.sum_(ad.mul(t["a"], 3.0))
        b_only = ad.sum_(ad.mul(t["b"], 5.0))
        return ad.add(ad.add(shared, a_only), b_only) if a_first \
            else ad.add(b_only, ad.add(a_only, shared))

    _, grads = evaluate_with_gradients(program, params)
    np.testing.assert_array_equal(grads["a"], w + 3.0)
    np.testing.assert_array_equal(grads["b"], w + 5.0)


def test_gaussian_logpdf_gradient():
    rng = np.random.default_rng(19)
    params = ParamStore({
        "mean": rng.standard_normal((2, 3)),
        "logvar": rng.standard_normal((2, 3)) * 0.3,
    })
    x = rng.standard_normal((2, 3))

    def program(t):
        return ad.mean_(diag_gaussian_logpdf(x, t["mean"], t["logvar"]))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    for name in params:
        assert relative_error(grads[name], fd[name]) < 1e-5


def composed_diag_gaussian_logpdf(x, mean, logvar):
    """diag_gaussian_logpdf composed of single ops: its reference."""
    delta = ad.sub(x, mean)
    quad = ad.mul(ad.mul(delta, delta), ad.exp(ad.mul(logvar, -1.0)))
    terms = ad.mul(ad.add(ad.add(quad, logvar), LOG_2PI), -0.5)
    return ad.sum_(terms, axis=-1)


def composed_std_normal_logpdf(x):
    """std_normal_logpdf composed of single ops: its reference."""
    quad = ad.add(ad.mul(x, x), LOG_2PI)
    return ad.mul(ad.sum_(quad, axis=-1), -0.5)


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=st.integers(1, 5), dim=st.integers(1, 12), broadcast=st.booleans(),
       taped=st.lists(st.booleans(), min_size=3, max_size=3), fortran=st.booleans(),
       twice=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_gaussian_densities_are_the_composed_bytes(batch, dim, broadcast, taped,
                                                         fortran, twice, seed):
    # value and gradients of the one-node densities equal their composed
    # references bit for bit: each operand a leaf or an ndarray (C- or
    # F-ordered), a (1, D) or (B, D) mean, and x read once or also by a
    # second density, so that its gradient sums several terms
    rng = np.random.default_rng(seed)
    order = "F" if fortran else "C"
    values = {"x": rng.standard_normal((batch, dim)),
              "mean": rng.standard_normal((1 if broadcast else batch, dim)),
              "logvar": rng.standard_normal((batch, dim)) * 0.5}
    params = {k: v for (k, v), leaf in zip(values.items(), taped) if leaf}
    arrays = {k: np.asarray(v, order=order) for k, v in values.items()}
    weights = rng.standard_normal(batch)

    def program(diag, std):
        def run(t):
            x, mean, logvar = (t.get(k, arrays[k]) for k in values)
            out = ad.sum_(ad.mul(diag(x, mean, logvar), weights))
            if twice:
                out = ad.add(out, ad.sum_(std(x)))
            return ad.add(out, ad.sum_(ad.mul(std(x), weights)))
        return run

    fused = evaluate_with_gradients(
        program(diag_gaussian_logpdf, std_normal_logpdf), params)
    composed = evaluate_with_gradients(
        program(composed_diag_gaussian_logpdf, composed_std_normal_logpdf), params)
    assert _same_bytes(fused[0], composed[0])
    for name in params:
        assert _same_bytes(fused[1][name], composed[1][name]), name
    # without a tape, the plain numpy values match too
    args = arrays.values()
    assert _same_bytes(diag_gaussian_logpdf(*args), composed_diag_gaussian_logpdf(*args))
    assert _same_bytes(std_normal_logpdf(arrays["x"]), composed_std_normal_logpdf(arrays["x"]))


class TestFixedConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(23)
        field = rng.standard_normal((5, 7))
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        np.testing.assert_array_equal(fixed_conv2d(field, kernel), field)

    def test_zero_sum_kernel_on_constant_field(self):
        field = np.full((6, 6), 3.7)
        kernel = np.array([[1.0, -2.0, 1.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(fixed_conv2d(field, kernel), 0.0, atol=1e-14)

    def test_sobel_on_linear_ramp(self):
        # ramp along columns: interior response of the Sobel-x stencil is 8
        field = np.tile(np.arange(8.0), (6, 1))
        sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        out = fixed_conv2d(field, sobel_x)
        np.testing.assert_allclose(out[:, 1:-1], 8.0)

    def test_linearity(self):
        rng = np.random.default_rng(29)
        f = rng.standard_normal((5, 5))
        g = rng.standard_normal((5, 5))
        kernel = rng.standard_normal((3, 3))
        lhs = fixed_conv2d(2.5 * f - 1.25 * g, kernel)
        rhs = 2.5 * fixed_conv2d(f, kernel) - 1.25 * fixed_conv2d(g, kernel)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        params = ParamStore({"f": rng.standard_normal((4, 5))})
        kernel = rng.standard_normal((3, 3))
        w = rng.standard_normal((4, 5))

        def program(t):
            return ad.sum_(ad.mul(fixed_conv2d(t["f"], kernel), w))

        _, grads = evaluate_with_gradients(program, params)
        fd = finite_difference_grads(program, params)
        assert relative_error(grads["f"], fd["f"]) < 1e-6

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(37)
        fields = rng.standard_normal((4, 6, 5))
        kernel = rng.standard_normal((3, 3))
        batched = fixed_conv2d(fields, kernel)
        for i in range(4):
            np.testing.assert_allclose(batched[i], fixed_conv2d(fields[i], kernel))

    def test_too_small_field_rejected(self):
        with pytest.raises(ad.ShapeError):
            fixed_conv2d(np.ones((2, 5)), np.zeros((3, 3)))


def test_shape_mismatch_names_offender():
    params = ParamStore({"w": np.ones((3, 2))})
    with pytest.raises(ad.ShapeError, match="matmul"):
        evaluate_with_gradients(
            lambda t: ad.sum_(ad.matmul(t["w"], np.ones((3, 3)))), params)


def test_nonfinite_intermediate_reports_op():
    params = ParamStore({"x": np.array([800.0])})
    with pytest.raises(ad.NonFiniteError, match="exp"):
        evaluate_with_gradients(lambda t: ad.sum_(ad.exp(t["x"])), params)


@pytest.mark.parametrize("program", [
    # 30 * 15 + 30 * 15 = 900 overflows exp; mul and sum only carry the Inf on
    lambda t: ad.sum_(ad.mul(ad.exp(ad.matmul(np.full((1, 2), 30.0), t["w"])), 2.0)),
    # exp of a constant is a node without a gradient, and it still gets named
    lambda t: ad.sum_(ad.add(t["w"], ad.exp(Tensor.constant(np.full((2, 1), 900.0))))),
    # the loss is finite (clip cuts the Inf to 1); the gradient 0 * Inf is not
    lambda t: ad.sum_(ad.clip(ad.exp(ad.mul(t["w"], 800.0 / 15.0)), 0.0, 1.0)),
], ids=["mid-graph", "constant-inputs", "finite-loss"])
def test_nonfinite_names_the_op_that_produced_it(program):
    params = ParamStore({"w": np.full((2, 1), 15.0)})
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ad.NonFiniteError, match=r"^non-finite values produced by op 'exp'$"):
        evaluate_with_gradients(program, params)


def test_nonfinite_leaf_in_a_plain_dict_is_named():
    # "b" is never read by the program, so only the leaf check can catch it
    params = {"w": np.ones(2), "b": np.array([1.0, np.inf])}
    with pytest.raises(ad.NonFiniteError,
                       match=r"^non-finite values produced by op 'leaf 'b''$"):
        evaluate_with_gradients(lambda t: ad.sum_(t["w"]), params)


def test_nonfinite_gradient_alone_names_the_gradient():
    # every node is finite (1e308 * w**2 at w = 1), but the gradient 2e308 is not
    params = ParamStore({"w": np.array([1.0])})
    with np.errstate(over="ignore"), pytest.raises(
            ad.NonFiniteError, match=r"^non-finite values produced by op 'gradient of 'w''$"):
        evaluate_with_gradients(lambda t: ad.sum_(ad.mul(ad.mul(t["w"], t["w"]), 1e308)), params)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(hidden=st.lists(st.integers(1, 5), min_size=0, max_size=2),
       n_in=st.integers(1, 4), n_out=st.integers(1, 3), batch=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tape_gradients_match_central_differences(hidden, n_in, n_out, batch, seed):
    # a small dense stack read out as a Gaussian, as the VAE and the flow do:
    # matmul, add, relu, take_cols, clip, sub, exp, mul, sum_ and mean_
    rng = np.random.default_rng(seed)
    raw = init_mlp(rng, [n_in, *hidden, 2 * n_out])
    params = ParamStore({k: v + 0.1 * rng.standard_normal(v.shape) for k, v in raw.items()})
    x = rng.standard_normal((batch, n_in))
    target = rng.standard_normal((batch, n_out))

    def program(t):
        out = mlp_forward(t, x)
        mean = ad.take_cols(out, np.arange(n_out))
        logvar = ad.clip(ad.take_cols(out, np.arange(n_out, 2 * n_out)), -5.0, 5.0)
        return ad.mean_(diag_gaussian_logpdf(target, mean, logvar))

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    for name in params:
        assert relative_error(grads[name], fd[name]) < 1e-5, name


def test_numpy_fast_path_matches_tape():
    rng = np.random.default_rng(41)
    sizes = [3, 8, 2]
    raw = init_mlp(rng, sizes)
    x = rng.standard_normal((4, 3))
    fast = mlp_forward(raw, x)
    leaves = {k: Tensor.leaf(v, k) for k, v in raw.items()}
    taped = mlp_forward(leaves, Tensor.constant(x))
    assert isinstance(fast, np.ndarray)
    np.testing.assert_allclose(fast, taped.data)


_BINARY_OPS = ["add", "sub", "mul", "matmul", "concat"]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(_BINARY_OPS + ["square", "tanh"]),
                                st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=6))
def test_shared_nodes_dead_branches_and_array_operands(n, seed, steps):
    # a random program over n-by-n nodes, each step an op on one or two earlier
    # nodes (possibly the same one twice); the output reads every node again,
    # the last node s five more times, and each binary op once with an ndarray
    # on the left and once on the right
    rng = np.random.default_rng(seed)
    params = ParamStore({name: 0.5 * rng.standard_normal((n, n))
                         for name in ("a", "b", "dead", "unused")})
    arrays = 0.5 * rng.standard_normal((2 * len(_BINARY_OPS), n, n))
    picks = rng.integers(0, 99, size=len(arrays))
    cols = rng.permutation(2 * n)[:n]
    weights = rng.standard_normal((1 + len(arrays) + len(steps) + 2, n, n))

    def apply(op, x, y):
        if op == "concat":
            return ad.take_cols(ad.concat([x, y], axis=-1), cols)
        if op == "square":
            return ad.mul(x, x)
        return ad.tanh(x) if op == "tanh" else getattr(ad, op)(x, y)

    def program(t):
        nodes = [t["a"], t["b"]]
        for op, i, j in steps:
            nodes.append(apply(op, nodes[i % len(nodes)], nodes[j % len(nodes)]))
        s = nodes[-1]
        ad.tanh(ad.matmul(t["dead"], s))                        # built, never used
        terms = [ad.add(ad.add(ad.mul(s, s), ad.mul(s, s)), s)]
        for k, arr in enumerate(arrays):
            node = nodes[picks[k] % len(nodes)]
            op = _BINARY_OPS[k // 2]
            terms.append(apply(op, arr, node) if k % 2 else apply(op, node, arr))
        out = ad.sum_(ad.mul(terms[0], weights[0]))
        for term, w in zip(terms[1:] + nodes, weights[1:]):
            out = ad.add(out, ad.sum_(ad.mul(term, w)))
        ad.exp(ad.mul(t["dead"], out))                          # built after the output
        return out

    _, grads = evaluate_with_gradients(program, params)
    fd = finite_difference_grads(program, params)
    for name in ("a", "b"):
        assert relative_error(grads[name], fd[name]) < 1e-6, name
    for name in ("dead", "unused"):
        np.testing.assert_array_equal(grads[name], np.zeros((n, n)))


def _unfused_layer(h, w, b, relu):
    out = ad.add(ad.matmul(h, w), b)
    return ad.relu(out) if relu else out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(relu=st.booleans(), taped=st.sets(st.sampled_from("hwb")), shared=st.booleans(),
       integral=st.booleans(), rows=st.integers(1, 4), n_in=st.integers(1, 5),
       n_out=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_dense_is_the_unfused_layer_to_the_bit(relu, taped, shared, integral, rows, n_in,
                                               n_out, seed):
    # each of h, w and b is a tape leaf or a plain ndarray, or all three are
    # one square leaf, whose gradient then sums three terms in the unfused
    # order; small integers put pre-activations exactly on the ReLU kink at 0
    rng = np.random.default_rng(seed)
    if shared:
        n_in = n_out = rows
    shapes = {"h": (rows, n_in), "w": (n_in, n_out), "b": (n_out,)}
    arrays = {k: rng.integers(-2, 3, shape).astype(float) if integral
              else rng.standard_normal(shape) for k, shape in shapes.items()}
    upstream = rng.standard_normal((rows, n_out))   # the gradient reaching the layer
    params = {"h": arrays["h"]} if shared else {k: arrays[k] for k in sorted(taped)}

    def run(layer):
        outs = []

        def program(t):
            args = [t["h"]] * 3 if shared else [t.get(k, arrays[k]) for k in "hwb"]
            outs.append(layer(*args, relu))
            return ad.sum_(ad.mul(outs[0], upstream))

        value, grads = evaluate_with_gradients(program, params)
        out = outs[0].data if isinstance(outs[0], Tensor) else outs[0]
        gradients = {k: g.tobytes() for k, g in grads.items()}
        return out.tobytes(), np.float64(value).tobytes(), gradients

    assert run(ad.dense) == run(_unfused_layer)
    # one (d,) row on the numpy path, as pCN's single-state call passes it
    row = arrays["h"][0]
    fused, unfused = ad.dense(row, arrays["w"], arrays["b"], relu), _unfused_layer(
        row, arrays["w"], arrays["b"], relu)
    assert fused.shape == unfused.shape == (n_out,)
    assert fused.tobytes() == unfused.tobytes()


@pytest.mark.parametrize("h, w, taped", [((2, 3), (4, 5), False), ((2, 3), (4, 5), True),
                                         ((3,), (3, 5), True)],
                         ids=["numpy", "tape", "row-on-tape"])
def test_dense_rejects_mismatched_shapes_naming_both(h, w, taped):
    arg = Tensor.leaf(np.ones(h)) if taped else np.ones(h)
    with pytest.raises(ad.ShapeError, match=re.escape(f"dense: incompatible shapes {h} and {w}")):
        ad.dense(arg, np.ones(w), np.zeros(5))


_ENTRIES = st.one_of(st.sampled_from([0.0, -1.5, 1e308, -1e308, np.inf, -np.inf, np.nan]),
                     st.floats(allow_nan=True, allow_infinity=True))


def _error(fn) -> str | None:
    """The message of the NonFiniteError or ValueError ``fn()`` raises, else None."""
    try:
        fn()
    except (ad.NonFiniteError, ValueError) as exc:
        return str(exc)
    return None


def _zero_adam_step(x):
    """One zero-gradient Adam step, which leaves every parameter as it is, on
    a store whose entry "x" holds ``x`` (written past the store's own check)."""
    store = ParamStore({"a": np.ones(3), "x": np.zeros_like(x)})
    state = AdamState.fresh(store, 0.1)
    store["x"][...] = x
    adam_step(store, {"a": np.zeros(3), "x": np.zeros_like(x)}, state)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_ENTRIES, min_size=1, max_size=10))
@example(values=[1e308, 1e308])           # finite entries whose sum overflows to inf
@example(values=[-1e308, -1e308, 1.0])
@example(values=[1e308, -1e308, 1e308, 1e308])
@example(values=[np.inf, -np.inf])        # infinite entries whose sum is nan
def test_one_pass_finite_checks_raise_exactly_on_a_non_finite_entry(values):
    # the leaf check, the gradient check and Adam's sweep each raise exactly
    # when np.isfinite(x).all() is False, also where the sum of x overflows
    x = np.array(values)
    finite = bool(np.isfinite(x).all())
    assert ad.all_finite(x) is finite
    leaf = _error(lambda: Tensor.leaf(x, name="x"))
    # w's gradient is x; the zero weight keeps the value 0 where x is finite
    with np.errstate(invalid="ignore"):   # and makes it 0 * inf = nan where not
        gradient = _error(lambda: evaluate_with_gradients(
            lambda t: ad.sum_(ad.mul(t["w"], x)), {"w": np.zeros_like(x)}))
    adam = _error(lambda: _zero_adam_step(x))
    if finite:
        assert leaf is gradient is adam is None
    else:
        assert leaf == "non-finite values produced by op 'leaf 'x''"
        assert gradient == "non-finite values produced by op 'mul'"   # 0 * inf is nan
        assert adam == "parameter 'x' contains non-finite values"


@pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, -1e308, 1.0], [np.inf, 1.0],
                                    [-np.inf, 1.0]])
def test_finite_checks_warn_on_nothing_and_name_an_infinite_entry(values):
    # finite entries whose sum overflows pass all_finite, the leaf, gradient
    # and Adam checks without a warning, each called on its own; an infinite
    # entry raises each check's error
    x = np.array(values)
    finite = bool(np.isfinite(x).all())
    # w's gradient is x; w = 0 keeps the value 0, and w = 1 carries an inf on
    # through mul and sum without an invalid operation
    w = np.zeros_like(x) if finite else np.ones_like(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ad.all_finite(x) is finite
        leaf = _error(lambda: Tensor.leaf(x, name="x"))
        assert leaf == _error(lambda: evaluate_with_gradients(lambda t: ad.sum_(t["w"]),
                                                              {"w": w, "x": x}))
        gradient = _error(lambda: evaluate_with_gradients(
            lambda t: ad.sum_(ad.mul(t["w"], x)), {"w": w}))
        adam = _error(lambda: _zero_adam_step(x))
    if finite:
        assert leaf is gradient is adam is None
    else:
        assert leaf == "non-finite values produced by op 'leaf 'x''"
        assert gradient == "non-finite values produced by op 'mul'"
        assert adam == "parameter 'x' contains non-finite values"


class _NoCopy(np.ndarray):
    """A gradient row that fails a test if anything is copied into it."""

    def __setitem__(self, index, value):
        raise AssertionError("a gradient was copied into a row dense should have written")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=3), batch=st.integers(1, 5),
       relu=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_gradients_written_into_rows_are_the_bytes_returned_without_rows(widths, batch, relu,
                                                                        seed):
    # a random dense stack, then one square layer read twice (its W and b
    # gradients sum two terms), a scale read by mul and a leaf never read:
    # each row ends with the bytes evaluate_with_gradients returns without rows
    rng = np.random.default_rng(seed)
    sizes = [3, *widths]
    entries = {}
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        entries[f"W{i}"] = rng.standard_normal((n_in, n_out))
        entries[f"b{i}"] = rng.standard_normal(n_out)
    k = sizes[-1]
    entries.update(Wsq=rng.standard_normal((k, k)), bsq=rng.standard_normal(k),
                   scale=rng.standard_normal(k), unread=rng.standard_normal((2, 2)))
    params = ParamStore(entries)
    x = rng.standard_normal((batch, 3))

    def program(t):
        h = x
        for i in range(len(widths)):
            h = ad.dense(h, t[f"W{i}"], t[f"b{i}"], relu)
        for _ in range(2):
            h = ad.dense(h, t["Wsq"], t["bsq"], relu)
        return ad.sum_(ad.mul(h, t["scale"]))

    value, expected = evaluate_with_gradients(program, params)
    # dense computes the gradients of the leaves it alone reads into their
    # rows, so nothing is copied into those
    rows = {name: np.full(a.shape, np.pi).view(_NoCopy if name[1:].isdigit() else np.ndarray)
            for name, a in params.items()}
    row_value, grads = evaluate_with_gradients(program, params, rows)
    assert row_value == value
    for name, row in rows.items():
        assert grads[name] is row
        assert row.tobytes() == expected[name].tobytes(), name
