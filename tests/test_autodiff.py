import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krflow import autodiff as ad
from krflow.autodiff import Tensor, evaluate_with_gradients, fixed_conv2d
from krflow.nets import diag_gaussian_logpdf, init_mlp, mlp_forward
from krflow.params import ParamStore


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
        return ad.sum_(ad.square(fn(t["x"], t["b"])))

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
        evaluate_with_gradients(lambda t: ad.sum_(ad.mul(ad.square(t["w"]), 1e308)), params)


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
        return getattr(ad, op)(x) if op in ("square", "tanh") else getattr(ad, op)(x, y)

    def program(t):
        nodes = [t["a"], t["b"]]
        for op, i, j in steps:
            nodes.append(apply(op, nodes[i % len(nodes)], nodes[j % len(nodes)]))
        s = nodes[-1]
        ad.tanh(ad.matmul(t["dead"], s))                        # built, never used
        terms = [ad.add(ad.add(ad.mul(s, s), ad.square(s)), s)]
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
