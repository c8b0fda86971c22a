"""Dense network building blocks shared by the VAE, the flow and the surrogate.

All forward functions dispatch through :mod:`krflow.autodiff`, so they accept
either plain numpy arrays (fast, tape-free) or ``Tensor`` leaves (when a
training loop needs gradients).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad

LOG_2PI = float(np.log(2.0 * np.pi))

# unused by the models (ad.dense applies ReLU); kept as the benchmark's tracer rebinds it
ACTIVATIONS = {"relu": ad.relu}


def mlp_shapes(stacks: Mapping[str, Sequence[int]]) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the parameters of dense stacks given as prefix -> layer sizes."""
    shapes = {}
    for prefix, sizes in stacks.items():
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            shapes[f"{prefix}W{i}"], shapes[f"{prefix}b{i}"] = (fan_in, fan_out), (fan_out,)
    return shapes


def init_mlp(rng: np.random.Generator, sizes: Sequence[int], prefix: str = "",
             zero_last: bool = False) -> dict[str, np.ndarray]:
    """He-style uniform fan-in initialization for a dense stack.

    Weights are named ``{prefix}W{i}`` / ``{prefix}b{i}``.  ``zero_last``
    zeroes the final layer, which e.g. starts a coupling flow at the identity.
    """
    out: dict[str, np.ndarray] = {}
    last = f"{prefix}W{len(sizes) - 2}"
    for name, shape in mlp_shapes({prefix: sizes}).items():
        limit = np.sqrt(6.0 / shape[0])
        zero = len(shape) == 1 or zero_last and name == last
        out[name] = np.zeros(shape) if zero else rng.uniform(-limit, limit, size=shape)
    return out


def check_dense_stacks(store, stacks: Mapping[str, Sequence[int]], path, sidecar) -> None:
    """Raise ValueError naming ``path`` unless ``store`` holds exactly the
    parameters of the dense ``stacks`` whose layer sizes ``sidecar`` gives."""
    want, have = mlp_shapes(stacks), {name: arr.shape for name, arr in store.items()}
    for name in dict.fromkeys([*want, *have]):
        if have.get(name) != want.get(name):
            raise ValueError(f"{path}: entry '{name}' is {have.get(name, 'missing')} here, "
                             f"but the layer sizes in {sidecar} give {want.get(name, 'none')}")


def dense_layers(params: Mapping[str, object], prefix: str = "") -> list[tuple]:
    """The ``(W, b)`` pairs of the dense stack named ``{prefix}W{i}``/``{prefix}b{i}``.

    Depth is discovered from the parameter names.
    """
    layers = []
    while f"{prefix}W{len(layers)}" in params:
        i = len(layers)
        layers.append((params[f"{prefix}W{i}"], params[f"{prefix}b{i}"]))
    if not layers:
        raise KeyError(f"no parameters found under prefix '{prefix}'")
    return layers


def mlp_forward(params: Mapping[str, object], x, prefix: str = ""):
    """Apply the dense stack named ``{prefix}W{i}``/``{prefix}b{i}``.

    Each layer is one ``ad.dense``, with ReLU after every layer except the last.
    """
    layers = dense_layers(params, prefix)
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.dense(h, w, b, relu=i < len(layers) - 1)
    return h


def diag_gaussian_logpdf(x, mean, logvar):
    """Row-wise log N(x; mean, diag(exp(logvar))), summed over the last axis;
    one tape node, whose backward passes logvar, x and mean the bytes the
    composed ops -0.5 * ((x - mean)^2 * exp(-logvar) + logvar + log 2pi) would."""
    tape = any(isinstance(a, ad.Tensor) for a in (x, mean, logvar))
    # C-ordered operands keep every value C-ordered, as tape nodes are: sums follow the layout
    xv, mv, lv = ((ad._as_array if tape else np.asarray)(ad._value(a)) for a in (x, mean, logvar))
    delta = xv - mv
    sq, e = delta * delta, np.exp(lv * -1.0)
    terms = (sq * e + lv + LOG_2PI) * -0.5
    data = np.add.reduce(terms, axis=-1)
    if not tape:
        return data

    def backward(g):
        g = np.repeat((g * -0.5)[..., None], terms.shape[-1], axis=-1)
        if ad._wants_grad(logvar):   # through + logvar, then through exp(-logvar)
            logvar._accumulate(ad._unbroadcast(g, lv.shape))
            logvar._accumulate((ad._unbroadcast(g * sq, e.shape) * e) * -1.0)
        c = ad._unbroadcast(g * e, sq.shape) * delta   # then through (x - mean)^2
        g_delta = c + c
        if ad._wants_grad(x):
            x._accumulate(ad._unbroadcast(g_delta, xv.shape))
        if ad._wants_grad(mean):
            mean._accumulate(ad._unbroadcast(-g_delta, mv.shape))

    return ad.node(data, "gaussian", (x, mean, logvar), backward)


def std_normal_logpdf(x):
    """Row-wise log N(x; 0, I), summed over the last axis; one tape node, whose
    backward passes x the composed ops' two equal terms in turn."""
    xv = np.asarray(ad._value(x))
    data = np.add.reduce(xv * xv + LOG_2PI, axis=-1) * -0.5
    if not isinstance(x, ad.Tensor):
        return data

    def backward(g):
        c = (g * -0.5)[..., None] * xv
        x._accumulate(c)
        x._accumulate(c)

    return ad.node(data, "std_normal", (x,), backward)
