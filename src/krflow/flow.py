"""Invertible triangular transport map built from grouped affine couplings.

The latent dimension is split into K equal groups.  Stage t applies L affine
coupling layers to the currently active block (the first ``d - (t-1)*d/K``
coordinates) and then freezes that block's last group: frozen coordinates
pass through all later layers bitwise unchanged and are never read by later
coupling networks.  After K-1 stages only the first group remains and no
further layers act.

Within a stage the coupling layers alternate which half of the active block
is transformed (even positions conditioned on odd, then swapped).  Each
transformed coordinate gets ``x * exp(s) + t`` where ``(s_raw, t)`` come from
a small dense network fed by the kept half and ``s = bound * tanh(s_raw)``
keeps the scale numerically safe.  Coupling nets have zero-initialized final
layers, so a fresh flow is exactly the identity.

Log-determinants accumulate as plain sums of ``s`` (forward) or ``-s``
(inverse), making densities exact, and the whole map runs either on plain
numpy arrays or on the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .nets import init_mlp, mlp_forward
from .params import ParamStore


@dataclass(frozen=True)
class FlowConfig:
    dim: int
    n_groups: int
    layers_per_stage: int
    hidden_width: int
    hidden_depth: int
    scale_bound: float

    def __post_init__(self):
        if self.n_groups < 2 or self.dim % self.n_groups != 0:
            raise ValueError(
                f"n_groups must be >= 2 and divide dim: dim={self.dim}, K={self.n_groups}")
        if self.layers_per_stage < 1:
            raise ValueError("layers_per_stage must be at least 1")
        if self.scale_bound <= 0:
            raise ValueError("scale_bound must be positive")

    @property
    def group_size(self) -> int:
        return self.dim // self.n_groups

    def active_dims(self) -> list[int]:
        """Active block width per stage t = 1..K-1."""
        return [self.dim - t * self.group_size for t in range(self.n_groups - 1)]


@dataclass
class FlowParams:
    store: ParamStore
    config: FlowConfig

    @property
    def layer_sizes(self) -> dict[str, list[int]]:
        """Coupling-net prefix -> layer sizes, in layer order."""
        hidden = [self.config.hidden_width] * self.config.hidden_depth
        return {prefix: [len(kept), *hidden, 2 * len(trans)]
                for _t, _l, prefix, (kept, trans) in layer_names(self.config)}


def _split(active_dim: int, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """(kept, transformed) index sets: even/odd positions, swapped per layer."""
    even = np.arange(0, active_dim, 2)
    odd = np.arange(1, active_dim, 2)
    return (even, odd) if layer % 2 == 0 else (odd, even)


def layer_names(config: FlowConfig):
    """(stage, layer, prefix, split) for every coupling layer in order."""
    out = []
    for t, m in enumerate(config.active_dims()):
        for l in range(config.layers_per_stage):
            out.append((t, l, f"s{t}.l{l}.", _split(m, l)))
    return out


def init_flow(config: FlowConfig, seed: int) -> FlowParams:
    rng = np.random.default_rng(seed)
    flow = FlowParams(ParamStore(), config)
    flow.store = ParamStore(item for prefix, sizes in flow.layer_sizes.items()
                            for item in init_mlp(rng, sizes, prefix, zero_last=True).items())
    return flow


def coupling(x, params: Mapping[str, object], config: FlowConfig, prefix: str,
             split: tuple[np.ndarray, np.ndarray], inverse: bool = False):
    """One affine coupling layer on the active block, or its exact inverse;
    returns (out, logdet).  On the tape the kept columns' gather and the net
    are nodes of their own and the rest is one op, whose two tensors share a
    backward: it passes on the composed ops' gradient bytes, summing both
    parts of ds before tanh's backward."""
    kept, trans = split
    xk = ad.take_cols(x, kept)
    raw = mlp_forward(params, xk, prefix=prefix)
    n, tape, rv = len(trans), isinstance(raw, ad.Tensor), ad._value(raw)
    xt, t = np.asarray(ad._value(x))[..., trans], rv[..., n:]
    # a tape gather is a C-ordered copy, numpy's is not, and sums follow the layout
    th = np.tanh(ad._as_array(rv[..., :n]) if tape else ad.take_cols(rv, slice(n)))
    s = th * config.scale_bound
    if inverse:
        e = np.exp(s * -1.0)
        yt, ld = (xt - t) * e, np.add.reduce(s, axis=-1) * -1.0
    else:
        e = np.exp(s)
        yt, ld = xt * e + t, np.add.reduce(s, axis=-1)
    perm = np.argsort(np.concatenate([kept, trans]))   # out's column j is column perm[j]
    out = np.concatenate([ad._value(xk), yt], axis=-1)[..., perm]
    if not tape:
        return out, ld

    def backward(_):   # at whichever of the two tensors the walk reaches first
        out._backward = ld._backward = None
        g_out, g_ld, g_s = out.grad, ld.grad, None
        if g_ld is not None:   # through the sum of s
            g_s = np.repeat((g_ld * -1.0 if inverse else g_ld)[..., None], n, axis=-1)
        if g_out is not None:   # through the gathers, then the affine map
            g_y = g_out[..., trans]
            if ad._wants_grad(xk):
                xk._accumulate(g_out[..., kept])
            g_x = g_y * e   # of xt forward, of xt - t inverse
            if inverse:
                g_t, g_e = -g_x, (g_y * (xt - t)) * e * -1.0
            else:
                g_t, g_e = g_y, (g_y * xt) * e
            g_s = g_e if g_s is None else g_s + g_e
            ad.scatter(raw, slice(n, None), g_t)
            if ad._wants_grad(x):
                ad.scatter(x, trans, g_x)
        ad.scatter(raw, slice(n), (g_s * config.scale_bound) * (1.0 - th * th))

    ld = ad.node(ld, "coupling", (x, raw), backward)
    out = ad.node(out, "coupling", (x, raw), backward)
    return out, ld


def krnet_forward(x, params: Mapping[str, object] | FlowParams, config: FlowConfig | None = None):
    """Map a (B, d) batch x -> z through all stages; returns (z, (B,) logdet)."""
    params, config = _unpack(params, config)
    _check_dim(x, config)
    cur = x
    logdet = None
    frozen = []
    for t, m in enumerate(config.active_dims()):
        for l in range(config.layers_per_stage):
            prefix = f"s{t}.l{l}."
            cur, ld = coupling(cur, params, config, prefix, _split(m, l))
            logdet = ld if logdet is None else ad.add(logdet, ld)
        # freeze the last group of the active block
        keep = m - config.group_size
        frozen.append(ad.take_cols(cur, slice(keep, m)))
        cur = ad.take_cols(cur, slice(keep))
    return ad.concat([cur, *reversed(frozen)], axis=-1), logdet


def krnet_inverse(z, params: Mapping[str, object] | FlowParams, config: FlowConfig | None = None,
                  with_logdet: bool = False):
    """Exact inverse of krnet_forward on a (B, d) batch, stages and layers reversed.

    With ``with_logdet=True`` also returns the (B,) log|det d(x)/d(z)|, which
    equals minus the forward log-determinant at the same point.
    """
    params, config = _unpack(params, config)
    _check_dim(z, config)
    active_dims = config.active_dims()
    # thaw order is the reverse of the freeze order
    cur = ad.take_cols(z, slice(active_dims[-1] - config.group_size))
    offset = active_dims[-1] - config.group_size
    logdet = None
    for t in reversed(range(len(active_dims))):
        m = active_dims[t]
        cur = ad.concat([cur, ad.take_cols(z, slice(offset, offset + config.group_size))],
                        axis=-1)
        offset += config.group_size
        for l in reversed(range(config.layers_per_stage)):
            prefix = f"s{t}.l{l}."
            cur, ld = coupling(cur, params, config, prefix, _split(m, l), inverse=True)
            logdet = ld if logdet is None else ad.add(logdet, ld)
    return (cur, logdet) if with_logdet else cur


def _unpack(params, config):
    if isinstance(params, FlowParams):
        return params.store, params.config
    if config is None:
        raise ValueError("config is required when passing a raw parameter mapping")
    return params, config


def _check_dim(x, config: FlowConfig) -> None:
    shape = x.shape if isinstance(x, ad.Tensor) else np.shape(x)
    if len(shape) != 2 or shape[1] != config.dim:
        raise ad.ShapeError(f"flow of dimension {config.dim} expects (B, d) input, got {shape}")

