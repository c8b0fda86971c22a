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
from .nets import init_mlp, mlp_forward, std_normal_logpdf
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


def _coupling_scale_shift(params: Mapping[str, object], kept_vals, config: FlowConfig,
                          prefix: str, n_trans: int):
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


def coupling_forward(x_active, params: Mapping[str, object], config: FlowConfig,
                     prefix: str, split: tuple[np.ndarray, np.ndarray]):
    """One affine coupling layer on the active block; returns (out, logdet)."""
    kept, trans = split
    xk = ad.take_cols(x_active, kept)
    xt = ad.take_cols(x_active, trans)
    s, t = _coupling_scale_shift(params, xk, config, prefix, len(trans))
    yt = ad.add(ad.mul(xt, ad.exp(s)), t)
    out = _reassemble(xk, yt, kept, trans, x_active.shape[-1])
    return out, ad.sum_(s, axis=-1)


def coupling_inverse(z_active, params: Mapping[str, object], config: FlowConfig,
                     prefix: str, split: tuple[np.ndarray, np.ndarray]):
    """Exact algebraic inverse of coupling_forward; returns (out, logdet_inv)."""
    kept, trans = split
    zk = ad.take_cols(z_active, kept)
    zt = ad.take_cols(z_active, trans)
    s, t = _coupling_scale_shift(params, zk, config, prefix, len(trans))
    xt = ad.mul(ad.sub(zt, t), ad.exp(ad.mul(s, -1.0)))
    out = _reassemble(zk, xt, kept, trans, z_active.shape[-1])
    return out, ad.mul(ad.sum_(s, axis=-1), -1.0)


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
            cur, ld = coupling_forward(cur, params, config, prefix, _split(m, l))
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
            cur, ld = coupling_inverse(cur, params, config, prefix, _split(m, l))
            logdet = ld if logdet is None else ad.add(logdet, ld)
    return (cur, logdet) if with_logdet else cur


def log_density(x, params: Mapping[str, object] | FlowParams,
                config: FlowConfig | None = None):
    """log q(x) = log N(f(x); 0, I) + log|det df/dx| of a (B, d) batch; (B,)."""
    params, config = _unpack(params, config)
    z, logdet = krnet_forward(x, params, config)
    return ad.add(std_normal_logpdf(z), logdet)


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

