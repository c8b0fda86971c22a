"""Data-driven field prior: Gaussian encoder/decoder trained on the ELBO.

Both conditionals are diagonal Gaussians.  The encoder maps a flattened
H*W field to (mu_en, logvar_en) of the latent x; the decoder maps x back to
(mu_de, logvar_de) over pixels.  Training maximizes the single-draw
Monte Carlo ELBO estimate per sample,

    log p(y | x) - (log q(x | y) - log p(x)),    x = mu_en + sigma_en * eps,

by mini-batch Adam, and the probabilistic decoder of the final epoch is the
prior handed to the inference stage.  Log-variance heads are clamped to
[-10, 10] to keep likelihoods non-degenerate.

Both networks live in one ``ParamStore``: the encoder's layers under
``enc.`` and the decoder's under ``dec.``, the layout ``vae.bin`` holds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .config import VaeSection
from .nets import dense_layers, diag_gaussian_logpdf, init_mlp, mlp_forward, std_normal_logpdf
from .params import ParamStore, adam_step, fit
from .report import write_loss_curve

LOGVAR_BOUND = 10.0


@dataclass
class VaeParams:
    store: ParamStore    # encoder under "enc.", decoder under "dec."
    latent_dim: int
    height: int
    width: int
    encoder_hidden: tuple[int, ...]
    decoder_hidden: tuple[int, ...]
    # affine field standardization; the Gaussian heads live in standardized
    # space and are mapped back, which keeps training well conditioned when
    # the data mean is far from zero
    offset: float
    scale: float

    @property
    def layer_sizes(self) -> dict[str, list[int]]:
        n, d = self.height * self.width, self.latent_dim
        return {"enc.": [n, *self.encoder_hidden, 2 * d], "dec.": [d, *self.decoder_hidden, 2 * n]}


@dataclass
class ElboBreakdown:
    reconstruction_term: float   # E[log p(y|x)]
    prior_term: float            # E[log p(x)]
    entropy_term: float          # E[-log q(x|y)]
    total: float


def init_vae(height: int, width: int, latent_dim: int, seed: int,
             encoder_hidden: Sequence[int], decoder_hidden: Sequence[int],
             offset: float = 0.0, scale: float = 1.0) -> VaeParams:
    rng = np.random.default_rng(seed)
    vae = VaeParams(ParamStore(), latent_dim, height, width,
                    tuple(encoder_hidden), tuple(decoder_hidden), offset, scale)
    vae.store = ParamStore(item for prefix, sizes in vae.layer_sizes.items()
                           for item in init_mlp(rng, sizes, prefix).items())
    return vae


def _split_heads(out, n: int):
    mu = ad.take_cols(out, slice(n))
    logvar = ad.clip(ad.take_cols(out, slice(n, 2 * n)), -LOGVAR_BOUND, LOGVAR_BOUND)
    return mu, logvar


def encode_batch(y_flat, params, vae: VaeParams):
    """(B, H*W) fields -> (mu_en, logvar_en), each (B, d).  Tape or numpy."""
    out = mlp_forward(params, ad.mul(ad.sub(y_flat, vae.offset), 1.0 / vae.scale),
                      prefix="enc.")
    return _split_heads(out, vae.latent_dim)


def decode_batch(x, params, vae: VaeParams):
    """(B, d) latents -> (mu_de, logvar_de), each (B, H*W).  Tape or numpy.

    The network heads live in standardized field space; the mean is mapped
    back through the affine transform and the log-variance is shifted by
    2*log(scale) (then clamped), so the returned Gaussian is over raw fields.
    """
    out = mlp_forward(params, x, prefix="dec.")
    n = vae.height * vae.width
    mu_raw = ad.take_cols(out, slice(n))
    logvar_raw = ad.take_cols(out, slice(n, 2 * n))
    mu = ad.add(ad.mul(mu_raw, vae.scale), vae.offset)
    logvar = ad.clip(ad.add(logvar_raw, 2.0 * np.log(vae.scale)),
                     -LOGVAR_BOUND, LOGVAR_BOUND)
    return mu, logvar


def decoder_mean_layers(vae: VaeParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The decoder mean as dense ``(W, b)`` layers with a ReLU between each two.

    The last layer keeps only the mean head's columns and maps straight to
    raw field units, so the stack computes decode_batch's mean (up to
    rounding) without the log-variance head.
    """
    layers = dense_layers(vae.store, prefix="dec.")
    w, b = layers[-1]
    n = vae.height * vae.width
    layers[-1] = (w[:, :n] * vae.scale, b[:n] * vae.scale + vae.offset)
    return layers


def reparameterize(mu, logvar, eps):
    """x = mu + exp(logvar / 2) * eps; works on the tape and on numpy arrays."""
    return ad.add(mu, ad.mul(ad.exp(ad.mul(logvar, 0.5)), eps))


def _elbo_terms(params, y_flat: np.ndarray, eps: np.ndarray, vae: VaeParams):
    """Batch-mean reconstruction / prior / entropy terms (tape-compatible)."""
    mu_en, logvar_en = encode_batch(y_flat, params, vae)
    x = reparameterize(mu_en, logvar_en, eps)
    mu_de, logvar_de = decode_batch(x, params, vae)
    recon = ad.mean_(diag_gaussian_logpdf(y_flat, mu_de, logvar_de))
    log_q = ad.mean_(diag_gaussian_logpdf(x, mu_en, logvar_en))
    log_p = ad.mean_(std_normal_logpdf(x))
    return recon, log_p, log_q


def elbo_batch(batch: np.ndarray, vae: VaeParams,
               rng: np.random.Generator) -> tuple[float, ElboBreakdown]:
    """Negative mean ELBO of a (B, H, W) batch with a fresh noise draw."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValueError("batch must be a nonempty (B, H, W) array")
    y_flat = batch.reshape(batch.shape[0], -1)
    eps = rng.standard_normal((batch.shape[0], vae.latent_dim))
    recon, log_p, log_q = _elbo_terms(vae.store, y_flat, eps, vae)
    breakdown = ElboBreakdown(
        reconstruction_term=float(recon),
        prior_term=float(log_p),
        entropy_term=-float(log_q),
        total=float(recon) + float(log_p) - float(log_q),
    )
    return -breakdown.total, breakdown


def train_vae(dataset: np.ndarray, config: VaeSection, seed: int,
              curve_path=None) -> VaeParams:
    """Mini-batch Adam maximization of the ELBO; returns last-epoch parameters.

    The dataset is shuffled once (seeded) and split into fixed mini-batches;
    every batch draws a fresh reparameterization noise set each epoch.  A
    per-epoch loss curve is written to ``curve_path`` when given.
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 3 or len(data) == 0:
        raise ValueError("dataset must be a nonempty (N, H, W) array")
    n, height, width = data.shape
    offset, scale = float(data.mean()), float(data.std())
    scale = scale if scale > 0 else 1.0
    vae = init_vae(height, width, config.latent_dim, seed,
                   config.encoder_hidden, config.decoder_hidden, offset, scale)
    rng = np.random.default_rng(seed)
    flat = data.reshape(n, -1)[rng.permutation(n)]

    def program_for(y_batch):
        eps = rng.standard_normal((len(y_batch), config.latent_dim))

        def program(leaves):
            recon, log_p, log_q = _elbo_terms(leaves, y_batch, eps, vae)
            return ad.mul(ad.add(ad.sub(recon, log_q), log_p), -1.0)

        return program

    store, curve = fit("VAE", vae.store, flat, config.batch_size, config.epochs,
                       config.learning_rate, program_for, adam_step)
    if curve_path is not None:
        write_loss_curve(curve_path, curve)
    return dataclasses.replace(vae, store=store)


def sample_prior(vae: VaeParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n decoder-mean fields from x ~ N(0, I); returns (n, H, W)."""
    if n == 0:
        return np.zeros((0, vae.height, vae.width))
    x = rng.standard_normal((n, vae.latent_dim))
    mu, _ = decode_batch(x, vae.store, vae)
    return mu.reshape(n, vae.height, vae.width)

