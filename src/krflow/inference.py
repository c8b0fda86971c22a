"""Latent-space posterior approximation and the pCN-MCMC baseline.

The trained decoder fixes a map from latents x to fields y, and the trained
surrogate replaces the forward solve inside the likelihood.  The coupling
flow is fitted by reverse KL: draw z ~ N(0, I), pull back through the flow
inverse x = f^{-1}(z), and minimize

    mean log q(x)  -  mean log pi(D | y(x))  -  mean log N(x; 0, I),

where log q(x) = log N(z; 0, I) + log|det dx/dz|^{-1} is exact.  Decoder and
surrogate parameters stay frozen; gradients flow to the coupling networks
through the inverse map, the decoder output and the surrogate prediction.

Posterior moments use the decoder-Gaussian estimators: the mean field is the
average of decoder means over flow samples and the variance field is the
average of decoder variances (the spread of decoder means across samples is
available separately as a diagnostic, not folded in).

The pCN baseline samples the same latent posterior with the proposal
x' = sqrt(1 - beta^2) x + beta xi, whose acceptance ratio depends only on
the likelihood, and pushes retained states through the same decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, get_args

import numpy as np

from . import autodiff as ad
from .config import DecoderSampling, InferenceSection
from .darcy import ObservationSet, observation_matrix
from .flow import FlowConfig, FlowParams, init_flow, krnet_inverse
from .grf import Grid
from .nets import std_normal_logpdf
from .params import adam_step, fit
from .report import write_loss_curve
from .surrogate import SurrogateParams, pressure_layers, surrogate_forward_batch
from .vae import VaeParams, decode_batch, decoder_mean_layers


@dataclass
class KrnetLossBreakdown:
    flow_entropy_term: float        # mean log q(x)
    neg_log_likelihood_term: float  # -mean log pi(D | y)
    neg_log_prior_term: float       # -mean log N(x; 0, I)

    @property
    def total(self) -> float:
        return (self.flow_entropy_term + self.neg_log_likelihood_term
                + self.neg_log_prior_term)


@dataclass
class PosteriorSummary:
    mean_field: np.ndarray
    variance_field: np.ndarray
    relative_error: float
    n_samples: int
    # diagnostic: spread of decoder means across posterior samples, the term
    # the headline variance estimator deliberately leaves out
    mean_spread_field: np.ndarray | None = None


@dataclass
class McmcChain:
    states: np.ndarray          # (burn_keep, d) retained tail of the chain
    log_likelihoods: np.ndarray
    accepted_count: int
    total_steps: int
    step_size: float

    @property
    def acceptance_rate(self) -> float:
        return self.accepted_count / self.total_steps


def _likelihood_terms(obs: ObservationSet, grid: Grid):
    obs_matrix = observation_matrix(obs.operator, grid)      # (m, HW)
    sigma = obs.noise.per_sensor_std
    log_norm = float(np.sum(-np.log(sigma) - 0.5 * np.log(2.0 * np.pi)))
    return obs_matrix, sigma, log_norm


def observed_log_likelihood_batch(u_flat, obs: ObservationSet, grid: Grid):
    """Row-wise log pi(D | u) for a (B, H*W) batch of pressure images."""
    obs_matrix, sigma, log_norm = _likelihood_terms(obs, grid)
    predicted = ad.matmul(u_flat, obs_matrix.T)
    z = ad.mul(ad.sub(obs.values, predicted), 1.0 / sigma)
    return ad.add(ad.mul(ad.sum_(ad.square(z), axis=-1), -0.5), log_norm)


def posterior_flow_terms(z_batch: np.ndarray, flow_params, flow_config: FlowConfig,
                         vae: VaeParams, surrogate: SurrogateParams,
                         obs: ObservationSet | None,
                         zeta: np.ndarray | None = None):
    """The three reverse-KL terms, batch-averaged (tape-compatible).

    ``zeta`` activates sampled decoding: y = mu_de + sigma_de * zeta via the
    reparameterization trick, so the likelihood stays differentiable in the
    flow parameters.  With ``obs=None`` the likelihood term is identically
    zero (flat-likelihood limit, used by sanity checks).
    """
    x, logdet_inv = krnet_inverse(z_batch, flow_params, flow_config, with_logdet=True)
    # log q(x) at x = f^{-1}(z): base density of z minus the inverse logdet
    base = std_normal_logpdf(z_batch)
    entropy = ad.mean_(ad.sub(base, logdet_inv))
    log_prior = ad.mean_(std_normal_logpdf(x))

    mu_de, logvar_de = decode_batch(x, vae.store, vae)
    y_flat = mu_de
    if zeta is not None:
        y_flat = ad.add(mu_de, ad.mul(ad.exp(ad.mul(logvar_de, 0.5)), zeta))

    if obs is None:
        log_lik = 0.0
    else:
        u, _, _ = surrogate_forward_batch(y_flat, surrogate.store, surrogate)
        u_flat = ad.reshape(u, (-1, surrogate.height * surrogate.width))
        grid = Grid(surrogate.height, surrogate.width)
        log_lik = ad.mean_(observed_log_likelihood_batch(u_flat, obs, grid))
    return entropy, log_lik, log_prior


def posterior_flow_loss(z_batch: np.ndarray, flow: FlowParams, vae: VaeParams,
                        surrogate: SurrogateParams, obs: ObservationSet | None,
                        zeta: np.ndarray | None = None
                        ) -> tuple[float, KrnetLossBreakdown]:
    """Reverse-KL objective value for a (B, d) batch of base draws."""
    entropy, log_lik, log_prior = posterior_flow_terms(
        z_batch, flow.store, flow.config, vae, surrogate, obs, zeta)
    breakdown = KrnetLossBreakdown(
        flow_entropy_term=float(entropy),
        neg_log_likelihood_term=-float(log_lik),
        neg_log_prior_term=-float(log_prior),
    )
    return breakdown.total, breakdown


def train_posterior_flow(flow_config: FlowConfig, vae: VaeParams,
                         surrogate: SurrogateParams, obs: ObservationSet,
                         config: InferenceSection, seed: int,
                         curve_path=None) -> FlowParams:
    """Fit the coupling flow to the latent posterior by mini-batch Adam.

    The base dataset Z of ``config.sample_size`` standard-normal draws is
    generated once; every epoch sweeps its mini-batches.  Decoder and
    surrogate are frozen throughout.  Returns the final-epoch parameters.
    """
    if config.decoder_sampling not in get_args(DecoderSampling):
        raise ValueError(f"decoder_sampling must be one of {get_args(DecoderSampling)}")
    flow = init_flow(flow_config, seed)
    rng = np.random.default_rng(seed)
    z_data = rng.standard_normal((config.sample_size, flow_config.dim))
    n_pixels = vae.height * vae.width

    def program_for(z_batch):
        zeta = None
        if config.decoder_sampling == "sample":
            zeta = rng.standard_normal((len(z_batch), n_pixels))

        def program(leaves):
            entropy, log_lik, log_prior = posterior_flow_terms(
                z_batch, leaves, flow_config, vae, surrogate, obs, zeta)
            return ad.sub(ad.sub(entropy, log_lik), log_prior)

        return program

    store, curve = fit("flow", flow.store, z_data, config.batch_size, config.epochs,
                       config.learning_rate, program_for, adam_step)
    if curve_path is not None:
        write_loss_curve(curve_path, curve)
    return FlowParams(store, flow_config)


def posterior_moments(flow: FlowParams, vae: VaeParams, n_samples: int,
                      rng: np.random.Generator,
                      exact_field: np.ndarray | None = None) -> PosteriorSummary:
    """Decoder-Gaussian posterior moments from flow samples.

    mean_field averages decoder means; variance_field averages decoder
    variances (exactly the headline estimator).  The across-sample spread of
    decoder means is reported separately as ``mean_spread_field``.
    """
    z = rng.standard_normal((n_samples, flow.config.dim))
    x = krnet_inverse(z, flow)
    return _moments_from_latents(x, vae, exact_field)


def posterior_moments_from_states(states: np.ndarray, vae: VaeParams,
                                  exact_field: np.ndarray | None = None
                                  ) -> PosteriorSummary:
    """Same decoder-Gaussian estimators with MCMC states in place of flow draws."""
    return _moments_from_latents(np.asarray(states, dtype=np.float64), vae, exact_field)


def _moments_from_latents(x: np.ndarray, vae: VaeParams,
                          exact_field: np.ndarray | None) -> PosteriorSummary:
    mu, logvar = decode_batch(x, vae.store, vae)
    shape = (vae.height, vae.width)
    mean_field = mu.mean(axis=0).reshape(shape)
    variance_field = np.exp(logvar).mean(axis=0).reshape(shape)
    spread = mu.var(axis=0).reshape(shape)
    err = float("nan") if exact_field is None else relative_error(mean_field, exact_field)
    return PosteriorSummary(
        mean_field=mean_field,
        variance_field=variance_field,
        relative_error=err,
        n_samples=len(x),
        mean_spread_field=spread,
    )


def relative_error(mean_field: np.ndarray, exact_field: np.ndarray) -> float:
    """||mean - exact||_2 / ||exact||_2 over flattened fields."""
    mean_field = np.asarray(mean_field, dtype=np.float64)
    exact_field = np.asarray(exact_field, dtype=np.float64)
    if mean_field.shape != exact_field.shape:
        raise ValueError(f"shape mismatch: {mean_field.shape} vs {exact_field.shape}")
    denom = np.linalg.norm(exact_field)
    if denom == 0.0:
        raise ValueError("exact field has zero norm")
    return float(np.linalg.norm(mean_field - exact_field) / denom)


def make_surrogate_loglike(vae: VaeParams, surrogate: SurrogateParams,
                           obs: ObservationSet) -> Callable[[np.ndarray], float]:
    """Latent-space log-likelihood x -> log pi(D | mu_de(x)) via the surrogate.

    The returned function takes one (d,) latent.  The weights are folded
    once, here, into plain dense layers that keep only what the likelihood
    reads; everything between two ReLUs is affine, so:

    - the decoder's mean head (its first H*W columns; the log-variance head
      is dropped), the map back to raw field units, the surrogate's input
      standardization and the surrogate's first layer become one layer;
    - the surrogate's pressure head (the flux heads are dropped), the
      bilinear upsampling of structured heads, the sensor interpolation and
      the division by the noise standard deviations become one (hidden, m)
      map to the whitened residual.

    The hidden layers of both networks are kept as they are.  A call is a
    chain of relu(h @ W + b) and one affine map, with no tape dispatch.  The
    folds reassociate sums, so the value matches the composition
    decode_batch -> surrogate_forward_batch -> observation_matrix to 1e-12
    relative, not bit for bit.
    """
    obs_matrix, sigma, log_norm = _likelihood_terms(
        obs, Grid(surrogate.height, surrogate.width))
    decoder = decoder_mean_layers(vae)
    body = pressure_layers(surrogate, obs_matrix.T / sigma)
    layers = decoder[:-1] + [_compose(decoder[-1], body[0])] + body[1:]
    hidden, (w_out, b_out) = layers[:-1], layers[-1]
    target = obs.values / sigma - b_out

    def log_like(x: np.ndarray) -> float:
        h = x
        for w, b in hidden:
            h = np.maximum(h @ w + b, 0.0)
        z = target - h @ w_out
        return float(-0.5 * (z @ z) + log_norm)

    return log_like


def _compose(first, second):
    """The affine map h -> (h @ W1 + b1) @ W2 + b2 as one (W, b) pair."""
    (w1, b1), (w2, b2) = first, second
    return w1 @ w2, b1 @ w2 + b2


def pcn_mcmc(log_like: Callable[[np.ndarray], float], dim: int, steps: int,
             step_size: float, seed: int, burn_keep: int) -> McmcChain:
    """Preconditioned Crank-Nicolson sampler for a standard-normal prior.

    Proposal x' = sqrt(1 - beta^2) x + beta xi with xi ~ N(0, I) preserves
    N(0, I), so the acceptance probability is the likelihood ratio alone.
    The last ``burn_keep`` states are retained; at least one must be.
    """
    if not 0.0 < step_size <= 1.0:
        raise ValueError("step_size must lie in (0, 1]")
    if not 1 <= burn_keep <= steps:
        raise ValueError(f"burn_keep must lie in [1, steps]: burn_keep={burn_keep}, "
                         f"steps={steps}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    current_ll = float(log_like(x))
    if not np.isfinite(current_ll):
        raise ValueError("log-likelihood is not finite at the initial state")

    contraction = np.sqrt(1.0 - step_size ** 2)
    kept_states = np.empty((burn_keep, dim))
    kept_ll = np.empty(burn_keep)
    accepted = 0
    for step in range(steps):
        proposal = contraction * x + step_size * rng.standard_normal(dim)
        proposal_ll = float(log_like(proposal))
        if np.log(rng.uniform()) < proposal_ll - current_ll:
            x, current_ll = proposal, proposal_ll
            accepted += 1
        tail = step - (steps - burn_keep)
        if tail >= 0:
            kept_states[tail] = x
            kept_ll[tail] = current_ll
    return McmcChain(states=kept_states, log_likelihoods=kept_ll,
                     accepted_count=accepted, total_steps=steps,
                     step_size=step_size)


def tune_pcn_step(log_like: Callable[[np.ndarray], float], dim: int, seed: int,
                  initial: float = 0.2, target: tuple[float, float] = (0.20, 0.35),
                  pilot_steps: int = 500, max_rounds: int = 12) -> float:
    """Double/halve the pCN step on pilot chains until acceptance hits the target."""
    step = initial
    for _ in range(max_rounds):
        chain = pcn_mcmc(log_like, dim, pilot_steps, step, seed, burn_keep=1)
        rate = chain.acceptance_rate
        if rate < target[0]:
            step = max(step / 2.0, 1e-4)
        elif rate > target[1]:
            step = min(step * 2.0, 1.0)
        else:
            return step
    return step
