"""Latent-space posterior approximation and the pCN-MCMC baseline.

The trained decoder maps latents x to fields y and the trained surrogate
replaces the forward solve, so both methods target pi(x | D) ~
pi(D | surrogate(mu_de(x))) N(x; 0, I) through one latent likelihood,
:func:`make_surrogate_loglike`.

The coupling flow is fitted by reverse KL: draw z ~ N(0, I), pull back
through the flow inverse x = f^{-1}(z), and minimize

    mean log q(x)  -  mean log pi(D | x)  -  mean log N(x; 0, I),

where log q(x) = log N(z; 0, I) + log|det dx/dz|^{-1} is exact.  Decoder and
surrogate stay frozen; gradients reach the coupling networks through the
inverse map and the folded likelihood.  Posterior moments average decoder
means (the mean field) and decoder variances (the variance field) over the
samples, leaving out the spread of decoder means across samples.

The pCN baseline samples the same posterior with the proposal
x' = sqrt(1 - beta^2) x + beta xi, whose acceptance ratio is the likelihood
ratio alone; given step 0 it adapts beta during burn-in and freezes it for
the retained steps (Andrieu & Thoms 2008).  Every step draws its xi and its
uniform whether it accepts or not, so the proposals along a run of rejects
or of accepts are fixed in advance: pCN evaluates the likelier run in one
call (up to ``PREFETCH_WIDTH`` proposals for a ``vectorized`` likelihood)
and walks it with the pre-drawn uniforms, predictive prefetching (Brockwell
2006; Angelino et al. 2014).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .config import InferenceSection
from .darcy import ObservationSet, observation_matrix
from .flow import FlowConfig, FlowParams, init_flow, krnet_inverse
from .nets import std_normal_logpdf
from .params import ParamStore, adam_step, fit
from .report import write_loss_curve
# surrogate_forward_batch is not called here; the benchmark's tracer rebinds it by name
from .surrogate import SurrogateParams, pressure_layers, surrogate_forward_batch  # noqa: F401
from .vae import VaeParams, decode_batch, decode_blocks, decoder_mean_layers

# Rows per batched likelihood call when pCN prefetches proposals.  A desk call
# reads 1.9 MB of weights (float32 layers, float64 w_out) whatever the batch:
# 1, 4, 8 and 12 rows take 0.09, 0.16, 0.19 and 0.28 ms (2-CPU Xeon).
PREFETCH_WIDTH = 8

# pcn_mcmc(step_size=0): burn-in steps per step update, and the target acceptance
ADAPT_BLOCK = 50
ADAPT_TARGET = 0.25


@dataclass
class PosteriorSummary:
    mean_field: np.ndarray
    variance_field: np.ndarray
    relative_error: float
    n_samples: int


@dataclass
class McmcChain:
    states: np.ndarray          # (burn_keep, d) retained tail of the chain
    log_likelihoods: np.ndarray
    accepted_count: int
    total_steps: int
    step_size: float
    # likelihood rows evaluated, the initial state and prefetched proposals the
    # chain never reached included
    likelihood_evaluations: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted_count / self.total_steps


def posterior_flow_terms(z_batch: np.ndarray, flow_params, flow_config: FlowConfig,
                         log_like: Callable):
    """The three reverse-KL terms, batch-averaged (tape-compatible).

    ``log_like`` is the latent likelihood of :func:`make_surrogate_loglike`.
    """
    x, logdet_inv = krnet_inverse(z_batch, flow_params, flow_config, with_logdet=True)
    # log q(x) at x = f^{-1}(z): base density of z minus the inverse logdet
    base = std_normal_logpdf(z_batch)
    entropy = ad.mean_(ad.sub(base, logdet_inv))
    log_prior = ad.mean_(std_normal_logpdf(x))
    log_lik = ad.mean_(log_like(x))
    return entropy, log_lik, log_prior


def train_posterior_flow(flow_config: FlowConfig, vae: VaeParams,
                         surrogate: SurrogateParams, obs: ObservationSet,
                         config: InferenceSection, seed: int,
                         curve_path=None) -> FlowParams:
    """Fit the coupling flow to the latent posterior by mini-batch Adam.

    The base dataset Z of ``config.sample_size`` standard-normal draws is
    generated once, in the VAE's dtype, the flow's; every epoch sweeps its
    mini-batches.  Decoder and surrogate are frozen throughout, folded once
    into the likelihood pCN uses.  Returns the final-epoch parameters.
    """
    z_data = np.random.default_rng(seed).standard_normal((config.sample_size, flow_config.dim))
    log_like = make_surrogate_loglike(vae, surrogate, obs)

    def program_for(z_batch):
        def program(leaves):
            entropy, log_lik, log_prior = posterior_flow_terms(
                z_batch, leaves, flow_config, log_like)
            return ad.sub(ad.sub(entropy, log_lik), log_prior)

        return program

    store, curve = fit("flow", ParamStore(init_flow(flow_config, seed).store, vae.store.dtype),
                       z_data.astype(vae.store.dtype), config.batch_size, config.epochs,
                       config.learning_rate, program_for, adam_step)
    if curve_path is not None:
        write_loss_curve(curve_path, curve)
    return FlowParams(store, flow_config)


def posterior_moments(flow: FlowParams, vae: VaeParams, n_samples: int,
                      rng: np.random.Generator,
                      exact_field: np.ndarray | None = None) -> PosteriorSummary:
    """Decoder-Gaussian posterior moments of ``n_samples`` flow draws."""
    z = rng.standard_normal((n_samples, flow.config.dim))
    return posterior_moments_from_states(krnet_inverse(z, flow), vae, exact_field)


def posterior_moments_from_states(states: np.ndarray, vae: VaeParams,
                                  exact_field: np.ndarray | None = None
                                  ) -> PosteriorSummary:
    """Decoder-Gaussian posterior moments of an (n, d) set of latents.

    mean_field averages decoder means; variance_field averages decoder
    variances (exactly the headline estimator, which leaves out the spread
    of decoder means across samples), to one batch's bits (see decode_blocks).
    """
    states = np.asarray(states, dtype=np.float64)
    if not (n := len(states)):
        raise ValueError("posterior_moments_from_states: no states given")
    shape = (vae.height, vae.width)
    mu = np.empty((n, vae.height * vae.width), order="F")
    variance = np.empty_like(mu)
    for rows in decode_blocks(n):
        mu[rows], logvar = decode_batch(states[rows], vae.store, vae)
        variance[rows] = np.exp(logvar)
    mean_field = mu.mean(axis=0).reshape(shape)
    err = float("nan") if exact_field is None else relative_error(mean_field, exact_field)
    return PosteriorSummary(mean_field, variance.mean(axis=0).reshape(shape), err, n)


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
                           obs: ObservationSet) -> Callable:
    """Latent-space log-likelihood x -> log pi(D | mu_de(x)) via the surrogate.

    It maps one (d,) latent to a ``float``, an (n, d) batch to (n,) values and
    the flow's (n, d) ``Tensor`` to an (n,) ``Tensor``; ``vectorized = True``
    lets :func:`pcn_mcmc` evaluate its prefetched proposals in one call.  The
    weights are folded once, in float64, into dense layers that keep only
    what the likelihood reads.  Everything between two ReLUs is affine, so
    the decoder's mean head (its first H*W columns), the map back to raw field
    units, the surrogate's input standardization and its first layer become
    one layer, and the surrogate's output layer, the sensor interpolation's
    rows at its pressure unknowns (the Dirichlet columns are zero) and the
    division by the noise standard deviations one (hidden, m) map to the
    whitened residual.

    A call runs the hidden layers in the VAE's dtype, each one ``ad.dense``,
    then one float64 tape node: -|z|^2 / 2 plus the log normalizer of
    z = target - h @ w_out, with the composed ops' bytes, passing h its
    gradient in h's dtype.  With float64 stores the value matches the
    composition decode_batch -> surrogate_forward_batch -> observation_matrix
    to 1e-12 relative (the folds reassociate sums), and a (d,) call, through
    vector-matrix products, its batch row within 1e-15 of sum |z| (|target| +
    |h| @ |w_out|).  With the float32 stores the CLI trains, two desk models'
    values at 2,000 prior draws (-26,588 to 100, median about -1,400) came
    within 0.013 of the float64 composition (median 3e-4), and (d,) calls
    within 0.015 of their batch rows.
    """
    hidden, w_out, target, log_norm = _folded_likelihood(vae, surrogate, obs)
    dtype = vae.store.dtype

    def log_like(x):
        h = x if isinstance(x, ad.Tensor) else np.asarray(x, dtype)
        for w, b in hidden:
            h = ad.dense(h, w, b, relu=True)
        z = target - np.asarray(ad._value(h), np.float64) @ w_out
        value = np.add.reduce(z * z, axis=-1) * -0.5 + log_norm
        if not isinstance(h, ad.Tensor):
            return value
        # each factor of z * z passes z -g z / 2, and their sum, exactly -2 times
        # one, goes to h through -(h @ w_out), as the composed ops passed them
        return ad.node(value, "likelihood", (h,), lambda g: h._accumulate(
            (((g * -0.5)[..., None] * z * -2.0) @ w_out.T).astype(dtype, copy=False)))

    log_like.vectorized = True
    return log_like


def _folded_likelihood(vae: VaeParams, surrogate: SurrogateParams, obs: ObservationSet):
    """The folds of :func:`make_surrogate_loglike`, made in float64: the hidden
    (W, b) layers in the VAE's dtype, the float64 output map and target of the
    whitened residual z = target - h @ w_out, and the log normalizer."""
    obs_matrix = observation_matrix(obs.operator, surrogate.grid)      # (m, HW)
    decoder = decoder_mean_layers(vae)
    body = pressure_layers(surrogate, obs_matrix.T / obs.sigma)
    (w1, b1), (w2, b2) = decoder[-1], body[0]   # no ReLU between them
    layers = decoder[:-1] + [(w1 @ w2, b1 @ w2 + b2)] + body[1:]
    hidden = [tuple(a.astype(vae.store.dtype, copy=False) for a in wb) for wb in layers[:-1]]
    w_out, b_out = layers[-1]
    log_norm = float(np.sum(-np.log(obs.sigma) - 0.5 * np.log(2.0 * np.pi)))
    return hidden, w_out, obs.values / obs.sigma - b_out, log_norm


def pcn_mcmc(log_like: Callable[[np.ndarray], float], dim: int, steps: int,
             step_size: float, seed: int, burn_keep: int) -> McmcChain:
    """Preconditioned Crank-Nicolson sampler for a standard-normal prior.

    Proposal x' = sqrt(1 - beta^2) x + beta xi with xi ~ N(0, I) preserves
    N(0, I), so the acceptance probability is the likelihood ratio alone.
    The last ``burn_keep`` >= 1 states are retained.  Each step draws
    ``standard_normal(dim)`` then ``uniform()`` from one generator seeded by
    ``seed``, whether it accepts or not.  ``step_size`` is beta in (0, 1], or
    0 to adapt beta during burn-in, the first ``steps - burn_keep`` steps:
    from 0.2, each whole block n of ``ADAPT_BLOCK`` burn-in steps with
    acceptance a_n multiplies beta by exp((a_n - ADAPT_TARGET) / sqrt(n)),
    clipped to [1e-4, 1]; the result reports the frozen beta as ``step_size``.

    Proposals are evaluated in prefetched paths (see :func:`_pcn_prefetch`)
    of at most ``PREFETCH_WIDTH`` rows for a ``log_like`` with a true
    ``vectorized`` attribute, which must also map an (n, d) array, not kept
    (it is reused), to n values; any other callable gets one (d,) array per
    call.  Every step sees its own xi and u and makes the same comparison, so
    states and accepted count are those of one call per step as long as a
    batch row equals the (d,) value; where they differ, a decision could
    differ only if log u falls within that difference of the log ratio.
    ``likelihood_evaluations`` counts the rows evaluated, so its ratio to
    ``total_steps`` shows the prefetched work that went unused.
    """
    if not 0.0 <= step_size <= 1.0:
        raise ValueError("step_size must be 0 (adapt during burn-in) or lie in (0, 1]")
    if not 1 <= burn_keep <= steps:
        raise ValueError(f"burn_keep must lie in [1, steps]: burn_keep={burn_keep}, "
                         f"steps={steps}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    current_ll = float(log_like(x))
    if not np.isfinite(current_ll):
        raise ValueError("log-likelihood is not finite at the initial state")

    kept_states = np.empty((burn_keep, dim))
    kept_ll = np.empty(burn_keep)
    width = PREFETCH_WIDTH if getattr(log_like, "vectorized", False) else 1
    adapt_steps = 0 if step_size else (steps - burn_keep) // ADAPT_BLOCK * ADAPT_BLOCK
    accepted, evaluations, step_size = _pcn_prefetch(
        log_like, width, x, current_ll, steps, step_size or 0.2, adapt_steps, rng,
        kept_states, kept_ll)
    return McmcChain(states=kept_states, log_likelihoods=kept_ll,
                     accepted_count=accepted, total_steps=steps,
                     step_size=step_size, likelihood_evaluations=evaluations)


def _pcn_prefetch(log_like, width, x, current_ll, steps, step_size, adapt_steps, rng,
                  kept_states, kept_ll) -> tuple[int, int, float]:
    """The pCN loop of :func:`pcn_mcmc`, its proposals evaluated in straight paths.

    Step t's proposal depends only on the state before it and on xi_t, its
    decision only on the two log-likelihoods and u_t, and no draw depends on
    a decision.  So each round fixes its next n <= ``width`` proposals along
    one path: all from the current state (the reject path) while the
    acceptance so far, (accepted + 1) / (steps done + 2), is at most 1/2,
    else each from the one before (the accept path).  One call evaluates the
    path, which is walked with the pre-drawn log u exactly as one proposal
    per step decides, up to and including the first step that leaves it; the
    draws of steps not walked carry over.  At width 1 the path is one (d,)
    copy: the plain loop.  In the first ``adapt_steps`` steps a round stops
    at the next block boundary, so no step_size * xi spans a step change.
    Returns the accepted count, the likelihood rows evaluated (the initial
    state included) and the final step.
    """
    dim = len(x)
    first_kept = steps - len(kept_ll)
    contraction = np.sqrt(1.0 - step_size ** 2)
    proposals = np.empty((width, dim))
    draws: list[tuple[np.ndarray, float]] = []   # (step_size * xi, log u), oldest first
    accepted, evaluations, step, block_start_accepted = 0, 1, 0, 0
    while step < steps:
        horizon = steps if step >= adapt_steps else (step // ADAPT_BLOCK + 1) * ADAPT_BLOCK
        n = min(width, horizon - step)
        while len(draws) < n:
            draws.append((step_size * rng.standard_normal(dim), np.log(rng.uniform())))
        accept_path = (accepted + 1) / (step + 2) > 0.5
        source = x
        for row, (move, _) in zip(proposals[:n], draws):
            np.multiply(source, contraction, out=row)
            row += move
            source = row if accept_path else x
        batch = proposals[:n] if width > 1 else proposals[0].copy()
        lls = np.asarray(log_like(batch), dtype=np.float64).reshape(-1).tolist()
        evaluations += n
        state = x
        for k in range(n):
            accept = draws[k][1] < lls[k] - current_ll
            if accept:
                state, current_ll = proposals[k], lls[k]
                accepted += 1
            tail = step + k - first_kept
            if tail >= 0:
                kept_states[tail] = state
                kept_ll[tail] = current_ll
            if accept != accept_path:
                break
        x = state.copy()
        del draws[:k + 1]
        step += k + 1
        if step <= adapt_steps and step % ADAPT_BLOCK == 0:
            rate = (accepted - block_start_accepted) / ADAPT_BLOCK
            scale = math.exp((rate - ADAPT_TARGET) / math.sqrt(step // ADAPT_BLOCK))
            step_size = min(max(step_size * scale, 1e-4), 1.0)
            contraction = np.sqrt(1.0 - step_size ** 2)
            block_start_accepted = accepted
    return accepted, evaluations, step_size
