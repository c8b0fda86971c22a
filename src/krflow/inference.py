"""Latent-space posterior approximation and the pCN-MCMC baseline.

The trained decoder fixes a map from latents x to fields y, and the trained
surrogate replaces the forward solve inside the likelihood.  Both methods
target pi(x | D) ~ pi(D | surrogate(mu_de(x))) N(x; 0, I) through one latent
likelihood, the folded dense layers of :func:`make_surrogate_loglike`, which
runs as plain numpy for pCN and on the tape for the flow.

The coupling flow is fitted by reverse KL: draw z ~ N(0, I), pull back
through the flow inverse x = f^{-1}(z), and minimize

    mean log q(x)  -  mean log pi(D | x)  -  mean log N(x; 0, I),

where log q(x) = log N(z; 0, I) + log|det dx/dz|^{-1} is exact.  Decoder and
surrogate parameters stay frozen; gradients flow to the coupling networks
through the inverse map and the folded likelihood.

Posterior moments use the decoder-Gaussian estimators: the mean field is the
average of decoder means over flow samples and the variance field is the
average of decoder variances (the spread of decoder means across samples is
not folded in).

The pCN baseline samples the same latent posterior with the proposal
x' = sqrt(1 - beta^2) x + beta xi, whose acceptance ratio depends only on
the likelihood, and pushes retained states through the same decoder.  Given
step 0, the chain adapts beta during burn-in and freezes it for the retained
steps (Andrieu & Thoms 2008).  Every step draws its xi and its uniform
whether it accepts or not, so the next few proposals are fixed in advance
along a run of rejects or of accepts.  pCN evaluates the likelier run in
one call (up to ``PREFETCH_WIDTH`` proposals for a ``vectorized``
likelihood, one for any other) and walks it with the pre-drawn uniforms:
predictive prefetching (Brockwell 2006; Angelino et al. 2014).
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
from .params import adam_step, fit
from .report import write_loss_curve
from .surrogate import SurrogateParams, pressure_layers
# No longer called here; kept because the benchmark's tracer rebinds it by name.
from .surrogate import surrogate_forward_batch  # noqa: F401
from .vae import VaeParams, decode_batch, decoder_mean_layers

# Rows per batched likelihood call when pCN prefetches proposals.  A desk
# call reads 3.7 MB of weights whatever the batch, so 8 or 12 rows take about
# 0.4 ms and a chain's time follows its calls.  A bench-trained desk chain
# (acceptance 0.28) made 3,000 calls in 1.63 s at 8 rows, 2,832 in 1.56 s at
# 12, and 2,376 in 1.45 s as the older 12-row tree (medians of 12 runs; 2-CPU
# Xeon, OpenBLAS 0.3.31 at 2 threads).  8 evaluates the fewest rows.
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
                         log_like: Callable | None):
    """The three reverse-KL terms, batch-averaged (tape-compatible).

    ``log_like`` is the latent likelihood of :func:`make_surrogate_loglike`;
    with ``None`` the likelihood term is identically zero (flat-likelihood
    limit, used by sanity checks).
    """
    x, logdet_inv = krnet_inverse(z_batch, flow_params, flow_config, with_logdet=True)
    # log q(x) at x = f^{-1}(z): base density of z minus the inverse logdet
    base = std_normal_logpdf(z_batch)
    entropy = ad.mean_(ad.sub(base, logdet_inv))
    log_prior = ad.mean_(std_normal_logpdf(x))
    log_lik = 0.0 if log_like is None else ad.mean_(log_like(x))
    return entropy, log_lik, log_prior


def train_posterior_flow(flow_config: FlowConfig, vae: VaeParams,
                         surrogate: SurrogateParams, obs: ObservationSet,
                         config: InferenceSection, seed: int,
                         curve_path=None) -> FlowParams:
    """Fit the coupling flow to the latent posterior by mini-batch Adam.

    The base dataset Z of ``config.sample_size`` standard-normal draws is
    generated once; every epoch sweeps its mini-batches.  Decoder and
    surrogate are frozen throughout, folded once into the likelihood pCN
    uses.  Returns the final-epoch parameters.
    """
    flow = init_flow(flow_config, seed)
    z_data = np.random.default_rng(seed).standard_normal((config.sample_size, flow_config.dim))
    log_like = make_surrogate_loglike(vae, surrogate, obs)

    def program_for(z_batch):
        def program(leaves):
            entropy, log_lik, log_prior = posterior_flow_terms(
                z_batch, leaves, flow_config, log_like)
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
    """Decoder-Gaussian posterior moments of ``n_samples`` flow draws."""
    z = rng.standard_normal((n_samples, flow.config.dim))
    return posterior_moments_from_states(krnet_inverse(z, flow), vae, exact_field)


def posterior_moments_from_states(states: np.ndarray, vae: VaeParams,
                                  exact_field: np.ndarray | None = None
                                  ) -> PosteriorSummary:
    """Decoder-Gaussian posterior moments of an (n, d) set of latents.

    mean_field averages decoder means; variance_field averages decoder
    variances (exactly the headline estimator, which leaves out the spread
    of decoder means across samples).
    """
    mu, logvar = decode_batch(np.asarray(states, dtype=np.float64), vae.store, vae)
    shape = (vae.height, vae.width)
    mean_field = mu.mean(axis=0).reshape(shape)
    err = float("nan") if exact_field is None else relative_error(mean_field, exact_field)
    return PosteriorSummary(
        mean_field=mean_field,
        variance_field=np.exp(logvar).mean(axis=0).reshape(shape),
        relative_error=err,
        n_samples=len(mu),
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
                           obs: ObservationSet) -> Callable:
    """Latent-space log-likelihood x -> log pi(D | mu_de(x)) via the surrogate.

    The one latent likelihood of the package: pCN calls it on ndarrays and
    the flow on the tape.  The returned function takes one (d,) latent and
    returns a ``float``, an (n, d) batch and returns an (n,) array, or an
    (n, d) ``Tensor`` and returns an (n,) ``Tensor``; it carries
    ``vectorized = True``, so :func:`pcn_mcmc` evaluates its prefetched
    proposals in one call.  The weights are folded once, here, into dense
    layers that keep only what the likelihood reads; everything between two
    ReLUs is affine, so:

    - the decoder's mean head (its first H*W columns; the log-variance head
      is dropped), the map back to raw field units, the surrogate's input
      standardization and the surrogate's first layer become one layer;
    - the surrogate's output layer, the embedding of its pressure unknowns
      between the zero Dirichlet columns, the sensor interpolation and the
      division by the noise standard deviations become one (hidden, m) map
      to the whitened residual.

    The hidden layers of both networks are kept as they are.  A call is a
    chain of relu(h @ W + b) and one affine map.  The folds reassociate
    sums, so the value matches the composition decode_batch ->
    surrogate_forward_batch -> observation_matrix to 1e-12 relative, not bit
    for bit.  The tape and the ndarray batch compute the same values.  A
    batch row goes through matrix-matrix products where a (d,) call goes
    through vector-matrix ones, so these two agree in the last bits only:
    within 1e-15 of sum |z| (|target| + |h| @ |w_out|), the size of the
    terms the whitened residual z is summed from.  That is about 1e-15 of
    the value, and up to 1e-14 where z cancels.
    """
    hidden, w_out, target, log_norm = _folded_likelihood(vae, surrogate, obs)

    def log_like(x):
        h = x
        for w, b in hidden:
            h = ad.relu(ad.add(ad.matmul(h, w), b))
        z = ad.sub(target, ad.matmul(h, w_out))
        return ad.add(ad.mul(ad.sum_(ad.square(z), axis=-1), -0.5), log_norm)

    log_like.vectorized = True
    return log_like


def _folded_likelihood(vae: VaeParams, surrogate: SurrogateParams, obs: ObservationSet):
    """The folds of :func:`make_surrogate_loglike`: the hidden (W, b) layers,
    the output map and target of the whitened residual z = target - h @ w_out,
    and the log normalizer."""
    obs_matrix = observation_matrix(obs.operator, surrogate.grid)      # (m, HW)
    sigma = obs.sigma
    decoder = decoder_mean_layers(vae)
    body = pressure_layers(surrogate, obs_matrix.T / sigma)
    layers = decoder[:-1] + [_compose(decoder[-1], body[0])] + body[1:]
    hidden, (w_out, b_out) = layers[:-1], layers[-1]
    log_norm = float(np.sum(-np.log(sigma) - 0.5 * np.log(2.0 * np.pi)))
    return hidden, w_out, obs.values / sigma - b_out, log_norm


def _compose(first, second):
    """The affine map h -> (h @ W1 + b1) @ W2 + b2 as one (W, b) pair."""
    (w1, b1), (w2, b2) = first, second
    return w1 @ w2, b1 @ w2 + b2


def pcn_mcmc(log_like: Callable[[np.ndarray], float], dim: int, steps: int,
             step_size: float, seed: int, burn_keep: int) -> McmcChain:
    """Preconditioned Crank-Nicolson sampler for a standard-normal prior.

    Proposal x' = sqrt(1 - beta^2) x + beta xi with xi ~ N(0, I) preserves
    N(0, I), so the acceptance probability is the likelihood ratio alone.
    The last ``burn_keep`` states are retained; at least one must be.  Each
    step draws ``standard_normal(dim)`` and then ``uniform()`` from one
    generator seeded by ``seed``, whether the step accepts or not.

    ``step_size`` is beta in (0, 1], or 0 to adapt beta during burn-in, the
    first ``steps - burn_keep`` steps: from 0.2, each whole block n of
    ``ADAPT_BLOCK`` burn-in steps with acceptance a_n multiplies beta by
    exp((a_n - ADAPT_TARGET) / sqrt(n)), clipped to [1e-4, 1].  The retained
    steps run at the frozen beta, which the result reports as ``step_size``.

    Proposals are evaluated in prefetched paths (see :func:`_pcn_prefetch`).
    A ``log_like`` with a true ``vectorized`` attribute must also take an
    (n, d) array and return n values; it must not keep the array, which is
    reused.  It gets paths of at most ``PREFETCH_WIDTH`` proposals per call.
    Every step still sees its own xi and u and makes the same comparison, so
    the states and the accepted count are those of one call per step, as
    long as a batch row equals the (d,) value; where the two differ in the
    last bits, a decision could differ only when log u falls within that
    difference of the log ratio.  Any other callable gets paths of one, so
    it is called once per step with its own (d,) array.
    ``likelihood_evaluations`` of the result counts the rows evaluated, so
    its ratio to ``total_steps`` shows the prefetched work that went unused.
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

    Step t's proposal depends only on the state before it and on xi_t, and
    its decision only on the two log-likelihoods and u_t.  The draws do not
    depend on the decisions, so each round fixes its next n <= ``width``
    proposals in advance along one path: all from the current state (the
    reject path) while the chain's acceptance so far, (accepted + 1) /
    (steps done + 2), is at most 1/2, otherwise each from the one before
    (the accept path).  The path is evaluated in one call, then walked with
    the pre-drawn log u values exactly as one proposal per step decides, up
    to and including the first step that leaves it; the draws of steps not
    walked carry over to the next round.  At width 1 the path is one
    proposal, passed as a (d,) copy: the plain loop.  In the first
    ``adapt_steps`` steps, where the step adapts, a round stops at the next
    block boundary, so no step_size * xi spans a step change.  Returns the
    accepted count, the likelihood rows evaluated (the initial state
    included) and the final step.
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
