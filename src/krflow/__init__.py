"""Latent-space normalizing-flow inference for Darcy-flow inverse problems.

The package trains a field prior (VAE) on Gaussian-random-field data, a
label-free surrogate of the Darcy pressure solve, and a coupling
flow that transports a standard Gaussian to the latent posterior, with a
pCN-MCMC baseline for comparison.  Everything runs on a small in-repo
autodiff tape over numpy arrays.
"""

from .autodiff import NonFiniteError, ShapeError, Tensor, evaluate_with_gradients
from .config import ExperimentConfig, config_hash, desk_config, load_config, save_config
from .darcy import (ObservationOperator, ObservationSet, add_noise, lattice_operator,
                    log_likelihood, observe, solve_darcy)
from .flow import FlowConfig, FlowParams, init_flow, krnet_forward, krnet_inverse
from .grf import CovarianceSpec, FieldSample, Grid, KLBasis, generate_prior_dataset
from .inference import (McmcChain, PosteriorSummary, pcn_mcmc, posterior_moments,
                        relative_error, train_posterior_flow)
from .params import AdamState, ParamStore, adam_step
from .surrogate import SurrogateParams, energy_loss, surrogate_relative_error, train_surrogate
from .vae import ElboBreakdown, VaeParams, elbo_batch, sample_prior, train_vae

__version__ = "0.1.0"
